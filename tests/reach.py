"""Count the statements of src/swhid that the Tier-1 suite does not reach.

    python tests/reach.py [pytest arguments]

The script runs pytest in its own process under a line tracer
(sys.settrace and threading.settrace; no coverage package is needed), and
every child that the suite starts through subprocess runs the same tracer:
the tracer is the sitecustomize.py of a temporary directory, which the
script puts first on each child's PYTHONPATH. Each process writes the lines
it ran into that directory as it exits. src/ itself is never written to.

A statement is a line that ast names as a statement's first line, and whose
lines compile to code; a compound statement's lines are its header's. Code
under `if TYPE_CHECKING:` is for type checkers and is not counted. A
statement is reached when any of its lines ran, in the suite's process or in
a child; so a multi-line condition whose first line never gets a line event
of its own still counts.
The script prints the number of statements and of unreached ones, then each
unreached file:line, with its reason where EXPLAINED gives one. A child that
is killed, or that leaves through os._exit, reports nothing. Tier-1 does not
run this script.
"""
from __future__ import annotations

import ast
import atexit
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "swhid"
# Statements that no test can reach, each with why; none today.
EXPLAINED: Dict[str, str] = {}

TRACER = '''
import atexit, os, sys, threading

_package = {package!r}
_lines = set()


def _line(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_package):
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
        return _line
    return None


def _save(out=os.path.dirname(os.path.abspath(__file__))):
    sys.settrace(None)
    threading.settrace(None)
    with open(os.path.join(out, "lines-%d.txt" % os.getpid()), "a") as fh:
        fh.writelines("%s\\t%d\\n" % line for line in _lines)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_save)
'''


def _code_lines(code) -> Iterator[int]:
    """The line of each instruction of code and of the code objects it holds."""
    for _, _, line in code.co_lines():
        if line is not None:
            yield line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_lines(const)


def statements(path: Path) -> Dict[int, Set[int]]:
    """{first line: its lines} of each statement of path whose lines compile to code."""
    source = path.read_text()
    compiled = set(_code_lines(compile(source, str(path), "exec")))
    found, typing_only = {}, set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or node.lineno in typing_only:
            continue
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            typing_only.update(range(node.lineno, node.end_lineno + 1))
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        lines = set(range(start, max(end, node.lineno) + 1)) & compiled
        if lines:
            found[node.lineno] = lines
    return found


def _trace_children(directory: str) -> None:
    """Make every subprocess start with directory first on its PYTHONPATH."""
    start = subprocess.Popen.__init__

    def traced(self, *args, env=None, **kwargs):
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [directory, env.get("PYTHONPATH")]))
        start(self, *args, env=env, **kwargs)

    subprocess.Popen.__init__ = traced


def main(argv=None) -> int:
    import pytest

    lines: Set[Tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as directory:
        tracer_path = Path(directory, "sitecustomize.py")
        tracer_path.write_text(TRACER.format(package=str(PACKAGE) + os.sep))
        _trace_children(directory)
        sys.path.insert(0, str(ROOT / "src"))
        spec = importlib.util.spec_from_file_location("reach_tracer", tracer_path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)  # traces this process from here on
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or sys.argv[1:])])
        finally:
            tracer._save()
            atexit.unregister(tracer._save)
        for report in Path(directory).glob("lines-*.txt"):
            for row in report.read_text().splitlines():
                name, number = row.rsplit("\t", 1)
                lines.add((name, int(number)))
    total, unreached = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for first, span in sorted(statements(path).items()):
            total += 1
            if not any((str(path), n) in lines for n in span):
                unreached.append(f"{path.name}:{first}")
    print(f"pytest exit status {status}; {total} statements, {len(unreached)} unreached")
    for where in unreached:
        print(f"  {where}" + (f"  ({EXPLAINED[where]})" if where in EXPLAINED else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
