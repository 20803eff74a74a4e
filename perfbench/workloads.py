"""The three workloads: seeded set-up, one timed round of ops, one traced round.

Load is closed-loop from this one process: one CLI child at a time (started
by launcher.py), and one library client with at most one open connection to
the mock archive. Every
op's outcome is checked against an oracle that does not share code with
swhid (git, hashlib, the generators' own expectations) and counted in Run.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import gen
import oracle
from spans import Tracer, low, median, proc_io, tail

import swhid.ingest
import swhid.resolve
from swhid import (
    Content,
    ObjectStore,
    SwhidParseError,
    content_id,
    describe_nodes,
    fetch_content_verified,
    format_swhid,
    ingest_path,
    object_id_of,
    parse,
    realize_descriptions,
    resolve_metadata,
    validate,
    verify_path,
)
from swhid.errors import IntegrityMismatchError, NotFoundInArchiveError

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120
SLICE = 2_000  # corpus ids per syntax op batch
SLICES_PER_ROUND = 5
LOOKUPS = 200  # archive lookups per round
MIB = 1 << 20


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


class Run:
    """Samples and op outcomes of one benchmark run."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.values: Dict[str, float] = {}
        self.counts: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.launcher = Launcher()

    def check(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def attempt(self, what: str, fn: Callable, *args):
        """Run one op; an uncaught exception is a failed op, not a crash."""
        try:
            return fn(*args)
        except Exception:
            self.check(False, f"{what}: {traceback.format_exc(limit=3)}")
            return None


@dataclasses.dataclass
class Child:
    wall_s: float
    code: int
    out: bytes
    err: bytes
    rss_mib: float
    cpu_s: float
    minflt: int


class Launcher:
    """Runs children through launcher.py, so each one's peak RSS is its own."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )

    def run(self, args: List[str], work: Path) -> Child:
        out, err = work / "child.out", work / "child.err"
        request = {"args": args, "out": str(out), "err": str(err), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        answer = json.loads(self.proc.stdout.readline())
        return Child(out=out.read_bytes(), err=err.read_bytes(), **answer)

    def close(self) -> None:
        # End of input stops an idle launcher; SIGTERM stops one whose child
        # is still running (the benchmark is unwinding from an error). A
        # signal that lands just before a blocking read waits in Python
        # until the read returns, which end of input makes it do.
        self.proc.stdin.close()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "swhid.cli", *args]


def clean_exit(child: Child, code: int) -> bool:
    return child.code == code and b"Traceback" not in child.err


def import_cli(run: Run, work: Path) -> None:
    child = run.launcher.run([sys.executable, "-c", "import swhid.cli"], work)
    if run.check(clean_exit(child, 0), f"import swhid.cli: {child.err[-300:]!r}"):
        run.samples["cli.import_s"].append(child.wall_s)


# --- trees -------------------------------------------------------------------


@dataclasses.dataclass
class TreeState:
    work: Path
    tree: gen.Tree
    root_hex: str
    nodes: Dict[str, tuple]  # rel path -> (type, hex), from git
    mutated: gen.Tree
    edits: List[gen.Edit]
    reference: Path
    excludes: List[str] = dataclasses.field(default_factory=lambda: [gen.EXCLUDE])


class TreeWorkload:
    """tree-many-small: identify at two job counts, and verify a mutated copy.

    Creating a file cost 30-600 us on the ext4 VM this was tuned on,
    varying over minutes, so writing the tree dominates set-up and export;
    the export runs in traced runs only.
    """

    setups = 3

    def setup(self, seed: int, work: Path, run: Run) -> TreeState:
        tree = gen.many_small_tree(seed, work / "tree")
        gitdir = oracle.init(work / "git")
        root_hex, nodes = oracle.tree_ids(gitdir, tree.root, tree.files + tree.links)
        mutated = gen.link_copy(tree, work / "mutated")
        edits = gen.mutate(mutated, seed)
        oracle.tree_store(gitdir, nodes, root_hex, work / "reference")
        state = TreeState(work, tree, root_hex, nodes, mutated, edits, work / "reference")
        import_cli(run, work)  # compiles the package once, as an installed copy would be
        # One untimed identify: the first read after writing the tree is slower.
        run.attempt("identify", self.identify, state, run, 1)
        return state

    def teardown(self, state: TreeState, run: Run) -> None:
        pass

    # -- ops

    def identify(self, state: TreeState, run: Run, jobs: int) -> Optional[Child]:
        top = str(state.tree.root)
        child = run.launcher.run(cli("identify", "--jobs", str(jobs), "--recursive", "--json", "--exclude", gen.EXCLUDE, top), state.work)
        expected = {os.path.join(top, rel): f"swh:1:{kind}:{hexid}" for rel, (kind, hexid) in state.nodes.items()}
        expected[top] = f"swh:1:dir:{state.root_hex}"
        rows = json.loads(child.out) if child.code == 0 else []
        ok = len(rows) == len(expected) and {r["path"]: r["swhid"] for r in rows} == expected
        if run.check(clean_exit(child, 0) and ok, f"identify --jobs {jobs}: wrong ids or exit {child.code}"):
            return child
        return None

    def verify(self, state: TreeState, run: Run) -> Optional[Child]:
        child = run.launcher.run(
            cli("verify", "--json", "--exclude", gen.EXCLUDE, "--objects", str(state.reference),
                f"swh:1:dir:{state.root_hex}", str(state.mutated.root)),
            state.work,
        )
        report = json.loads(child.out) if child.code == 1 else {}
        got = sorted((d["path"], d["expected"], d["actual"], d["note"]) for d in report.get("detail", []))
        want = sorted(dataclasses.astuple(e) for e in state.edits)
        ok = report.get("expected") == f"swh:1:dir:{state.root_hex}" and got == want
        if run.check(clean_exit(child, 1) and ok, f"verify: exit {child.code}, mismatches {got} != {want}"):
            run.samples["verify_s"].append(child.wall_s)
            run.samples["verify_rss_mib"].append(child.rss_mib)
            return child
        return None

    def round(self, state: TreeState, run: Run) -> None:
        # The gated ops, identify --jobs 1 and verify, run twice per round.
        for _ in range(2):
            self.timed_identify(state, run, 1)
            run.attempt("verify", self.verify, state, run)
        self.timed_identify(state, run, 2)

    def timed_identify(self, state: TreeState, run: Run, jobs: int) -> None:
        key = "identify" if jobs == 1 else "identify_jobs2"
        child = run.attempt(key, self.identify, state, run, jobs)
        if child is not None:
            run.samples[f"{key}_s"].append(child.wall_s)
            run.samples[f"{key}_rss_mib"].append(child.rss_mib)

    def once(self, state: TreeState, run: Run, tracer: Optional[Tracer]) -> None:
        """Traced runs only: the export into an empty dir, and the floors."""
        if tracer is None:
            return
        run.attempt("export", self.traced_store, state, run, tracer)
        run.attempt("floors", self.floors, state, run)

    def e2e(self, run: Run) -> Dict[str, float]:
        s = run.samples
        return {
            "main_s": low(s["identify_s"]),
            "second_s": low(s["verify_s"]),
            "peak_rss_mib": median(s["identify_rss_mib"]),
        }

    # -- traced round

    def traced_round(self, state: TreeState, run: Run, tracer: Tracer) -> None:
        tree, excludes = state.tree, state.excludes
        import_cli(run, state.work)
        for jobs, key in ((1, "cli.identify"), (2, "cli.identify_jobs2")):
            child = run.attempt(key, self.identify, state, run, jobs)
            if child is not None:
                run.samples[f"{key}_cpu_s"].append(child.cpu_s)
                if jobs == 1:
                    run.samples["cli.identify_minflt"].append(child.minflt)
        # Untraced ingest: the overhead baseline and the I/O counters.
        before = proc_io()
        start = time.perf_counter()
        root_id, store = ingest_path(tree.root, excludes)
        run.samples["untraced_s"].append(time.perf_counter() - start)
        after = proc_io()
        run.check(root_id.object_id.hex == state.root_hex, "ingest_path: root differs from git")
        run.samples["ingest.read_bytes_ratio"].append((after["rchar"] - before["rchar"]) / tree.payload_bytes)
        run.samples["ingest.read_syscalls"].append(after["syscr"] - before["syscr"])
        del store
        for jobs, key in ((1, "ingest.ingest_path"), (2, "ingest.ingest_path_jobs2")):
            self.patch(tracer)
            try:
                root_id, store = tracer.call(key, ingest_path, tree.root, excludes, jobs=jobs)
            finally:
                tracer.unpatch()
            run.check(root_id.object_id.hex == state.root_hex, f"{key}: root differs from git")
            op = tracer.last_op()
            run.samples[f"{key}_s"].append(tracer.durations(key, op)[0])
            if jobs == 1:
                insertions = sum(store.insertions(*key_) for key_ in store)
                model_calls = len(tracer.durations("model.manifest_of", op)) + len(tracer.durations("model.object_id_of", op))
                model_s = sum(tracer.durations("model.manifest_of", op)) + sum(tracer.durations("model.object_id_of", op))
                run.samples["ingest.ingest_path_self_s"].append(tracer.durations(key, op)[0] - model_s)
                run.samples["ingest.objects"].append(len(store))
                run.samples["ingest.insertions"].append(insertions)
                run.samples["ingest.dedup_ratio"].append(1 - len(store) / insertions)
                run.samples["model.manifest_calls_per_insert"].append(model_calls / insertions)
            del store
        # content_id over bytes read here, outside the timer.
        total = 0.0
        links = set(tree.links)
        for rel in tree.files + tree.links:
            path = tree.root / rel
            data = os.readlink(path).encode() if rel in links else path.read_bytes()
            start = time.perf_counter()
            digest = content_id(Content(data))
            total += time.perf_counter() - start
            if digest.hex != state.nodes[rel][1]:
                run.check(False, f"content_id {rel} differs from git")
        run.check(True, "content_id pass")
        run.samples["model.content_id_s"].append(total)
        run.samples["model.content_mib_per_s"].append(tree.payload_bytes / MIB / total)

    def traced_store(self, state: TreeState, run: Run, tracer: Tracer) -> None:
        """Export (ingest_path + save into an empty dir), then load + verify_path."""
        dest = state.work / "export"
        start = time.perf_counter()
        root_id, store = ingest_path(state.tree.root, state.excludes)
        before = proc_io()
        tracer.call("ingest.store_save", store.save, dest)
        run.samples["export_s"].append(time.perf_counter() - start)
        run.samples["ingest.store_write_bytes"].append(proc_io()["wchar"] - before["wchar"])
        run.samples["ingest.store_save_s"].append(tracer.durations("ingest.store_save", tracer.last_op())[0])
        del store
        saved = {bucket.name + item.name for bucket in (dest / "objects").iterdir() for item in bucket.iterdir()}
        expected = {hexid for _, hexid in state.nodes.values()} | {state.root_hex}
        run.check(root_id.object_id.hex == state.root_hex and saved == expected, "export: wrong root or object set")
        reference = tracer.call("ingest.store_load", ObjectStore.load, state.reference)
        run.samples["ingest.store_load_s"].append(tracer.durations("ingest.store_load", tracer.last_op())[0])
        report = tracer.call(
            "ingest.verify_path", verify_path, parse(f"swh:1:dir:{state.root_hex}"), state.mutated.root,
            reference=reference, excludes=state.excludes,
        )
        run.samples["ingest.verify_path_s"].append(tracer.durations("ingest.verify_path", tracer.last_op())[0])
        run.samples["ingest.mismatches"].append(len(report.detail))
        got = sorted((d.path, d.expected_hex, d.actual_hex, d.note) for d in report.detail)
        run.check(got == sorted(dataclasses.astuple(e) for e in state.edits), "verify_path: wrong mismatches")

    def patch(self, tracer: Tracer) -> None:
        tracer.patch(swhid.ingest, "manifest_of", "model.manifest_of")
        tracer.patch(swhid.ingest, "object_id_of", "model.object_id_of")

    def floors(self, state: TreeState, run: Run) -> None:
        """Reference costs of the same bytes outside the program: raw read+sha1 and git."""
        tree = state.tree
        start = time.perf_counter()
        digests = {}
        for rel in tree.files:
            with open(tree.root / rel, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                h = hashlib.sha1(b"blob %d\x00" % size)
                while chunk := fh.read(MIB):
                    h.update(chunk)
            digests[rel] = h.hexdigest()
        run.values["floor.read_sha1_s"] = time.perf_counter() - start
        run.check(all(digests[r] == state.nodes[r][1] for r in tree.files), "read+sha1 floor disagrees with git")
        start = time.perf_counter()
        oracle.hash_object_floor(tree.root, tree.files)
        run.values["floor.git_hash_object_s"] = time.perf_counter() - start


# --- history -----------------------------------------------------------------


@dataclasses.dataclass
class HistoryState:
    work: Path
    newest: Path
    newest_bytes: bytes
    expected: List[str]  # ids in document order, from git and hashlib
    corpus: gen.Corpus
    slices: int = 0


class HistoryWorkload:
    setups = 3

    def setup(self, seed: int, work: Path, run: Run) -> HistoryState:
        work.mkdir(parents=True)
        hist = gen.history(seed)
        newest = work / "newest-first.json"
        newest.write_bytes(hist.newest_first)
        gitdir = oracle.init(work / "git")
        revs = oracle.hash_texts(gitdir, "commit", hist.commits, work / "texts")
        tags = oracle.hash_texts(gitdir, "tag", hist.tags, work / "texts")
        expected = [f"swh:1:snp:{hist.snapshot_hex}"]
        expected += [f"swh:1:rel:{h}" for h in tags] + [f"swh:1:rev:{h}" for h in revs]
        oldest = [str(s) for s, _ in realize_descriptions(describe_nodes(hist.oldest_first))]
        run.check(oldest == expected[::-1], "oldest-first realization differs from git/hashlib ids")
        state = HistoryState(work, newest, hist.newest_first, expected, gen.corpus(seed))
        import_cli(run, work)
        return state

    def teardown(self, state: HistoryState, run: Run) -> None:
        pass

    def once(self, state: HistoryState, run: Run, tracer: Optional[Tracer]) -> None:
        pass

    def realize(self, state: HistoryState, run: Run) -> None:
        child = run.launcher.run([sys.executable, str(HERE / "realize_client.py"), str(state.newest)], state.work)
        ok = child.out.decode().split("\n")[:-1] == state.expected
        if run.check(clean_exit(child, 0) and ok, f"realize: exit {child.code} or ids differ"):
            run.samples["realize_s"].append(child.wall_s)
            run.samples["realize_rss_mib"].append(child.rss_mib)

    def next_slice(self, state: HistoryState) -> range:
        start = (state.slices * SLICE) % len(state.corpus.texts)
        state.slices += 1
        return range(start, start + SLICE)

    def check_syntax(self, state: HistoryState, run: Run, span: range, parsed: list, formatted: list, diags: list) -> int:
        corpus = state.corpus
        bad = 0
        rejected = 0
        f = iter(formatted)
        for i, value, found in zip(span, parsed, diags):
            kinds = tuple(d.kind.value for d in found)
            if corpus.error[i] is None:
                ok = not isinstance(value, SwhidParseError) and str(value) == corpus.canonical[i] \
                    and next(f) == corpus.canonical[i] and kinds == corpus.warnings[i]
            else:
                rejected += 1
                ok = isinstance(value, SwhidParseError) and value.diagnostic.kind.value == corpus.error[i] \
                    and corpus.error[i] in kinds
            if not ok:
                bad += 1
                run.check(False, f"syntax: {corpus.texts[i]!r} gave {value!r} / {kinds}")
        run.check(True, "syntax", len(span) - bad)
        return rejected

    def syntax(self, state: HistoryState, run: Run) -> None:
        span = self.next_slice(state)
        texts = state.corpus.texts[span.start : span.stop]
        start = time.perf_counter()
        parsed = []
        for text in texts:
            try:
                parsed.append(parse(text))
            except SwhidParseError as exc:
                parsed.append(exc)
        formatted = [format_swhid(v) for v in parsed if not isinstance(v, SwhidParseError)]
        diags = [validate(text) for text in texts]
        elapsed = time.perf_counter() - start
        self.check_syntax(state, run, span, parsed, formatted, diags)
        run.samples["slice_s"].append(elapsed)

    def round(self, state: HistoryState, run: Run) -> None:
        run.attempt("realize", self.realize, state, run)
        for _ in range(SLICES_PER_ROUND):
            run.attempt("syntax", self.syntax, state, run)

    def e2e(self, run: Run) -> Dict[str, float]:
        s = run.samples
        run.values["parse_ids_per_s"] = SLICE / low(s["slice_s"])
        return {
            "main_s": low(s["realize_s"]),
            "second_s": low(s["slice_s"]),
            "peak_rss_mib": median(s["realize_rss_mib"]),
        }

    def patch(self, tracer: Tracer) -> None:
        tracer.patch(swhid.ingest, "object_id_of", "model.object_id_of")

    def traced_round(self, state: HistoryState, run: Run, tracer: Tracer) -> None:
        start = time.perf_counter()
        realize_descriptions(describe_nodes(state.newest_bytes))
        run.samples["untraced_s"].append(time.perf_counter() - start)
        descriptions = tracer.call("ingest.describe", describe_nodes, state.newest_bytes)
        run.samples["ingest.describe_s"].append(tracer.durations("ingest.describe", tracer.last_op())[0])
        self.patch(tracer)
        try:
            realized = tracer.call("ingest.realize", realize_descriptions, descriptions)
        finally:
            tracer.unpatch()
        run.samples["ingest.realize_s"].append(tracer.durations("ingest.realize", tracer.last_op())[0])
        run.samples["traced_s"].append(run.samples["ingest.describe_s"][-1] + run.samples["ingest.realize_s"][-1])
        run.check([str(s) for s, _ in realized] == state.expected, "realize: ids differ")
        total = 0.0
        for _, node in realized:
            start = time.perf_counter()
            object_id_of(node)
            total += time.perf_counter() - start
        run.samples["model.node_id_s"].append(total)
        span = self.next_slice(state)
        texts = state.corpus.texts[span.start : span.stop]
        first = len(tracer.spans)
        parsed = []
        for text in texts:
            try:
                parsed.append(tracer.call("syntax.parse", parse, text))
            except SwhidParseError as exc:
                parsed.append(exc)
        formatted = [tracer.call("syntax.format", format_swhid, v) for v in parsed if not isinstance(v, SwhidParseError)]
        diags = [tracer.call("syntax.validate", validate, text) for text in texts]
        recent = tracer.spans[first:]
        for name in ("parse", "format", "validate"):
            run.samples[f"syntax.{name}_s"].append(sum(e - s for _, sn, s, e, _, _ in recent if sn == f"syntax.{name}"))
        run.samples["syntax.rejected"].append(self.check_syntax(state, run, span, parsed, formatted, diags))


# --- archive -----------------------------------------------------------------


@dataclasses.dataclass
class ArchiveState:
    work: Path
    seed: int
    sample: gen.ArchiveSet
    server: subprocess.Popen
    endpoint: str
    rounds: int = 0
    counters: Optional[dict] = None


class ArchiveWorkload:
    setups = 3

    CLI_ROTATION = ("ok", "corrupted", "ok", "not_found", "ok")

    def setup(self, seed: int, work: Path, run: Run) -> ArchiveState:
        work.mkdir(parents=True)
        sample = gen.archive_set(seed)
        server = subprocess.Popen(
            [sys.executable, str(HERE / "archive_server.py"), str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )
        port = int(server.stdout.readline())
        state = ArchiveState(work, seed, sample, server, f"http://127.0.0.1:{port}")
        import_cli(run, work)
        return state

    def teardown(self, state: ArchiveState, run: Run) -> None:
        state.server.stdin.close()
        state.counters = json.loads(state.server.stdout.readline() or "{}")
        state.server.wait(timeout=30)
        state.server.stdout.close()

    def once(self, state: ArchiveState, run: Run, tracer: Optional[Tracer]) -> None:
        pass

    def lookup(self, state: ArchiveState, run: Run, outcome: str, hexid: str, call: Callable) -> Optional[bytes]:
        core = parse(f"swh:1:cnt:{hexid}").core
        data = None
        start = time.perf_counter()
        try:
            call("resolve.metadata", resolve_metadata, core, state.endpoint)
            data = call("resolve.fetch", fetch_content_verified, core, state.endpoint)
            got = "ok"
        except NotFoundInArchiveError:
            got = "not_found"
        except IntegrityMismatchError:
            got = "corrupted"
        elapsed = time.perf_counter() - start
        ok = got == outcome and (got != "ok" or data == state.sample.contents[hexid])
        if run.check(ok, f"lookup {hexid}: expected {outcome}, got {got}"):
            run.samples["lookup_s"].append(elapsed)
            run.counts[got] += 1
            if data is not None:
                run.counts["fetch_bytes"] += len(data)
        return data

    def resolve_cli(self, state: ArchiveState, run: Run) -> None:
        outcome = self.CLI_ROTATION[state.rounds % len(self.CLI_ROTATION)]
        pool = {"ok": state.sample.good, "corrupted": state.sample.corrupted, "not_found": state.sample.unknown}[outcome]
        hexid = pool[state.rounds % len(pool)]
        target = state.work / f"fetched-{state.rounds}"
        child = run.launcher.run(
            cli("resolve", "--check", "--fetch", str(target), "--endpoint", state.endpoint, "--json", f"swh:1:cnt:{hexid}"),
            state.work,
        )
        code = {"ok": 0, "corrupted": 1, "not_found": 3}[outcome]
        wrote = target.read_bytes() if target.exists() else None
        ok = wrote == (state.sample.contents[hexid] if outcome == "ok" else None)
        if run.check(clean_exit(child, code) and ok, f"resolve {outcome}: exit {child.code}, wrote {wrote is not None}"):
            run.samples["resolve_cli_s"].append(child.wall_s)
            run.samples["resolve_cli_rss_mib"].append(child.rss_mib)

    def lookups(self, state: ArchiveState, run: Run, call: Callable) -> None:
        rng = random.Random(f"archive-lookups:{state.seed}:{state.rounds}")
        for outcome, hexid in gen.lookups(state.sample, rng, LOOKUPS):
            run.attempt("lookup", self.lookup, state, run, outcome, hexid, call)

    def round(self, state: ArchiveState, run: Run) -> None:
        self.lookups(state, run, lambda _name, fn, *args: fn(*args))
        run.attempt("resolve", self.resolve_cli, state, run)
        state.rounds += 1

    def e2e(self, run: Run) -> Dict[str, float]:
        s = run.samples
        label, value = tail(s["lookup_s"])
        run.values["fetch_p50_ms"] = median(s["lookup_s"]) * 1000
        run.values[f"fetch_{label}_ms"] = value * 1000
        return {
            "main_s": low(s["lookup_s"]),
            "second_s": low(s["resolve_cli_s"]),
            "peak_rss_mib": median(s["resolve_cli_rss_mib"]),
        }

    def patch(self, tracer: Tracer) -> None:
        tracer.patch(swhid.resolve, "content_id", "model.content_id")

    def traced_round(self, state: ArchiveState, run: Run, tracer: Tracer) -> None:
        import_cli(run, state.work)
        before = len(run.samples["lookup_s"])
        self.lookups(state, run, lambda _name, fn, *args: fn(*args))
        run.samples["untraced_s"].append(median(run.samples["lookup_s"][before:]))
        before = len(run.samples["lookup_s"])
        self.patch(tracer)
        try:
            self.lookups(state, run, lambda name, fn, *args: tracer.call(name, fn, *args))
        finally:
            tracer.unpatch()
        run.samples["traced_s"].append(median(run.samples["lookup_s"][before:]))
        run.attempt("resolve", self.resolve_cli, state, run)
        state.rounds += 1


WORKLOADS = {
    "tree-many-small": TreeWorkload(),
    "history": HistoryWorkload(),
    "archive": ArchiveWorkload(),
}
