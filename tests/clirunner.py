"""Run swhid.cli.main in-process, with its output captured.

CliRunner().invoke(main, args, env=...) calls main(args) with sys.stdout
and sys.stderr captured and os.environ updated by env (a None value unsets
a variable), and restores all three afterwards. The Result gives
exit_code; output, stdout and stderr as text and as bytes, where output
interleaves stdout and stderr in the order they were written; and
exception: the SystemExit when the exit code is not 0, or any other
exception main raised, which counts as exit code 1.

Stream handling such as a closed stdout pipe cannot show here; the tests
that pin it run real children.
"""
import dataclasses
import io
import os
import sys
from typing import Optional


class _Tee(io.BytesIO):
    """Keeps what is written, and copies it into a shared mixed stream."""

    def __init__(self, mixed: io.BytesIO):
        super().__init__()
        self.mixed = mixed

    def write(self, data) -> int:
        self.mixed.write(data)
        return super().write(data)


def _text(data: bytes) -> str:
    return data.decode("utf-8", "replace").replace("\r\n", "\n")


@dataclasses.dataclass
class Result:
    exit_code: int
    stdout_bytes: bytes
    stderr_bytes: bytes
    output_bytes: bytes
    exception: Optional[BaseException]

    @property
    def stdout(self) -> str:
        return _text(self.stdout_bytes)

    @property
    def stderr(self) -> str:
        return _text(self.stderr_bytes)

    @property
    def output(self) -> str:
        return _text(self.output_bytes)


class CliRunner:
    def invoke(self, cli, args=(), env=None) -> Result:
        mixed = io.BytesIO()
        out, err = _Tee(mixed), _Tee(mixed)
        saved_streams = sys.stdout, sys.stderr
        saved_env = {key: os.environ.get(key) for key in env or {}}
        # Held until the end: a collected wrapper closes the stream under it.
        wrappers = (
            io.TextIOWrapper(out, encoding="utf-8", write_through=True),
            io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace", write_through=True),
        )
        sys.stdout, sys.stderr = wrappers
        exception = None
        try:
            for key, value in (env or {}).items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            cli(list(args))
            exit_code = 0
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
            if exit_code != 0:
                exception = exc
        except Exception as exc:
            exit_code, exception = 1, exc
        finally:
            sys.stdout, sys.stderr = saved_streams
            for key, value in saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        return Result(exit_code, out.getvalue(), err.getvalue(), mixed.getvalue(), exception)
