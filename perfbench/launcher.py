"""Start the benchmark's child processes one at a time and report their rusage.

    python3 perfbench/launcher.py

Reads one JSON request per line on stdin ({"args", "out", "err",
"timeout"}), runs it to completion with stdout and stderr sent to the named
files, and answers with one JSON line: wall time, exit code and wait4's
rusage. Linux carries the peak RSS of the process that forked across exec,
so a child forked straight from the benchmark (hundreds of MiB of inputs
and samples) would report the benchmark's peak, not its own. Forked from
this small process, a child's ru_maxrss is its own. SIGTERM kills the
running child, reaps it and exits.

The process has one thread, so that SIGTERM always interrupts the read or
wait it is blocked in; a signal delivered to another thread would leave
the main thread blocked. The timeout is a SIGALRM for the same reason.
"""
import json
import os
import signal
import subprocess
import sys
import time

current = None


def stop(*_):
    if current is not None and current.returncode is None:
        try:
            current.kill()
            os.waitpid(current.pid, 0)
        except OSError:  # reaped between wait4 and returncode
            pass
    sys.exit(1)


signal.signal(signal.SIGTERM, stop)
signal.signal(signal.SIGALRM, lambda *_: current.kill())
for line in sys.stdin:
    request = json.loads(line)
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        start = time.perf_counter()
        current = subprocess.Popen(request["args"], stdout=out, stderr=err)
        signal.alarm(request["timeout"])
        try:
            _, status, usage = os.wait4(current.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
        current.returncode = os.waitstatus_to_exitcode(status)
    answer = {
        "wall_s": wall,
        "code": current.returncode,
        "rss_mib": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "minflt": usage.ru_minflt,
    }
    sys.stdout.write(json.dumps(answer) + "\n")
    sys.stdout.flush()
