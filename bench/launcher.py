"""Starts benchmark operations for run.py and reports how each one went.

On Linux a child's peak RSS (ru_maxrss) starts from the RSS of the
process that spawned it, so operations started straight from run.py,
which grows while it parses large outputs, would report run.py's memory.
This small process starts every operation instead.  It reads one JSON
request per line on stdin:

    {"cmd": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}

runs the command with its output sent to the two files, reaps it with
os.wait4, and answers with one JSON line: exit code, peak RSS in KiB,
user+system CPU seconds, monotonic start and end in ns, and whether the
timeout killed it.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    killed = threading.Event()
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(request["timeout"], kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic_ns()
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "start_ns": start,
        "end_ns": end,
        "timed_out": killed.is_set() and proc.returncode == -9,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
