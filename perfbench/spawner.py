"""Runs child processes one at a time and reports their resource use.

Reads one JSON request per line on stdin,
``{"argv": [...], "stdout": PATH, "stderr": PATH}``, starts the program
with ``posix_spawn``, reaps it with ``wait4`` and answers with one JSON line
``{"code", "wall_s", "cpu_s", "maxrss_kb"}``.

Linux carries the peak resident set of a process across ``exec`` into its
child (``ru_maxrss`` starts at the parent's high-water mark).  The benchmark
process grows while it computes reference answers, so it starts this small
process first, before it imports numpy, and lets it launch every measured
call.  The peak each call reports is then its own.
"""

import json
import os
import sys
import time


def main() -> int:
    env = dict(os.environ)
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
        ]
        argv = req["argv"]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        reply = {
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
