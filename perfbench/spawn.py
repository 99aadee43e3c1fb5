"""Run one command and report its own wall time, CPU time and peak RSS.

Usage: python3 -I -S spawn.py TIMEOUT_S PROGRAM ARGS...

The command inherits stdin, stdout and stderr.  After it exits, one line
``RUSAGE <wall_s> <cpu_s> <maxrss_kb>`` goes to stderr and this process
exits with the command's status.  Resources come from ``os.wait4`` on the
command's own pid.

This runs in a small interpreter on purpose: Linux starts a new program's
``ru_maxrss`` at the resident size of the process that spawned it, so a
command spawned straight from the larger benchmark process would report
that process's size whenever its own peak is lower.
"""

import os
import signal
import sys
import time


def main() -> int:
    timeout = float(sys.argv[1])
    argv = sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)

    def kill(*_):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:   # exited just as the timer fired
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    sys.stderr.write(f"RUSAGE {wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}\n")
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
