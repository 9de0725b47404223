"""Start the cli workload's `prefsat` commands from a small process.

    python3 bench/spawner.py

The kernel counts into a child's peak resident set the memory of the
process that started it, up to the point the child execs.  The benchmark
process has imported prefsat several times over, so it starts the cli
commands through this process, which holds only the standard library.

Protocol, one JSON value per line: a request is a command line (a list of
strings) and gets {"code", "stdout", "stderr"}, or {"error"} if the command
could not be run; `null` gets {"maxrss_kb"}, the largest peak resident set
of any command run so far.
"""
import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd is None:
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        else:
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
                reply = {"code": proc.returncode, "stdout": proc.stdout,
                         "stderr": proc.stderr}
            except (OSError, subprocess.TimeoutExpired) as e:
                reply = {"error": f"{type(e).__name__}: {e}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
