"""Run sshat commands in one interpreter and check its peak RSS.

Usage:

    python tests/_peak_rss.py LIMIT_MB "CMD" ["CMD" ...]

Each CMD is a string of ``sshat`` arguments, split as a POSIX shell would
split it, and runs through ``sshat.cli.main`` with ``--out`` naming a file in
a temporary directory (under ``$RUNNER_TEMP`` when that is set).  The script
stops with a non-zero exit, naming the command, at the first command that
returns non-zero.  After the last command it prints the process's peak RSS
(``ru_maxrss``) and exits non-zero if that is above LIMIT_MB.
"""

import os
import resource
import shlex
import sys
import tempfile

from sshat.cli import main


def run(limit_mb: float, commands) -> str | None:
    """The failure message of the first failing check, or None when all pass."""
    with tempfile.TemporaryDirectory(dir=os.environ.get("RUNNER_TEMP")) as out:
        for i, command in enumerate(commands):
            if main(shlex.split(command) + ["--out", os.path.join(out, f"{i}.out")]):
                return f"sshat {command} failed"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB")
    if peak > limit_mb:
        return f"peak RSS {peak:.1f} MB exceeds {limit_mb:g} MB"
    return None


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(run(float(sys.argv[1]), sys.argv[2:]))
