"""Run a command, print its peak resident set, fail above a limit.

    python benchmarks/peak_rss.py LIMIT_MB COMMAND [ARG ...]

The peak is ``ru_maxrss`` of the reaped child (``getrusage`` of
``RUSAGE_CHILDREN``), so it is the command's own high-water mark, not this
wrapper's.  Exits with the command's status if that is non-zero, else 1
when the peak exceeds ``LIMIT_MB`` (``0`` sets no limit).  CI's
``e1-10k-smoke`` job wraps each 10k-AS run in it.
"""

from __future__ import annotations

import resource
import subprocess
import sys


def main(argv) -> int:
    limit, command = float(argv[0]), argv[1:]
    status = subprocess.call(command)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    bound = f"limit {limit:.0f} MB" if limit else "no limit"
    print(f"peak RSS {peak:.1f} MB ({bound}): {' '.join(command)}")
    if status:
        return status
    return int(bool(limit) and peak > limit)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
