"""Run one kllab command under a max-RSS bound; the CI reach steps use it.

    PYTHONPATH=src python .github/reach.py MAX_RSS_MB ARGS...

runs ``timeout 60 python -m kllab.cli ARGS`` with stdout discarded, prints
its exit code and max RSS, and exits 1 when the exit code is nonzero
(timeout's 124 among them) or the max RSS is above MAX_RSS_MB.
"""

import resource
import shlex
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.stderr.write("usage: reach.py MAX_RSS_MB ARGS...\n")
        return 2
    bound, args = float(argv[0]), argv[1:]
    code = subprocess.call(
        ["timeout", "60", sys.executable, "-m", "kllab.cli", *args],
        stdout=subprocess.DEVNULL)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"kllab {shlex.join(args)}: exit {code}, max RSS {rss:.0f} MB")
    return int(code != 0 or rss > bound)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
