"""Peak resident set of one covrank CLI command, launched from a small parent.

    python3 tools/peak_rss.py rank data.csv --format json
    python3 tools/peak_rss.py --runs 5 --src /path/to/other/checkout/src rank data.csv

The command runs as ``python3 -m covrank.cli ARGS`` in a fresh interpreter,
with ``--src`` (default: this checkout's ``src``) first on ``PYTHONPATH``, and
its stdout and stderr are discarded. ``os.wait4`` reports the largest resident set of the
command and of the worker processes it waited for. On Linux a forked child's
peak starts from its parent's resident set, so the figure is the command's
own only when the parent is small: this one imports nothing beyond the
standard library and never holds the command's inputs. Prints each run's
peak in MB (1 MB = 1024 KiB, as perfbench counts) and their median; exits 1
when a command fails.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

def peak_mb(src: Path, args: list) -> tuple[int, float]:
    """Exit code and peak resident set, in MB, of one command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen([sys.executable, "-m", "covrank.cli", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="commands to run (default 3)")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory that holds the covrank package (default: ./src)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="covrank arguments")
    args = parser.parse_args(argv)
    if not args.command:
        parser.error("no covrank command given")
    peaks = []
    for _ in range(args.runs):
        code, mb = peak_mb(args.src, args.command)
        if code != 0:
            print(f"peak_rss: command exited {code}", file=sys.stderr)
            return 1
        peaks.append(mb)
        print(f"{mb:.1f}")
    print(f"median {statistics.median(peaks):.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
