"""Paired A/B comparison of two git revisions on perfbench workloads.

Both revisions are exported with ``git archive`` into fresh temporary
directories, so the two sides are built the same way, and each pair runs
``perfbench/run.py`` once on each side, alternating which side goes first.
Run from anywhere inside the repository:

    python3 tools/ab.py --workload null_local_t2 --base HEAD~1 --change HEAD
    python3 tools/ab.py --workload sim_p10 --change "$(git stash create)" --pairs 4
    python3 tools/ab.py --pairs 4 --seconds 10

(``git stash create`` names a commit of the uncommitted tracked changes
without touching the working tree.) Without ``--workload`` every workload of
``BENCHMARK.json`` runs, one after the other, with the same pairs and seconds,
and each gets its own report. For every end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the median
change, the pairs the change won, and two verdicts. The bound verdict is
"within" unless the change's median is worse than the base's by more than the
metric's ``bound`` (a fraction of the base median), then "worse than bound".
The claim verdict is "gain" when the change wins at least nine tenths of the
pairs, ties counting for neither, and its median is better than the base's by
more than the spread of the base's runs, their q3 - q1; else "unresolved".
A gain may be claimed only on a "gain" row. Rows marked ``raw``
are the unscaled values that perfbench keeps on its ``# metadata:`` line
beside the host-scaled ones. The ``failed`` row, the share of failed
operations, has a bound of 0: any rise is worse. The last row,
``host_scale``, is the factor perfbench scaled each run's time metrics by
(from the same ``# metadata:`` line), with each side's quartiles and no
verdict: where it differs between the sides, a scaled row can disagree with
its raw row. Nothing in the checkout is written.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, into: Path) -> None:
    """Extract the tree of ``rev`` into the directory ``into``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run_once(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """Scaled and raw end-to-end metrics of one perfbench run in ``side``."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=side, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"ab: perfbench failed in {side}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("# metadata: "))[12:])
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update({f"{name} raw": v for name, v in meta.get("raw", {}).items()})
    values["failed"] = result["failed"] / max(1, result["attempted"])
    values["host_scale"] = meta["host_scale"]
    return values


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(base: list, change: list, lower: bool) -> int:
    """Pairs in which the change is strictly better; a tie counts for neither."""
    return sum((c < b) if lower else (c > b) for b, c in zip(base, change))


def claim(base: list, change: list, lower: bool) -> str:
    """"gain" when the change wins at least nine tenths of the pairs and its
    median beats the base's by more than the base's q3 - q1, else "unresolved"."""
    b1, b2, b3 = quartiles(base)
    c2 = quartiles(change)[1]
    better_by = (b2 - c2) if lower else (c2 - b2)
    won = 10 * wins(base, change, lower) >= 9 * len(base)
    return "gain" if won and better_by > b3 - b1 else "unresolved"


def report(runs: dict, metrics: dict) -> None:
    """One row per metric; ``metrics`` maps each end-to-end name to its
    ``(better, bound)``."""
    print(f"{'metric':22} {'base q1/median/q3':>30} {'change q1/median/q3':>30} "
          f"{'change':>8} {'wins':>6}  {'bound':16}  claim")
    names = [n for metric in metrics for n in (metric, f"{metric} raw") if n in runs["base"][0]]
    for name in names + ["failed"]:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        better, bound = metrics.get(name.removesuffix(" raw"), ("lower", 0.0))
        lower = better == "lower"
        (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
        delta = f"{100.0 * (c2 / b2 - 1.0):+.1f}%" if b2 else "n/a"
        worse = (c2 - b2) if lower else (b2 - c2)
        verdict = "worse than bound" if worse > bound * abs(b2) else "within"
        print(f"{name:22} {b1:9.4g} {b2:9.4g} {b3:9.4g}  {c1:9.4g} {c2:9.4g} {c3:9.4g} "
              f"{delta:>8} {wins(base, change, lower):>3}/{len(base)}  {verdict:16}  "
              f"{claim(base, change, lower)}")
    if "host_scale" in runs["base"][0]:
        sides = [quartiles([r["host_scale"] for r in runs[label]]) for label in ("base", "change")]
        print(f"{'host_scale':22} " + "  ".join(" ".join(f"{q:9.4g}" for q in side)
                                               for side in sides))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: every workload of BENCHMARK.json)")
    parser.add_argument("--base", default="HEAD~1", help="revision A (default HEAD~1)")
    parser.add_argument("--change", default="HEAD", help="revision B (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    workloads = ([args.workload] if args.workload is not None
                 else [w["name"] for w in benchmark["workloads"]])
    with tempfile.TemporaryDirectory(prefix="covrank-ab-") as tmp:
        sides = {}
        for label in ("base", "change"):
            sides[label] = Path(tmp) / label
            sides[label].mkdir()
            export(getattr(args, label), sides[label])
        for workload in workloads:
            runs = {"base": [], "change": []}
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for label in order:
                    runs[label].append(run_once(sides[label], workload, args.seed,
                                                args.seconds))
                print(f"# {workload} pair {pair + 1}: " + json.dumps(
                    {label: runs[label][-1] for label in runs}, sort_keys=True), flush=True)
            print(f"## {workload}")
            report(runs, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
