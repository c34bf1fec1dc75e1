"""Check that two git revisions give the same CLI outputs.

    python3 tools/same_outputs.py --base HEAD~1 --change HEAD
    python3 tools/same_outputs.py --base HEAD --change "$(git stash create)"

Both revisions are exported with ``tools/ab.py``'s ``export``. Each side runs
``python3 -m covrank.cli`` on fifteen commands: the golden cases of
``tests/test_golden.py`` (each of its ``COMMANDS`` in each of its
``FORMATS``), the seed-1 command of each perfbench workload, and three
commands that fail on purpose (``FAILURES``: a ragged CSV for ``rank``, a
rank-1 ``nullcheck`` without local-null noise, and a ``simulate`` whose
factor scale overflows the statistic), so the failure paths' exit codes and
messages are compared too. Every command runs at ``COVRANK_THREADS`` 1, 2 and
3, so each side makes 45 runs. The cases and their inputs come from this
checkout: the golden inputs are read from ``tests/golden/``, the workloads'
inputs are written once with perfbench's ``make_inputs``, and the failing
commands' inputs are written from ``FAILURES``. Both sides read the same
files, so the paths in their messages match. Each run whose exit code, stdout
or stderr differs between the sides is printed with its first differing line;
where the two texts differ only in their numbers, that line also gives the
largest relative difference between paired numbers. The exit status is 1
when any run differs, else 0. Nothing in the checkout is written.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import ab

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402

GOLDEN_TESTS = ROOT / "tests" / "test_golden.py"
THREADS = (1, 2, 3)
SEED = 1
FIELDS = ("exit code", "stdout", "stderr")
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
COMMAND_TIMEOUT_S = 300.0
# Commands that fail on purpose, named ``command.case``: the input file each
# reads and that file's text.
FAILURES = {
    "rank.ragged": ("ragged.csv", "1,2,3\n4,5,6\n7,8\n"),
    "nullcheck.no_noise": ("no_noise.json", '{"p": 5, "true_rank": 1, "n": 100, "reps": 4}'),
    "simulate.overflow": ("overflow.json", '{"p": 4, "true_rank": 1, "n": 50, "reps": 6, '
                                           '"factor_scales": [1e155]}'),
}


def golden_commands() -> dict:
    """CLI arguments of each golden case, named ``command.format``; the
    ``COMMANDS`` and ``FORMATS`` literals are read from the test file
    without importing it."""
    literals = {}
    for node in ast.parse(GOLDEN_TESTS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("COMMANDS", "FORMATS"):
                literals[node.targets[0].id] = ast.literal_eval(node.value)
    golden = GOLDEN_TESTS.parent / "golden"
    return {f"{command}.{fmt}": [name, str(golden / path), *flags, "--format", fmt]
            for command, (name, path, *flags) in literals["COMMANDS"].items()
            for fmt in literals["FORMATS"]}


def workload_commands(workdir: Path) -> dict:
    """CLI arguments of each perfbench workload's seed-1 command, without
    ``--threads``, so ``COVRANK_THREADS`` sets the workers; writes the inputs
    into ``workdir``."""
    return {name: perfbench.make_inputs(spec, SEED, workdir).args
            for name, spec in perfbench.WORKLOADS.items()}


def failure_commands(workdir: Path) -> dict:
    """CLI arguments of each command of ``FAILURES``; writes their inputs
    into ``workdir`` and names them relative to it, where the commands run."""
    for path, text in FAILURES.values():
        (workdir / path).write_text(text, encoding="utf-8")
    return {name: [name.split(".")[0], path] for name, (path, _) in FAILURES.items()}


def run_command(src: Path, args: list, threads: int, cwd: Path) -> tuple:
    """Exit code, stdout and stderr of one command run from ``src``."""
    env = dict(os.environ, COVRANK_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "covrank.cli", *args], cwd=cwd, env=env,
                          capture_output=True, timeout=COMMAND_TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def differing(base: dict, change: dict) -> dict:
    """The fields that differ, for each run whose outcome differs between the
    sides; both map a run's key to its (exit code, stdout, stderr)."""
    return {key: [name for name, b, c in zip(FIELDS, base[key], change[key]) if b != c]
            for key in base if base[key] != change[key]}


def largest_relative_difference(base: bytes, change: bytes) -> float | None:
    """The largest |b - c| / max(|b|, |c|) over the paired numbers of two
    texts that differ only in their numbers; None when any other text differs."""
    if NUMBER.sub(b"#", base) != NUMBER.sub(b"#", change):
        return None
    pairs = zip(map(float, NUMBER.findall(base)), map(float, NUMBER.findall(change)))
    return max((abs(b - c) / max(abs(b), abs(c)) for b, c in pairs if b != c), default=0.0)


def first_difference(base, change) -> str:
    """Where one field of a run first differs between the sides, and by how
    much its numbers differ when nothing else does."""
    if isinstance(base, int):
        return f"base {base}, change {change}"
    worst = largest_relative_difference(base, change)
    numbers = "" if worst is None else f"; numbers only, largest relative difference {worst:.2g}"
    lines = zip(base.decode(errors="replace").splitlines(),
                change.decode(errors="replace").splitlines())
    for number, (b, c) in enumerate(lines, 1):
        if b != c:
            return f"line {number}: base {b!r}, change {c!r}{numbers}"
    return f"the lines both have match; base {len(base)} bytes, change {len(change)} bytes"


def report(base: dict, change: dict) -> int:
    """Print each differing run and a count; returns the number that differ.
    A run's key is ``(command name, COVRANK_THREADS)``."""
    diffs = differing(base, change)
    for (name, threads), fields in diffs.items():
        print(f"{name} at COVRANK_THREADS={threads}: {', '.join(fields)} differ")
        for field, b, c in zip(FIELDS, base[name, threads], change[name, threads]):
            if b != c:
                print(f"  {field}: {first_difference(b, c)}")
    print(f"{len(diffs)} of {len(base)} runs differ")
    return len(diffs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="revision A (default HEAD~1)")
    parser.add_argument("--change", default="HEAD", help="revision B (default HEAD)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="covrank-same-") as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        commands = {**golden_commands(), **workload_commands(inputs),
                    **failure_commands(inputs)}
        results = {}
        for label in ("base", "change"):
            side = Path(tmp) / label
            side.mkdir()
            ab.export(getattr(args, label), side)
            results[label] = {(name, threads): run_command(side / "src", cli_args, threads, inputs)
                              for (name, cli_args), threads
                              in itertools.product(commands.items(), THREADS)}
    return 1 if report(results["base"], results["change"]) else 0


if __name__ == "__main__":
    sys.exit(main())
