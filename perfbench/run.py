"""Benchmark for the covrank CLI: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sim_p10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload rank_csv --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --record-reference

Every CLI command runs in a fresh interpreter (``launch.py``) against this
checkout's ``src/``. With ``--trace 0`` the run times untraced commands and
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced commands and reports the per-layer metrics. The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it (``# metadata: {...}``) records the machine, the versions and the sample
counts. BLAS threading is left exactly as the environment sets it.

End-to-end metrics (``--trace 0``): ``wall_s``, the mean launch-to-exit time
of a command; ``items_per_s``, replications (or CSV rows) finished per second
of ``run_cli`` time over all timed commands; ``setup_s``, the median time from
launch to the end of ``import covrank.cli``, over every timed command and an
import-only launch after each of them, so that its samples spread over the
whole run; ``peak_rss_mb``, the median over commands of the largest resident
set among the command and its pool workers. Failed commands are counted in
``failed`` out of ``attempted``.

The three times are scaled to a reference host speed. A shared small VM runs
at speeds up to about 1.5x apart for minutes at a time, and a 30 s run sits
inside one such stretch, so raw times of fixed work move by that much from run
to run. After every timed command the run therefore also times a fixed
program that runs none of this repository's code (``python3 -c "import
numpy"`` in a fresh interpreter) and multiplies the times by
``HOST_REFERENCE_S`` over the median of those samples (divides rates by it).
A change to the program moves the scaled values as it moves the raw ones. The
metadata line keeps the raw values, the scale factor and every sample.
``wall_s`` is a mean rather than a median because within a run the host can
also slow for 10-20 s, which makes command times bimodal; a median of a few
long commands then jumps with the share of slow ones, while the mean moves in
proportion to it.

Every command's output is checked: invariants of the workload, byte-identical
output across repeats, and, in an untimed warm-up, agreement with
``reference.json`` (decisions and counts exactly, floating-point values within
1e-12) of the workload's command on the baseline seed and of a small ``rank``
command whose statistics all lie inside (0, 1), so that a loss of accuracy in
the quadrature shows. A command that exits non-zero or fails a check counts in
``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCHER = HERE / "launch.py"
REFERENCE_FILE = HERE / "reference.json"

BASELINE_SEED = 0
# Times are reported as if `python3 -c "import numpy"` took this long (see above).
HOST_REFERENCE_S = 0.2
HOST_PROBE = [sys.executable, "-c", "import numpy"]
MIN_TIMED = 3
COMMAND_TIMEOUT_S = 120.0
STAT_TOL = 1e-12

WORKLOADS = {
    # Reference rejection-table design: about 4 steps per replication, the
    # last degenerate; quadrature is dispatch-bound at p=10. Single process.
    "sim_p10": {
        "command": "simulate",
        "threads": 1,
        "config": {"p": 10, "true_rank": 3, "n": 500, "reps": 200},
        "needs": ["cli.run_cli", "montecarlo.run_rejection_table", "dgp.generate_dataset",
                  "dgp.make_loadings", "dgp.sample_factors_t", "spectrum.sample_covariance",
                  "spectrum.symmetric_eigen", "sequential.run_sequence",
                  "statistic.csv_statistic", "statistic.plug_in_scale",
                  "statistic.log_integral"],
    },
    # Local-null sampling at one step: data generation dominates (loadings,
    # complete QR, n x (p-k) normals); bypasses `sequential`; uses the pool.
    "null_local_t2": {
        "command": "nullcheck",
        "threads": 2,
        "step": 3,
        "config": {"p": 20, "true_rank": 2, "n": 20000, "reps": 60, "local_null_tau": 1.0},
        "needs": ["cli.run_cli", "montecarlo.collect_null_statistics",
                  "montecarlo.ks_distance", "dgp.generate_dataset", "dgp.make_loadings",
                  "dgp.sample_factors_t", "spectrum.sample_covariance",
                  "spectrum.symmetric_eigen", "statistic.csv_statistic",
                  "statistic.plug_in_scale", "statistic.log_integral"],
    },
    # Real-data path: CSV parsing in the CLI dominates, then one 9-step
    # sequence with 199 gap factors per node; bypasses `dgp` and `montecarlo`.
    "rank_csv": {
        "command": "rank",
        "rows": 20000,
        "cols": 200,
        "rank": 8,
        "scale_hi": 40.0,
        "scale_lo": 10.0,
        "needs": ["cli.run_cli", "sequential.rank_from_data", "sequential.run_sequence",
                  "spectrum.sample_covariance", "spectrum.symmetric_eigen",
                  "statistic.csv_statistic", "statistic.plug_in_scale",
                  "statistic.log_integral"],
    },
}

# Untimed reference command: a 200 x 10 CSV with planted rank 2, whose three
# statistics (about 2e-6, 0.025 and 0.80) all depend on the quadrature.
INTERIOR = "interior_rank"
INTERIOR_SPEC = {"command": "rank", "rows": 200, "cols": 10, "rank": 2,
                 "scale_hi": 3.0, "scale_lo": 1.5}

LAYERS = ("dgp", "spectrum", "statistic", "sequential", "montecarlo", "cli")
ENTRY_SPANS = ("montecarlo.run_rejection_table", "montecarlo.collect_null_statistics")


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, missing span, ...)."""


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------- inputs


@dataclass
class Inputs:
    args: list           # CLI arguments, without --threads
    items: int           # replications or data rows per command
    seed: int
    csv_bytes: int = 0


def make_inputs(spec: dict, seed: int, workdir: Path) -> Inputs:
    """Write the input files of one workload for one seed."""
    seed %= 2**64  # the CLI takes unsigned 64-bit master seeds
    command = spec["command"]
    if command == "rank":
        path = workdir / f"data_{spec['rows']}x{spec['cols']}_{seed}.csv"
        _write_csv(path, spec, seed)
        return Inputs(["rank", str(path), "--format", "json"], spec["rows"], seed,
                      path.stat().st_size)
    cfg = dict(spec["config"], seed=seed)
    path = workdir / f"config_{seed}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    args = [command, str(path), "--format", "json"]
    if command == "nullcheck":
        args += ["--step", str(spec["step"]), "--include-statistics"]
    return Inputs(args, cfg["reps"], seed)


def _write_csv(path: Path, spec: dict, seed: int) -> None:
    """n x p rows: planted rank-r factors (scales hi..lo) plus unit isotropic noise."""
    n, p, r = spec["rows"], spec["cols"], spec["rank"]
    rng = np.random.default_rng([seed, 0xC5F])
    q, _ = np.linalg.qr(rng.standard_normal((p, r)))
    loadings = q * np.sqrt(np.linspace(spec["scale_hi"], spec["scale_lo"], r))
    data = rng.standard_normal((n, r)) @ loadings.T + rng.standard_normal((n, p))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(p)) + "\n")
        np.savetxt(fh, data, fmt="%.8g", delimiter=",")


def with_threads(spec: dict, inputs: Inputs, threads: int | None) -> list:
    if spec["command"] == "rank":
        return list(inputs.args)
    return inputs.args + ["--threads", str(threads)]


# ---------------------------------------------------------------- commands


@dataclass
class Invocation:
    rc: int
    wall_s: float        # launch to exit
    setup_s: float       # launch to `import covrank.cli` done
    run_s: float         # run_cli call
    rss_mb: float        # largest resident set of the command and its children
    stdout: bytes
    stderr: bytes
    spans: list = field(default_factory=list)


def invoke(args: list, mode: str, workdir: Path) -> Invocation:
    """Run launch.py in a fresh interpreter and wait for it and its children."""
    report = workdir / "report.json"
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    report.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launched = _now_ns()
        proc = subprocess.Popen([sys.executable, str(LAUNCHER), str(report), mode, *args],
                                stdout=out, stderr=err, env=env, cwd=workdir)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        ended = _now_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    if not report.exists():
        return Invocation(proc.returncode, (ended - launched) / 1e9, math.nan, math.nan,
                          usage.ru_maxrss / 1024.0, stdout, stderr)
    info = json.loads(report.read_text(encoding="utf-8"))
    package = Path(info["package"]).resolve()
    if SRC.resolve() not in package.parents:
        raise BenchError(f"covrank was imported from {package}, not from {SRC}")
    return Invocation(proc.returncode, (ended - launched) / 1e9,
                      (info["ready_ns"] - launched) / 1e9,
                      (info["done_ns"] - info["ready_ns"]) / 1e9,
                      usage.ru_maxrss / 1024.0, stdout, stderr, info["spans"])


# ---------------------------------------------------------------- output checks


def check_payload(spec: dict, inputs: Inputs, payload: dict) -> list:
    """Workload invariants of one parsed CLI output; returns the violations."""
    command = spec["command"]
    if command == "simulate":
        return _check_simulate(spec, inputs, payload)
    if command == "nullcheck":
        return _check_nullcheck(spec, inputs, payload)
    return _check_rank(spec, payload)


def _in_unit(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and 0.0 <= x <= 1.0


def _check_simulate(spec, inputs, payload) -> list:
    p = spec["config"]["p"]
    steps = payload["steps"]
    errors = []
    if payload["config"]["seed"] != inputs.seed or payload["config"]["reps"] != inputs.items:
        errors.append("config echo does not match the input")
    if [s["k"] for s in steps] != list(range(1, p)):
        return errors + [f"steps are not 1..{p - 1}"]
    if steps[0]["reached"] != inputs.items:
        errors.append(f"step 1 reached {steps[0]['reached']} != reps {inputs.items}")
    for s, nxt in zip(steps, steps[1:] + [None]):
        if not 0 <= s["rejected"] <= s["reached"]:
            errors.append(f"step {s['k']}: rejected outside [0, reached]")
        if nxt is not None and nxt["reached"] != s["rejected"]:
            errors.append(f"reached[{s['k'] + 1}] != rejected[{s['k']}]")
        rate = None if s["reached"] == 0 else 100.0 * s["rejected"] / s["reached"]
        if s["rate_percent"] != rate:
            errors.append(f"step {s['k']}: rate_percent inconsistent with counts")
    return errors


def _check_nullcheck(spec, inputs, payload) -> list:
    values = payload.get("statistics", [])
    errors = []
    if payload["k"] != spec["step"] or payload["reps"] != inputs.items:
        errors.append("step or reps echo does not match the input")
    if len(values) != inputs.items:
        errors.append(f"{len(values)} statistics for {inputs.items} replications")
    if not all(_in_unit(v) for v in values):
        errors.append("a statistic lies outside [0, 1]")
    elif values:
        rate = sum(v <= payload["alpha"] for v in values) / len(values)
        if payload["rejection_rate"] != rate:
            errors.append("rejection_rate inconsistent with the statistics")
    if not _in_unit(payload["ks_distance"]):
        errors.append("ks_distance outside [0, 1]")
    return errors


def _check_rank(spec, payload) -> list:
    steps = payload["steps"]
    errors = []
    if (payload["n"], payload["p"]) != (spec["rows"], spec["cols"]):
        errors.append("data shape echo does not match the input")
    if not steps or [s["k"] for s in steps] != list(range(1, len(steps) + 1)):
        return errors + ["steps are not 1..m"]
    for s in steps:
        if not _in_unit(s["statistic"]):
            errors.append(f"step {s['k']}: statistic outside [0, 1]")
        elif s["rejected"] != (s["statistic"] <= payload["alpha"]):
            errors.append(f"step {s['k']}: decision inconsistent with the statistic")
    if not all(s["rejected"] for s in steps[:-1]):
        errors.append("testing continued after an acceptance")
    if payload["rank_estimate"] != sum(s["rejected"] for s in steps):
        errors.append("rank_estimate differs from the number of rejections")
    if payload["rank_estimate"] != spec["rank"]:
        errors.append(f"rank estimate {payload['rank_estimate']} != planted rank {spec['rank']}")
    return errors


def compare_reference(expected, actual, path: str = "") -> list:
    """Exact match except floats, which may differ by STAT_TOL (relative above 1)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path or '.'}: keys differ"]
        return [e for key in expected
                for e in compare_reference(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [e for i, (a, b) in enumerate(zip(expected, actual))
                for e in compare_reference(a, b, f"{path}[{i}]")]
    if isinstance(expected, float) and type(actual) in (int, float):
        if abs(actual - expected) <= STAT_TOL * max(1.0, abs(expected)):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != reference {expected!r}"]


class Tally:
    """Counts commands and failures; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, spec: dict, inputs: Inputs, inv: Invocation, *,
              expected_stdout: bytes | None = None, reference=None) -> bool:
        self.attempted += 1
        errors = []
        if inv.rc != 0:
            errors.append(f"exit code {inv.rc}: {inv.stderr.decode(errors='replace')[-300:]}")
        else:
            try:
                payload = json.loads(inv.stdout)
                errors = check_payload(spec, inputs, payload)
                if reference is not None:
                    errors += compare_reference(reference, payload)[:5]
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                errors.append(f"malformed output: {exc!r}")
            if expected_stdout is not None and inv.stdout != expected_stdout:
                errors.append("output differs from the first command on the same input")
        if errors:
            self.failed += 1
            self.messages.extend(errors[:3])
        return not errors


# ---------------------------------------------------------------- runs


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _warm_up(spec, seed, workdir, tally, reference):
    """Make the run's inputs and run the baseline-seed commands against the reference."""
    inputs = make_inputs(spec, seed, workdir)
    base = inputs if seed == BASELINE_SEED else make_inputs(spec, BASELINE_SEED, workdir)
    inv = invoke(with_threads(spec, base, spec.get("threads")), "off", workdir)
    tally.check(spec, base, inv, reference=reference and reference[0])
    if reference is not None:
        interior = make_inputs(INTERIOR_SPEC, BASELINE_SEED, workdir)
        inv = invoke(interior.args, "off", workdir)
        tally.check(INTERIOR_SPEC, interior, inv, reference=reference[1])
    return inputs


def _import_only(workdir) -> float:
    inv = invoke([], "import", workdir)
    if inv.rc != 0:
        raise BenchError(f"`import covrank.cli` failed: {inv.stderr.decode(errors='replace')}")
    return inv.setup_s


def _host_probe(workdir) -> float:
    """Wall time of HOST_PROBE, which runs none of this repository's code."""
    launched = _now_ns()
    done = subprocess.run(HOST_PROBE, cwd=workdir, capture_output=True,
                          timeout=COMMAND_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"host probe failed: {done.stderr.decode(errors='replace')}")
    return (_now_ns() - launched) / 1e9


def run_plain(spec: dict, seed: int, seconds: float, workdir: Path, reference) -> tuple:
    """Untraced commands for `seconds`; returns (tally, metrics, sample counts)."""
    tally = Tally()
    inputs = _warm_up(spec, seed, workdir, tally, reference)
    args = with_threads(spec, inputs, spec.get("threads"))
    timed, setup, probe, first = [], [], [], None
    start = time.monotonic()
    for iteration in range(1, 10**6):
        inv = invoke(args, "off", workdir)
        if tally.check(spec, inputs, inv, expected_stdout=first):
            timed.append(inv)
            setup.append(inv.setup_s)
            first = first or inv.stdout
        setup.append(_import_only(workdir))
        probe.append(_host_probe(workdir))
        elapsed = time.monotonic() - start
        if tally.attempted > MIN_TIMED and elapsed * (iteration + 1) / iteration > seconds:
            break
    if not timed:
        raise BenchError("every command failed: " + "; ".join(tally.messages[:3]))
    walls = [t.wall_s for t in timed]
    raw = {"wall_s": statistics.fmean(walls),
           "items_per_s": inputs.items * len(timed) / sum(t.run_s for t in timed),
           "setup_s": _median(setup)}
    scale = HOST_REFERENCE_S / _median(probe)
    metrics = {
        "wall_s": (raw["wall_s"] * scale, "s"),
        "items_per_s": (raw["items_per_s"] / scale, "1/s"),
        "setup_s": (raw["setup_s"] * scale, "s"),
        "peak_rss_mb": (_median([t.rss_mb for t in timed]), "MB"),
    }
    return tally, metrics, {"timed_commands": len(timed), "setup_samples": len(setup),
                            "raw": raw, "host_scale": scale,
                            "wall_s_median": _median(walls),
                            "wall_s_samples": [round(w, 4) for w in walls],
                            "setup_s_samples": [round(s, 4) for s in setup],
                            "host_probe_s_samples": [round(s, 4) for s in probe]}


def run_traced(spec: dict, seed: int, seconds: float, workdir: Path, reference) -> tuple:
    """Pairs of untraced and traced 1-worker commands (plus a 2-worker one on the pool)."""
    tally = Tally()
    inputs = _warm_up(spec, seed, workdir, tally, reference)
    pooled = spec.get("threads", 1) > 1
    one, two = with_threads(spec, inputs, 1), with_threads(spec, inputs, spec.get("threads"))
    untraced, traced, parallel = [], [], []
    first = None
    start = time.monotonic()
    for iteration in range(10**6):
        if iteration % 2 == 0:
            plain, full = invoke(one, "off", workdir), invoke(one, "all", workdir)
        else:
            full, plain = invoke(one, "all", workdir), invoke(one, "off", workdir)
        for inv, kept in ((plain, untraced), (full, traced)):
            if tally.check(spec, inputs, inv, expected_stdout=first):
                kept.append(inv)
                first = first or inv.stdout
        if pooled:
            # README criterion 6: the pooled output equals the 1-worker output.
            pool = invoke(two, "off", workdir)
            if tally.check(spec, inputs, pool, expected_stdout=first):
                parallel.append(pool)
        elapsed = time.monotonic() - start
        if elapsed * (iteration + 2) / (iteration + 1) > seconds or iteration >= 5 and not traced:
            break
    if not traced or not untraced:
        raise BenchError("no traced command passed: " + "; ".join(tally.messages[:3]))
    calls = defaultdict(int)
    for inv in traced:
        for span in inv.spans:
            calls[span[0]] += 1
    missing = [name for name in spec["needs"] if not calls[name]]
    if missing:
        raise BenchError(f"traced run: {', '.join(missing)} called zero times; "
                         "a public function moved or is no longer reached through its module")
    metrics = layer_metrics(traced, untraced, parallel, inputs.csv_bytes)
    return tally, metrics, {"traced_commands": len(traced), "untraced_commands": len(untraced),
                            "pooled_commands": len(parallel)}


# ---------------------------------------------------------------- per-layer metrics


def layer_metrics(traced: list, untraced: list, parallel: list, csv_bytes: int) -> dict:
    """Per-layer metrics from the spans of the traced commands (nanosecond timestamps)."""
    durations = defaultdict(list)        # span name -> ms
    self_ms = defaultdict(list)          # span name -> ms not covered by child spans
    layer_self_ns = defaultdict(int)
    covered_ns = wall_ns = 0
    free_stats = flops = bytes_moved = cov_ns = run_sequence_steps = 0
    reps, entry_ns, entry_self_ns = [], 0, 0
    for inv in traced:
        spans = inv.spans
        children = [[] for _ in spans]
        for i, (_, parent, _, _, _) in enumerate(spans):
            if parent >= 0:
                children[parent].append(i)
        for i, (name, parent, start, end, extra) in enumerate(spans):
            own = (end - start) - sum(spans[c][3] - spans[c][2] for c in children[i])
            durations[name].append((end - start) / 1e6)
            self_ms[name].append(own / 1e6)
            layer_self_ns[name.split(".")[0]] += own
            kids = [spans[c][0] for c in children[i]]
            if parent < 0:
                covered_ns += end - start
            if name == "statistic.csv_statistic" and "statistic.log_integral" not in kids:
                free_stats += 1
            elif name == "spectrum.sample_covariance" and extra:
                n, p = extra
                flops += 2 * n * p * p
                bytes_moved += 8 * n * p
                cov_ns += end - start
            elif name == "sequential.run_sequence":
                run_sequence_steps += kids.count("statistic.csv_statistic")
            elif name in ENTRY_SPANS:
                entry_ns += end - start
                entry_self_ns += own
                reps += _replication_ms(spans, children[i])
        wall_ns += int(inv.wall_s * 1e9)

    def timing(name: str, suffix: str, q: float) -> dict:
        return {f"{name}.{suffix}": (_pct(durations[name], q), "ms")}

    def calls(name: str) -> dict:
        return {f"{name}.calls": (len(durations[name]), "count")}

    csv_calls = len(durations["statistic.csv_statistic"])
    seq_calls = len(durations["sequential.run_sequence"])
    run_cli_s = _median(durations["cli.run_cli"]) / 1e3
    cli_self_s = _median(self_ms["cli.run_cli"]) / 1e3
    m = {}
    m |= timing("dgp.generate_dataset", "ms_p50", 50)
    m |= timing("dgp.generate_dataset", "ms_p99", 99)
    m |= calls("dgp.generate_dataset")
    m |= calls("dgp.make_loadings")
    m |= timing("dgp.make_loadings", "ms_p50", 50)
    m |= timing("spectrum.sample_covariance", "ms_p50", 50)
    m |= calls("spectrum.sample_covariance")
    m["spectrum.sample_covariance.gflop_per_s"] = (flops / cov_ns if cov_ns else 0.0,
                                                   "GFLOP/s-computed")
    m["spectrum.sample_covariance.gbyte_per_s"] = (bytes_moved / cov_ns if cov_ns else 0.0,
                                                   "GB/s-computed")
    m |= timing("spectrum.symmetric_eigen", "ms_p50", 50)
    m |= calls("spectrum.symmetric_eigen")
    m |= timing("statistic.csv_statistic", "ms_p50", 50)
    m |= timing("statistic.csv_statistic", "ms_p99", 99)
    m |= calls("statistic.csv_statistic")
    m |= timing("statistic.log_integral", "ms_p50", 50)
    m |= calls("statistic.log_integral")
    m |= calls("statistic.plug_in_scale")
    m["statistic.quadrature_free_share"] = (free_stats / csv_calls if csv_calls else 0.0,
                                            "fraction")
    m |= timing("sequential.run_sequence", "ms_p50", 50)
    m |= calls("sequential.run_sequence")
    m["sequential.run_sequence.self_ms_p50"] = (_pct(self_ms["sequential.run_sequence"], 50),
                                                "ms")
    m["sequential.steps_per_call"] = (run_sequence_steps / seq_calls if seq_calls else 0.0,
                                      "count")
    m["montecarlo.rep_ms_p50"] = (_pct(reps, 50), "ms")
    m["montecarlo.rep_ms_p99"] = (_pct(reps, 99), "ms")
    m["montecarlo.self_share"] = (entry_self_ns / entry_ns if entry_ns else 0.0, "fraction")
    m["montecarlo.parallel_eff"] = (_parallel_efficiency(untraced, parallel), "ratio")
    m["cli.run_cli.s"] = (run_cli_s, "s")
    m["cli.self_s"] = (cli_self_s, "s")
    m["cli.parse_mb_per_s"] = (csv_bytes / 1e6 / cli_self_s if csv_bytes else 0.0, "MB/s")
    traced_wall = _median([t.wall_s for t in traced])
    m["trace.overhead_pct"] = (100.0 * (traced_wall / _median([u.wall_s for u in untraced]) - 1),
                               "%")
    m["trace.uncovered_share"] = (1.0 - covered_ns / wall_ns, "fraction")
    for layer in LAYERS:
        m[f"{layer}.run_share"] = (layer_self_ns[layer] / wall_ns, "fraction")
    return m


def _replication_ms(spans: list, children: list) -> list:
    """Replication times: each starts at a generate_dataset child of the entry span and
    ends with the last child before the next generate_dataset."""
    reps, start, end = [], None, None
    for c in children:
        name, _, c_start, c_end, _ = spans[c]
        if name == "dgp.generate_dataset":
            if start is not None:
                reps.append((end - start) / 1e6)
            start = c_start
        end = c_end
    if start is not None:
        reps.append((end - start) / 1e6)
    return reps


def _parallel_efficiency(one_worker: list, two_workers: list) -> float:
    """Untraced run_cli time at 1 worker over 2x the run_cli time at 2 workers."""
    if not two_workers:
        return 0.0
    return _median([i.run_s for i in one_worker]) / (2.0 * _median([i.run_s for i in two_workers]))


# ---------------------------------------------------------------- metadata and main


def metadata() -> dict:
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def load_reference(name: str, spec: dict) -> tuple:
    """The recorded baseline-seed outputs of the workload and of the interior check,
    each checked to belong to this exact spec."""
    recorded = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    outputs = []
    for key, wanted in ((name, spec), (INTERIOR, INTERIOR_SPEC)):
        entry = recorded.get(key)
        if entry is None or entry["spec"] != _spec_key(wanted):
            raise BenchError(f"{REFERENCE_FILE.name} has no output for {key} as "
                             "specified; re-record it with --record-reference")
        outputs.append(entry["output"])
    return tuple(outputs)


def _spec_key(spec: dict) -> dict:
    return {k: v for k, v in spec.items() if k != "needs"}


def record_reference(workdir: Path) -> None:
    """Write the 1-worker baseline-seed output of every workload and of the interior
    check to reference.json."""
    recorded = {}
    for name, spec in {**WORKLOADS, INTERIOR: INTERIOR_SPEC}.items():
        inputs = make_inputs(spec, BASELINE_SEED, workdir)
        inv = invoke(with_threads(spec, inputs, 1), "off", workdir)
        tally = Tally()
        if not tally.check(spec, inputs, inv):
            raise BenchError(f"{name}: baseline output fails its checks: {tally.messages}")
        if name == INTERIOR and not all(0.0 < step["statistic"] < 1.0
                                        for step in json.loads(inv.stdout)["steps"]):
            raise BenchError(f"{name}: a statistic is not inside (0, 1)")
        recorded[name] = {"spec": _spec_key(spec), "seed": BASELINE_SEED,
                          "output": json.loads(inv.stdout)}
    REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


@contextlib.contextmanager
def _workdir():
    """A fresh directory for inputs and outputs inside the checkout, removed afterwards."""
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def run_workload(spec: dict, seed: int, seconds: float, trace: bool, reference) -> dict:
    """One benchmark run; returns the result object and the sample counts."""
    with _workdir() as workdir:
        runner = run_traced if trace else run_plain
        tally, metrics, counts = runner(spec, seed, seconds, workdir, reference)
    for message in tally.messages[:10]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return {"result": result, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record the baseline-seed outputs and exit")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    try:
        if not (SRC / "covrank" / "cli.py").is_file():
            raise BenchError(f"covrank sources not found under {SRC}")
        if args.record_reference:
            with _workdir() as workdir:
                record_reference(workdir)
            return 0
        spec = WORKLOADS[args.workload]
        run = run_workload(spec, args.seed, args.seconds, bool(args.trace),
                           load_reference(args.workload, spec))
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    meta = dict(metadata(), workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, **run["counts"])
    print("# metadata: " + json.dumps(meta, sort_keys=True))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
