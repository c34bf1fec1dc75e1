"""Command-line front end.

Three workflows:

    covrank rank DATA.csv        estimate the covariance rank of real data
    covrank simulate CFG.json    Monte Carlo rejection table for a config
    covrank nullcheck CFG.json   null-uniformity (KS) diagnostic

Exit codes: 0 success, 1 statistical workflow error (e.g. a degenerate
nullcheck configuration), 2 I/O or parse error, 3 numerical failure. Errors
are single machine-parsable lines on stderr of the form
``covrank: <category>: <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .dgp import SimulationConfig
from .errors import NumericalError, ValidationError
from .montecarlo import (
    collect_null_statistics,
    ks_distance,
    ks_pvalue_approx,
    run_rejection_table,
)
from .sequential import rank_from_data
from .statistic import QuadratureSettings

__all__ = ["main", "run_cli"]

THREADS_ENV_VAR = "COVRANK_THREADS"

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SimulationConfig)}

# utf-8-sig drops a leading byte-order mark, which would otherwise spoil the
# first token of a CSV file and turn its first data row into a "header".
_CSV_ENCODING = "utf-8-sig"


class _InputError(Exception):
    """I/O or parse problem with a user-supplied file or environment value."""


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


def run_cli(argv, stdout=None, stderr=None) -> int:
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, out)
    except _InputError as exc:
        print(f"covrank: parse: {exc}", file=err)
        return 2
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = f"{name}: {exc.strerror}" if name else str(exc)
        print(f"covrank: io: {detail}", file=err)
        return 2
    except ValidationError as exc:
        print(f"covrank: workflow: {exc}", file=err)
        return 1
    except NumericalError as exc:
        print(f"covrank: numeric: {exc}", file=err)
        return 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _alpha_arg(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must be in (0, 1), got {text}")
    return value


def _settings_field(name: str, text: str) -> float:
    """One ``QuadratureSettings`` field, checked against the dataclass's own bounds."""
    value = float(text)
    try:
        QuadratureSettings(**{name: value})
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _rel_tol_arg(text: str) -> float:
    return _settings_field("rel_tol", text)


def _tail_sigmas_arg(text: str) -> float:
    return _settings_field("tail_sigmas", text)


def _default_threads() -> int | None:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 1 else None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covrank",
        description="Covariance-matrix rank estimation by sequential testing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, threads: bool = False) -> None:
        p.add_argument("--alpha", type=_alpha_arg, default=None,
                       help="test level in (0,1); default 0.05 or the config value")
        p.add_argument("--format", choices=("human", "json", "tsv"), default="human")
        p.add_argument("--rel-tol", type=_rel_tol_arg, default=None,
                       help="quadrature relative tolerance override")
        p.add_argument("--tail-sigmas", type=_tail_sigmas_arg, default=None,
                       help="truncation of infinite integration limits, in Gaussian scales")
        if threads:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config's master seed")
            p.add_argument("--threads", type=_positive_int, default=None,
                           help=f"worker processes (default ${THREADS_ENV_VAR} or 1)")

    p_rank = sub.add_parser("rank", help="estimate the rank of a CSV data matrix")
    p_rank.add_argument("data", help="comma-separated n x p numeric file, rows = observations")
    p_rank.add_argument("--center", action=argparse.BooleanOptionalAction, default=True,
                        help="subtract column means before forming the covariance")
    common(p_rank)
    p_rank.set_defaults(handler=_cmd_rank)

    p_sim = sub.add_parser("simulate", help="Monte Carlo rejection table")
    p_sim.add_argument("config", help="JSON simulation configuration file")
    common(p_sim, threads=True)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_null = sub.add_parser("nullcheck", help="null-uniformity diagnostic")
    p_null.add_argument("config", help="JSON simulation configuration file")
    p_null.add_argument("--step", type=_positive_int, default=None,
                        help="test step to sample (default: true_rank + 1)")
    p_null.add_argument("--include-statistics", action="store_true",
                        help="also emit the raw statistic values")
    common(p_null, threads=True)
    p_null.set_defaults(handler=_cmd_nullcheck)

    return parser


def _quad_settings(args) -> QuadratureSettings | None:
    if args.rel_tol is None and args.tail_sigmas is None:
        return None
    kwargs = {}
    if args.rel_tol is not None:
        kwargs["rel_tol"] = args.rel_tol
    if args.tail_sigmas is not None:
        kwargs["tail_sigmas"] = args.tail_sigmas
    return QuadratureSettings(**kwargs)


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    value = _default_threads()
    if value is None:
        raise _InputError(
            f"environment variable {THREADS_ENV_VAR}={os.environ[THREADS_ENV_VAR]!r} "
            "is not a positive integer"
        )
    return value


def _require_file(path: str) -> str:
    if not os.path.isfile(path):
        raise _InputError(f"{path}: no such file")
    if not os.access(path, os.R_OK):
        raise _InputError(f"{path}: not readable")
    return path


def _read_data_matrix(path: str) -> np.ndarray:
    """Parse a comma-separated numeric matrix, auto-detecting one header row."""
    _require_file(path)
    try:
        arr = _load_rows(path)
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise _InputError(
            f"{path}: need at least 2 rows and 2 columns of data, got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise _InputError(f"{path}: non-finite values in data")
    return arr


def _parse_rows(lines) -> np.ndarray:
    """Comma-separated float rows as an (n, width) array; ValueError on any bad row."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)


def _nonblank_lines(fh):
    for raw in fh:
        line = raw.strip()
        if line:
            yield line


def _prepend(first: str, lines):
    yield first
    yield from lines


def _load_rows(path: str) -> np.ndarray:
    """All data rows in one streamed parse; the first line is a header if it does not parse."""
    with open(path, "r", encoding=_CSV_ENCODING) as fh:
        lines = _nonblank_lines(fh)
        first = next(lines, None)
        if first is None:
            raise _InputError(f"{path}: file is empty")
        try:
            _parse_rows([first])
            header = False
        except ValueError:
            header = True
            first = next(lines, None)
            # Checked here because loadtxt only warns on an empty input.
            if first is None:
                raise _InputError(f"{path}: no numeric rows after the header") from None
        try:
            return _parse_rows(_prepend(first, lines))
        except ValueError as exc:
            raise _locate_parse_error(path, header, exc) from exc


def _locate_parse_error(path: str, header: bool, exc: ValueError) -> _InputError:
    """Line-numbered error for the first physical line that the bulk parse rejects.

    Runs the same parser on one line at a time; only reached after the bulk
    parse failed.
    """
    width = None
    with open(path, "r", encoding=_CSV_ENCODING) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if header:
                header = False
                continue
            try:
                fields = _parse_rows([line]).shape[1]
            except ValueError as err:
                # numpy numbers the rows of its one-line input; the line number replaces that.
                reason = str(err).replace(" at row 0,", " at")
                return _InputError(f"{path}: line {lineno}: {reason}")
            if width is None:
                width = fields
            elif fields != width:
                return _InputError(f"{path}: line {lineno}: expected {width} fields, got {fields}")
    return _InputError(f"{path}: {exc}")


def _load_config(path: str, args) -> tuple[SimulationConfig, dict]:
    _require_file(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise _InputError(f"{path}: config must be a JSON object")
    extras = {k: raw.pop(k) for k in list(raw) if k not in _CONFIG_FIELDS}
    known_extra = {"step"}
    unknown = set(extras) - known_extra
    if unknown:
        raise _InputError(f"{path}: unknown config keys: {sorted(unknown)}")
    if "factor_scales" in raw and raw["factor_scales"] is not None:
        if not isinstance(raw["factor_scales"], list):
            raise _InputError(f"{path}: factor_scales must be a JSON array")
        raw["factor_scales"] = tuple(raw["factor_scales"])
    try:
        cfg = SimulationConfig(**raw)
    except TypeError as exc:
        raise _InputError(f"{path}: {exc}") from exc
    if getattr(args, "alpha", None) is not None:
        cfg = dataclasses.replace(cfg, alpha=args.alpha)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg, extras


def _config_json(cfg: SimulationConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["factor_scales"] = list(cfg.factor_scales)
    return d


def _emit_json(payload: dict, out) -> None:
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def _cmd_rank(args, out) -> int:
    data = _read_data_matrix(args.data)
    alpha = 0.05 if args.alpha is None else args.alpha
    result = rank_from_data(data, alpha, center=args.center, settings=_quad_settings(args))
    n, p = data.shape

    if args.format == "json":
        _emit_json({
            "alpha": alpha,
            "n": n,
            "p": p,
            "centered": bool(args.center),
            "steps": [
                {
                    "k": s.k,
                    "statistic": s.statistic,
                    "scale2": s.scale2_used,
                    "degenerate": s.degenerate,
                    "rejected": s.rejected,
                }
                for s in result.steps
            ],
            "rank_estimate": result.rank_estimate,
            "boundary_reached": result.boundary_reached,
        }, out)
    elif args.format == "tsv":
        out.write("k\tstatistic\tscale2\tdegenerate\trejected\n")
        for s in result.steps:
            out.write(f"{s.k}\t{s.statistic!r}\t{s.scale2_used!r}"
                      f"\t{str(s.degenerate).lower()}\t{str(s.rejected).lower()}\n")
        out.write(f"# rank_estimate\t{result.rank_estimate}\n")
        out.write(f"# boundary_reached\t{str(result.boundary_reached).lower()}\n")
        out.write(f"# alpha\t{alpha!r}\n")
    else:
        out.write(f"rank test on {n} x {p} data, alpha={alpha:g}, "
                  f"center={'yes' if args.center else 'no'}\n")
        for s in result.steps:
            label = "reject" if s.rejected else "accept"
            note = " (degenerate)" if s.degenerate else ""
            out.write(f"  step {s.k}: statistic={s.statistic:.6g} scale2={s.scale2_used:.6g}"
                      f" -> {label}{note}\n")
        out.write(f"rank estimate: {result.rank_estimate}\n")
        if result.boundary_reached:
            out.write("boundary reached: all testable nulls rejected; "
                      "the true rank may be p-1 or p\n")
    return 0


def _cmd_simulate(args, out) -> int:
    cfg, _ = _load_config(args.config, args)
    table = run_rejection_table(cfg, settings=_quad_settings(args), workers=_threads(args))
    steps = range(1, table.n_steps + 1)

    if args.format == "json":
        _emit_json({
            "config": _config_json(cfg),
            "steps": [
                {
                    "k": k,
                    "reached": table.reached[k - 1],
                    "rejected": table.rejected[k - 1],
                    "rate_percent": table.rate_percent(k),
                }
                for k in steps
            ],
        }, out)
    elif args.format == "tsv":
        out.write("step\treached\trejected\trate_percent\n")
        for k in steps:
            rate = table.rate_percent(k)
            rate_text = "NA" if rate is None else repr(rate)
            out.write(f"{k}\t{table.reached[k - 1]}\t{table.rejected[k - 1]}\t{rate_text}\n")
    else:
        header = ["        "]
        rates = ["rate %  "]
        counts = ["counts  "]
        for k in steps:
            rate = table.rate_percent(k)
            cell_rate = "NA" if rate is None else f"{rate:.1f}"
            cell_count = ("NA" if table.reached[k - 1] == 0
                          else f"({table.rejected[k - 1]}/{table.reached[k - 1]})")
            width = max(len(f"H0,{k}"), len(cell_rate), len(cell_count)) + 2
            header.append(f"H0,{k}".rjust(width))
            rates.append(cell_rate.rjust(width))
            counts.append(cell_count.rjust(width))
        out.write(f"rejection table: p={cfg.p} true_rank={cfg.true_rank} n={cfg.n} "
                  f"reps={cfg.reps} alpha={cfg.alpha:g} seed={cfg.seed}\n")
        out.write("".join(header) + "\n")
        out.write("".join(rates) + "\n")
        out.write("".join(counts) + "\n")
    return 0


def _cmd_nullcheck(args, out) -> int:
    cfg, extras = _load_config(args.config, args)
    step = args.step if args.step is not None else extras.get("step")
    if step is None:
        step = cfg.true_rank + 1
    if isinstance(step, bool) or not isinstance(step, int):
        raise _InputError(f"{args.config}: step must be an integer, got {step!r}")
    sample = collect_null_statistics(cfg, step, settings=_quad_settings(args),
                                     workers=_threads(args))
    dist = ks_distance(sample)
    rate = float(np.mean(sample.statistics <= cfg.alpha)) if cfg.reps else 0.0
    pval = ks_pvalue_approx(dist, cfg.reps) if cfg.reps else None

    if args.format == "json":
        payload = {
            "config": _config_json(cfg),
            "k": step,
            "reps": cfg.reps,
            "alpha": cfg.alpha,
            "ks_distance": dist,
            "rejection_rate": rate,
            "ks_pvalue_approx": pval,
        }
        if args.include_statistics:
            payload["statistics"] = [float(v) for v in sample.statistics]
        _emit_json(payload, out)
    elif args.format == "tsv":
        out.write(f"k\t{step}\n")
        out.write(f"reps\t{cfg.reps}\n")
        out.write(f"alpha\t{cfg.alpha!r}\n")
        out.write(f"ks_distance\t{dist!r}\n")
        out.write(f"rejection_rate\t{rate!r}\n")
        out.write(f"ks_pvalue_approx\t{'NA' if pval is None else repr(pval)}\n")
        if args.include_statistics:
            for v in sample.statistics:
                out.write(f"statistic\t{float(v)!r}\n")
    else:
        out.write(f"null-uniformity check at step k={step} "
                  f"(p={cfg.p}, true_rank={cfg.true_rank}, n={cfg.n}, tau={cfg.local_null_tau:g}, "
                  f"reps={cfg.reps}, seed={cfg.seed})\n")
        out.write(f"  KS distance to Unif(0,1): {dist:.6g}\n")
        out.write(f"  rejection rate at alpha={cfg.alpha:g}: {rate:.6g}\n")
        if pval is not None:
            out.write(f"  KS p-value (asymptotic approximation): {pval:.6g}\n")
        if args.include_statistics:
            out.write("  statistics: " + " ".join(f"{float(v):.6g}" for v in sample.statistics) + "\n")
    return 0
