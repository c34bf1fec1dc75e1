"""Command-line front end.

Three workflows:

    covrank rank DATA.csv        estimate the covariance rank of real data
    covrank simulate CFG.json    Monte Carlo rejection table for a config
    covrank nullcheck CFG.json   null-uniformity (KS) diagnostic

``rank`` parses its file in blocks of lines, in worker processes forked from
the command: ``$COVRANK_THREADS`` of them, else one per available CPU, and
never more than blocks. Blocks are cut at byte offsets alone, so the matrix,
and every output, is byte-identical for any worker count. ``simulate`` and
``nullcheck`` take ``--threads`` (default ``$COVRANK_THREADS``, else 1).

Exit codes: 0 success, 1 statistical workflow error (e.g. a degenerate
nullcheck configuration), 2 I/O or parse error, 3 numerical failure,
including float64 under- or overflow. Errors and warnings are single
machine-parsable lines on stderr of the form ``covrank: <category>: <message>``;
warnings come first.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import os
import sys
import warnings

import numpy as np

from .dgp import SimulationConfig, _check_seed
from .errors import NumericalError, ValidationError, _check_alpha
from .montecarlo import (
    _fork_map,
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

# Bytes of a CSV file parsed by one job, up to the end of the line they end in.
# The parent's heap keeps the buffers it received parts in, so larger blocks
# raise the command's peak RSS: by 7% at 4 MiB and 3% at 1 MiB on a 44 MB file.
_BLOCK_BYTES = 1 << 20


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
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.handler(args, out)
        except _InputError as exc:
            code, error = 2, f"parse: {exc}"
        except OSError as exc:
            name = getattr(exc, "filename", None)
            code, error = 2, f"io: {name}: {exc.strerror}" if name else f"io: {exc}"
        except ValidationError as exc:
            code, error = 1, f"workflow: {exc}"
        except NumericalError as exc:
            estimates = [f"{name}={value:.6g}" for name, value in
                         (("best_estimate", exc.best_estimate),
                          ("achieved_rel_tol", exc.achieved_rel_tol)) if value is not None]
            code, error = 3, "; ".join([f"numeric: {exc}", *estimates])
    # Each distinct warning once, in the order first raised, before any error.
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"covrank: warning: {message}", file=err)
    if error is not None:
        print(f"covrank: {error}", file=err)
    return code


def _checked(convert, check):
    """An argparse type: ``convert`` the text, then run the library's ``check`` on the
    value; either failure is one usage line naming the option (exit 2)."""
    kind = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}") from None
        try:
            check(value)
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _at_least_one(value: int) -> None:
    if value < 1:
        raise ValidationError(f"must be >= 1, got {value}")


_positive_int = _checked(int, _at_least_one)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covrank",
        description="Covariance-matrix rank estimation by sequential testing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, threads: bool = False) -> None:
        p.add_argument("--alpha", type=_checked(float, _check_alpha), default=None,
                       help="test level in (0,1); default 0.05 or the config value")
        p.add_argument("--format", choices=("human", "json", "tsv"), default="human")
        p.add_argument("--rel-tol", default=None,
                       type=_checked(float, lambda v: QuadratureSettings(rel_tol=v)),
                       help="quadrature relative tolerance override")
        p.add_argument("--tail-sigmas", default=None,
                       type=_checked(float, lambda v: QuadratureSettings(tail_sigmas=v)),
                       help="truncation of infinite integration limits, in Gaussian scales")
        if threads:
            p.add_argument("--seed", type=_checked(int, _check_seed), default=None,
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


def _given(**flags) -> dict:
    """The flags that were set on the command line (not None)."""
    return {name: value for name, value in flags.items() if value is not None}


def _quad_settings(args) -> QuadratureSettings:
    return QuadratureSettings(**_given(rel_tol=args.rel_tol, tail_sigmas=args.tail_sigmas))


def _threads(given: int | None, default: int) -> int:
    """Worker processes: ``given`` (a ``--threads`` flag), else ``$COVRANK_THREADS``,
    else ``default``."""
    if given is not None:
        return given
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return default
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError:
        raise _InputError(
            f"environment variable {THREADS_ENV_VAR}={raw!r} is not a positive integer"
        ) from None


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _parse_rows(lines) -> np.ndarray:
    """Comma-separated float rows as an (n, width) array; ValueError on any bad row."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)


def _nonblank_lines(fh):
    """(line number, stripped text) of every non-blank line of ``fh``."""
    for lineno, raw in enumerate(fh, start=1):
        if line := raw.strip():
            yield lineno, line


def _text(data: bytes, at: int) -> io.TextIOWrapper:
    """``data``, the bytes from offset ``at`` of a CSV file, as text; only a
    file's first byte may start a byte-order mark. Bytes cut after newline
    bytes give the same lines as the whole file, since no UTF-8 character and
    no line end spans a newline byte."""
    return io.TextIOWrapper(io.BytesIO(data), encoding=_CSV_ENCODING if at == 0 else "utf-8")


def _first_line(fh) -> tuple[int, str | None]:
    """The first non-blank line of the binary file ``fh``, or None, and the offset
    of the newline-ended line of bytes that holds it (every line before is blank)."""
    start = 0
    for raw in fh:
        for _, line in _nonblank_lines(_text(raw, start)):
            return start, line
        start += len(raw)
    return start, None


def _parse_block(job) -> np.ndarray | None:
    """Rows of the non-blank lines in bytes lo..hi-1 of a file, after the first
    of them when ``header`` is set; None when no line is left."""
    path, lo, hi, header = job
    with open(path, "rb") as fh:
        fh.seek(lo)
        data = fh.read(hi - lo)
    lines = (line for _, line in _nonblank_lines(_text(data, lo)))
    if header:
        next(lines)
    first = next(lines, None)
    # Checked here because loadtxt warns on an empty input.
    if first is None:
        return None
    return _parse_rows(itertools.chain([first], lines))


def _read_data_matrix(path: str, workers: int = 1) -> np.ndarray:
    """A comma-separated numeric matrix; the first non-blank line is a header if
    it does not parse.

    The lines are parsed in blocks of about ``_BLOCK_BYTES`` that end after a
    newline byte, by up to ``workers`` processes, and copied in file order into one
    array that has room for the most rows the bytes can hold (its pages that
    are never written take no memory).
    """
    try:
        with open(path, "rb") as fh:
            start, first = _first_line(fh)
            if first is None:
                raise _InputError(f"{path}: file is empty")
            try:
                _parse_rows([first])
                header = False
            except ValueError:
                header = True
            size = fh.seek(0, os.SEEK_END)
            cuts = [start]
            while cuts[-1] + _BLOCK_BYTES < size:
                fh.seek(cuts[-1] + _BLOCK_BYTES)
                cuts.append(fh.tell() + len(fh.readline()))
            if cuts[-1] < size:
                cuts.append(size)
        jobs = [(path, lo, hi, header and lo == start) for lo, hi in zip(cuts, cuts[1:])]
        data, rows = None, 0
        try:
            for part in _fork_map(_parse_block, jobs, min(workers, len(jobs))):
                if part is None:
                    continue
                if data is None:
                    # A row of w fields takes at least 2w - 1 bytes.
                    data = np.empty(((size - start) // (2 * part.shape[1]) + 1, part.shape[1]))
                elif part.shape[1] != data.shape[1]:
                    raise ValueError("blocks of rows of different widths")
                data[rows:rows + len(part)] = part
                rows += len(part)
        except ValueError as exc:
            raise _locate_parse_error(path, header, exc) from exc
        if data is None:
            raise _InputError(f"{path}: no numeric rows after the header")
        return data[:rows]
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not UTF-8 text: {exc.reason}") from None


def _locate_parse_error(path: str, header: bool, exc: ValueError) -> _InputError:
    """Line-numbered error for the first physical line that the bulk parse rejects.

    Runs the same parser on one line at a time; only reached after the bulk
    parse failed.
    """
    width = None
    with open(path, "r", encoding=_CSV_ENCODING) as fh:
        lines = _nonblank_lines(fh)
        if header:
            next(lines)
        for lineno, line in lines:
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


def _load_config(path: str, args) -> SimulationConfig:
    """The config in ``path`` with the ``--alpha`` and ``--seed`` flags that were
    set merged in, validated once as a whole."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise _InputError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except json.JSONDecodeError as exc:
            raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise _InputError(f"{path}: config must be a JSON object")
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise _InputError(f"{path}: unknown config keys: {sorted(unknown)}")
    # SimulationConfig turns the list into a tuple of floats.
    if raw.get("factor_scales") is not None and not isinstance(raw["factor_scales"], list):
        raise _InputError(f"{path}: factor_scales must be a JSON array")
    try:
        return SimulationConfig(**{**raw, **_given(alpha=args.alpha, seed=args.seed)})
    except TypeError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _emit_json(payload: dict, out) -> None:
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def _tsv(cell) -> str:
    if cell is None:
        return "NA"
    if isinstance(cell, bool):
        return str(cell).lower()
    return cell if isinstance(cell, str) else repr(cell)


def _emit_tsv(rows, out) -> None:
    """One tab-separated line per row: headers, data and ``label, value`` notes alike.

    Numbers must be Python scalars: under numpy 2 ``repr`` of an ``np.float64``
    is not a number.
    """
    for row in rows:
        out.write("\t".join(map(_tsv, row)) + "\n")


def _cmd_rank(args, out) -> int:
    data = _read_data_matrix(args.data, _threads(None, _cpus()))
    alpha = 0.05 if args.alpha is None else args.alpha
    try:
        result = rank_from_data(data, alpha, center=args.center, settings=_quad_settings(args))
    except ValidationError as exc:
        # The flags are checked by the parser, so only the data can be invalid here.
        raise _InputError(f"{args.data}: {exc}") from None
    n, p = data.shape
    columns = ("k", "statistic", "scale2", "degenerate", "rejected")
    rows = [(s.k, s.statistic, s.scale2_used, s.degenerate, s.rejected) for s in result.steps]

    if args.format == "json":
        _emit_json({
            "alpha": alpha,
            "n": n,
            "p": p,
            "centered": bool(args.center),
            "steps": [dict(zip(columns, row)) for row in rows],
            "rank_estimate": result.rank_estimate,
            "boundary_reached": result.boundary_reached,
        }, out)
    elif args.format == "tsv":
        _emit_tsv([columns, *rows, ("# rank_estimate", result.rank_estimate),
                   ("# boundary_reached", result.boundary_reached), ("# alpha", alpha)], out)
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
    cfg = _load_config(args.config, args)
    table = run_rejection_table(cfg, settings=_quad_settings(args),
                                workers=_threads(args.threads, 1))
    rows = [(k, table.reached[k - 1], table.rejected[k - 1], table.rate_percent(k))
            for k in range(1, table.n_steps + 1)]

    if args.format == "json":
        steps = [dict(zip(("k", "reached", "rejected", "rate_percent"), r)) for r in rows]
        _emit_json({"config": dataclasses.asdict(cfg), "steps": steps}, out)
    elif args.format == "tsv":
        _emit_tsv([("step", "reached", "rejected", "rate_percent"), *rows], out)
    else:
        header = ["        "]
        rates = ["rate %  "]
        counts = ["counts  "]
        for k, reached, rejected, rate in rows:
            cell_rate = "NA" if rate is None else f"{rate:.1f}"
            cell_count = "NA" if reached == 0 else f"({rejected}/{reached})"
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
    cfg = _load_config(args.config, args)
    step = cfg.true_rank + 1 if args.step is None else args.step
    sample = collect_null_statistics(cfg, step, settings=_quad_settings(args),
                                     workers=_threads(args.threads, 1))
    # ks_distance refuses an empty sample, so reps >= 1 from here on.
    dist = ks_distance(sample)
    rate = float(np.mean(sample.statistics <= cfg.alpha))
    pval = ks_pvalue_approx(dist, cfg.reps)
    summary = {"k": step, "reps": cfg.reps, "alpha": cfg.alpha, "ks_distance": dist,
               "rejection_rate": rate, "ks_pvalue_approx": pval}
    statistics = sample.statistics.tolist() if args.include_statistics else []

    if args.format == "json":
        payload = {"config": dataclasses.asdict(cfg), **summary}
        if args.include_statistics:
            payload["statistics"] = statistics
        _emit_json(payload, out)
    elif args.format == "tsv":
        _emit_tsv([*summary.items(), *(("statistic", v) for v in statistics)], out)
    else:
        out.write(f"null-uniformity check at step k={step} "
                  f"(p={cfg.p}, true_rank={cfg.true_rank}, n={cfg.n}, tau={cfg.local_null_tau:g}, "
                  f"reps={cfg.reps}, seed={cfg.seed})\n")
        out.write(f"  KS distance to Unif(0,1): {dist:.6g}\n")
        out.write(f"  rejection rate at alpha={cfg.alpha:g}: {rate:.6g}\n")
        out.write(f"  KS p-value (asymptotic approximation): {pval:.6g}\n")
        if args.include_statistics:
            out.write("  statistics: " + " ".join(f"{v:.6g}" for v in statistics) + "\n")
    return 0
