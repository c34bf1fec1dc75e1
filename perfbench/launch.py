"""Run one covrank CLI command in this fresh interpreter, timed and optionally traced.

Usage: python3 launch.py REPORT MODE [CLI ARGS...]

MODE is one of
  import   import covrank.cli and exit (a set-up sample);
  off      run the CLI with no spans;
  all      record spans around every public covrank function.

The CLI's own stdout and stderr are left untouched. REPORT receives one JSON
object: when the import finished and when ``run_cli`` returned (both on the
system-wide CLOCK_MONOTONIC, so the parent can compare them with its launch
time), the imported package file, and the spans.

A span is ``[name, parent index, start ns, end ns, extra]``. Spans come from
rebinding every ``covrank.*`` module attribute that is a public function
object (a name in its defining module's ``__all__``), so calls between modules
and calls inside one module through its globals are both caught.
"""

import json
import sys
import time
import types


# Indices of the spans currently open, innermost last.
_STACK: list = []


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# Only these calls record an argument shape, to derive computed flop counts.
_SHAPE_SPANS = {"spectrum.sample_covariance"}


def _install(spans: list) -> None:
    modules = [m for name, m in sys.modules.items()
               if (name == "covrank" or name.startswith("covrank.")) and m is not None]
    public = {}
    for module in modules:
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{fn.__name__}"
                public[fn] = _wrap(fn, name, spans)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in public:
                setattr(module, attr, public[value])


def _wrap(fn, name: str, spans: list):
    with_shape = name in _SHAPE_SPANS

    def wrapper(*args, **kwargs):
        extra = list(getattr(args[0], "shape", ())) if with_shape and args else None
        span = [name, _STACK[-1] if _STACK else -1, _now(), 0, extra]
        _STACK.append(len(spans))
        spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = _now()
            _STACK.pop()

    return wrapper


def main() -> int:
    report_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import covrank.cli as cli

    ready = _now()
    spans: list = []
    if mode == "all":
        _install(spans)
    rc = 0 if mode == "import" else cli.run_cli(cli_args)
    done = _now()
    sys.stdout.flush()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"ready_ns": ready, "done_ns": done,
                   "package": sys.modules["covrank"].__file__, "spans": spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
