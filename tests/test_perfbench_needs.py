"""Every public function a benchmark workload needs is still called.

Runs each workload of ``perfbench/run.py`` traced, at the tiny sizes of
``perfbench/test_smoke.py``, through the benchmark's own ``run_workload``. A
traced run raises ``BenchError`` when a function on the workload's ``needs``
list is never called, so a change that stops calling one fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run as bench  # noqa: E402
from test_smoke import tiny  # noqa: E402


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_workload_calls_every_needed_function(name):
    result = bench.run_workload(tiny(name), seed=5, seconds=0.5, trace=True,
                                reference=None)["result"]
    assert (result["correct"], result["failed"]) == (True, 0)
