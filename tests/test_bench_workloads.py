"""The benchmark's call sites into the package still run and pass their checks.

``bench/workloads.py`` calls the package through its public functions and
checks each output against an oracle; a changed name, keyword or output key
would otherwise first show up as a failed benchmark run.  This test loads
that file (it only reads it) and runs one cell of each workload through
``setup``, ``draw``, ``execute`` and ``check``.
"""

import importlib.util
import random
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"


def _workloads_module():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS_MODULE = _workloads_module()


@pytest.mark.parametrize(
    "name, cell",
    [
        ("forest-build", ("K1", 11)),
        ("affine-exponent", ("exp", True, 1024, 5)),
        ("mc-oracle", ("BESQ", 0)),
        ("cli-cold", ("mc-heston",)),
        # the heaviest forest cell: order 6 with c != 0, as the benchmark times it
        ("affine-exponent", ("power", False, 2048, 6)),
        # the cold commands that now start without numpy or the forest algebra
        ("cli-cold", ("bessel",)),
        ("cli-cold", ("verify-chaos2",)),
        # the benchmark's largest residual: power kernel, c != 0, 4096 steps
        ("affine-exponent", ("power", False, 4096, 5)),
    ],
)
def test_workload_cell_runs_and_passes_its_check(name, cell):
    workload = WORKLOADS_MODULE.make(name, str(ROOT))
    assert cell in workload.cells
    ctx = workload.setup()
    request = workload.draw(random.Random(f"{name}/smoke"), cell)
    output = workload.execute(request, ctx)
    workload.check(request, output, ctx)
