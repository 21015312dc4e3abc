"""Every benchmark config solves through the CLI and matches its reference.

The configs and references come from ``perfbench/workloads.py`` at its
smallest size, so a change that breaks a benchmark config fails here, in
the tests, and not only in a benchmark run.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from waveforge.cli import main
from waveforge.heat_solver import HeatPropagator
from waveforge.quadrature import SinhKernel

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_PATH = _ROOT / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

CONFIGS = [(w, cfg.name) for w in workloads.WORKLOADS
           for cfg in workloads.build(w, 0, "min")]


@pytest.mark.parametrize("workload, name", CONFIGS, ids=[f"{w}-{n}" for w, n in CONFIGS])
def test_config_solves_to_its_reference(workload, name, tmp_path):
    cfg = next(c for c in workloads.build(workload, 0, "min") if c.name == name)
    cfg.output = str(tmp_path / f"{name}.csv")
    cfg.sections["output"] = {"path": cfg.output}
    ini = tmp_path / f"{name}.ini"
    ini.write_text(cfg.ini_text())
    assert main(["solve", str(ini)]) == 0
    rows = cfg.rows()
    ok, worst, why = workloads.check_csv(cfg, cfg.output,
                                         cfg.reference(rows[:, :-1], rows[:, -1]))
    assert ok, f"{name}: {why}"


# kernel calls per solve of the "min" cauchy-high-order configs at seed 0:
# one per row kind, cluster centre and K or K' for the first two time rules,
# and one per later rung a point climbs to (10, 20, 16, 2, 21 and 5 calls
# when each Laplacian power of each field was a kernel of its own)
KERNEL_CALLS = {"wave3-m2-source": 4, "wave3-m3": 3, "wave3-distinct-m2-source": 8,
                "wave5-m1": 2, "heat2-m3-distinct-source": 9, "heat3-m2-equal-source": 2}


def test_kernel_calls_per_solve(tmp_path, monkeypatch):
    calls = []
    for owner in (SinhKernel, HeatPropagator):
        def counted(self, *args, apply=owner.apply_many, **kwargs):
            calls.append(self)
            return apply(self, *args, **kwargs)

        monkeypatch.setattr(owner, "apply_many", counted)
    got = {}
    for cfg in workloads.build("cauchy-high-order", 0, "min"):
        cfg.output = str(tmp_path / f"{cfg.name}.csv")
        cfg.sections["output"] = {"path": cfg.output}
        ini = tmp_path / f"{cfg.name}.ini"
        ini.write_text(cfg.ini_text())
        calls.clear()
        assert main(["solve", str(ini)]) == 0
        got[cfg.name] = len(calls)
    assert got == KERNEL_CALLS


def test_traced_pass_solves_to_the_references(tmp_path):
    # one traced pass of perfbench/child.py, every layer wrapped: a wrap
    # point's counter reads the kernel's rule and time arguments, so a change
    # to those fails here and not only in a benchmark run
    configs = [cfg for w in ("cauchy-high-order", "box-modes")
               for cfg in workloads.build(w, 0, "min")]
    inis = []
    for i, cfg in enumerate(configs):
        cfg.output = str(tmp_path / f"{i}-{cfg.name}.csv")
        cfg.sections["output"] = {"path": cfg.output}
        inis.append(tmp_path / f"{i}-{cfg.name}.ini")
        inis[-1].write_text(cfg.ini_text())
    run = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "child.py"), "trace", str(tmp_path),
         *map(str, inis)],
        env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")),
        capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(configs)
    # a refactor that drops a wrap point leaves its layer's metrics at zero:
    # only the layers with no wrap point left in the program may be absent,
    # and the spans of the box amplitudes, the projections, the heat
    # propagator and the sinh kernel must be recorded
    assert set(result["absent"]) <= {"fd", "kernels", "oracle"}
    assert {"ibvp.amplitudes", "ibvp.project", "heat_solver.propagate",
            "quadrature.sinh"} <= set(result["trace"]["calls"])
    for cfg in configs:
        rows = cfg.rows()
        ok, worst, why = workloads.check_csv(cfg, cfg.output,
                                             cfg.reference(rows[:, :-1], rows[:, -1]))
        assert ok, f"{cfg.name}: {why}"
