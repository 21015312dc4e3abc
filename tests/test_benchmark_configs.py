"""Every benchmark config solves through the CLI and matches its reference.

The configs and references come from ``perfbench/workloads.py`` at its
smallest size, so a change that breaks a benchmark config fails here, in
the tests, and not only in a benchmark run.
"""

import importlib.util
import pathlib
import sys

import pytest

from waveforge.cli import main

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
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
