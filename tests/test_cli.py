"""Config parsing and the command-line front end."""

import ast
import concurrent.futures
import hashlib
import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import waveforge
from waveforge import cli, problems
from waveforge.cli import main
from waveforge.config import MAX_ROWS, dump_config, load_config, parse_config
from waveforge.errors import ConfigError, InvalidBox
from waveforge.expr import Mesh, parse
from waveforge.ibvp import IbvpEvaluator, build_basis, solve_ibvp
from waveforge.problems import CauchyProblem, SolutionEvaluator
from waveforge.oracle import ModeProblem, mode_solve
from test_wave_solver import _stopping_counts

KIRCHHOFF = """
[problem]
kind = wave-multiple
n = 3
m = 1
speeds = 2.0

[data]
phi1 = 1

[domain]
x1 = -0.5:0.5:3
x2 = 0:0:1
x3 = 0:0:1
t = 0:1:3

[output]
path = {path}
"""

WAVE_M2 = """
[problem]
kind = {kind}
n = 3
m = 2
speeds = {speeds}

[data]
phi0 = sin(x1 + 0.5*x2)
phi1 = 0.3*sin(x1 + 0.5*x2)
phi2 = -0.5*sin(x1 + 0.5*x2)
phi3 = 0.2*sin(x1 + 0.5*x2)

[domain]
x1 = -0.5:0.5:3
x2 = 0.2:0.2:1
x3 = 0:0:1
t = 0:1.3:3

[output]
path = {path}
"""

BOX_MODE = """
[problem]
kind = wave-multiple
n = 1
m = 1
speeds = 1.0

[data]
phi0 = sin(x1)

[domain]
x1 = 0.5:2.5:3
t = 0:1:3
box = {pi}
k_max = 12

[output]
path = {path}
"""


FORCED_HEAT = """
[problem]
kind = heat-product
n = 2
m = 1
speeds = 0.5

[data]
f = cos(40*x1*t)*sin(x2)

[domain]
x1 = 0.25:3:4
x2 = 0.6:0.6:1
t = 0:0.25:2

[output]
path = {path}
"""

# the source's integral terms take the kernel time outside, the source
# time inside
FORCED_WAVE = """
[problem]
kind = wave-multiple
n = 3
m = 2
speeds = 0.8, 0.8

[data]
f = cos(20*x1*t)*sin(x2)

[domain]
x1 = 0.25:3:4
x2 = 0.6:0.6:1
x3 = -0.2:-0.2:1
t = 0:0.25:1

[output]
path = {path}
"""


def _box_config(n, k_max, path):
    """A box wave config in n dimensions with the given mode cutoff."""
    return "\n".join(
        ["[problem]", "kind = wave-multiple", f"n = {n}", "m = 1", "speeds = 1.0",
         "[data]", "phi0 = " + "*".join(f"sin(x{i + 1})" for i in range(n)),
         "[domain]"] + [f"x{i + 1} = 0.5:0.5:1" for i in range(n)]
        + ["t = 0:1:2", "box = " + ",".join([repr(math.pi)] * n),
           f"k_max = {k_max}", "[output]", f"path = {path}", ""])


def _whole_space_config(kind, n, path, axes=None, t="0.5:0.5:1"):
    """A whole-space m = 1 config in n dimensions with the datum sin(x1),
    on the per-axis grid ``axes`` (one point by default)."""
    axes = axes or ["0.5:0.5:1"] * n
    return "\n".join(
        ["[problem]", f"kind = {kind}", f"n = {n}", "m = 1", "speeds = 1.0",
         "[data]", "phi0 = sin(x1)", "[domain]"]
        + [f"x{i + 1} = {a}" for i, a in enumerate(axes)]
        + [f"t = {t}", "[output]", f"path = {path}", ""])


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


class TestConfigParsing:
    def test_minimal_roundtrip(self, tmp_path):
        cfg = parse_config(KIRCHHOFF.format(path="o.csv"))
        assert cfg.problem.kind == "wave-multiple"
        assert cfg.problem.n == 3
        assert cfg.axes[0].count == 3
        assert cfg.box is None
        again = parse_config(dump_config(cfg))
        assert again.problem == cfg.problem
        assert again.axes == cfg.axes
        assert again.t_axis == cfg.t_axis
        assert again.output_path == cfg.output_path
        assert dump_config(again) == dump_config(cfg)

    def test_box_roundtrip(self):
        cfg = parse_config(BOX_MODE.format(pi=math.pi, path="o.csv"))
        assert cfg.box == (math.pi,)
        assert cfg.k_max == 12
        again = parse_config(dump_config(cfg))
        assert again.box == cfg.box
        assert again.k_max == cfg.k_max

    def test_unknown_section(self):
        text = KIRCHHOFF.format(path="o.csv") + "\n[extras]\nfoo = 1\n"
        with pytest.raises(ConfigError, match="unknown sections"):
            parse_config(text)

    def test_unknown_key(self):
        text = KIRCHHOFF.format(path="o.csv").replace(
            "speeds = 2.0", "speeds = 2.0\nspede = 1"
        )
        with pytest.raises(ConfigError, match="unknown .problem. keys"):
            parse_config(text)

    @pytest.mark.parametrize("old, new, message", [
        ("speeds = 2.0", "speeds = 2.0\nspede = 1", "unknown [problem] keys: ['spede']"),
        ("phi1 = 1", "phi1 = 1\nphi2 = 0", "unknown [data] keys: ['phi2']"),
        ("t = 0:1:3", "t = 0:1:3\nx4 = 0:0:1", "unknown [domain] keys: ['x4']"),
        ("[output]", "[quadrature]\nn_tim = 8\n\n[output]",
         "unknown [quadrature] keys: ['n_tim']"),
        ("[output]", "[output]\nfmt = csv", "unknown [output] keys: ['fmt']"),
        ("kind = wave-multiple\n", "", "missing [problem] key 'kind'"),
        ("speeds = 2.0\n", "", "missing [problem] key 'speeds'"),
        ("x2 = 0:0:1\n", "", "missing [domain] key 'x2'"),
        ("t = 0:1:3\n", "", "missing [domain] key 't'"),
    ])
    def test_section_key_messages(self, old, new, message):
        # one fault per config, so the message names exactly that key
        text = KIRCHHOFF.format(path="o.csv")
        assert text.count(old) == 1
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text.replace(old, new))

    def test_bad_expression_reports_position(self):
        text = KIRCHHOFF.format(path="o.csv").replace(
            "phi1 = 1", "phi1 = sin(x1) + frob(x1)"
        )
        with pytest.raises(ConfigError, match="phi1"):
            parse_config(text)

    def test_bad_axis(self):
        text = KIRCHHOFF.format(path="o.csv").replace(
            "x1 = -0.5:0.5:3", "x1 = 1:0:3"
        )
        with pytest.raises(ConfigError, match="lo < hi"):
            parse_config(text)

    def test_k_max_requires_box(self):
        text = KIRCHHOFF.format(path="o.csv").replace(
            "t = 0:1:3", "t = 0:1:3\nk_max = 8"
        )
        with pytest.raises(ConfigError, match="k_max"):
            parse_config(text)

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_k_max_below_one_rejected(self, tmp_path, capsys, k_max):
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(BOX_MODE.format(pi=math.pi, path=out)
                        .replace("k_max = 12", f"k_max = {k_max}"))
        with pytest.raises(ConfigError, match=rf"k_max must be >= 1, got {k_max}"):
            parse_config(cfgf.read_text())
        assert main(["solve", str(cfgf)]) == 2
        assert "k_max" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, k_max, ok", [
        (3, 101, True), (3, 102, False), (3, 2000, False),
        (2, 1024, True), (2, 1025, False), (1, 1 << 20, True)])
    def test_k_max_mode_count_bounded(self, n, k_max, ok):
        text = _box_config(n, k_max, "o.csv")
        if ok:
            assert parse_config(text).k_max == k_max
        else:
            with pytest.raises(ConfigError, match=rf"k_max = {k_max} gives"):
                parse_config(text)

    def test_huge_k_max_rejected_before_the_basis(self, tmp_path, capsys,
                                                  monkeypatch):
        # n = 3 with k_max = 2000 would ask for a 64 GB basis
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(_box_config(3, 2000, out))

        def never(*args):
            raise AssertionError("build_basis reached")

        monkeypatch.setattr(cli, "build_basis", never)
        assert main(["solve", str(cfgf)]) == 2
        assert "k_max = 2000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("box, k_max", [
        ("nan", 4), ("1.0,-2.0", 4), ("1.0", 0), ("1.0,1.0,1.0", 102)])
    def test_box_checks_are_build_basis_checks(self, box, k_max):
        # the config rejects a box with the message build_basis gives it
        sides = [float(v) for v in box.split(",")]
        with pytest.raises(InvalidBox) as basis:
            build_basis(sides, k_max)
        text = re.sub(r"box = .*", f"box = {box}",
                      _box_config(len(sides), k_max, "o.csv"))
        with pytest.raises(ConfigError) as config:
            parse_config(text)
        assert str(config.value) == str(basis.value)

    def test_box_length_count(self):
        text = KIRCHHOFF.format(path="o.csv").replace(
            "t = 0:1:3", "t = 0:1:3\nbox = 1.0"
        )
        with pytest.raises(ConfigError, match="side lengths"):
            parse_config(text)

    @pytest.mark.parametrize("key, line", [
        ("box", "box = nan"), ("box", "box = inf"), ("box", "box = -1.0"),
        ("x1", "x1 = nan:nan:1"), ("x1", "x1 = -inf:0.5:3"),
        ("t", "t = inf:inf:1"),
    ])
    def test_non_finite_domain_rejected(self, tmp_path, capsys, key, line):
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        text = BOX_MODE.format(pi=math.pi, path=out)
        old = next(ln for ln in text.splitlines() if ln.startswith(key + " ="))
        cfgf.write_text(text.replace(old, line))
        with pytest.raises(ConfigError, match=rf"\b{key}\b.*finite"):
            parse_config(cfgf.read_text())
        assert main(["solve", str(cfgf)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("speed", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("base", ["box", "whole-space"])
    def test_non_finite_speed_exit_code(self, tmp_path, capsys, speed, base):
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        text = (BOX_MODE.format(pi=math.pi, path=out) if base == "box"
                else KIRCHHOFF.format(path=out))
        cfgf.write_text(re.sub(r"speeds = .*", f"speeds = {speed}", text))
        assert main(["solve", str(cfgf)]) == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base", ["box", "whole-space"])
    def test_wave_speed_with_an_overflowing_square_exit_code(self, tmp_path, capsys,
                                                             base):
        # 1e160^2 overflows: a configuration error, before numpy warns
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        text = (BOX_MODE.format(pi=math.pi, path=out) if base == "box"
                else KIRCHHOFF.format(path=out))
        cfgf.write_text(re.sub(r"speeds = .*", "speeds = 1e160", text))
        assert main(["solve", str(cfgf)]) == 2
        assert "wave speeds must have a finite square" in capsys.readouterr().err
        assert not out.exists()

    def test_quadrature_overrides(self):
        text = KIRCHHOFF.format(path="o.csv") + (
            "\n[quadrature]\nn_time = 16\n"
        )
        cfg = parse_config(text)
        assert cfg.quadrature.n_time == 16

    # a sphere rule takes 2 d^(n-1) directions, at most 2^22; the box
    # solver's Duhamel rule at most 1024 nodes
    @pytest.mark.parametrize("base, key, value, ok", [
        ("wave3", "sphere_degree", 1448, True), ("wave3", "sphere_degree", 1449, False),
        ("wave3", "sphere_degree", 30000, False),
        ("wave5", "sphere_degree", 38, True), ("wave5", "sphere_degree", 39, False),
        ("box", "n_time", 1024, True), ("box", "n_time", 1025, False),
        ("box", "n_time", 30000, False)])
    def test_quadrature_sizes_bounded(self, tmp_path, capsys, base, key, value, ok):
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        if base == "wave5":
            text = WAVE5.format(path=out).replace("sphere_degree = 4",
                                                  f"sphere_degree = {value}")
        else:
            text = (KIRCHHOFF.format(path=out) if base == "wave3"
                    else BOX_MODE.format(pi=math.pi, path=out))
            text += f"\n[quadrature]\n{key} = {value}\n"
        if ok:
            assert getattr(parse_config(text).quadrature, key) == value
            return
        with pytest.raises(ConfigError, match=rf"^{key} = {value} "):
            parse_config(text)
        cfgf.write_text(text)
        assert main(["solve", str(cfgf)]) == 2
        assert f"{key} = {value}" in capsys.readouterr().err
        assert not out.exists()

    # each whole-space family's own dimension check runs on the config,
    # before any solver is built; heat uses no sphere rule
    @pytest.mark.parametrize("kind, n, message", [
        ("heat-product", 4, "diffusion solver needs n <= 3, got 4"),
        ("heat-product", 5, "diffusion solver needs n <= 3, got 5"),
        ("wave-multiple", 1, "sphere rules exist for n in {3, 5}, not 1"),
        ("wave-multiple", 2, "sphere rules exist for n in {3, 5}, not 2"),
        ("wave-distinct", 4, "sphere rules exist for n in {3, 5}, not 4"),
        ("heat-product", 1, None), ("heat-product", 3, None),
        ("wave-multiple", 3, None), ("wave-distinct", 5, None)])
    def test_dimension_checked_by_the_family(self, tmp_path, capsys, monkeypatch,
                                             kind, n, message):
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(_whole_space_config(kind, n, out))
        if message is None:
            assert parse_config(cfgf.read_text()).problem.n == n
            return
        with pytest.raises(ConfigError) as info:
            parse_config(cfgf.read_text())
        assert str(info.value) == message

        def never(*args):
            raise AssertionError("build_evaluator reached")

        monkeypatch.setattr(cli, "build_evaluator", never)
        assert main(["solve", str(cfgf)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # x1 = x2 = 0:1:100000 would ask for 74.5 GiB
    @pytest.mark.parametrize("axes, t, ok", [
        (["0:1:1024", "0:1:1024"], "0:0:1", True),
        (["0:1:1024", "0:1:256"], "0:1:4", True),
        (["0:1:1024", "0:1:1024"], "0:1:2", False),
        (["0:1:100000", "0:1:100000"], "0:0:1", False)])
    def test_row_count_bounded(self, tmp_path, capsys, monkeypatch, axes, t, ok):
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(_whole_space_config("heat-product", 2, out, axes, t))
        rows = math.prod(int(a.split(":")[2]) for a in axes + [t])
        if ok:
            assert rows <= MAX_ROWS
            assert parse_config(cfgf.read_text()).t_axis.points().size == int(t[-1])
            return

        def never(*args):
            raise AssertionError("build_evaluator reached")

        monkeypatch.setattr(cli, "build_evaluator", never)
        assert main(["solve", str(cfgf)]) == 2
        assert capsys.readouterr().err == (
            f"error: the grid has {rows} rows (points times times), "
            f"more than {MAX_ROWS}\n")
        assert not out.exists()

    def test_non_csv_format_rejected(self):
        text = KIRCHHOFF.format(path="o.csv").replace(
            "path = o.csv", "path = o.csv\nformat = json"
        )
        with pytest.raises(ConfigError, match="csv"):
            parse_config(text)


class TestSolveCommand:
    def test_constant_velocity_solution(self, tmp_path):
        # phi1 = 1 gives u = t exactly, independent of x
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(KIRCHHOFF.format(path=out))
        assert main(["solve", str(cfgf)]) == 0
        header, rows = _read_csv(out)
        assert header == ["x1", "x2", "x3", "t", "u"]
        assert rows.shape == (9, 5)
        assert np.allclose(rows[:, 4], rows[:, 3], atol=1e-12)

    def test_box_mode_solution(self, tmp_path):
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(BOX_MODE.format(pi=math.pi, path=out))
        assert main(["solve", str(cfgf)]) == 0
        _, rows = _read_csv(out)
        exact = np.sin(rows[:, 0]) * np.cos(rows[:, 1])
        assert np.allclose(rows[:, 2], exact, atol=1e-10)

    def test_deterministic_output(self, tmp_path, monkeypatch):
        # slabs of any size, as a large grid takes them
        monkeypatch.setattr(problems, "MIN_SLAB_POINTS", 1)
        digests = []
        for threads, name in ((None, "a.csv"), (None, "b.csv"), (4, "c.csv")):
            out = tmp_path / name
            cfgf = tmp_path / f"{name}.ini"
            cfgf.write_text(KIRCHHOFF.format(path=out))
            argv = ["solve", str(cfgf)]
            if threads:
                argv = ["--threads", str(threads)] + argv
            assert main(argv) == 0
            digests.append(hashlib.md5(out.read_bytes()).hexdigest())
        assert len(set(digests)) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_csv_rows_match_the_row_template(self, n):
        # each row as one %.16e template over (x, t, u) writes it, with
        # signed zeros, subnormals and extreme exponents among the numbers
        rng = np.random.default_rng(n)
        special = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1.0 / 3.0])
        sizes = (4, 3, 2)[:n]
        axes = [rng.standard_normal(g) * 10.0 ** rng.integers(-5, 5, g) for g in sizes]
        for i, ax in enumerate(axes):
            ax[:2] = special[2 * i:2 * i + 2]
        times = np.array([-0.0, 2.2250738585072014e-308, 0.5])
        values = rng.standard_normal(sizes + (3,))
        values.reshape(-1)[:6] = special
        points = np.array(list(itertools.product(*axes)))
        rows = np.column_stack([np.repeat(points, len(times), axis=0),
                                np.tile(times, len(points)), values.reshape(-1)])
        line = ",".join(["%.16e"] * (n + 2)) + "\n"
        want = "".join(line % tuple(row) for row in rows.tolist())
        assert "".join(cli._csv_rows(axes, times, values)) == want
        assert "-0.0000000000000000e+00" in want and "4.9406564584124654e-324" in want

    def test_unresolved_sphere_means_exit_code(self, tmp_path, capsys):
        # sin(20 x1) at t = 2 is past the default top rung of the sphere ladder
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(KIRCHHOFF.format(path=out)
                        .replace("phi1 = 1", "phi0 = sin(20*x1)"))
        assert main(["solve", str(cfgf)]) == 3
        err = capsys.readouterr().err
        assert "the degree-12 and degree-16 sphere rules" in err
        assert "; raise [quadrature] sphere_degree above 16" in err
        assert not out.exists()

    @pytest.mark.parametrize("m", [1, 2])
    def test_speed_whose_square_underflows(self, tmp_path, m):
        # at a = 1e-300 the kernel's speed a^2 is 0: the solution is the free
        # motion phi0 + t phi1, not 0/0
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(KIRCHHOFF.format(path=out)
                        .replace("m = 1", f"m = {m}")
                        .replace("speeds = 2.0", "speeds = " + ", ".join(["1e-300"] * m))
                        .replace("phi1 = 1", "phi0 = sin(x1)\nphi1 = cos(x1)")
                        .replace("t = 0:1:3", "t = 0:1:2"))
        assert main(["solve", str(cfgf)]) == 0
        _, rows = _read_csv(out)
        want = np.sin(rows[:, 0]) + rows[:, 3] * np.cos(rows[:, 0])
        assert np.all(np.abs(rows[:, 4] - want) <= 1e-15 * np.abs(want))

    def test_non_finite_solution_exit_code(self, tmp_path, capsys):
        # t^2/2 overflows at t = 1e200: an evaluation failure, and no CSV
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text("\n".join([
            "[problem]", "kind = heat-product", "n = 1", "m = 3", "speeds = 1, 1, 1",
            "[data]", "phi2 = 1", "[domain]", "x1 = 0.5:0.5:1", "t = 1e200:1e200:1",
            "[output]", f"path = {out}", ""]))
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["solve", str(cfgf)]) == 3
        assert capsys.readouterr().err == (
            "error: the solution is not finite at x = [0.5], t = 1e+200\n")
        assert not out.exists()

    def test_overflow_in_a_time_rule_exit_code(self, tmp_path, capsys):
        # the ruled terms overflow at t = 1e200: a value that is not finite,
        # reported where the time ladder meets it, not as rules that differ
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text("\n".join([
            "[problem]", "kind = heat-product", "n = 1", "m = 3", "speeds = 1, 2, 3",
            "[data]", "phi2 = 1", "[domain]", "x1 = 0.3:0.3:1", "t = 1e200:1e200:1",
            "[output]", f"path = {out}", ""]))
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["solve", str(cfgf)]) == 3
        assert capsys.readouterr().err == (
            "error: time integrals at t = 1e+200, x = [0.3]: the 8- and 12-node "
            "Gauss-Legendre time rules give inf and inf of size inf: not finite\n")
        assert not out.exists()

    def test_wave_distinct_equal_speeds_exit_code(self, tmp_path):
        # one speed twice is a double pole, the same solve as wave-multiple
        csvs = []
        for kind in ("wave-distinct", "wave-multiple"):
            out = tmp_path / f"{kind}.csv"
            cfgf = tmp_path / f"{kind}.ini"
            cfgf.write_text(WAVE_M2.format(kind=kind, speeds="1.0, 1.0", path=out))
            assert main(["solve", str(cfgf)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_wave_distinct_small_speeds_solve(self, tmp_path):
        # 1e-10 and 3e-10 are three times apart, whatever their absolute gap
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(WAVE_M2.format(kind="wave-distinct", speeds="1e-10, 3e-10",
                                       path=out))
        assert main(["solve", str(cfgf)]) == 0
        _, rows = _read_csv(out)
        mp = ModeProblem("wave", (1e-10, 3e-10), (1.0, 0.5, 0.0), (1.0, 0.3, -0.5, 0.2))
        for x1, x2, _, t, u in rows:
            assert u == pytest.approx(mode_solve(mp, t) * math.sin(x1 + 0.5 * x2),
                                      abs=1e-12)

    def test_box_point_outside_the_box_exit_code(self, tmp_path, capsys):
        # past a wall the sine series is the data's odd periodic extension
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(BOX_MODE.format(pi=math.pi, path=out)
                        .replace("x1 = 0.5:2.5:3", "x1 = -1:5:4"))
        assert main(["solve", str(cfgf)]) == 3
        assert capsys.readouterr().err == (
            "error: x1 = -1.0 lies outside the box, below its wall at 0\n")
        assert not out.exists()

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        # a path that cannot be written is a configuration error
        out = tmp_path / "missing" / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(KIRCHHOFF.format(path=out))
        assert main(["solve", str(cfgf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ")
        assert str(out) in err and "Traceback" not in err
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(
            KIRCHHOFF.format(path="o.csv").replace(
                "phi1 = 1", "phi1 = sin(x1"
            )
        )
        assert main(["solve", str(cfgf)]) == 2

    def test_unequal_wave_multiple_speeds_exit_code(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(
            KIRCHHOFF.format(path=out).replace(
                "m = 1\nspeeds = 2.0", "m = 2\nspeeds = 1.0, 2.0"
            )
        )
        assert main(["solve", str(cfgf)]) == 2
        assert "(1.0, 2.0)" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_box_heat_time_exit_code(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(
            BOX_MODE.format(pi=math.pi, path=out)
            .replace("kind = wave-multiple", "kind = heat-product")
            .replace("t = 0:1:3", "t = -0.5:0:2")
        )
        assert main(["solve", str(cfgf)]) == 3
        assert "heat time must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_heat_time_exit_code(self, tmp_path, capsys):
        # whole space, source only: no term reaches a diffusion propagator
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(
            KIRCHHOFF.format(path=out)
            .replace("kind = wave-multiple", "kind = heat-product")
            .replace("phi1 = 1", "f = sin(x1)*t")
            .replace("t = 0:1:3", "t = -0.5:0:2")
        )
        assert main(["solve", str(cfgf)]) == 3
        assert "heat time must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unresolved_heat_exit_code(self, tmp_path, capsys):
        # e^{Lap} sin(8 x1) is beyond every Gauss-Hermite rule on the ladder
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(
            HEAT.format(path=out)
            .replace("m = 3\nspeeds = 1.0, 1.0, 2.0", "m = 1\nspeeds = 1.0")
            .replace("phi0 = sin(x1)*cos(x2)\nphi2 = 0.5*sin(x1)*cos(x2)",
                     "phi0 = sin(8*x1)*cos(x2)")
            .replace("t = 0:0.5:2", "t = 0.25:1:2")
        )
        assert main(["solve", str(cfgf)]) == 3
        captured = capsys.readouterr()
        assert "diffusion time lam = 1.0" in captured.err
        assert "; no setting raises the top of 96 nodes per axis" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_unresolved_time_rule_exit_code(self, tmp_path, capsys):
        # cos(300 t) over (0, 1) is beyond the 64-node time rule
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(FORCED_HEAT.format(path=out)
                        .replace("cos(40*x1*t)", "cos(300*t)")
                        .replace("t = 0:0.25:2", "t = 1:1:1"))
        assert main(["solve", str(cfgf)]) == 3
        captured = capsys.readouterr()
        assert "time integrals at t = 1.0" in captured.err
        assert "Gauss-Legendre time rules" in captured.err
        assert "; no setting raises the top of 64 nodes" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, t", [(FORCED_HEAT, 0.25), (FORCED_WAVE, 1.0),
                    (FORCED_HEAT.replace("t = 0:0.25:2", "t = 0:0.25:2\nbox = "
                                         f"{math.pi!r}, {math.pi!r}\nk_max = 8"), None)],
        ids=["heat", "wave-multiple", "box-heat"])
    def test_threads_deterministic_with_a_source(self, text, t, tmp_path, monkeypatch):
        # slabs of any size, as a large grid takes them
        monkeypatch.setattr(problems, "MIN_SLAB_POINTS", 1)
        cfgf = tmp_path / "p.ini"
        outputs = []
        for threads in (1, 4):
            out = tmp_path / f"{threads}.csv"
            cfgf.write_text(text.format(path=out))
            assert main(["--threads", str(threads), "solve", str(cfgf)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        if t is None:
            # the box's Duhamel rule is one fixed Gauss rule, not a ladder
            return
        # the grid's points stop on different counts of the time ladder
        ev = cli.build_evaluator(load_config(str(cfgf)))
        points = np.array([[x1, 0.6, -0.2][:ev.problem.n]
                           for x1 in np.linspace(0.25, 3.0, 4)])
        assert len(set(_stopping_counts(ev, points, t, monkeypatch))) > 1

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(KIRCHHOFF.format(path=out))
        assert main(["--threads", str(threads), "solve", str(cfgf)]) == 2
        assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_thread_pool_bounded_by_cpus(self, tmp_path, monkeypatch):
        # slabs of any size, as a large grid takes them
        monkeypatch.setattr(problems, "MIN_SLAB_POINTS", 1)
        pools = []

        class Recorder:
            """A pool that starts no thread: it runs each chunk on submit."""

            def __init__(self, max_workers):
                self.max_workers, self.slabs, self.submits = max_workers, set(), 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, slab):
                self.slabs.add(id(slab))
                self.submits += 1
                future = concurrent.futures.Future()
                future.set_result(fn(slab))
                return future

        monkeypatch.setattr(problems, "ThreadPoolExecutor", Recorder)
        cfgf = tmp_path / "p.ini"
        outputs = []
        # 40 grid points; the third run has more CPUs than chunks
        for threads, cpus in ((1, 2), (16, 2), (3, 8), (16, None)):
            monkeypatch.setattr(problems.os, "cpu_count", lambda: cpus)
            out = tmp_path / f"{threads}-{cpus}.csv"
            cfgf.write_text(KIRCHHOFF.format(path=out)
                            .replace("x1 = -0.5:0.5:3", "x1 = -0.5:0.5:40"))
            assert main(["--threads", str(threads), "solve", str(cfgf)]) == 0
            outputs.append(out.read_bytes())
        # N slabs, cut once, this thread taking the first at each of the
        # three times; at most one worker a CPU
        assert [(p.max_workers, len(p.slabs)) for p in pools] == [
            (1, 0), (2, 15), (2, 2), (1, 15)]
        assert all(p.submits == 3 * len(p.slabs) for p in pools)
        assert all(o == outputs[0] for o in outputs)

    @pytest.mark.parametrize("points, slabs", [(2 * problems.MIN_SLAB_POINTS - 1, 1),
                                               (2 * problems.MIN_SLAB_POINTS, 2)])
    def test_slabs_take_at_least_min_points(self, points, slabs):
        # threads pay on slabs of MIN_SLAB_POINTS points or more; a grid that
        # cannot fill two runs on the calling thread alone
        problem = CauchyProblem("heat-product", 1, 1, (1.0,), None, (parse("x1", 1),))
        calls = []

        def at(t):
            def fn(X):
                calls.append((threading.get_ident(), np.shape(X[0])))
                return np.zeros(np.shape(X[0]))

            return fn

        got = SolutionEvaluator(problem, at).evaluate(np.zeros((points, 1)), [0.5],
                                                      threads=4)
        assert got.shape == (points, 1)
        assert len(calls) == slabs and sum(shape[0] for _, shape in calls) == points
        assert len({ident for ident, _ in calls}) == slabs
        assert threading.get_ident() in {ident for ident, _ in calls}

    def test_threads_split_the_longest_axis(self, tmp_path, monkeypatch):
        # x2 is the longest axis: --threads 4 evaluates four slabs of it, each
        # with all of x1, at each of the three times, the calling thread
        # taking the first, and writes the bytes one thread writes
        monkeypatch.setattr(problems, "MIN_SLAB_POINTS", 1)
        shapes, first_slab_threads = [], set()
        build = cli.build_evaluator

        def recording_build(cfg):
            ev = build(cfg)
            at = ev._at

            def recorded(t):
                fn = at(t)

                def slab(X):
                    shapes.append(X.shape)
                    if X[1].flat[0] == -0.4:
                        first_slab_threads.add(threading.get_ident())
                    return fn(X)

                return slab

            ev._at = recorded
            return ev

        monkeypatch.setattr(cli, "build_evaluator", recording_build)
        cfgf = tmp_path / "p.ini"
        outputs = []
        for threads in (1, 4):
            out = tmp_path / f"{threads}.csv"
            cfgf.write_text(KIRCHHOFF.format(path=out)
                            .replace("phi1 = 1", "phi1 = x1 + 2*x2")
                            .replace("x2 = 0:0:1", "x2 = -0.4:0.4:7"))
            assert main(["--threads", str(threads), "solve", str(cfgf)]) == 0
            outputs.append(out.read_bytes())
        assert sorted(shapes) == ([(3, 1, 1, 3)] * 3 + [(3, 2, 1, 3)] * 9
                                  + [(3, 7, 1, 3)] * 3)
        assert first_slab_threads == {threading.get_ident()}
        assert outputs[0] == outputs[1]
        # a harmonic phi1 gives u = t phi1, in itertools.product order
        _, rows = _read_csv(tmp_path / "4.csv")
        assert np.allclose(rows[:, 4], rows[:, 3] * (rows[:, 0] + 2 * rows[:, 1]),
                           rtol=0, atol=1e-12)
        assert np.array_equal(rows[:7 * 3:3, 1], np.linspace(-0.4, 0.4, 7))

    def test_threads_compute_amplitudes_once_per_time(self, tmp_path, monkeypatch):
        # the slabs of one time share its amplitudes
        monkeypatch.setattr(problems, "MIN_SLAB_POINTS", 1)
        calls = []
        amplitudes = IbvpEvaluator.amplitudes

        def counted(self, t):
            calls.append(t)
            return amplitudes(self, t)

        monkeypatch.setattr(IbvpEvaluator, "amplitudes", counted)
        cfgf = tmp_path / "p.ini"
        outputs = []
        for threads in (1, 4):
            calls.clear()
            out = tmp_path / f"{threads}.csv"
            cfgf.write_text(BOX_MODE.format(pi=math.pi, path=out)
                            .replace("x1 = 0.5:2.5:3", "x1 = 0.5:2.5:8"))
            assert main(["--threads", str(threads), "solve", str(cfgf)]) == 0
            assert calls == [0.0, 0.5, 1.0]
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_box_grid_memory_bounded(self, tmp_path):
        # the box synthesizes on per-axis sine tables, so a 64 x 64 x 16 grid
        # at k_max 24 holds no array of points times modes: the traced peak
        # was 593 MiB when the grid was synthesized as 65,536 stacked points
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(_box_config(3, 24, out)
                        .replace("kind = wave-multiple", "kind = heat-product")
                        .replace("x1 = 0.5:0.5:1", "x1 = 0.1:3:64")
                        .replace("x2 = 0.5:0.5:1", "x2 = 0.1:3:64")
                        .replace("x3 = 0.5:0.5:1", "x3 = 0.1:3:16")
                        .replace("t = 0:1:2", "t = 0.1:0.1:1"))
        tracemalloc.start()
        try:
            assert main(["solve", str(cfgf)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        _, rows = _read_csv(out)
        assert rows.shape == (64 * 64 * 16, 5)
        exact = np.exp(-0.3) * np.prod(np.sin(rows[:, :3]), axis=1)
        assert np.allclose(rows[:, 4], exact, rtol=0, atol=1e-12)

    def test_box_sine_table_memory_bounded(self):
        # a long 1-D axis holds its sine table, points times k_max values,
        # and no temporary of that size: the traced peak was 98 MiB at
        # 2^18 points, k_max 24, when the sine was not taken in place
        p = CauchyProblem("heat-product", 1, 1, (1.0,), None, (parse("sin(x1)", 1),))
        ev = solve_ibvp(p, build_basis([math.pi], 24))
        x = np.linspace(0.1, 3.0, 1 << 18)
        ev.evaluate(Mesh((x,)), [0.5])  # the amplitudes, cached
        table = x.nbytes * 24
        tracemalloc.start()
        try:
            u = ev.evaluate(Mesh((x,)), [0.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table <= peak < 1.25 * table
        assert np.allclose(u[:, 0], math.exp(-0.5) * np.sin(x), rtol=0, atol=1e-12)

    def test_heat_window_rejected(self, tmp_path, capsys):
        # the Gauss-Hermite rules have no window and start on the ladder's
        # first count; the old keys are errors
        for key in ("heat_window", "heat_nodes"):
            text = KIRCHHOFF.format(path=tmp_path / "o.csv") + (
                f"\n[quadrature]\n{key} = 32\n"
            )
            with pytest.raises(ConfigError, match=key):
                parse_config(text)
            cfgf = tmp_path / "p.ini"
            cfgf.write_text(text)
            assert main(["solve", str(cfgf)]) == 2
            assert key in capsys.readouterr().err

    def test_mixed_heat_cluster_solves(self, tmp_path):
        # speeds (1, 1, 2): whole-space heat takes any speed cluster
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(HEAT.format(path=out))
        assert main(["solve", str(cfgf)]) == 0
        _, rows = _read_csv(out)
        # the mode sin(x1) cos(x2) decays at lam = 2 under each factor
        mp = ModeProblem("heat", (1.0, 1.0, 2.0), (1.0, 1.0), (1.0, 0.0, 0.5))
        exact = [mode_solve(mp, t) for t in rows[:, 2]] \
            * np.sin(rows[:, 0]) * np.cos(rows[:, 1])
        assert np.allclose(rows[:, 3], exact, rtol=0, atol=1e-10)

    def test_one_evaluate_call_per_solve(self, tmp_path, monkeypatch):
        calls = []
        build = cli.build_evaluator

        def counting_build(cfg):
            ev = build(cfg)
            evaluate = ev.evaluate

            def counted(X, times, threads=1):
                calls.append((type(X), X.shape, times.shape))
                return evaluate(X, times, threads)

            ev.evaluate = counted
            return ev

        monkeypatch.setattr(cli, "build_evaluator", counting_build)
        for text in (KIRCHHOFF, BOX_MODE):
            calls.clear()
            out = tmp_path / "o.csv"
            cfgf = tmp_path / "p.ini"
            cfgf.write_text(text.format(pi=math.pi, path=out))
            assert main(["solve", str(cfgf)]) == 0
            # the grid as an open mesh: x1 has 3 points, x2 and x3 one each
            shape = (3, 1, 1, 3) if text is KIRCHHOFF else (3, 1)
            assert calls == [(Mesh, shape, (3,))]
            assert len(_read_csv(out)[1]) == 9

    def test_negative_box_wave_time_accepted(self, tmp_path):
        # the wave equation is time-reversible: u(x, -t) = u(x, t) here
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(
            BOX_MODE.format(pi=math.pi, path=out).replace("t = 0:1:3", "t = -1:0:2")
        )
        assert main(["solve", str(cfgf)]) == 0
        _, rows = _read_csv(out)
        exact = np.sin(rows[:, 0]) * np.cos(rows[:, 1])
        assert np.allclose(rows[:, 2], exact, atol=1e-10)

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.ini")]) == 2

    def test_main_called_again_in_one_process(self, tmp_path, capsys):
        # the parser is built once; no call's options leak into the next
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(KIRCHHOFF.format(path=out))
        assert main(["solve", str(cfgf), "--dump-config"]) == 0
        assert not out.exists()
        assert main(["sum-series", "--generator", "x1", "--z", "-0.5",
                     "--x-range=0:0.5:2"]) == 0
        assert main(["--threads", "2", "solve", str(cfgf)]) == 0
        assert _read_csv(out)[1].shape == (9, 5)
        assert main(["verify", "nope"]) == 2
        assert "x,f_z" in capsys.readouterr().out

    def test_dump_config(self, tmp_path, capsys):
        cfgf = tmp_path / "p.ini"
        cfgf.write_text(KIRCHHOFF.format(path="o.csv"))
        assert main(["solve", str(cfgf), "--dump-config"]) == 0
        text = capsys.readouterr().out
        reparsed = parse_config(text)
        assert reparsed.problem.kind == "wave-multiple"
        assert dump_config(reparsed) == text


class TestUnusualInput:
    """Valid but unusual input: a clean exit, never a traceback."""

    def _solve(self, tmp_path, phi, **problem):
        out = tmp_path / "o.csv"
        cfgf = tmp_path / "p.ini"
        text = KIRCHHOFF.format(path=out).replace("phi1 = 1", phi)
        for key, value in problem.items():
            text = re.sub(rf"{key} = .*", f"{key} = {value}", text)
        cfgf.write_text(text)
        return main(["solve", str(cfgf)]), out

    def test_polynomial_of_200_terms(self, tmp_path):
        # its code nested 200 parentheses, which Python does not compile
        poly = "+".join(f"{k}*x1" for k in range(1, 201))
        code, out = self._solve(tmp_path, f"phi0 = {poly}")
        assert code == 0
        _, rows = _read_csv(out)
        # within 1e-13 of the data's size, 10050 at |x1| = 0.5
        assert np.allclose(rows[:, 4], 20100 * rows[:, 0], rtol=0, atol=1e-9)

    def test_negative_constant_exponent(self, tmp_path):
        # the sphere means' gradient of (x1-5)^-2 went through
        # exp(-2*log(x1-5)), not finite for x1 < 5: exit 3
        values = []
        for i, phi in enumerate(["(x1-5)^-2", "(x1-5)^(-2)", "1/(x1-5)^2"]):
            out, cfgf = tmp_path / f"{i}.csv", tmp_path / f"{i}.ini"
            cfgf.write_text(_whole_space_config("wave-multiple", 3, out, ["0:0:1"] * 3)
                            .replace("sin(x1)", phi))
            assert main(["solve", str(cfgf)]) == 0
            values.append(_read_csv(out)[1][0, 4])
        # u(0, t) = d/dt [t / (25 - t^2)] = (25 + t^2) / (25 - t^2)^2 at t = 0.5
        assert values[0] == values[1] == values[2]
        assert values[0] == pytest.approx(25.25 / 24.75**2, rel=1e-12)

    @pytest.mark.parametrize("text, message", [
        ("(" * 300 + "x1" + ")" * 300, "levels deep"),
        ("-" * 2000 + "x1", "levels deep"),
        ("x1" + "+x1" * 5000, "levels deep"),
        ("x1" + "^x1" * 400, "levels deep"),
        ("x\u00b2", "unknown identifier"),
    ])
    def test_refused_text(self, tmp_path, capsys, text, message):
        # these raised RecursionError, MemoryError or ValueError
        code, out = self._solve(tmp_path, f"phi0 = {text}")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: in phi0: syntax error at offset")
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("m", 10**6, "need one speed per factor (1000000), got 1"),
        ("n", 10**6, "dimension must be between 1 and 5, got 1000000"),
    ])
    def test_counts_checked_before_keys_are_listed(self, tmp_path, capsys, key,
                                                   value, message):
        # m = 10^6 listed 2 * 10^6 data keys first: 1.9 s and 280 MiB
        tracemalloc.start()
        try:
            code, out = self._solve(tmp_path, "phi0 = x1", **{key: value})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert peak < 2**20
        assert not out.exists()


class TestVerifyCommand:
    def test_unknown_suite(self):
        assert main(["verify", "bogus"]) == 2

    def test_single_suite_passes(self, capsys):
        assert main(["verify", "opcalc"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
        # the ibvp suite reaches the oracle through the deferred import
        assert main(["verify", "ibvp"]) == 0

    def test_modes_suite_covers_high_order_and_distinct(self, capsys):
        assert main(["verify", "modes"]) == 0
        out = capsys.readouterr().out
        assert "PASS modes/wave-multiple-m3:" in out
        assert "PASS modes/wave-distinct-m2:" in out
        assert "PASS modes/wave-distinct-near:" in out
        assert "PASS modes/wave5-multiple-m2:" in out
        assert "PASS modes/wave-distinct-equal:" in out

    def test_json_records(self, capsys, monkeypatch):
        # one JSON array of the records the text lines print, the same exit
        # codes
        from waveforge import verify

        assert main(["verify", "modes", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert main(["verify", "modes"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(records) == len(lines) - 1 >= 7
        for record, line in zip(records, lines):
            assert set(record) == {"suite", "name", "measured", "tolerance", "passed"}
            assert record["passed"] is True and record["suite"] == "modes"
            assert line == verify.CheckResult(**{k: v for k, v in record.items()
                                                 if k != "passed"}).line()
        monkeypatch.setitem(verify.SUITES, "modes",
                            lambda: [verify.CheckResult("modes", "off", 2.0, 1.0)])
        assert main(["verify", "--json", "modes"]) == 1
        assert json.loads(capsys.readouterr().out) == [
            {"suite": "modes", "name": "off", "measured": 2.0, "tolerance": 1.0,
             "passed": False}]

    def test_ibvp_suite_covers_near_equal_heat(self, capsys):
        assert main(["verify", "ibvp", "--json"]) == 0
        records = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
        assert records["heat2-near-equal-modes"]["passed"] is True
        assert records["heat2-near-equal-modes"]["tolerance"] == 1e-9

    def test_wave_suite_covers_the_sphere_ladder(self, capsys):
        assert main(["verify", "wave"]) == 0
        out = capsys.readouterr().out
        assert "PASS wave/sphere-mode-resolved:" in out
        assert "PASS wave/sphere-unresolved-raises:" in out

    def test_heat_suite_covers_mixed_cluster(self, capsys):
        assert main(["verify", "heat"]) == 0
        out = capsys.readouterr().out
        assert "PASS heat/mixed-cluster-modes:" in out
        assert "PASS heat/sharp-mode-resolved:" in out
        assert "PASS heat/unresolved-raises:" in out
        assert "PASS heat/time-rule-resolved:" in out
        assert "PASS heat/time-rule-unresolved-raises:" in out

    @pytest.mark.parametrize("suite", ["residual", "all"])
    def test_residual_and_all_suites_pass(self, capsys, suite):
        assert main(["verify", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS residual/wave-m1-order:" in out
        assert "FAIL" not in out
        passed, total = re.fullmatch(
            r"(\d+)/(\d+) checks passed", out.splitlines()[-1]).groups()
        assert passed == total


WAVE5 = """
[problem]
kind = wave-multiple
n = 5
m = 1
speeds = 1.0

[data]
phi0 = sin(x1 + x2)
phi1 = cos(x3)

[domain]
x1 = 0.1:0.1:1
x2 = 0:0:1
x3 = 0.2:0.2:1
x4 = 0:0:1
x5 = 0:0:1
t = 0:0.5:2

[quadrature]
sphere_degree = 4
n_radial = 4

[output]
path = {path}
"""

# a mixed speed cluster: one double speed and one simple
HEAT = """
[problem]
kind = heat-product
n = 2
m = 3
speeds = 1.0, 1.0, 2.0

[data]
phi0 = sin(x1)*cos(x2)
phi2 = 0.5*sin(x1)*cos(x2)

[domain]
x1 = 0:1:2
x2 = 0:0:1
t = 0:0.5:2

[output]
path = {path}
"""

# the source's frequency in time grows with x1
CLI_IMPORTS = """
import sys
import waveforge.cli
print(" ".join(m for m in ("waveforge.opcalc", "waveforge.verify") if m in sys.modules))
"""

SOLVE_IMPORTS = """
import sys
from waveforge.cli import main
for ini in sys.argv[1:]:
    assert main(["solve", ini]) == 0, ini
print(" ".join(m for m in ("scipy", "waveforge.oracle") if m in sys.modules))
"""


class TestSolveImports:
    @staticmethod
    def _run(code, *args):
        src = str(Path(waveforge.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        return subprocess.run([sys.executable, "-c", code, *args],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    def test_cli_import_leaves_out_opcalc_and_verify(self):
        # sum-series and verify import what only they use when they run
        proc = self._run(CLI_IMPORTS)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_threads_split_in_one_module(self):
        # problems.py alone splits a grid for threads; no solver holds
        # concurrency state
        pkg = Path(waveforge.__file__).resolve().parent
        importers = []
        for path in sorted(pkg.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(n == "threading" or n.startswith("concurrent") for n in names):
                    importers.append(path.name)
        assert set(importers) == {"problems.py"}

    def test_every_exported_name_exists(self):
        # a public name that goes must leave __all__ with it
        pkg = Path(waveforge.__file__).resolve().parent
        stale = []
        for path in sorted(pkg.glob("*.py")):
            module = importlib.import_module(f"waveforge.{path.stem}")
            stale += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                      if not hasattr(module, name)]
        assert stale == []

    def test_solve_loads_neither_scipy_nor_oracle(self, tmp_path):
        # solvers stay independent of the oracle, and solve runs on numpy
        # alone; a fresh interpreter shows what one solve imports
        inis = []
        for name, text in (("wave5", WAVE5), ("heat", HEAT), ("box", BOX_MODE)):
            ini = tmp_path / f"{name}.ini"
            ini.write_text(text.format(pi=math.pi, path=tmp_path / f"{name}.csv"))
            inis.append(str(ini))
        proc = self._run(SOLVE_IMPORTS, *inis)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""


class TestSumSeriesCommand:
    def test_square_wave(self, tmp_path):
        # sum 4/(pi j) sin(j pi x), odd j: generator of the sine channel
        # is 2/pi log((1+t)/(1-t))
        out = tmp_path / "sq.csv"
        rc = main([
            "sum-series",
            "--sine-generator", "(2/pi)*log((1 + x1)/(1 - x1))",
            "--x-range=-0.9:0.9:7",
            "--z=-0.001",
            "--output", str(out),
        ])
        assert rc == 0
        _, rows = _read_csv(out)
        interior = rows[~np.isclose(rows[:, 0], 0.0)]
        assert np.allclose(interior[:, 1], np.sign(interior[:, 0]), atol=0.01)

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "sq.csv"
        rc = main(["sum-series", "--sine-generator", "(2/pi)*log((1 + x1)/(1 - x1))",
                   "--x-range=-0.5:0.5:3", "--z=-0.1", "--output", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output: ")
        assert str(out) in captured.err and captured.out == ""
        assert not out.exists()

    def test_nonnegative_z_rejected(self):
        rc = main([
            "sum-series", "--generator", "x1", "--z", "0.0",
        ])
        assert rc == 2

    @pytest.mark.parametrize("flags, message", [
        (["--z", "nan"], "--z must be finite, got nan"),
        (["--z=-inf"], "--z must be finite, got -inf"),
        (["--z=-0.1", "--half-period", "nan"], "--half-period must be finite, got nan"),
        (["--z=-0.1", "--half-period", "inf"], "--half-period must be finite, got inf"),
        (["--z=-0.1", "--x-range", "nan:1:3"],
         "--x-range bound must be finite, got nan"),
        (["--z=-0.1", "--x-range", "0:inf:3"],
         "--x-range bound must be finite, got inf"),
        (["--z=-0.1", f"--x-range=0:1:{MAX_ROWS + 1}"],
         f"--x-range count must be between 0 and {MAX_ROWS}, got {MAX_ROWS + 1}"),
    ])
    def test_bad_numbers_rejected(self, flags, message, capsys):
        # each used to exit 3 after a numpy warning, or to run unbounded
        assert main(["sum-series", "--generator", "x1"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_generator_required(self):
        assert main(["sum-series", "--z", "-0.1"]) == 2
