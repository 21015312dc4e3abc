"""The ruled terms of the whole-space solve path: the data's integral
terms and the source's integral and value terms, taken in one loop."""

import numpy as np
import pytest

from waveforge import problems
from waveforge.expr import compile_field, parse
from waveforge.problems import CauchyProblem

from test_duhamel import _solver, _source

CASES = {
    "heat-m3-distinct": ("heat-product", 2, (0.5, 0.9, 1.4)),
    "wave-distinct-m2": ("wave-distinct", 3, (0.8, 1.5)),
}


def _problems(case: str):
    """The case with every datum nonzero and a non-separable source, with
    its data alone, and with its source alone."""
    kind, n, speeds = CASES[case]
    count = len(speeds) * (1 if kind == "heat-product" else 2)
    data = tuple(parse(f"{1 + r}*sin(x1 + {0.3 * r}*x{n}) + {0.2 * r}*cos(x2)", n)
                 for r in range(count))
    source = parse(_source(n, "t"), n)
    m = len(speeds)
    return (CauchyProblem(kind, n, m, speeds, source, data),
            CauchyProblem(kind, n, m, speeds, None, data),
            CauchyProblem(kind, n, m, speeds, source, (None,) * count))


def _points(n: int) -> np.ndarray:
    return np.random.default_rng(5).uniform(-0.5, 0.5, size=(3, n))


@pytest.mark.parametrize("case", list(CASES))
def test_data_and_source_terms_add(case):
    full, data, forced = (_solver(p)(p) for p in _problems(case))
    points = _points(full.problem.n)
    times = [0.4, 1.0]
    got = full.evaluate(points, times)
    want = data.evaluate(points, times) + forced.evaluate(points, times)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got))


@pytest.mark.parametrize("case", list(CASES))
def test_time_zero_takes_the_data_value_terms_alone(case, monkeypatch):
    # every ruled term vanishes at t = 0, so no time rule is built
    built, rule = [], problems.gauss_legendre
    monkeypatch.setattr(problems, "gauss_legendre",
                        lambda count, a, b: built.append(count) or rule(count, a, b))
    full, data, _ = _problems(case)
    points = _points(full.n)
    got = _solver(full)(full).evaluate(points, [0.0])
    assert built == []
    assert np.array_equal(got, _solver(data)(data).evaluate(points, [0.0]))
    assert built == []
    # the value terms at t = 0 give the first datum
    phi0 = compile_field(full.data[0])(points)
    assert np.max(np.abs(got[:, 0] - phi0)) <= 1e-12 * np.max(np.abs(phi0))
