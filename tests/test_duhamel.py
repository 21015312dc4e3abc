"""The Duhamel term of the whole-space solvers, kernel time outside and
source time inside, against the conical product in the other order."""

import types

import numpy as np
import pytest

from waveforge import heat_solver, problems, wave_solver
from waveforge.expr import parse
from waveforge.heat_solver import solve_heat_product
from waveforge.problems import CauchyProblem
from waveforge.wave_solver import solve_wave


def _source(n: int, s: str) -> str:
    """A source that is no product of a function of x and one of time, at
    the time ``s``: the text "t", or a number."""
    return f"sin(x1 - {s})*exp(-0.2*x{min(n, 2)}^2) + x{min(n, 3)}*{s}"


def _solver(problem):
    return solve_heat_product if problem.kind == "heat-product" else solve_wave


CASES = {
    "heat-n1-equal": ("heat-product", 1, (0.7, 0.7)),
    "heat-n1-distinct": ("heat-product", 1, (0.6, 1.3)),
    "heat-n2-equal": ("heat-product", 2, (0.7, 0.7)),
    "heat-n2-distinct": ("heat-product", 2, (0.6, 1.3)),
    "heat-n3-equal": ("heat-product", 3, (0.7, 0.7)),
    "heat-n3-distinct": ("heat-product", 3, (0.6, 1.3)),
    "wave3-multiple-m2": ("wave-multiple", 3, (0.8, 0.8)),
    "wave3-multiple-m3": ("wave-multiple", 3, (0.9, 0.9, 0.9)),
    "wave5-multiple-m1": ("wave-multiple", 5, (1.1,)),
    "wave3-distinct-m2": ("wave-distinct", 3, (1.0, 1.7)),
}


def _problem(case: str) -> CauchyProblem:
    """The case's problem with zero data, so its solution is the Duhamel
    term alone."""
    kind, n, speeds = CASES[case]
    count = len(speeds) * (1 if kind == "heat-product" else 2)
    return CauchyProblem(kind, n, len(speeds), speeds, parse(_source(n, "t"), n),
                         (None,) * count)


def _source_time_outer(problem, points, t, count=16):
    """The Duhamel term at time t by the conical product with the source
    time outside: sum_k t w_k v_k(t - sigma_k), with sigma_k = t z_k on the
    count-node Gauss-Legendre rule on (0, 1) and v_k the solution without a
    source whose last datum is the source at sigma_k, so that each v_k
    takes the kernel times inside on its own time rules."""
    z, w = np.polynomial.legendre.leggauss(count)
    total = np.zeros(len(points))
    for zk, wk in zip((z + 1) / 2, w / 2):
        sigma = t * zk
        last = parse(_source(problem.n, repr(float(sigma))), problem.n)
        data = (None,) * (len(problem.data) - 1) + (last,)
        free = CauchyProblem(problem.kind, problem.n, problem.m, problem.speeds,
                             None, data)
        total += t * wk * _solver(free)(free).evaluate(points, [t - sigma])[:, 0]
    return total


@pytest.mark.parametrize("case", list(CASES))
def test_matches_the_source_time_outer_order(case):
    problem = _problem(case)
    ev = _solver(problem)(problem)
    points = np.random.default_rng(11).uniform(-0.5, 0.5, size=(2, problem.n))
    for t in (0.4, 1.0):
        got = ev.evaluate(points, [t])[:, 0]
        want = _source_time_outer(problem, points, t)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["heat-n2-distinct", "wave3-multiple-m2",
                                  "wave3-multiple-m3", "wave3-distinct-m2"])
def test_count_entries_per_point_and_rung(case, monkeypatch):
    # every kernel call asks for as many times per point as the rungs' rules
    # have nodes, count and not count^2, the first two rungs in one call;
    # the source integral row carries the longest rule's count source times
    # of each kernel time, for each of its Q fields
    events, kernels = [], []
    rule = problems.gauss_legendre
    monkeypatch.setattr(problems, "gauss_legendre",
                        lambda count, a, b: events.append(("rung", count)) or rule(count, a, b))

    def recorded(cluster_evaluator):
        def build(problem, kernel):
            def recording(fields, c):
                apply = kernel(fields, c).apply_many
                kernels.append(fields)

                def call(points, taus, t_args=None, t_weights=None, **cosh):
                    events.append(("kernel", len(fields), len(points), np.size(taus),
                                   np.shape(t_args), np.shape(t_weights)))
                    return apply(points, taus, t_args, t_weights=t_weights, **cosh)

                return types.SimpleNamespace(apply_many=call)

            return cluster_evaluator(problem, recording)

        return build

    for module in (heat_solver, wave_solver):
        monkeypatch.setattr(module, "cluster_evaluator",
                            recorded(module.cluster_evaluator))
    problem = _problem(case)
    ev = _solver(problem)(problem)
    points = np.random.default_rng(11).uniform(-0.5, 0.5, size=(3, problem.n))
    ev.evaluate(points, [0.8])
    # (the counts asked together, the kernel calls that take them)
    blocks = []
    for event in events:
        if event[0] == "rung":
            if not blocks or blocks[-1][1]:
                blocks.append(([], []))
            blocks[-1][0].append(event[1])
        else:
            blocks[-1][1].append(event[1:])
    rungs = [count for asked, _ in blocks for count in asked]
    assert rungs == list(problems.TIME_LADDER[:len(rungs)]) and len(rungs) >= 2
    assert [len(asked) for asked, _ in blocks] == [2] + [1] * (len(blocks) - 1)
    for asked, calls in blocks:
        # one call per kernel, each of every node of the rules per point
        assert len(calls) == len(kernels)
        widths = set()
        for q, size, times, args, weights in calls:
            assert size == len(points) and times == sum(asked)
            assert args[0] == weights[0] == times
            assert weights[1] == q * args[1] and args[1] in (1, max(asked))
            widths.add(args[1])
        assert max(asked) in widths
