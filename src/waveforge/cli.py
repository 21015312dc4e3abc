"""Command-line front end.

Subcommands::

    waveforge solve <config>        evaluate a problem on a grid, write CSV
    waveforge verify <suite>        run a verification suite (or 'all')
    waveforge sum-series ...        Abel-Poisson sum of a Fourier series

Exit codes: 0 success, 1 verification failure, 2 configuration or usage
error, 3 evaluation failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .config import ProblemConfig, dump_config, load_config
from .errors import ConfigError, WaveforgeError
from .expr import parse
from .heat_solver import solve_heat_product
from .ibvp import build_basis, solve_ibvp
from .wave_solver import solve_wave

__all__ = ["main", "build_evaluator"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_EVAL = 3


def _format(v: float) -> str:
    """Scientific notation with 17 significant digits."""
    return f"{v:.16e}"


def build_evaluator(cfg: ProblemConfig):
    """Construct the solver the config asks for."""
    if cfg.box is not None:
        basis = build_basis(cfg.box, cfg.k_max)
        return solve_ibvp(cfg.problem, basis, cfg.quadrature)
    if cfg.problem.kind == "heat-product":
        return solve_heat_product(cfg.problem)
    return solve_wave(cfg.problem, cfg.quadrature)


def _cmd_solve(args) -> int:
    if args.threads < 1:
        print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.dump_config:
        sys.stdout.write(dump_config(cfg))
        return EXIT_OK
    try:
        ev = build_evaluator(cfg)
        mesh = np.meshgrid(*[ax.points() for ax in cfg.axes], indexing="ij")
        points = np.stack([g.reshape(-1) for g in mesh], axis=-1)
        times = cfg.t_axis.points()
        # a point's value does not depend on the other points in its call, so
        # the output is the same for every thread count; this thread takes the
        # first chunk, so one thread starts no pool, and no more pool threads
        # start than there are CPUs (with the bounded reductions a pool
        # thread's own malloc arena adds no measurable peak RSS)
        chunks = np.array_split(points, min(args.threads, len(points)))
        workers = min(len(chunks) - 1, os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
            rest = [pool.submit(ev.evaluate, c, times) for c in chunks[1:]]
            parts = [ev.evaluate(chunks[0], times)] + [f.result() for f in rest]
        values = np.concatenate(parts)
    except WaveforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL

    header = ",".join([f"x{i + 1}" for i in range(cfg.problem.n)] + ["t", "u"])
    return _write(cfg.output_path,
                  itertools.chain([header + "\n"], _csv_rows(points, times, values)))


def _write(path: str, lines) -> int:
    """Write ``lines`` to the file ``path``: EXIT_OK, or EXIT_CONFIG with a
    message when the path cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _csv_rows(points: np.ndarray, times: np.ndarray, values: np.ndarray):
    """CSV rows in itertools.product(x1, ..., xn, t) order, t fastest, each
    number as _format writes it.  Each point's coordinates, each time and
    each value are formatted once."""
    fmt = "%.16e".__mod__
    heads = [",".join(map(fmt, p)) + "," for p in points.tolist()]
    tails = [fmt(t) + "," for t in times.tolist()]
    vals = map(fmt, values.reshape(-1).tolist())
    for head in heads:
        for tail, v in zip(tails, vals):
            yield head + tail + v + "\n"


def _cmd_verify(args) -> int:
    # verify pulls in the oracle and its ODE integrator; solve never uses them
    from .verify import SUITES, run_suite

    if args.suite != "all" and args.suite not in SUITES:
        names = ", ".join(sorted(SUITES) + ["all"])
        print(f"error: unknown suite '{args.suite}' (choose from {names})",
              file=sys.stderr)
        return EXIT_CONFIG
    results = run_suite(args.suite)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def _cmd_sum_series(args) -> int:
    # like verify, sum-series needs a module that solve never uses
    from .opcalc import FourierSeriesSpec, abel_poisson_sum

    if args.z >= 0:
        print("error: z must be negative", file=sys.stderr)
        return EXIT_CONFIG
    try:
        gens = {}
        if args.generator:
            gens["s_plus"] = parse(args.generator, 1)
        if args.sine_generator:
            gens["s_minus"] = parse(args.sine_generator, 1)
        if not gens:
            print("error: need --generator or --sine-generator", file=sys.stderr)
            return EXIT_CONFIG
        spec = FourierSeriesSpec(args.half_period, **gens)
    except WaveforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        lo, hi, count = args.x_range.split(":")
        xs = np.linspace(float(lo), float(hi), int(count))
    except ValueError:
        print("error: --x-range must be lo:hi:count", file=sys.stderr)
        return EXIT_CONFIG
    try:
        values = [abel_poisson_sum(spec, float(x), args.z) for x in xs]
    except WaveforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    lines = ["x,f_z\n"] + [f"{_format(float(x))},{_format(v)}\n"
                           for x, v in zip(xs, values)]
    if args.output:
        return _write(args.output, lines)
    sys.stdout.writelines(lines)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="waveforge",
        description="Closed-form wave and heat equation evaluation",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="grid evaluation threads (default: 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="evaluate a problem config on a grid")
    p_solve.add_argument("config", help="path to an INI problem config")
    p_solve.add_argument(
        "--dump-config", action="store_true",
        help="echo the parsed config in canonical form and exit",
    )
    p_solve.set_defaults(fn=_cmd_solve)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help="modes|wave|residual|heat|ibvp|opcalc|all")
    p_verify.set_defaults(fn=_cmd_verify)

    p_sum = sub.add_parser("sum-series", help="Abel-Poisson Fourier summation")
    p_sum.add_argument("--generator", help="cosine-channel generator S(t)")
    p_sum.add_argument("--sine-generator", help="sine-channel generator")
    p_sum.add_argument("--half-period", type=float, default=1.0)
    p_sum.add_argument("--x-range", default="-1:1:101", help="lo:hi:count")
    p_sum.add_argument("--z", type=float, required=True, help="negative radius log")
    p_sum.add_argument("--output", help="CSV path (default stdout)")
    p_sum.set_defaults(fn=_cmd_sum_series)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
