"""Benchmark of `waveforge solve` on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Defaults: every workload in turn, seed 0, 55 seconds, untraced.  Run
from the root of a source checkout; waveforge is imported from ``src/``.
Each measured process is a fresh interpreter started by this script, one
at a time, with WAVEFORGE_THREADS and WAVEFORGE_ACCEL unset so the CLI
defaults are measured.  Working files go to ``.perfbench_run/``.

``--trace 0`` alternates, until ``--seconds`` are used, a set-up process
(import, then load_config and build_evaluator per config) and a solve
process, which runs one pass of ``cli.main(["solve", ini])`` over the
configs in order.  It reports the medians over processes of setup_s,
solve_s and peak_rss_mb.

``--trace 1`` alternates an untraced and a traced solve process, one pass
each, and reports the per-module metrics of the traced pass with the
median solve_s, so the module self times sum to ``trace.solve_s``.

Every CSV written is checked against the workload's independent
reference; a solve with a non-zero exit code, a wrong grid or a value
outside its tolerance counts as failed.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")

# a run, with every process it starts, ends within 180 s
DEADLINE_S = 170.0
# measured processes run single-threaded BLAS: on a shared 2-CPU host the
# default (one thread per CPU) made solve_s both slower and noisier
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
UNSET_VARS = ("WAVEFORGE_THREADS", "WAVEFORGE_ACCEL")


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts the measured processes one at a time, within the deadline."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k not in UNSET_VARS}
        self.env.update({v: "1" for v in BLAS_THREAD_VARS})
        self.env["PYTHONPATH"] = SRC

    def child(self, mode: str, inis) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise ChildFailed("out of time")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
               self.workdir, *inis]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} process killed at the deadline") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{mode} process exited {proc.returncode}: "
                              + proc.stderr.strip()[-2000:])
        return json.loads(lines[-1])


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        from waveforge import accel
        backend = accel.backend_name()
    except ImportError:
        backend = "none"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "accel_backend": backend,
        "blas": blas.get("name"),
        "blas_threads": dict.fromkeys(BLAS_THREAD_VARS, "1"),
        "unset": list(UNSET_VARS),
    }


def spread(values) -> dict:
    """Median, quartiles and sample count."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


class Checker:
    """Checks the CSVs of one solve process against the references."""

    def __init__(self, configs):
        self.configs = configs
        self.expected = []
        for cfg in configs:
            rows = cfg.rows()
            self.expected.append(cfg.reference(rows[:, :-1], rows[:, -1]))
        self.attempted = 0
        self.failed = 0
        self.worst = {cfg.name: 0.0 for cfg in configs}
        self.reasons: list[str] = []

    def clear(self):
        for cfg in self.configs:
            if os.path.exists(cfg.output):
                os.remove(cfg.output)

    def check(self, codes) -> None:
        """Check the CSVs on disk, written by solves that exited with codes."""
        for cfg, expected, code in zip(self.configs, self.expected, codes):
            self.attempted += 1
            if code != 0:
                ok, worst, why = False, math.inf, f"exit code {code}"
            else:
                ok, worst, why = workloads.check_csv(cfg, cfg.output, expected)
            self.worst[cfg.name] = max(self.worst[cfg.name], worst)
            if not ok:
                self.failed += 1
                self.reasons.append(f"{cfg.name}: {why}")

    def fail_all(self, why: str) -> None:
        self.attempted += len(self.configs)
        self.failed += len(self.configs)
        self.reasons.append(why)


def prepare(workload: str, seed: int, size: str):
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    configs = workloads.build(workload, seed, size)
    inis = []
    for cfg in configs:
        cfg.output = os.path.join(workdir, cfg.name + ".csv")
        cfg.sections["output"] = {"path": cfg.output}
        ini = os.path.join(workdir, cfg.name + ".ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(cfg.ini_text())
        inis.append(ini)
    return workdir, configs, inis


def csv_totals(configs) -> dict:
    """Data rows and bytes of the CSVs a solve process left."""
    rows = nbytes = 0
    for cfg in configs:
        if not os.path.exists(cfg.output):
            continue
        with open(cfg.output, "rb") as fh:
            data = fh.read()
        nbytes += len(data)
        rows += max(data.count(b"\n") - 1, 0)
    return {"rows": rows, "csv_bytes": nbytes}


def measure(runner: Runner, checker: Checker, inis, seconds: float,
            traced: bool) -> dict:
    """Repeat the measured processes until ``seconds`` are used.

    Every sample comes from a process of its own, so a median over them
    is a median over independent samples.
    """
    samples = {"setup_s": [], "solve_s": [], "peak_rss_mb": [], "traced": []}
    try:
        # untimed: writes byte-code caches and warms the page cache
        runner.child("setup", [])
    except ChildFailed as exc:
        checker.fail_all(str(exc))
        return samples
    start = time.monotonic()
    while True:
        began = time.monotonic()
        try:
            if not traced:
                samples["setup_s"].append(runner.child("setup", inis)["setup_s"])
            checker.clear()
            res = runner.child("solve", inis)
            checker.check(res["codes"])
            samples["solve_s"].append(res["solve_s"])
            samples["peak_rss_mb"].append(res["peak_rss_mb"])
            if traced:
                checker.clear()
                res = runner.child("trace", inis)
                checker.check(res["codes"])
                res["csv"] = csv_totals(checker.configs)
                samples["traced"].append(res)
        except ChildFailed as exc:
            checker.fail_all(str(exc))
            break
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    return samples


def layer_metrics(samples, declared, defs) -> tuple[dict, list]:
    """Per-layer metrics of the traced process with the median solve_s."""
    runs = sorted(samples["traced"], key=lambda r: r["solve_s"])
    run = runs[(len(runs) - 1) // 2]
    tr = run["trace"]
    untraced = statistics.median(samples["solve_s"])
    out = {}
    for m in declared:
        span, stat = defs[m["name"]]["span"], defs[m["name"]]["stat"]
        if stat == "self":
            value = tr["self"].get(span, 0.0)
        elif stat == "total":
            value = tr["total"].get(span, 0.0)
        elif stat == "calls":
            value = tr["calls"].get(span, 0)
        elif stat == "overhead":
            value = run["solve_s"] - untraced
        elif stat in ("rows", "csv_bytes"):
            value = run["csv"][stat]
        else:
            value = tr["counts"].get(f"{span}.{stat}", 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    counts = [r["trace"]["counts"] | r["trace"]["calls"] for r in runs]
    if any(c != counts[0] for c in counts):
        print("warning: traced counts differ between processes", file=sys.stderr)
    return out, run["absent"]


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 env: dict, size: str = "full") -> dict:
    """Measure one workload, print its report, return its result object.

    ``size`` "min" runs every config at its smallest grid, for the
    self-test.
    """
    deadline = time.monotonic() + DEADLINE_S
    workdir, configs, inis = prepare(workload, seed, size)
    checker = Checker(configs)
    samples = measure(Runner(workdir, deadline), checker, inis, seconds, traced)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)

    summary = {"workload": workload, "seed": seed, "size": size,
               "env": env, "attempted": checker.attempted,
               "failed": checker.failed, "failures": checker.reasons[:20],
               "tolerance": {c.name: c.tol for c in configs},
               "max_error": checker.worst,
               "samples": {k: v for k, v in samples.items() if k != "traced"}}
    print(f"workload: {workload} (seed {seed})")
    for cfg in configs:
        print(f"config {cfg.name}: max error {checker.worst[cfg.name]:.3e} "
              f"(tolerance {cfg.tol:.0e}{', relative' if cfg.rel_floor else ''})")
    fail_rate = checker.failed / checker.attempted
    print(f"fail_rate: {fail_rate:.4f} ratio ({checker.failed}/{checker.attempted})")
    for why in checker.reasons[:20]:
        print(f"failure: {why}")

    metrics = {}
    if not traced:
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        for name in ("solve_s", "setup_s", "peak_rss_mb"):
            if not samples[name]:
                continue
            s = spread(samples[name])
            summary[name] = s
            print(f"{name}: median {s['median']:.6g} {units[name]} "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
            metrics[name] = {"value": s["median"], "unit": units[name]}
    elif samples["traced"] and samples["solve_s"]:
        metrics, absent = layer_metrics(samples, declared["per_layer"],
                                        tracing.load_metrics()["per_layer"])
        summary["absent"] = absent
        if absent:
            print("absent modules (reported as 0): " + ", ".join(absent))
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    summary["metrics"] = metrics
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return {"correct": checker.failed == 0 and bool(metrics),
            "attempted": checker.attempted, "failed": checker.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "waveforge", "__init__.py")):
        print(f"error: no waveforge sources under {SRC}", file=sys.stderr)
        return 2
    for var in UNSET_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"error: workload must be 'all' or one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    env = environment()
    print("env: " + json.dumps(env))
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), env)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}.{k}": v for wl, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
