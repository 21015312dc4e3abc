"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at its smallest size, untraced and twice traced, and
checks that:

* every end-to-end and per-module metric is emitted with its unit, the
  names and units agree with BENCHMARK.json, and no solve failed;
* counts repeat exactly between the two traced runs, and the module self
  times sum to the traced solve_s;
* the CSV check counts a corrupted value and a missing row as failures;
* a wrap point that is gone makes its module absent instead of an error;
* without the program's sources the benchmark exits non-zero and prints
  no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3
ENV = run.environment()
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result(workload: str, trace: int) -> tuple[dict, list[str]]:
    """One run at the smallest size, in this process; (result, report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        res = run.run_workload(workload, SEED, 1.0, bool(trace), ENV, size="min")
    return res, out.getvalue().splitlines()


def check_metrics(workload: str, res: dict, declared: list, label: str) -> None:
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result has exactly the contract keys")
    expect(res.get("correct") is True and res.get("failed") == 0,
           f"{label}: every solve correct")
    got = {k: v["unit"] for k, v in res.get("metrics", {}).items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{label}: metrics and units match BENCHMARK.json")


def check_workload(workload: str, bench_json: dict) -> None:
    res, lines = result(workload, 0)
    check_metrics(workload, res, bench_json["end_to_end"], f"{workload} untraced")
    expect(any(line.startswith("fail_rate: 0.0000 ratio") for line in lines),
           f"{workload}: fail_rate 0 printed with its unit")
    for name in ("solve_s", "setup_s", "peak_rss_mb"):
        expect(any(line.startswith(f"{name}: median") for line in lines),
               f"{workload}: {name} printed with median and quartiles")
    check_csv_failures(workload)

    first, _ = result(workload, 1)
    second, _ = result(workload, 1)
    check_metrics(workload, first, bench_json["per_layer"], f"{workload} traced")
    counts = [{k: v["value"] for k, v in r.get("metrics", {}).items()
               if v["unit"] != "s"} for r in (first, second)]
    expect(bool(counts[0]) and counts[0] == counts[1],
           f"{workload}: counts repeat between traced runs")
    m = first.get("metrics", {})
    selfs = [m[name]["value"] for name, d in tracing.load_metrics()["per_layer"].items()
             if d["stat"] == "self"]
    total = m.get("trace.solve_s", {}).get("value", -1.0)
    expect(abs(sum(selfs) - total) <= 1e-6 * max(total, 1e-9),
           f"{workload}: module self times sum to trace.solve_s")


def check_csv_failures(workload: str) -> None:
    """The CSVs of the untraced run pass; corrupted copies fail."""
    configs = workloads.build(workload, SEED, "min")
    for cfg in configs:
        cfg.output = os.path.join(run.WORK, workload, cfg.name + ".csv")
    checker = run.Checker(configs)
    checker.check([0] * len(configs))
    expect(checker.failed == 0, f"{workload}: untraced CSVs pass the check")

    cfg = configs[0]
    with open(cfg.output, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-3)
    bad = [lines[0], ",".join(cells)] + lines[2:]
    for text, what in (("\n".join(bad) + "\n", "corrupted value"),
                       ("\n".join(lines[:1]) + "\n", "missing row")):
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        checker = run.Checker(configs)
        checker.check([0] * len(configs))
        expect(checker.failed == 1, f"{workload}: a {what} counts as a failure")


def check_absent_layer() -> None:
    import waveforge.wave_solver as ws

    saved = ws.differentiate_samples
    del ws.differentiate_samples
    try:
        absent = tracing.install(tracing.Tracer())
    finally:
        ws.differentiate_samples = saved
    expect(absent == ["fd"], "a removed wrap point reports its module absent")


def check_empty_checkout() -> None:
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("--workload", "dense-grid", "--seed", "0",
                        "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not any(line.startswith("{") for line in lines),
           "without sources: non-zero exit and no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench_json = json.load(fh)
    expect({w["name"] for w in bench_json["workloads"]} <= set(workloads.WORKLOADS),
           "every workload of BENCHMARK.json is generated by workloads.py")
    for workload in workloads.WORKLOADS:
        check_workload(workload, bench_json)
    check_absent_layer()
    check_empty_checkout()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
