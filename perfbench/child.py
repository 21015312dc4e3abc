"""One measured process: set-up, a plain pass, or a traced pass.

    python3 perfbench/child.py setup WORKDIR INI...
    python3 perfbench/child.py solve WORKDIR INI...
    python3 perfbench/child.py trace WORKDIR INI...

``waveforge`` must be importable (``PYTHONPATH=src``).  The last line of
standard output is one JSON object with the measurements.

``setup`` imports nothing before its clock starts, so it times the cold
import of numpy, scipy and waveforge as a user's first command pays it,
then ``load_config`` and ``build_evaluator`` for every config.

``solve`` imports waveforge, then runs ``cli.main(["solve", ini])`` once
for every config in order (a pass) and reports the pass's wall time and
the process's peak resident memory.  ``trace`` runs one pass with every
layer wrapped in spans.
"""

import json
import os
import resource
import sys
from time import perf_counter


def setup(inis):
    start = perf_counter()
    import waveforge  # noqa: F401  (the package import is part of set-up)
    from waveforge import cli, config

    for ini in inis:
        cli.build_evaluator(config.load_config(ini))
    return {"setup_s": perf_counter() - start}


def solve(inis):
    from waveforge import cli

    times, codes = [], []
    for ini in inis:
        began = perf_counter()
        codes.append(cli.main(["solve", ini]))
        times.append(perf_counter() - began)
    return {"solve_s": sum(times), "config_s": times, "codes": codes,
            "peak_rss_mb": _peak_rss_mb()}


def trace(inis, workdir):
    from waveforge import cli

    import tracing

    tracer = tracing.Tracer()
    absent = tracing.install(tracer)
    times, codes = [], []
    for i, ini in enumerate(inis):
        tracer.solve = i
        idx = tracer.begin("cli.main")
        try:
            codes.append(cli.main(["solve", ini]))
        finally:
            tracer.end(idx)
        rec = tracer.spans[idx]
        times.append(rec[4] - rec[3])
    tracer.write(os.path.join(workdir, "trace.csv"))
    return {"solve_s": sum(times), "config_s": times, "codes": codes,
            "trace": tracer.summary(), "absent": absent}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    mode, workdir, inis = argv[0], argv[1], argv[2:]
    if mode == "setup":
        result = setup(inis)
    elif mode == "solve":
        result = solve(inis)
    elif mode == "trace":
        result = trace(inis, workdir)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
