"""One workload's studies, run in a fresh interpreter.

    python3 perfbench/worker.py CONFIG.json [--probe]

run.py starts this with the BLAS thread count already pinned in the
environment, so numpy sees it at import.  The worker imports enrfem from
the checkout's ``src``, resolves the workload's first problem and prints
``ready``; with ``--probe`` it stops there (run.py times the start-up).
Otherwise it runs whole rounds of the workload's studies through
``enrfem.cli.main`` until the configured seconds have passed, and writes
every study's exit code, report and wall time, the peak RSS, and (traced
runs) the spans to the result file named in the config.  Where the
config's ``kernel_every`` is not 0, the reference kernel (refkernel.py)
runs before the first round, after every ``kernel_every`` studies and
after each round; its times go to the result beside the study times they
bracket.  A traced run alternates untraced and traced rounds, so that
the tracing overhead is measured in one process.  Reference data the checks need (condition
estimates) is computed after the timed rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def run_round(cli, studies, tracer, round_index, kernel_every, kernel_before):
    """Each study once through cli.main; returns records, chunks and the last kernel times.

    With ``kernel_every`` > 0 the studies are timed in chunks of that many,
    and the reference kernel runs after each chunk: one pass inside the
    round, a block after the last chunk.  A chunk is {"s": its studies'
    seconds, "kernel_s": the kernel times measured right before and right
    after it}; ``kernel_before`` are those before the first chunk.  With
    ``kernel_every`` 0 the kernel does not run and there are no chunks.
    """
    import refkernel

    records, chunks, chunk_s = [], [], 0.0
    for k, study in enumerate(studies):
        out, err = io.StringIO(), io.StringIO()
        study_id = f"{round_index}.{k}"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                start = time.perf_counter()
                code = cli.main(study["argv"])
                seconds = time.perf_counter() - start
            else:
                tracer.study = study_id
                start = time.perf_counter()
                with tracer.span("study"):
                    code = cli.main(study["argv"])
                seconds = time.perf_counter() - start
        records.append({"code": code, "out": out.getvalue(), "err": err.getvalue(), "s": seconds})
        chunk_s += seconds
        last = k == len(studies) - 1
        if kernel_every and (last or (k + 1) % kernel_every == 0):
            kernel_after = refkernel.block() if last else [refkernel.reference_seconds()]
            chunks.append({"s": chunk_s, "kernel_s": kernel_before + kernel_after})
            kernel_before, chunk_s = kernel_after, 0.0
    return records, chunks, kernel_before


def cond_estimates(config) -> dict[str, float]:
    """Independent condition estimates for the rows the paper's table lacks."""
    from fractions import Fraction

    from checks import cond_estimate
    from enrfem import assemble_system, build_mesh, catalog_problem, space_for_problem

    wanted = config.get("cond_estimate_rows", [])
    if not wanted:
        return {}
    entry = catalog_problem(config["cond_problem"])
    problem = entry.problem
    a, b = problem.domain
    n0 = round((b - a) / Fraction(config["cond_h0"]))
    out = {}
    for i in wanted:
        mesh = build_mesh(a, b, n0 * 2**i, [s.alpha for s in problem.interfaces])
        space = space_for_problem(problem, mesh, entry.degree)
        out[str(i)] = cond_estimate(assemble_system(problem, space).matrix)
    return out


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv) -> int:
    config = json.loads(Path(argv[0]).read_text())
    sys.path.insert(0, str(Path(config["root"]) / "src"))
    import enrfem
    import enrfem.cli as cli

    if not Path(enrfem.__file__).resolve().is_relative_to(Path(config["root"]).resolve()):
        print(f"enrfem imported from {enrfem.__file__}, not from the checkout", file=sys.stderr)
        return 1
    first = config["first_problem"]
    if str(first).isdigit():
        enrfem.catalog_problem(int(first))
    else:
        cli.load_problem_file(first)
    print("ready", flush=True)
    if "--probe" in argv:
        return 0

    tracer = None
    if config["trace"]:
        from spans import Tracer
        tracer = Tracer()
    rounds = []
    start = time.perf_counter()
    import refkernel

    kernel = refkernel.block() if config["kernel_every"] else []
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(cli)
        try:
            records, chunks, kernel = run_round(cli, config["studies"], tracer if traced else None,
                                                len(rounds), config["kernel_every"], kernel)
        finally:
            if traced:
                tracer.uninstall(cli)
        rounds.append({"traced": traced, "studies": records, "chunks": chunks})
        done = time.perf_counter() - start >= config["seconds"]
        if done and (tracer is None or traced):
            break
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "rounds": rounds,
        "peak_rss_kib": peak_rss_kib,
        "cond_estimates": cond_estimates(config),
        "spans": tracer.spans if tracer else [],
        "worst_residual": tracer.worst_residual if tracer else None,
        "env": environment(),
    }
    Path(config["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
