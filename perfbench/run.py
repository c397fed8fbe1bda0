"""Convergence-study benchmark for enrfem.

    python3 perfbench/run.py --workload deep-p6 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's studies run in a fresh
interpreter (perfbench/worker.py) with one BLAS thread, through
``enrfem.cli.main`` in-process.  Set-up times, and the sweep-files
rounds, are scaled to the host's nominal speed by a reference kernel
(perfbench/refkernel.py) timed beside them.  Each study's report is
checked by perfbench/checks.py.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1); the line before
it records the environment and per-round figures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
SETUP_SAMPLES = 5   # fresh interpreters timed to "ready", the worker included
TIME_LIMIT_S = 170  # the whole run, set-up and checks included
KNOWN_FAULT = "degenerate enrichment denominator"
# sweep-files studies between passes of the reference kernel; the catalog
# workloads run one long LAPACK-bound study per round and are not scaled.
SWEEP_KERNEL_EVERY = 15

BLAS_ENV = {name: str(BLAS_THREADS) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402

WORKLOADS = ("deep-p6", "cond-p2", "sweep-files")


def catalog_workload(pid: int, degree: int, levels: int, cond: bool) -> dict:
    argv = ["--problem", str(pid), "--levels", str(levels), "--format", "json"]
    expect = {
        "degree": degree, "h0": "1/8", "levels": levels, "cond": cond,
        "u_max": checks.PAPER_U_MAX, "d_ratio": checks.PAPER_D_RATIO,
        "order_mode": "pairs", "paper": pid,
    }
    config = {"first_problem": str(pid)}
    if cond:
        argv.insert(-2, "--cond")
        table_rows = len(checks.PAPER_COND[pid])
        config |= {"cond_problem": pid, "cond_h0": "1/8",
                   "cond_estimate_rows": list(range(table_rows, levels))}
    return {"studies": [{"argv": argv}], "expects": [expect], "config": config | {"kernel_every": 0}}


def sweep_workload(seed: int, work: Path, root: Path) -> dict:
    manifest = sweep.generate(seed, work / "sweep")
    studies, expects = [], []
    for entry in manifest:
        path = str((work / "sweep" / entry["file"]).relative_to(root))
        studies.append({"argv": [
            "--problem", path, "--degree", str(entry["degree"]), "--h0", entry["h0"],
            "--levels", str(entry["levels"]), "--format", "json",
        ]})
        expects.append({
            "degree": entry["degree"], "h0": entry["h0"], "levels": entry["levels"],
            "cond": False, "u_max": entry["u_max"], "d_ratio": entry["d_ratio"],
            "order_mode": "last",
            "known_failure": KNOWN_FAULT if entry["degenerate"] else None,
        })
    first = str((work / "sweep" / manifest[0]["file"]).relative_to(root))
    return {"studies": studies, "expects": expects,
            "config": {"first_problem": first, "kernel_every": SWEEP_KERNEL_EVERY}}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def start_worker(config_path: Path, probe: bool):
    """Start worker.py; return (process, seconds from spawn to its "ready" line)."""
    argv = [sys.executable, str(HERE / "worker.py"), str(config_path)] + (["--probe"] if probe else [])
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, ready


def finish(proc, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="enrfem convergence-study benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    os.environ.update(BLAS_ENV)  # before numpy loads, here and in the worker
    import refkernel

    root = Path.cwd().resolve()
    if not (root / "src" / "enrfem" / "cli.py").is_file():
        print(f"perfbench: no enrfem sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 1
    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    if args.workload == "deep-p6":
        workload = catalog_workload(6, degree=2, levels=10, cond=False)
    elif args.workload == "cond-p2":
        workload = catalog_workload(2, degree=1, levels=9, cond=True)
    else:
        workload = sweep_workload(args.seed, work, root)

    config = workload["config"] | {
        "root": str(root), "studies": workload["studies"], "trace": bool(args.trace),
        "seconds": args.seconds, "result": str(work / "result.json"),
    }
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    try:
        setup, kernel = [], [refkernel.block()]
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = start_worker(config_path, probe=True)
            finish(proc, deadline)
            setup.append(ready)
            kernel.append(refkernel.block())
        proc, ready = start_worker(config_path, probe=False)
        setup.append(ready)
        finish(proc, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())
    (work / "result.json").unlink()

    # -- checks -----------------------------------------------------------------
    expects = workload["expects"]
    for expect in expects:
        expect["cond_estimates"] = result["cond_estimates"]
    attempted = failed = 0
    problems: list[str] = []      # wrong outputs: these make the run incorrect
    unexpected: list[str] = []    # failures other than the known fault: counted, reported
    for r, rnd in enumerate(result["rounds"]):
        for k, (record, expect) in enumerate(zip(rnd["studies"], expects)):
            verdict = checks.check_study(expect, record["code"], record["out"], record["err"])
            attempted += 1
            failed += verdict.status == "failed"
            notes = [f"round {r} study {k}: {p}" for p in verdict.problems]
            if verdict.status == "wrong":
                problems += notes
            elif verdict.status == "failed" and not verdict.known_failure:
                unexpected += notes

    # Set-up samples, and the chunks of sweep-files rounds, are scaled to the
    # host's nominal speed by the reference kernel timed right before and
    # after them.  Catalog rounds are wall time.
    rounds = result["rounds"]
    round_s = [sum(refkernel.scale(c["s"], c["kernel_s"]) for c in rnd["chunks"]) if rnd["chunks"]
               else sum(s["s"] for s in rnd["studies"]) for rnd in rounds]
    plain = [t for t, rnd in zip(round_s, rounds) if not rnd["traced"]]
    traced = [t for t, rnd in zip(round_s, rounds) if rnd["traced"]]
    kernel.append(refkernel.block())
    setup_scaled = [refkernel.scale(t, kernel[i] + kernel[i + 1]) for i, t in enumerate(setup)]
    if args.trace:
        per_round = []
        for r, rnd in enumerate(rounds):
            if rnd["traced"]:
                round_spans = [s for s in result["spans"] if s["study"].split(".")[0] == str(r)]
                per_round.append(spans.layer_metrics(round_spans))
        counts = ("mesh.elements", "femspace.cut_elements", "assembly.free_dofs")
        for key in counts:
            if len({m[key] for m in per_round}) != 1:
                problems.append(f"{key} differs between rounds: {[m[key] for m in per_round]}")
        if result["worst_residual"] > 1.0:
            problems.append(f"solver backward error {result['worst_residual']:.3g} n eps, above n eps")
        metrics = {key: per_round[0][key] if key in counts else statistics.median(m[key] for m in per_round)
                   for key in per_round[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        (work / "spans.json").write_text(json.dumps(result["spans"]))
    else:
        metrics = {
            "study_s": statistics.median(plain),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": result["peak_rss_kib"] * 1024 / 1e6,
        }
    bench = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer") for m in bench[group]}

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "studies_per_round": len(expects),
        "round_study_s": {"untraced": plain, "traced": traced},
        "round_wall_s": [sum(s["s"] for s in rnd["studies"]) for rnd in rounds],
        "setup_s": setup_scaled, "setup_wall_s": setup,
        "kernel_median_s": {
            "rounds": [statistics.median(k for c in rnd["chunks"] for k in c["kernel_s"])
                       for rnd in rounds if rnd["chunks"]],
            "setup": statistics.median(k for blk in kernel for k in blk)},
        "unexpected_failures": unexpected[:20],
        "worst_residual": result["worst_residual"], "problems": problems[:20],
        "env": result["env"] | {"git_sha": git_sha(root)},
    }
    (work / "summary.json").write_text(json.dumps(details | {"metrics": metrics}, indent=1))
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    for p in unexpected[:20]:
        print(f"perfbench: study failed: {p}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
