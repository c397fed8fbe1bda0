"""Digests of the command line's output on a fixed set of 314 studies and 26 usage errors.

    python3 tests/byte_runs.py > runs.txt

Run it in two checkouts and diff the files: a change that keeps every
output bit, message and exit code prints the same lines.  A header of
``#`` lines names the machine (``machine``): the digests of the studies
depend on the platform and on the numpy and scipy builds and their BLAS.
Each further line is one run: its argv, its exit code, and the SHA-256
digests of its standard output (the JSON report's timestamp removed) and
of its standard error, tab-separated.  The runs go through
``enrfem.cli.main`` in this process, with one BLAS thread; the studies
come first:

- ``--problem k --levels 8 --format json`` for k = 1..6, with and
  without ``--cond``;
- ``--problem 2 --levels 9 --cond`` and ``--problem 6 --levels 10``,
  each with ``--format json``;
- the 150 files of ``perfbench/sweep.py`` at seeds 1 and 3, each with
  its manifest entry's degree, h0 and levels (``degenerate-gamma.json``
  exits 2).

Then come the usage errors, which exit 1: each ``--h0`` and ``--levels``
case of ``tests/test_cli.py`` that needs no stand-in, an unknown catalog
id, and a missing problem file.

The sweep files are written to a temporary directory, which is the
working directory of the studies, so the paths in argv and in the
messages are the same in every checkout.  perfbench/ is only read.
``tests/golden/byte_runs.txt`` holds this output, and
``tests/test_byte_runs.py`` compares every run with it; a change that
alters output on purpose writes the file anew.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_SEEDS = (1, 3)
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def machine() -> list[str]:
    """The header: the platform, then numpy's and scipy's versions and the BLAS of each."""
    import numpy
    import scipy

    lines = [f"# platform: {platform.platform()}, python {platform.python_version()}"]
    for module in (numpy, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        lines.append(f"# {module.__name__} {module.__version__}: BLAS {blas['name']} "
                     f"{blas['version']}")
    return lines


def catalog_runs() -> list[list[str]]:
    runs = []
    for pid in range(1, 7):
        argv = ["--problem", str(pid), "--levels", "8", "--format", "json"]
        runs += [argv, argv[:4] + ["--cond"] + argv[4:]]
    runs.append(["--problem", "2", "--levels", "9", "--cond", "--format", "json"])
    runs.append(["--problem", "6", "--levels", "10", "--format", "json"])
    return runs


def sweep_runs(sweep, seed: int) -> list[list[str]]:
    """Write the seed's sweep into ./sweep-<seed> and return its studies' argv."""
    directory = f"sweep-{seed}"
    return [
        ["--problem", f"{directory}/{entry['file']}", "--degree", str(entry["degree"]),
         "--h0", entry["h0"], "--levels", str(entry["levels"]), "--format", "json"]
        for entry in sweep.generate(seed, directory)
    ]


def usage_error_runs() -> list[list[str]]:
    h0s = ["2/7", "0", "-1/8", "1/0", "abc", "not-a-number", "1e-400", "1e400", "-3e-400",
           f"1/{3 * 10**50}", "0e-10000000", "1e-310", "5e-324", "1e-20", "1e-5000", "1e5000",
           "1e-10000000", "-2.5E+1_000_000", "1e-" + "1" * 30]
    runs = [["--problem", "1", "--levels", "1", f"--h0={h0}"] for h0 in h0s]
    runs += [["--problem", "1", "--levels", str(levels)] for levels in (0, -1, 64, 20000, 10**9)]
    runs.append(["--problem", "9", "--levels", "1"])
    runs.append(["--problem", "missing.json", "--levels", "1"])
    return runs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = _TIMESTAMP.sub('"timestamp": ""', out.getvalue())
    return "\t".join([" ".join(argv), str(code), digest(stdout), digest(err.getvalue())])


def all_runs() -> list[list[str]]:
    """Every run's argv, in order; the sweep files are written to the working directory.

    perfbench/sweep.py is loaded from its file; it imports only the standard library.
    """
    spec = importlib.util.spec_from_file_location("byte_runs_sweep", ROOT / "perfbench" / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    runs = catalog_runs()
    for seed in SWEEP_SEEDS:
        runs += sweep_runs(sweep, seed)
    return runs + usage_error_runs()


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    from enrfem.cli import main as enrfem_main

    print("\n".join(machine()))
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for argv in all_runs():
            print(run(enrfem_main, argv), flush=True)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
