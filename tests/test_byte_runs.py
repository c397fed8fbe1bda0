"""The output contract: every run of ``byte_runs.py`` prints its committed line."""

import contextlib
import io
from pathlib import Path

import pytest

import byte_runs
from enrfem.cli import main

GOLDEN = Path(__file__).parent / "golden" / "byte_runs.txt"


def test_every_run_prints_its_committed_digests(monkeypatch, tmp_path):
    """The 340 runs of byte_runs.py print the lines of golden/byte_runs.txt, bit for bit.

    A change that alters output on purpose writes the file anew
    (``python3 tests/byte_runs.py > tests/golden/byte_runs.txt``) and
    lists every changed line.  A mismatch names each changed run by its
    argv and prints a changed catalog study's CSV; where this machine is
    not the one in the file's header, it shows both.
    """
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    golden = [line for line in lines if not line.startswith("#")]
    monkeypatch.chdir(tmp_path)
    runs = byte_runs.all_runs()
    assert [" ".join(argv) for argv in runs] == [line.split("\t")[0] for line in golden]
    changed = [argv for argv, line in zip(runs, golden) if byte_runs.run(main, argv) != line]
    if not changed:
        return
    report = [f"{len(changed)} of {len(runs)} runs changed:", *(" ".join(argv) for argv in changed)]
    for argv in changed:
        if argv[1].isdigit() and argv[-2:] == ["--format", "json"]:  # a catalog study
            csv, out = argv[:-1] + ["csv"], io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                main(csv)
            report += [f"enrfem {' '.join(csv)}:", out.getvalue()]
    if header != byte_runs.machine():
        report += ["the file was written on", *header, "and this machine is", *byte_runs.machine()]
    pytest.fail("\n".join(report), pytrace=False)
