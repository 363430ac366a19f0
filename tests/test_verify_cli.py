"""The verify runner: artifact layout and byte-level determinism."""

import csv
import filecmp
import os
import pathlib
import subprocess
import sys
from itertools import zip_longest

import frameforge
from frameforge.cli import main

# CSVs of `frameforge verify --seed 7`; a change to any cell must be explained
GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_seed7"


def relative_change(a, b):
    """`` (rel r)`` for two cells that parse as floats, r being their
    difference over the larger magnitude; empty otherwise."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return ""
    return f" (rel {abs(y - x) / (max(abs(x), abs(y)) or 1.0):.1e})"


def changed_cells(new, golden):
    """Each cell where ``new`` differs from ``golden``, one line apiece naming
    the file, the row (the header is row 0), the column and both values, and
    their relative difference when both are numbers, so a roundoff-only
    change reads as one."""
    with open(new, newline="") as f_new, open(golden, newline="") as f_old:
        rows_new, rows_old = list(csv.reader(f_new)), list(csv.reader(f_old))
    header = rows_old[0] if rows_old else []
    lines = []
    for r, (old, cur) in enumerate(zip_longest(rows_old, rows_new, fillvalue=[])):
        for c, (a, b) in enumerate(zip_longest(old, cur)):
            if a != b:
                column = header[c] if c < len(header) else f"#{c}"
                lines.append(f"{pathlib.Path(new).name} row {r} column {column}: "
                             f"golden {a!r}, new {b!r}{relative_change(a, b)}")
    return "\n".join(lines) or f"{pathlib.Path(new).name}: bytes differ, cells agree"


def test_verify_writes_deterministic_artifacts(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    rc1 = main(["verify", "--seed", "7", "--outdir", str(out1)])
    rc2 = main(["verify", "--seed", "7", "--outdir", str(out2)])
    out = capsys.readouterr().out
    assert rc1 == 0 and rc2 == 0
    assert out.count("PASS criterion") >= 22  # 11 criteria x 2 runs, at least
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "summary.csv" in names
    assert names == sorted(os.listdir(GOLDEN))
    for name in names:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
        assert filecmp.cmp(out1 / name, GOLDEN / name, shallow=False), \
            changed_cells(out1 / name, GOLDEN / name)


def test_verify_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # one BLAS thread, in a fresh process since the count is read at import
    src = pathlib.Path(frameforge.__file__).parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    script = ("import sys; from frameforge.cli import main; "
              f"sys.exit(main(['verify', '--seed', '7', '--outdir', {str(tmp_path)!r}]))")
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    names = sorted(os.listdir(tmp_path))
    assert names == sorted(os.listdir(GOLDEN))
    for name in names:
        assert filecmp.cmp(tmp_path / name, GOLDEN / name, shallow=False), \
            changed_cells(tmp_path / name, GOLDEN / name)


def test_changed_cells_names_each_cell(tmp_path):
    golden, new = tmp_path / "golden.csv", tmp_path / "c04.csv"
    golden.write_text("variant,A\nbase,0.25\nwide,1.5\n")
    new.write_text("variant,A\nbase,0.2519\nwide,1.5\nextra,2\n")
    assert changed_cells(new, golden).splitlines() == [
        "c04.csv row 1 column A: golden '0.25', new '0.2519' (rel 7.5e-03)",
        "c04.csv row 3 column variant: golden None, new 'extra'",
        "c04.csv row 3 column A: golden None, new '2'"]
    new.write_text("variant,A\r\nbase,0.25\r\nwide,1.5\r\n")
    assert changed_cells(new, golden) == "c04.csv: bytes differ, cells agree"
    new.write_text("variant,A\nbase,0.25\nnarrow,1.5000000000000002\n")
    assert changed_cells(new, golden).splitlines() == [
        "c04.csv row 2 column variant: golden 'wide', new 'narrow'",
        "c04.csv row 2 column A: golden '1.5', new '1.5000000000000002' (rel 1.5e-16)"]
    golden.write_text("variant,A\nbase,0.0\n")
    new.write_text("variant,A\nbase,-0.0\n")
    assert changed_cells(new, golden) == \
        "c04.csv row 1 column A: golden '0.0', new '-0.0' (rel 0.0e+00)"
