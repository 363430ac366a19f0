"""The verify runner: artifact layout and byte-level determinism."""

import filecmp
import os
import pathlib

from frameforge.cli import main

# CSVs of `frameforge verify --seed 7`; a change to any cell must be explained
GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_seed7"


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
        assert filecmp.cmp(out1 / name, GOLDEN / name, shallow=False), name
