"""Self-tests of the benchmark: tiny workloads, oracles, seeding, tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import frameforge.acceptance  # noqa: E402
import frameforge.cli  # noqa: E402
import frameforge.gridfn  # noqa: E402
import frameforge.windows  # noqa: E402
from frameforge.convolution import TranslationBoundReport  # noqa: E402
from frameforge.framebounds import FrameBoundsReport  # noqa: E402
from frameforge.geometry import Box  # noqa: E402
from frameforge.zak import NECESSARY_ONLY, NOT_FRAME  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CLI_MAIN = frameforge.cli.main


# parameter overrides that make each frame-bounds kind run in milliseconds
TINY = {kind: {"grid_n": 256} for kind, *_ in workloads.FRAME_BOUNDS}
TINY["lshape_2d_n48"] = {"grid_n": 16}
TINY["continuous_1d_n1024"] = {"grid_n": 256, "density_cells": 333}
TINY.update({kind: {"M": 64} for kind in TINY if kind.startswith("gabor")})


def tiny_cases(name: str, tmp_path) -> list[workloads.Case]:
    """The timed cases of one real round, at tiny sizes (verify at full size)."""
    if name == "verify":
        wl = workloads.VerifyRunner(str(tmp_path / "scratch"))
    else:
        wl = workloads.FrameBounds(sizes=TINY)
    return [c for c in wl.round(np.random.default_rng(3)) if not c.known_defect]


def perturbed(kind: str, result):
    """A deliberately wrong version of a correct result."""
    if kind.startswith(("mult", "lshape")):
        return dataclasses.replace(result, B_est=result.B_est * (1.0 + 1e-6))
    if kind.startswith(("incommensurate", "continuous")):
        return dataclasses.replace(result, A_est=result.A_est / 4, B_est=result.B_est / 4)
    if kind.startswith("gabor"):
        return dataclasses.replace(result, unitarity_residual=1e-3)
    code, text = result
    return code, text.replace("12/12", "11/12")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_oracle_accepts_the_result_and_rejects_a_perturbed_one(name, tmp_path):
    for case in tiny_cases(name, tmp_path):
        result = case.call()
        assert case.check(result), case.kind
        assert not case.check(perturbed(case.kind, result)), case.kind


def test_gabor_oracle_rejects_a_flipped_verdict(tmp_path):
    for case in tiny_cases("frame-bounds", tmp_path):
        if case.kind.startswith("gabor"):
            v = case.call()
            other = NECESSARY_ONLY if v.verdict == NOT_FRAME else NOT_FRAME
            assert not case.check(dataclasses.replace(v, verdict=other))


def test_verify_oracle_rejects_changed_csv_bytes(tmp_path):
    case = tiny_cases("verify", tmp_path)[0]
    assert case.check(case.call())
    result = case.call()
    outdir = tmp_path / "scratch"
    with open(outdir / sorted(os.listdir(outdir))[0], "a") as fh:
        fh.write("0\n")
    assert not case.check(result)


def test_every_round_runs_the_defect_reproductions():
    wl = workloads.FrameBounds()
    expected = {kind: p for kind, p, _, _ in workloads.REPRODUCTIONS}
    for seed in (0, 1):
        fixed = {c.kind: c.params for c in wl.round(np.random.default_rng(seed))
                 if c.known_defect}
        assert fixed == expected


def test_band_edge_oracle_wants_m_frequencies_in_the_band():
    p = workloads.BAND_EDGE_DEFECT
    exact = 0.25 * 214 / 128
    rep = FrameBoundsReport(exact, exact, 128, Box((-64.0,), (64.0,)))
    assert workloads._check_band_edge(p, rep)
    # one aliased frequency counted twice adds 128 / 128 to the top eigenvalue
    assert not workloads._check_band_edge(
        p, dataclasses.replace(rep, B_est=0.25 * (214 + 128) / 128))


def test_probe_oracle_takes_corner_coordinates_from_different_cosets():
    # worked by hand: x from the coset at 0 (-3.24), y from the coset at
    # 0.66096 (-3.65904) puts 6 points of each coset in the 2.429 x 1.515 box
    assert workloads._check_probe(workloads.PROBE_DEFECT,
                                  TranslationBoundReport(12.0, (-3.24, -3.65904)))
    assert not workloads._check_probe(workloads.PROBE_DEFECT,
                                      TranslationBoundReport(10.0, (0.0, 0.0)))


def test_bracket_oracle_holds_the_theorem_at_a_resolved_support():
    # at s = 1.5 the grid sees S = 1 and S = 2, and D = 1.5 lies between
    p = workloads._defect_params(1.5)
    rep = workloads._run_bracket(p)()
    assert workloads._check_bracket(p, rep)
    assert not workloads._check_bracket(p, dataclasses.replace(rep, upper_holds=False))
    assert not workloads._check_bracket(p, dataclasses.replace(rep, sup_sum=3.0))


def test_exact_extremes_of_the_count():
    assert workloads._exact_extremes(0.99, 0.0, 4.0) == (0, 1)
    assert workloads._exact_extremes(1.01, 0.0, 4.0) == (1, 2)
    assert workloads._exact_extremes(1.0, 0.0, 4.0) == (1, 1)
    assert workloads._exact_extremes(2.5, 0.0, 4.0) == (2, 3)


@pytest.mark.parametrize("s, lo, hi", [(0.99, 0.0, 1.0), (1.01, 1.0, 2.0)])
def test_bracket_oracle_accepts_the_exact_extremes(s, lo, hi):
    # the program samples S = 1 at every cell centre for both supports; a
    # fixed program that reports the exact extremes must pass
    p = workloads._defect_params(s)
    rep = workloads._run_bracket(p)()
    assert (rep.inf_sum, rep.sup_sum) == (1.0, 1.0)
    assert not workloads._check_bracket(p, rep)
    fixed = dataclasses.replace(rep, inf_sum=lo, sup_sum=hi,
                                upper_holds=True, lower_holds=True)
    assert workloads._check_bracket(p, fixed)
    assert not workloads._check_bracket(p, dataclasses.replace(fixed, inf_sum=lo - 1))
    assert not workloads._check_bracket(p, dataclasses.replace(fixed, sup_sum=hi + 1))
    assert not workloads._check_bracket(p, dataclasses.replace(fixed, lower_holds=False))


def round_params(name: str, seed: int, tmp_path) -> list:
    wl = workloads.WORKLOADS[name](str(tmp_path))
    rng = np.random.default_rng(seed)
    rounds = [[(c.kind, c.params) for c in wl.round(rng)] for _ in range(2)]
    setup = [wl.warmup(rng).params for _ in range(run.SETUP_RUNS)]
    return [rounds, setup]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = round_params(name, 11, tmp_path)
    assert first == round_params(name, 11, tmp_path)
    if name != "verify":
        assert first[0][0] != first[0][1], "each round draws fresh inputs"
        assert first != round_params(name, 12, tmp_path)


def test_tracer_rebinds_every_binding_and_restores_them():
    original = frameforge.gridfn.cell_volumes
    defaults = frameforge.acceptance.run_all.__defaults__
    with tracing.Tracer().installed():
        for module in (frameforge.gridfn, frameforge.windows,
                       workloads.ff.framebounds, workloads.ff.construction,
                       workloads.ff.convolution):
            assert module.cell_volumes is not original, module.__name__
        assert frameforge.acceptance.run_all.__defaults__ != defaults
        assert frameforge.cli.main is not CLI_MAIN
    assert frameforge.windows.cell_volumes is original
    assert frameforge.acceptance.run_all.__defaults__ == defaults
    assert frameforge.cli.main is CLI_MAIN


def test_traced_case_records_nested_spans_and_layer_metrics():
    p = {**workloads._draw_multiplication(1024, 2)(np.random.default_rng(0)),
         **TINY["mult_1d_n1024_q2"]}
    call = workloads._run_multiplication(p)
    tr = tracing.Tracer()
    tr.verdict = 0
    with tr.installed():
        rep = call()
    assert workloads._check_multiplication(p, rep)
    names = {s[0] for s in tr.spans}
    assert {"framebounds.estimate", "framebounds.eig", "gridfn.cell_volumes",
            "windows.eval", "geometry.lattice_points"} <= names
    parents = {s[0]: tr.spans[s[3]][0] for s in tr.spans if s[3] >= 0}
    assert parents["framebounds.eig"] == "framebounds.estimate"
    m = tracing.layer_metrics(tr, 1)
    assert m["framebounds.eig.calls"][0] == 1
    assert m["framebounds.eig.order"][0] == 256
    assert m["framebounds.active_cells"][0] == 256
    assert m["framebounds.eig.used_ratio"][0] == 2 / 256
    est = m["framebounds.estimate.s"][0]
    assert 0 < m["framebounds.eig.s"][0] + m["framebounds.estimate.self_s"][0] <= est + 1e-12


class _Stub:
    """A workload with one passing timed case and one failing reproduction."""

    def round(self, rng):
        return [workloads.Case("timed", {}, lambda: 1, lambda r: r == 1),
                workloads.Case("defect", {}, lambda: 1, lambda r: False, known_defect=True)]


def test_reproductions_are_counted_but_not_timed():
    out = run.measure(_Stub(), np.random.default_rng(0), 0.0)
    assert out["times"] and len(out["times"]) == out["attempted"] // 2
    assert out["kinds"] == ["timed"] * len(out["times"])
    assert out["failed"] == out["attempted"] // 2
    assert out["unexpected"] == 0


def test_run_prints_the_contract_json(capsys):
    assert run.main(["--workload", "verify", "--seed", "1", "--seconds", "0",
                     "--trace", "0"]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (True, 1, 0)
    assert doc["metrics"]["setup_s"]["value"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = tracing.layer_metrics(tracing.Tracer(), 1)
    assert {m["name"] for m in spec["per_layer"]} == set(layer) | {
        "trace.verdict_s", "trace.overhead_s", "trace.overhead_share"}
