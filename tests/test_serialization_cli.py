"""File schemas, CSV determinism, and the command-line interface."""

import copy
import functools
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameforge.cli import default_overlap_step, main
from frameforge.errors import InputError
from frameforge.framebounds import ContinuousFreqMeasure, WindowedSystem
from frameforge.geometry import Box, BoxUnionSet, Lattice
from frameforge.gridfn import GridFunction
from frameforge.pointsets import (
    EventuallyPeriodic1D,
    FinitePerturbation,
    FiniteSet,
    integers,
)
from frameforge.serialization import (
    comb_from_dict,
    domain_from_dict,
    domain_to_dict,
    format_csv,
    load_domain,
    load_system,
    pointset_from_dict,
    pointset_to_dict,
    save_system,
    system_from_dict,
    system_to_dict,
)
from frameforge.windows import Window


class TestDomainSchema:
    def test_roundtrip(self):
        omega = BoxUnionSet.from_intervals([(0, 0.5), (1, 1.5)])
        again = domain_from_dict(domain_to_dict(omega))
        assert again == omega

    def test_generator_tag(self):
        omega, tail = load_domain("cantor_tower:4")
        assert tail == 0.25
        assert omega.contains((0.0,))
        omega_holed, _ = load_domain("cantor_tower:12:5")
        assert not omega_holed.contains((2.0,))

    def test_inline_json_text(self):
        omega, tail = load_domain('{"dim": 1, "boxes": [[0.0, 1.0]]}')
        assert omega.measure() == 1.0
        assert tail is None

    def test_bad_tag_rejected(self):
        with pytest.raises(InputError):
            load_domain("cantor_tower:oops")
        with pytest.raises(InputError):
            load_domain("no_such_generator:4")

    def test_missing_field_rejected(self):
        with pytest.raises(InputError):
            domain_from_dict({"boxes": [[0, 1]]})


class TestPointSetSchema:
    @pytest.mark.parametrize("ps", [
        integers(),
        integers(scale=0.5),
        EventuallyPeriodic1D(right_period=1.0, right_start=0.0, core=(0.25,)),
        FiniteSet(((0.0,), (2.0,))),
        FinitePerturbation(integers(), added=((0.5,),), removed=((0.0,),)),
    ])
    def test_roundtrip(self, ps):
        again = pointset_from_dict(pointset_to_dict(ps))
        box = Box((-3.0,), (3.0,))
        assert np.array_equal(again.points_in_box(box), ps.points_in_box(box))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            pointset_from_dict({"kind": "quasicrystal"})


class TestSystemSchema:
    def test_roundtrip_with_discrete_and_continuous(self):
        omega = BoxUnionSet.from_intervals([(0, 1)])
        dens = GridFunction.indicator(Box((-4.0,), (4.0,)), 16)
        system = WindowedSystem(omega, (
            (Window.from_string("x^1.0"), integers()),
            (Window.indicator(), ContinuousFreqMeasure(density=dens,
                                                       atoms=(((0.0,), 2.0),))),
        ))
        again = system_from_dict(system_to_dict(system))
        assert again.omega == omega
        assert len(again.pairs) == 2
        freq = again.pairs[1][1]
        assert isinstance(freq, ContinuousFreqMeasure)
        assert freq.atoms == (((0.0,), 2.0),)

    def test_construction_roundtrips_into_estimation(self, tmp_path):
        from frameforge.construction import build_bounded_window_frame
        from frameforge.framebounds import estimate_frame_bounds
        omega = BoxUnionSet.from_intervals([(0, 1)])
        result = build_bounded_window_frame(
            [Window.from_string("x^1.0"), Window.from_string("(1-x)^1.0")], omega)
        path = tmp_path / "system.json"
        save_system(result.system, str(path))
        loaded = load_system(str(path))
        rep = estimate_frame_bounds(loaded, 128)
        assert rep.A_est >= 0.8 * result.predicted_A


class TestCsv:
    def test_repr_formatting_roundtrips(self):
        text = format_csv(("a", "b"), [(0.1, 1.0), (2.0 / 3.0, 1e-17)])
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert float(lines[1].split(",")[0]) == 0.1
        assert float(lines[2].split(",")[0]) == 2.0 / 3.0


def run_cli(*argv):
    return main(list(argv))


class TestCli:
    def test_density_closed_form(self, tmp_path, capsys):
        points = tmp_path / "points.json"
        points.write_text(json.dumps(
            {"kind": "lattice_cosets", "basis": [[0.5]], "offsets": [[0.0]]}))
        rc = run_cli("density", "--points", str(points))
        out = capsys.readouterr().out
        assert rc == 0
        assert "upper_density: 2.0" in out

    def test_density_windowed_csv(self, tmp_path, capsys):
        points = tmp_path / "points.json"
        points.write_text(json.dumps(
            {"kind": "lattice_cosets", "basis": [[1.0]], "offsets": [[0.0]]}))
        csv_path = tmp_path / "trace.csv"
        rc = run_cli("density", "--points", str(points), "--windowed",
                     "--h-list", "10,100", "--csv", str(csv_path))
        assert rc == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "h,inf_density,sup_density"
        assert len(lines) == 3

    def test_overlap_generator(self, tmp_path, capsys):
        rc = run_cli("overlap", "--domain", "cantor_tower:6", "--x-max", "2",
                     "--step", "0.5")
        out = capsys.readouterr().out
        assert rc == 0
        assert "positive_overlaps: 5" in out

    def test_overlap_on_a_square_scans_the_half_box(self, tmp_path, capsys):
        domain = tmp_path / "square.json"
        domain.write_text(json.dumps({"dim": 2, "boxes": [[0, 0, 1, 1]]}))
        csv_path = tmp_path / "overlap.csv"
        rc = run_cli("overlap", "--domain", str(domain), "--x-max", "1", "--step", "0.5",
                     "--csv", str(csv_path))
        assert rc == 0
        assert capsys.readouterr().out == "shifts_sampled: 15\npositive_overlaps: 6\n"
        lines = csv_path.read_text().splitlines()
        assert lines[:3] == ["x_0,x_1,overlap", "0.0,-1.0,0.0", "0.0,-0.5,0.5"]
        assert "0.5,0.5,0.25" in lines and len(lines) == 16

    def test_overlap_default_step_fits_the_dimension(self, tmp_path, capsys):
        # at x_max 8 the square takes step 0.04, the finest multiple of 0.01
        # within 10^5 shifts: 201 x 401; the interval keeps step 0.01
        domain = tmp_path / "square.json"
        domain.write_text(json.dumps({"dim": 2, "boxes": [[0, 0, 1, 1]]}))
        assert run_cli("overlap", "--domain", str(domain)) == 0
        assert capsys.readouterr().out.startswith("shifts_sampled: 80601\n")
        interval = tmp_path / "interval.json"
        interval.write_text(json.dumps({"dim": 1, "boxes": [[0, 1]]}))
        assert run_cli("overlap", "--domain", str(interval)) == 0
        assert capsys.readouterr().out.startswith("shifts_sampled: 801\n")

    @staticmethod
    def one_k_at_a_time(x_max, dim):
        """The reference for the default step: k = 1, 2, ... one at a time
        until 0.01 k keeps the half-box within 10^5 shifts."""
        k = 0
        while True:
            k += 1
            n = math.ceil((x_max + 0.01 * k / 2.0) / (0.01 * k))
            if n * (2 * n - 1) ** (dim - 1) <= 10 ** 5:
                return 0.01 * k

    @pytest.mark.parametrize("dim, x_maxes", [
        (1, [0.004, 0.5, 1.0, 8.0, 999.99, 1000.0, 1000.005, 1234.5, 4096.0, 20000.0]),
        (2, [0.004, 0.5, 1.0, 2.23, 2.24, 8.0, 10.0, 31.6, 100.0, 257.3, 500.0]),
    ], ids=["1d", "2d"])
    def test_default_step_is_the_least_k_that_fits(self, dim, x_maxes):
        for x_max in x_maxes:
            assert default_overlap_step(x_max, dim) == self.one_k_at_a_time(x_max, dim)

    def test_default_step_at_a_huge_x_max(self, capsys):
        for domain, shifts in (('{"dim": 1, "boxes": [[0, 1]]}', 100000),
                               ('{"dim": 2, "boxes": [[0, 0, 1, 1]]}', 99235)):
            assert run_cli("overlap", "--domain", domain, "--x-max", "1e300") == 0
            assert capsys.readouterr().out == (f"shifts_sampled: {shifts}\n"
                                               "positive_overlaps: 1\n")

    def test_residue_verdicts(self, tmp_path, capsys):
        domain = tmp_path / "omega.json"
        domain.write_text(json.dumps({"dim": 1, "boxes": [[0, 0.5], [1, 1.5]]}))
        rc = run_cli("residue", "--domain", str(domain), "--lattice", "2.0")
        assert rc == 0
        assert "holds: True" in capsys.readouterr().out
        rc = run_cli("residue", "--domain", str(domain), "--lattice", "1.0")
        assert rc == 0
        out = capsys.readouterr().out
        assert "holds: False" in out and "witness_shift" in out

    def test_frame_bounds_orthonormal(self, tmp_path, capsys):
        system = tmp_path / "system.json"
        system.write_text(json.dumps({
            "omega": {"dim": 1, "boxes": [[0.0, 1.0]]},
            "pairs": [{"window": "indicator",
                       "freq": {"kind": "lattice_cosets", "basis": [[1.0]],
                                "offsets": [[0.0]]}}]}))
        csv_path = tmp_path / "bounds.csv"
        rc = run_cli("frame-bounds", "--system", str(system), "--grid-n", "256",
                     "--csv", str(csv_path))
        out = capsys.readouterr().out
        assert rc == 0
        assert "tight_ratio: 1.0" in out and "trunc: untruncated" in out
        header, row = csv_path.read_text().splitlines()
        assert header == "system,grid_n,trunc,A_est,B_est,tight_ratio"
        assert row == "system.json,256,untruncated,1.0,1.0,1.0"
        rc = run_cli("frame-bounds", "--system", str(system), "--grid-n", "256",
                     "--trunc=-128:128")
        assert rc == 0 and "trunc: [-128.0;128.0)" in capsys.readouterr().out

    def test_construct_bounded_windows_and_roundtrip(self, tmp_path, capsys):
        domain = tmp_path / "omega.json"
        domain.write_text(json.dumps({"dim": 1, "boxes": [[0.0, 1.0]]}))
        out_system = tmp_path / "built.json"
        rc = run_cli("construct", "--domain", str(domain),
                     "--windows", "x^1.0,(1-x)^1.0", "--out", str(out_system))
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: constructed" in out
        rc = run_cli("frame-bounds", "--system", str(out_system), "--grid-n", "128")
        assert rc == 0

    def test_construct_splits_windows_outside_parentheses(self, tmp_path, capsys):
        domain = tmp_path / "omega.json"
        domain.write_text(json.dumps({"dim": 1, "boxes": [[0.0, 1.0]]}))
        out_system = tmp_path / "built.json"
        rc = run_cli("construct", "--domain", str(domain),
                     "--windows", "indicator(0,0.5),x^1.0", "--out", str(out_system))
        assert rc == 0
        assert "verdict: constructed" in capsys.readouterr().out
        assert [w.label for w, _ in load_system(str(out_system)).pairs] == [
            "indicator(0.0,0.5)", "x^1.0"]

    def test_construct_writes_windows_frame_bounds_reads(self, tmp_path, capsys):
        # the system file holds repr(float): 0.00001 is written as 1e-05
        out_system = tmp_path / "built.json"
        rc = run_cli("construct", "--domain", '{"dim": 1, "boxes": [[0, 1]]}',
                     "--windows", "0.00001,(1-x)^0.00001", "--out", str(out_system))
        assert rc == 0 and "verdict: constructed" in capsys.readouterr().out
        pairs = json.loads(out_system.read_text())["pairs"]
        assert [p["window"] for p in pairs] == ["1e-05", "(1-x)^1e-05"]
        rc = run_cli("frame-bounds", "--system", str(out_system), "--grid-n", "64")
        assert rc == 0 and "A_est:" in capsys.readouterr().out

    def test_construct_lattice_refusal_exits_zero(self, tmp_path, capsys):
        domain = tmp_path / "omega.json"
        domain.write_text(json.dumps({"dim": 1, "boxes": [[0, 0.5], [1, 1.5]]}))
        rc = run_cli("construct", "--domain", str(domain), "--lattice", "1.0")
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: refused" in out
        assert "counterexample_norm" in out

    def test_construct_skew_lattice_from_a_json_basis(self, tmp_path, capsys):
        # the skew lattice is cut to the Nyquist band of the 8-cell grid
        domain = tmp_path / "square.json"
        domain.write_text(json.dumps({"dim": 2, "boxes": [[0.0, 0.0, 1.0, 1.0]]}))
        out_system = tmp_path / "built.json"
        rc = run_cli("construct", "--domain", str(domain), "--lattice", "[[1, 0.5], [0, 1]]",
                     "--grid-n", "8", "--out", str(out_system))
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[:3] == ["verdict: constructed", "predicted_A: 0.999999999999996",
                           "predicted_B: 1.0000000000000036"]
        assert out[3].endswith("constant measured at 8 cells per axis, Nyquist band")
        freq = load_system(str(out_system)).pairs[0][1]
        assert freq.lattice.same_group(Lattice(((1.0, 0.5), (0.0, 1.0))).dual())

    @pytest.mark.parametrize("domain", [
        '{"dim": 2, "boxes": [{"lo": [0, 0], "hi": [1, 1]}]}',
        '{"dim": 1, "boxes": [["a", 1]]}',
    ], ids=["box_as_object", "non_numeric_corner"])
    def test_construct_malformed_domain_exits_two(self, capsys, domain):
        rc = run_cli("construct", "--domain", domain, "--lattice", "1")
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad domain description")

    def test_inline_system_reports_as_its_file_does(self, tmp_path, capsys):
        text = json.dumps({
            "omega": {"dim": 1, "boxes": [[0.0, 1.0]]},
            "pairs": [{"window": "x^1.0", "freq": {"kind": "lattice_cosets",
                                                   "basis": [[1.0]], "offsets": [[0.0]]}}]})
        system = tmp_path / "system.json"
        system.write_text(text)
        reports = []
        for descriptor in (str(system), text):
            csv_path = tmp_path / "bounds.csv"
            assert run_cli("frame-bounds", "--system", descriptor, "--grid-n", "64",
                           "--csv", str(csv_path)) == 0
            reports.append(capsys.readouterr().out)
            reports.append(csv_path.read_text().splitlines()[1].split(",", 1))
        assert reports[0] == reports[2]
        assert reports[1][0] == "system.json" and reports[3][0] == "inline"
        assert reports[1][1] == reports[3][1]

    def test_config_values_are_converted_as_on_the_command_line(self, tmp_path, capsys):
        domain = '{"dim": 1, "boxes": [[0.0, 1.0]]}'
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid-n": "64"}))
        assert run_cli("--config", str(config), "construct", "--domain", domain,
                       "--lattice", "1.0") == 0
        from_config = capsys.readouterr().out
        assert run_cli("construct", "--domain", domain, "--lattice", "1.0",
                       "--grid-n", "64") == 0
        assert from_config == capsys.readouterr().out
        assert "64 cells per axis" in from_config

    def test_construct_window_refusal_exits_zero(self, tmp_path, capsys):
        domain = tmp_path / "omega.json"
        domain.write_text(json.dumps({"dim": 1, "boxes": [[0.0, 1.0]]}))
        rc = run_cli("construct", "--domain", str(domain), "--windows", "x^-1.0")
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "verdict: refused" and out[1].startswith("reason: every window")
        assert len(out) == 2

    def test_obstruction_holed_tower(self, tmp_path, capsys):
        # scanned to 4.5 the zero set reaches the scan's end; scanned to 8 the
        # overlap is positive beyond R
        csv_path = tmp_path / "zero_set.csv"
        rc = run_cli("obstruction", "--domain", "cantor_tower:12:5",
                     "--x-max", "4.5", "--csv", str(csv_path))
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[:4] == ["hypothesis_satisfied: False", "R: 4.5", "zero_boxes: 3",
                           "first_zero_box: [2.01953125] to [2.982421875]"]
        assert csv_path.read_text() == ("lo_0,hi_0\n2.01953125,2.982421875\n"
                                        "3.017578125,3.9833984375\n4.0166015625,4.5\n")
        rc = run_cli("obstruction", "--domain", "cantor_tower:12:5", "--x-max", "8")
        out = capsys.readouterr().out
        assert rc == 0
        assert "hypothesis_satisfied: True\nR: 4.98388671875\n" in out
        assert "conclusion: no tight exponential frame" in out

    def test_obstruction_takes_no_sampling_options(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("obstruction", "--domain", "cantor_tower:12:5", "--step", "0.01")
        assert "unrecognized arguments: --step" in capsys.readouterr().err

    def test_certify_measure_and_refusal(self, tmp_path, capsys):
        domain = tmp_path / "omega.json"
        domain.write_text(json.dumps({"dim": 1, "boxes": [[0.0, 1.0]]}))
        csv_path = tmp_path / "cert.csv"
        rc = run_cli("certify-measure", "--domain", str(domain), "--x0", "2.0",
                     "--grid-n", "64", "--csv", str(csv_path))
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "verdict: certified"
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "verdict", "A_est", "B_est", "notes"]
        header, row = csv_path.read_text().splitlines()
        assert header == "x0,A_est,B_est" and row.startswith("2.0,")
        rc = run_cli("certify-measure", "--domain", str(domain), "--x0", "0.5")
        out = capsys.readouterr().out
        assert rc == 0 and "verdict: refused" in out

    def test_certify_measure_off_the_grid_exits_two(self, tmp_path, capsys):
        domain = tmp_path / "omega.json"
        domain.write_text(json.dumps({"dim": 1, "boxes": [[0.0, 0.5], [1.0, 1.5]]}))
        rc = run_cli("certify-measure", "--domain", str(domain), "--x0", "0.5",
                     "--grid-n", "256")
        assert rc == 2
        assert "whole numbers of grid cells" in capsys.readouterr().err

    @pytest.mark.parametrize("boxes, x0", [([[0.0, 0.0, 1.0, 1.0]], "2,0"),
                                           ([[0.0, 1.0]], "1e5")],
                             ids=["unit_square", "far_shift"])
    def test_certify_measure_default_grid(self, tmp_path, capsys, boxes, x0):
        domain = tmp_path / "omega.json"
        domain.write_text(json.dumps({"dim": len(boxes[0]) // 2, "boxes": boxes}))
        rc = run_cli("certify-measure", "--domain", str(domain), "--x0", x0)
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "verdict: certified"

    def test_gabor_command(self, tmp_path, capsys):
        csv_path = tmp_path / "gabor.csv"
        rc = run_cli("gabor", "--window", "indicator(0,0.5)", "--p", "1",
                     "--q", "2", "--M", "256", "--csv", str(csv_path))
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: frame_certified" in out
        header = csv_path.read_text().split("\n")[0]
        assert header == "p,q,M,A53,B53,verdict,zz_min,zz_max"

    def test_gabor_negative_verdict_exits_zero(self, capsys):
        rc = run_cli("gabor", "--window", "indicator(0,0.5)", "--p", "1",
                     "--q", "1", "--M", "64")
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: not_frame" in out

    def test_input_error_exits_nonzero(self, capsys):
        rc = run_cli("gabor", "--window", "sin(x)", "--M", "64")
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_gabor_shift_above_one_rejected(self, capsys):
        rc = run_cli("gabor", "--window", "indicator(0,1)", "--p", "3",
                     "--q", "1", "--M", "64")
        assert rc == 2
        assert "p = q = 1" in capsys.readouterr().err

    def test_config_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"q": 2, "M": 64}))
        rc = run_cli("--config", str(config), "gabor", "--window",
                     "indicator(0,0.5)")
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: frame_certified" in out

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fantasy-knob": 3}))
        rc = run_cli("--config", str(config), "gabor", "--window", "indicator(0,1)")
        assert rc == 2


SYSTEM = {"omega": {"dim": 1, "boxes": [[0.0, 1.0]]},
          "pairs": [{"window": "indicator",
                     "freq": {"kind": "lattice_cosets", "basis": [[1.0]], "offsets": [[0.0]]}}]}
DOMAIN = '{"dim": 1, "boxes": [[0.0, 1.0]]}'


def system_with_freq(freq):
    return json.dumps(dict(SYSTEM, pairs=[{"window": "indicator", "freq": freq}]))


POINT = {"kind": "finite_set", "points": [[0]]}
INFINITE_DOMAIN = '{"dim": 1, "boxes": [[0, Infinity]]}'


@pytest.mark.parametrize("argv, files, named", [
    (["certify-measure", "--domain", DOMAIN, "--x0", "abc"], {}, ""),
    (["density", "--points", "points.json", "--windowed", "--h-list", "1,x"],
     {"points.json": json.dumps(SYSTEM["pairs"][0]["freq"])}, ""),
    (["density", "--points", "points.json", "--windowed", "--h-list", "0,10"],
     {"points.json": json.dumps(SYSTEM["pairs"][0]["freq"])}, ""),
    (["frame-bounds", "--system", json.dumps(SYSTEM), "--trunc", "1:2:3"], {}, ""),
    (["residue", "--domain", DOMAIN, "--lattice", '[["a"]]'], {}, ""),
    (["residue", "--domain", DOMAIN, "--lattice", '{"a": 1}'], {}, ""),
    (["density", "--points", '{"terms": [{"weight": 1.0}]}'], {}, ""),
    (["density", "--points", '{"kind": "lattice_cosets", "offsets": [[0.0]]}'], {}, ""),
    (["density", "--points", '{"kind": "quasicrystal"}'], {}, ""),
    (["--config", "config.json", "gabor", "--window", "indicator(0,0.5)"],
     {"config.json": "{not json"}, ""),
    (["--config", "config.json", "gabor", "--window", "indicator(0,0.5)"],
     {"config.json": "[1]"}, ""),
    (["--config", "config.json", "gabor", "--window", "indicator(0,0.5)"],
     {"config.json": '{"M": "x"}'}, ""),
    (["--config", '{"windowed": 1}', "density", "--points", "points.json"],
     {"points.json": json.dumps(SYSTEM["pairs"][0]["freq"])}, ""),
    (["frame-bounds", "--system", "system.json"],
     {"system.json": system_with_freq({"kind": "lattice_cosets", "basis": [["a"]],
                                       "offsets": [[0.0]]})}, ""),
    (["frame-bounds", "--system", "system.json"],
     {"system.json": system_with_freq({"kind": "continuous", "box": [-1.0, 1.0], "n": 3,
                                       "density": [1.0, 1.0]})}, ""),
    (["frame-bounds", "--system", "missing.json"], {}, ""),
    (["frame-bounds", "--system", json.dumps(dict(SYSTEM, pairs=[
        {"window": 5, "freq": {"kind": "finite_set", "points": [[0]]}}]))], {}, ""),
    (["residue", "--domain", DOMAIN, "--lattice", "[[NaN]]"], {}, "finite, got nan"),
    (["residue", "--domain", DOMAIN, "--lattice", "inf"], {}, "finite, got inf"),
    (["obstruction", "--domain", INFINITE_DOMAIN], {}, "finite, got inf"),
    (["overlap", "--domain", INFINITE_DOMAIN], {}, "finite, got inf"),
    (["density", "--points", json.dumps({"terms": [{"weight": math.inf, "support": POINT}]})],
     {}, "finite, got inf"),
    (["density", "--points", json.dumps(dict(POINT, points=[[math.nan]]))], {},
     "finite, got nan"),
    (["density", "--points", json.dumps({"kind": "eventually_periodic_1d",
                                         "right_period": math.inf})], {},
     "finite, got inf"),
    (["density", "--points", json.dumps(POINT), "--windowed", "--h-list", "inf"], {},
     "finite, got inf"),
    (["gabor", "--window", "indicator(0,1e400)"], {}, "finite, got 1e400"),
    (["frame-bounds", "--grid-n", "8", "--system", system_with_freq(
        {"kind": "continuous", "box": [-4.0, 4.0], "n": 2, "density": [1.0, math.nan]})],
     {}, "finite, got (nan+0j)"),
    (["frame-bounds", "--grid-n", "8", "--system", json.dumps(dict(SYSTEM, pairs=[
        dict(SYSTEM["pairs"][0], window="1e400")]))], {}, "finite, got 1e400"),
    (["frame-bounds", "--grid-n", "8", "--system", system_with_freq(
        {"kind": "continuous", "atoms": [[0.0, math.inf]]})], {}, "finite, got inf"),
    (["certify-measure", "--domain", DOMAIN, "--x0", "nan"], {}, "finite, got nan"),
    (["overlap", "--domain", DOMAIN, "--step", "0"], {}, "--step"),
    (["overlap", "--domain", DOMAIN, "--step", "nan"], {}, "--step"),
    (["overlap", "--domain", DOMAIN, "--x-max", "nan"], {}, "--x-max"),
    (["overlap", "--domain", DOMAIN, "--step", "-1"], {}, "--step"),
    (["overlap", "--domain", DOMAIN, "--x-max", "-2"], {}, "--x-max"),
    (["overlap", "--domain", DOMAIN, "--x-max", "0"], {}, "--x-max"),
    (["gabor", "--window", "indicator()"], {}, "indicator()"),
    (["gabor", "--window", "indicator(a,b)"], {}, "indicator(a,b)"),
    (["frame-bounds", "--system", system_with_freq({"kind": "continuous", "atoms": [[]]})],
     {}, "bad system description"),
    (["residue", "--domain", '{"dim": Infinity, "boxes": [[0, 1]]}', "--lattice", "1"],
     {}, "finite, got inf"),
    (["residue", "--domain", '{"dim": 1.9, "boxes": [[0, 1]]}', "--lattice", "1"],
     {}, "whole number, got 1.9"),
    (["density", "--points", json.dumps(dict(POINT, dim=1.5))], {}, "whole number, got 1.5"),
    (["frame-bounds", "--grid-n", "8", "--system", system_with_freq(
        {"kind": "continuous", "box": [-4.0, 4.0], "n": 2.5, "density": [1.0, 1.0]})],
     {}, "whole number, got 2.5"),
], ids=["x0", "h_list", "h_zero", "trunc", "lattice_entry", "lattice_object", "comb_term",
        "coset_basis", "point_set_kind", "config_not_json", "config_not_object",
        "config_value", "config_flag", "system_basis", "system_density",
        "missing_system", "window_not_string", "lattice_nan", "lattice_scale_inf",
        "obstruction_infinite_box", "overlap_infinite_box", "comb_weight_inf", "point_nan",
        "period_inf", "h_list_inf", "window_corner_overflow", "density_nan", "window_overflow",
        "atom_weight_inf", "x0_nan", "step_zero", "step_nan", "x_max_nan", "step_negative",
        "x_max_negative", "x_max_zero", "indicator_empty", "indicator_letters", "atom_empty",
        "dim_inf", "dim_fraction", "set_dim_fraction", "density_cells_fraction"])
def test_malformed_input_exits_two_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                       argv, files, named):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert captured.out == ""


def test_nested_decoder_errors_keep_their_own_prefix():
    with pytest.raises(InputError, match="^bad lattice description: "):
        pointset_from_dict({"kind": "lattice_cosets", "basis": [["a"]], "offsets": [[0.0]]})
    with pytest.raises(InputError, match="^unknown point set kind 'x'$"):
        system_from_dict(json.loads(system_with_freq({"kind": "finite_perturbation",
                                                      "base": {"kind": "x"}})))
    with pytest.raises(InputError, match="^bad system description: missing field 'pairs'$"):
        system_from_dict({"omega": SYSTEM["omega"]})


eighths = st.integers(-16, 16).map(lambda k: k / 8)
widths = st.integers(1, 16).map(lambda k: k / 8)


@st.composite
def domain_dicts(draw, dim=None):
    dim = dim or draw(st.integers(1, 2))
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        lo = [draw(eighths) for _ in range(dim)]
        boxes.append(lo + [a + draw(widths) for a in lo])
    return {"dim": dim, "boxes": boxes}


@st.composite
def pointset_dicts(draw, dim):
    kinds = ["lattice_cosets", "finite_set", "finite_perturbation"]
    kind = draw(st.sampled_from(kinds + ["eventually_periodic_1d"] * (dim == 1)))
    spacing = draw(widths)
    if kind == "eventually_periodic_1d":
        # the core sits halfway between two points of the right tail
        start = draw(eighths)
        return {"kind": kind, "right_period": spacing, "right_start": start,
                "left_period": draw(st.none() | widths), "left_start": start - 1.0,
                "core": draw(st.sampled_from([[], [start + spacing / 2.0]]))}
    if kind == "finite_set":
        points = draw(st.lists(st.lists(eighths, min_size=dim, max_size=dim),
                               min_size=1, max_size=3, unique_by=tuple))
        return {"kind": kind, "dim": dim, "points": points}
    basis = [[spacing if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    cosets = {"kind": "lattice_cosets", "basis": basis, "offsets": [[0.0] * dim]}
    if kind == "lattice_cosets":
        return cosets
    k = draw(st.integers(-3, 3))
    return {"kind": kind, "base": cosets, "added": [[spacing * (k + 0.5)] * dim],
            "removed": [[spacing * k] * dim]}


@st.composite
def comb_dicts(draw, dim=None):
    dim = dim or draw(st.integers(1, 2))
    return {"terms": [{"weight": draw(widths), "support": draw(pointset_dicts(dim))}
                      for _ in range(draw(st.integers(1, 2)))]}


@st.composite
def window_texts(draw):
    lo = draw(eighths)
    factors = [draw(st.sampled_from([f"{draw(widths)!r}", f"x^{draw(eighths)!r}",
                                     f"(1-x)^{draw(eighths)!r}", "indicator",
                                     f"indicator({lo!r},{lo + draw(widths)!r})"]))
               for _ in range(draw(st.integers(1, 3)))]
    return "*".join(factors)


@st.composite
def system_dicts(draw):
    dim = draw(st.integers(1, 2))
    pairs = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            freq = draw(pointset_dicts(dim))
        else:
            n = draw(st.integers(1, 3))
            freq = {"kind": "continuous", "box": [-4.0] * dim + [4.0] * dim, "n": n,
                    "density": [draw(widths) for _ in range(n ** dim)],
                    "atoms": [[draw(eighths)] * dim + [draw(widths)]]}
        pairs.append({"window": draw(window_texts()), "freq": freq})
    return {"omega": draw(domain_dicts(dim)), "pairs": pairs}


# a number of a window text; the 1 of (1-x) is part of the syntax
WINDOW_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?(?!-x)")


def number_sites(data, path=()):
    """(path, None) for every number in decoded JSON, and (path, span) for
    every number inside a window text."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield from number_sites(value, path + (key,))
    elif isinstance(data, list):
        for key, value in enumerate(data):
            yield from number_sites(value, path + (key,))
    elif isinstance(data, str) and path[-1:] == ("window",):
        yield from ((path, m.span()) for m in WINDOW_NUMBER.finditer(data))
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        yield path, None


def replaced(data, path, value):
    data = copy.deepcopy(data)
    *head, last = path
    functools.reduce(lambda node, key: node[key], head, data)[last] = value
    return data


DESCRIPTIONS = {domain_from_dict: domain_dicts(), comb_from_dict: comb_dicts(),
                pointset_from_dict: st.integers(1, 2).flatmap(pointset_dicts),
                system_from_dict: system_dicts()}


@given(st.sampled_from(list(DESCRIPTIONS)).flatmap(
           lambda decode: st.tuples(st.just(decode), DESCRIPTIONS[decode])),
       st.data())
@settings(max_examples=150, deadline=None)
def test_every_decoder_refuses_one_non_finite_number(case, data):
    decode, valid = case
    decode(copy.deepcopy(valid))
    path, span = data.draw(st.sampled_from(list(number_sites(valid))))
    if span is None:
        bad = replaced(valid, path, data.draw(st.sampled_from([math.nan, math.inf, -math.inf])))
    else:
        text = functools.reduce(lambda node, key: node[key], path, valid)
        bad = replaced(valid, path, text[:span[0]] + "1e400" + text[span[1]:])
    with pytest.raises(InputError):
        decode(bad)
