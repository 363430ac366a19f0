"""The acceptance suite: pinned criteria shared by pytest and ``verify``.

Each criterion returns a pass/fail result with detail text and CSV artifact
rows; the runner prints one line per criterion and can write the artifacts.
All randomness is driven by one seed, so repeated runs produce byte-identical
CSV output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .construction import (
    TightFrameRefusal,
    analysis_coefficients,
    build_bounded_window_frame,
    build_lattice_tight_frame,
    cosine_measure_certificate,
    tight_frame_obstruction_scan,
)
from .framebounds import WindowedSystem, estimate_frame_bounds, \
    lower_bound_decay_probe, window_density_bracket_check
from .geometry import Box, BoxUnionSet, Lattice, cantor_tower, overlap_profile
from .pointsets import (
    EventuallyPeriodic1D,
    WeightedComb,
    density_closed_form,
    density_windowed,
    integers,
)
from .convolution import check_density_convolution_bracket
from .gridfn import GridFunction
from .serialization import (
    CERTIFICATE_HEADER,
    DENSITY_TRACE_HEADER,
    FRAME_BOUNDS_HEADER,
    GABOR_HEADER,
    format_csv,
    frame_bounds_row,
    gabor_row,
)
from .windows import Window
from .zak import FRAME_CERTIFIED, NOT_FRAME, certify_gabor

UNIT = BoxUnionSet.from_intervals([(0.0, 1.0)])
TWO_PIECE = BoxUnionSet.from_intervals([(0.0, 0.5), (1.0, 1.5)])


@dataclass(frozen=True)
class CsvArtifact:
    name: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    artifacts: tuple[CsvArtifact, ...] = ()


def criterion_01_orthonormal_saturation(seed: int) -> CriterionResult:
    system = WindowedSystem(UNIT, ((Window.indicator(), integers()),))
    rep = estimate_frame_bounds(system, 256)
    passed = abs(rep.A_est - 1.0) <= 1e-9 and abs(rep.B_est - 1.0) <= 1e-9
    detail = f"A_est={rep.A_est:.12f}, B_est={rep.B_est:.12f}, target 1 within 1e-9"
    art = CsvArtifact("c01_frame_bounds.csv", FRAME_BOUNDS_HEADER,
                      (frame_bounds_row("unit_interval_integers", rep),))
    return CriterionResult(1, "orthonormal saturation", passed, detail, (art,))


def criterion_02_lattice_tight_frame(seed: int) -> CriterionResult:
    start = time.monotonic()
    result = build_lattice_tight_frame(TWO_PIECE, Lattice.scaled_integers(2.0), grid_n=512)
    elapsed = time.monotonic() - start
    a, b = result.predicted_A, result.predicted_B
    ratio = b / a if a > 0 else float("inf")
    passed = (ratio <= 1.05 and abs(a - 2.0) <= 0.04 and abs(b - 2.0) <= 0.04
              and elapsed < 10.0)
    detail = (f"constant [{a:.6f}, {b:.6f}] vs oracle 2 (2% tol), "
              f"ratio {ratio:.6f} <= 1.05, {elapsed:.2f}s < 10s")
    art = CsvArtifact("c02_frame_bounds.csv", FRAME_BOUNDS_HEADER,
                      ((("two_piece_even_lattice", 512, "untruncated", a, b, ratio)),))
    return CriterionResult(2, "lattice packing tight frame", passed, detail, (art,))


def criterion_03_lattice_refusal(seed: int) -> CriterionResult:
    try:
        build_lattice_tight_frame(TWO_PIECE, Lattice.scaled_integers(1.0))
        return CriterionResult(3, "lattice packing refusal", False,
                               "expected a refusal but the build succeeded")
    except TightFrameRefusal as refusal:
        counter = refusal.counterexample
        norm = float(np.sqrt(counter.norm_sq()))
        lam = np.arange(-64.0, 64.0).reshape(-1, 1)
        coefs = analysis_coefficients(counter, Window.indicator(), lam)
        worst = float(np.max(np.abs(coefs)))
        passed = worst < 1e-9 and norm >= 0.1
        detail = (f"counterexample norm {norm:.3f} >= 0.1, max coefficient "
                  f"{worst:.3e} < 1e-9")
        art = CsvArtifact("c03_refusal.csv",
                          ("counterexample_norm", "max_coefficient"),
                          ((norm, worst),))
        return CriterionResult(3, "lattice packing refusal", passed, detail, (art,))


def criterion_04_bounded_window_construction(seed: int) -> CriterionResult:
    base_windows = [Window.from_string("x^1.0"), Window.from_string("(1-x)^1.0")]
    base = build_bounded_window_frame(base_windows, UNIT)
    rep = estimate_frame_bounds(base.system, 256)
    extended = build_bounded_window_frame(
        base_windows + [Window.from_string("x^-0.25"),
                        Window.from_string("(1-x)^-0.25")], UNIT)
    rep_ext = estimate_frame_bounds(extended.system, 256)
    checks = [
        abs(base.predicted_A - 0.25) <= 0.005,
        rep.A_est >= 0.2,
        rep.B_est <= 1.2 * base.predicted_B,
        abs(extended.predicted_A - base.predicted_A) <= 1e-9,
        rep_ext.A_est >= 0.2,
        rep_ext.B_est <= 1.2 * extended.predicted_B,
    ]
    passed = all(checks)
    detail = (f"predicted_A={base.predicted_A:.4f} (target 0.25), "
              f"A_est={rep.A_est:.4f} >= 0.2, B_est={rep.B_est:.4f} <= "
              f"{1.2 * base.predicted_B:.4f}; unbounded windows redundant: "
              f"predicted_A unchanged ({extended.predicted_A:.4f})")
    art = CsvArtifact(
        "c04_construction.csv",
        ("variant", "predicted_A", "predicted_B", "A_est", "B_est"),
        (("bounded_pair", base.predicted_A, base.predicted_B, rep.A_est, rep.B_est),
         ("with_unbounded", extended.predicted_A, extended.predicted_B,
          rep_ext.A_est, rep_ext.B_est)))
    return CriterionResult(4, "cube-harmonic construction", passed, detail, (art,))


def criterion_05_window_bound_bracket(seed: int) -> CriterionResult:
    rng = np.random.default_rng(seed)
    rows, checks = [], []
    for trial in range(20):
        constant = trial % 4 == 0
        if constant:
            text = repr(float(rng.uniform(0.3, 1.2)))
            c = 128.0 / int(rng.integers(128, 257))
        else:
            # the bracket reads only the largest of the 8 drawn values, so the
            # window is that value on the eighth where it was drawn
            vals = rng.uniform(0.2, 1.5, size=8)
            c = float(rng.uniform(0.5, 1.0))
            k = int(vals.argmax())
            text = f"{float(vals[k])!r}*indicator({k / 8!r},{(k + 1) / 8!r})"
        freq = integers(scale=c)
        system = WindowedSystem(UNIT, ((Window.from_string(text, f"pw{trial}"), freq),))
        rep = estimate_frame_bounds(system, 128)
        checks.append(window_density_bracket_check(
            system, rep, [density_closed_form(WeightedComb.single(freq))]))
        row = checks[-1].per_window[0]
        rows.append((trial, c, int(constant), rep.B_est, row.cap, row.ess_sup, row.slack))
    all_hold = all(check.all_hold for check in checks)
    equality_ok = all(abs(ess_sup - cap) <= 0.02 * cap for *_, cap, ess_sup, _ in rows)
    passed = all_hold and equality_ok
    detail = (f"20 randomized piecewise-constant systems: bracket held in all "
              f"({all_hold}), cap equal to the window's ess sup within 2% ({equality_ok})")
    art = CsvArtifact("c05_bracket.csv",
                      ("trial", "c", "constant", "B_est", "cap", "ess_sup", "slack"),
                      tuple(rows))
    return CriterionResult(5, "window bound bracket", passed, detail, (art,))


def criterion_06_density_calculus(seed: int) -> CriterionResult:
    mu = WeightedComb.single(EventuallyPeriodic1D(right_period=1.0, right_start=0.0))
    nu = WeightedComb.single(EventuallyPeriodic1D(left_period=1.0, left_start=-1.0))
    both = mu.plus(nu)
    reps = [density_closed_form(c) for c in (mu, nu, both)]
    closed_ok = ([(r.lower, r.upper) for r in reps]
                 == [(0.0, 1.0), (0.0, 1.0), (1.0, 1.0)])
    slack = 2.0 / 1000.0
    artifacts = []
    windowed_ok = True
    for name, comb, rep in zip(("mu", "nu", "mu_plus_nu"), (mu, nu, both), reps):
        est = density_windowed(comb, (1000.0,))
        windowed_ok &= (abs(est.upper - rep.upper) <= slack
                        and abs(est.lower - rep.lower) <= slack)
        artifacts.append(CsvArtifact(f"c06_trace_{name}.csv", DENSITY_TRACE_HEADER,
                                     tuple(est.estimator_trace)))
    passed = closed_ok and windowed_ok
    detail = (f"closed forms (0,1),(0,1),(1,1): {closed_ok}; windowed at h=1000 "
              f"within 2/h: {windowed_ok}")
    return CriterionResult(6, "density calculus", passed, detail, tuple(artifacts))


def criterion_07_tiling_saturation(seed: int) -> CriterionResult:
    chi = GridFunction.indicator(Box((0.0,), (1.0,)), 256)
    rep = check_density_convolution_bracket(
        [(WeightedComb.single(integers()), chi)], Box((0.0,), (4.0,)), 256)
    passed = (rep.tol < 1e-9
              and abs(rep.densities.upper - 1.0) <= rep.tol
              and abs(rep.densities.lower - 1.0) <= rep.tol
              and abs(rep.sup_sum - 1.0) <= 1e-12
              and abs(rep.inf_sum - 1.0) <= 1e-12)
    detail = (f"S in [{rep.inf_sum!r}, {rep.sup_sum!r}], tol={rep.tol:.1e} < 1e-9, "
              f"densities ({rep.densities.lower!r}, {rep.densities.upper!r})")
    xs = rep.sum_grid.axes()[0]
    art = CsvArtifact("c07_convolution_sum.csv", ("x", "value"),
                      tuple((float(x), float(v)) for x, v in
                            zip(xs, rep.sum_grid.samples)))
    return CriterionResult(7, "tiling saturation", passed, detail, (art,))


def criterion_08_obstruction(seed: int) -> CriterionResult:
    start = time.monotonic()
    full = cantor_tower(12)
    verdict_full = tight_frame_obstruction_scan(
        full.omega, x_max=8.0, tail_measure=full.tail_measure)
    holed = cantor_tower(12, k=5)
    verdict_holed = tight_frame_obstruction_scan(
        holed.omega, x_max=8.0, tail_measure=holed.tail_measure)
    elapsed = time.monotonic() - start
    # zero runs end where two tower intervals start to meet: those at 6 and 8
    # at 2 + 2^-6 + 2^-8, at 6 and 9 at 3 - 2^-6 - 2^-9, at 6 and 11 at
    # R = 5 - 2^-6 - 2^-11
    around = ((2.01953125,), (2.982421875,))
    passed = (verdict_full.hypothesis_satisfied and verdict_full.R == 0.0
              and verdict_holed.hypothesis_satisfied and verdict_holed.R == 4.98388671875
              and around in verdict_holed.zero_set and elapsed < 5.0)
    detail = (f"full tower: overlap positive on [0, 8], R={verdict_full.R!r}; "
              f"holed tower: R={verdict_holed.R!r} <= k=5, zero interval "
              f"[{around[0][0]!r}, {around[1][0]!r}] around 5/2; {elapsed:.2f}s < 5s")
    xs = np.arange(0.0, 8.0 + 0.005, 0.01)
    art = CsvArtifact("c08_holed_profile.csv", ("x", "overlap"),
                      tuple((x[0], v) for x, v in overlap_profile(holed.omega, xs)))
    return CriterionResult(8, "tight-frame obstruction", passed, detail, (art,))


def criterion_09_cosine_certificate(seed: int) -> CriterionResult:
    # at x0 = 1/2 the lag falls inside the domain's span and only its gap
    # keeps the cosine out of the frame operator
    cert = cosine_measure_certificate(TWO_PIECE, (0.5,), grid_n=258)
    rep = cert.report
    passed = cert.holds and abs(rep.A_est - 1.0) <= 1e-9
    detail = (f"A_est={rep.A_est:.12f}, B_est={rep.B_est:.12f}: B - A <= 1e-9 B, "
              f"constant 1 within 1e-9")
    art = CsvArtifact("c09_certificate.csv", CERTIFICATE_HEADER,
                      ((0.5, rep.A_est, rep.B_est),))
    return CriterionResult(9, "cosine measure certificate", passed, detail, (art,))


def criterion_10_gabor_certification(seed: int) -> CriterionResult:
    full = certify_gabor(Window.from_string("indicator(0,1)"), 1, 1, 256)
    half_crit = certify_gabor(Window.from_string("indicator(0,0.5)"), 1, 1, 256)
    half_over = certify_gabor(Window.from_string("indicator(0,0.5)"), 1, 2, 256)
    checks = [
        full.verdict == FRAME_CERTIFIED,
        abs(full.A_53 - 1.0) <= 1e-9 and abs(full.B_53 - 1.0) <= 1e-9,
        half_crit.verdict == NOT_FRAME and half_crit.A_53 <= 1e-9,
        half_over.verdict == FRAME_CERTIFIED,
        abs(half_over.A_53 - 1.0) <= 1e-9,
        max(v.unitarity_residual for v in (full, half_crit, half_over)) <= 1e-6,
    ]
    passed = all(checks)
    detail = (f"a=1 box: {full.verdict} A={full.A_53!r}; a=1 half box: "
              f"{half_crit.verdict} A={half_crit.A_53!r}; a=1/2 half box: "
              f"{half_over.verdict} A={half_over.A_53!r}; unitarity <= 1e-6")
    art = CsvArtifact("c10_gabor.csv", GABOR_HEADER,
                      tuple(gabor_row(v) for v in (full, half_crit, half_over)))
    return CriterionResult(10, "Gabor certification", passed, detail, (art,))


def criterion_11_decay_probe(seed: int) -> CriterionResult:
    rows = lower_bound_decay_probe(
        [Window.indicator()], [integers()],
        lambda n: BoxUnionSet.from_intervals([(0.0, float(n))]), [1, 2, 4])
    a = [r.A_est for r in rows]
    passed = (abs(a[0] - 1.0) <= 1e-9 and a[0] >= a[1] - 1e-12
              and a[1] >= a[2] - 1e-12 and a[2] <= 0.6 * a[0])
    detail = (f"A_est over growing domains: {a[0]:.6f}, {a[1]:.2e}, {a[2]:.2e} "
              f"(non-increasing, last <= 0.6 * first)")
    art = CsvArtifact("c11_decay.csv", ("N", "A_est", "B_est"),
                      tuple((r.N, r.A_est, r.B_est) for r in rows))
    return CriterionResult(11, "lower-bound decay probe", passed, detail, (art,))


MAIN_CRITERIA: tuple[Callable[[int], CriterionResult], ...] = (
    criterion_01_orthonormal_saturation,
    criterion_02_lattice_tight_frame,
    criterion_03_lattice_refusal,
    criterion_04_bounded_window_construction,
    criterion_05_window_bound_bracket,
    criterion_06_density_calculus,
    criterion_07_tiling_saturation,
    criterion_08_obstruction,
    criterion_09_cosine_certificate,
    criterion_10_gabor_certification,
    criterion_11_decay_probe,
)


def _csv_texts(results: Iterable[CriterionResult]) -> dict[str, str]:
    return {art.name: format_csv(art.header, art.rows)
            for result in results for art in result.artifacts}


def criterion_12_determinism(seed: int,
                             reported: Sequence[CriterionResult] = ()) -> CriterionResult:
    """Compare the CSVs of the reported results of criteria 1-11 with one
    rerun; a main criterion missing from ``reported`` runs once first."""
    done = {r.number: r for r in reported}
    first = _csv_texts(done.get(number) or fn(seed)
                       for number, fn in enumerate(MAIN_CRITERIA, 1))
    second = _csv_texts(fn(seed) for fn in MAIN_CRITERIA)
    mismatched = sorted(name for name in first.keys() | second.keys()
                        if first.get(name) != second.get(name))
    passed = not mismatched
    detail = ("two runs with the same seed produced byte-identical CSVs"
              if passed else f"artifacts differ: {mismatched}")
    return CriterionResult(12, "deterministic artifacts", passed, detail)


ALL_CRITERIA = MAIN_CRITERIA + (criterion_12_determinism,)


def run_all(seed: int = 7,
            criteria: Sequence[Callable[[int], CriterionResult]] = ALL_CRITERIA,
            echo: Optional[Callable[[str], None]] = None) -> list[CriterionResult]:
    results = []
    for fn in criteria:
        # criterion 12 reruns criteria 1-11 against the results reported here
        result = fn(seed, results) if fn is criterion_12_determinism else fn(seed)
        if echo is not None:
            status = "PASS" if result.passed else "FAIL"
            echo(f"{status} criterion {result.number:2d} ({result.name}): "
                 f"{result.detail}")
        results.append(result)
    return results
