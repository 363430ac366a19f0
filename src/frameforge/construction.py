"""Constructive frame builders, obstruction scans and tightness certificates.

Two builders: one covers the domain by a cube and rides the cube's harmonic
exponentials through bounded windows; the other turns a lattice packing of
the domain into a tight Fourier frame and measures its constant with the
frame-bounds engine, on the untruncated Ron-Shen fibers for a diagonal
lattice.  Refusals carry concrete counterexample data rather than just a
message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .framebounds import (
    DENSE_EIG_LIMIT,
    ContinuousFreqMeasure,
    EssBoundsReport,
    FrameBoundsReport,
    WindowedSystem,
    ess_report,
    estimate_frame_bounds,
    nyquist_box,
    window_ranges,
)
from .geometry import (
    Box,
    BoxUnionSet,
    Lattice,
    ResidueWitness,
    as_vec,
    canonicalize,
    lattice_residue_check,
    overlap_zero_set,
    translate_overlap,
)
from .gridfn import GridFunction, cell_volumes, grid_points
from .pointsets import LatticeCosets
from .windows import Window


@dataclass(frozen=True)
class ConstructionResult:
    system: WindowedSystem
    predicted_A: float
    predicted_B: float
    partition: tuple[BoxUnionSet, ...]
    provenance: str

    def __post_init__(self):
        if self.predicted_A > self.predicted_B + 1e-9:
            raise InputError("predicted_A exceeds predicted_B")
        total = sum(p.measure() for p in self.partition)
        if abs(total - self.system.omega.measure()) > 1e-9:
            raise InputError("partition does not cover the domain exactly")


class ConstructionRefusal(Exception):
    """No frame of windowed exponentials is possible with these windows."""

    def __init__(self, reason: str, ess_report: EssBoundsReport):
        super().__init__(reason)
        self.reason = reason
        self.ess_report = ess_report


class TightFrameRefusal(Exception):
    """The lattice packing condition fails; carries an incompleteness witness."""

    def __init__(self, reason: str, witness: ResidueWitness,
                 counterexample: GridFunction):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness
        self.counterexample = counterexample


class CertificateRefusal(Exception):
    """The translate-disjointness precondition of the cosine measure fails."""

    def __init__(self, reason: str, overlap_plus: float, overlap_minus: float):
        super().__init__(reason)
        self.reason = reason
        self.overlap_plus = overlap_plus
        self.overlap_minus = overlap_minus


def build_bounded_window_frame(windows: Sequence[Window], omega: BoxUnionSet,
                               grid_n: int = 256) -> ConstructionResult:
    """Build a frame of windowed exponentials from windows bounded away from 0.

    Gives every window bounded on the domain (the set J) the harmonic
    lattice of a cube whose side is the largest side of the domain's
    bounding box, every other window no frequency, and each piece of the
    domain to a window of J that clears the essential minimum m there.  The
    domain fits in such a cube, so every Ron-Shen fiber is one point and the
    bounds are the measured tight constant c of the raw cube exponentials
    times the ess inf and ess sup of sum_J |g_j|^2: predicted bounds are
    c m^2 and c times the largest sum over J of squared upper range ends on
    one piece.  The ranges are exact, so a callable window is refused.
    """
    lo, hi, infs, sups = window_ranges(windows, omega, grid_n)
    ess = ess_report(infs, sups, grid_n)
    if not ess.J:
        raise ConstructionRefusal(
            "every window is unbounded on the domain, so no set of frequency "
            "sets can make these windows a frame", ess)
    m, big_m = ess.ess_inf_of_max[0], ess.ess_sup_of_max[1]
    if m <= 1e-12:
        raise ConstructionRefusal(
            "the bounded windows are not bounded away from zero on the domain",
            ess)
    d, side = omega.dim, max(omega.bounding_box().sides)
    harmonic = LatticeCosets(Lattice.scaled_integers(1.0 / side, d))
    system = WindowedSystem(omega, tuple((windows[j], harmonic) for j in ess.J))

    # the constant does not depend on where the cube lies, so it is measured
    # on [0, side)^d, where every side is exactly side; the side lattice
    # packs that cube and every Ron-Shen fiber of a cube is one point, so 2
    # cells per axis read the constant as the painless sum
    cube = BoxUnionSet(d, (Box((0.0,) * d, (side,) * d),))
    c_q = build_lattice_tight_frame(cube, Lattice.scaled_integers(side, d), grid_n=2).predicted_A
    predicted_a = c_q * m ** 2
    predicted_b = c_q * float((sups[list(ess.J)] ** 2).sum(axis=0).max())
    partition = _first_hit_partition(lo, hi, infs, ess.J, m)
    provenance = (f"cube cover side {side}, harmonic lattice spacing {1.0/side}, "
                  f"bounded windows J={list(ess.J)}, no frequencies for windows "
                  f"{[j for j in range(len(windows)) if j not in ess.J]}, m={m:.6g}, "
                  f"M={big_m:.6g}, measured cube constant {c_q:.6g}")
    return ConstructionResult(system, predicted_a, predicted_b,
                              tuple(partition), provenance)


def _first_hit_partition(lo: np.ndarray, hi: np.ndarray, infs: np.ndarray,
                         J: Sequence[int], m: float) -> list[BoxUnionSet]:
    """Assign each piece of a ``window_ranges`` table to the first window of
    J whose lower range end clears m; on every piece the largest lower end
    does, as m is the least of them over the same table.  Runs of pieces
    that touch along the last axis and share a window become one box."""
    hit = np.argmax(infs[list(J)] >= m, axis=0)
    joined = ((hit[1:] == hit[:-1]) & (hi[:-1, -1] == lo[1:, -1])
              & np.all(lo[1:, :-1] == lo[:-1, :-1], axis=1))
    start = np.flatnonzero(np.r_[True, ~joined])
    end = np.r_[start[1:], len(hit)] - 1
    buckets: list[list[Box]] = [[] for _ in J]
    for j, a, b in zip(hit[start].tolist(), lo[start].tolist(), hi[end].tolist()):
        buckets[j].append(Box(a, b))
    return [canonicalize(cells) for cells in buckets if cells]


def build_lattice_tight_frame(omega: BoxUnionSet, lattice: Lattice,
                              grid_n: int = 256) -> ConstructionResult:
    """Tight Fourier frame for a domain packing under the lattice.

    Requires that the domain meets each lattice residue class at most once;
    the frame is the dual-lattice exponentials with the single indicator
    window.  The tight constant is measured by ``estimate_frame_bounds`` at
    grid_n cells per axis and its default truncation, never hard-coded from
    a normalization convention: a diagonal lattice stays untruncated on the
    Ron-Shen fibers, a skew one is cut to the grid's Nyquist band.

    On refusal, the exception carries a nonzero function whose frame
    coefficients all vanish: the indicator difference of a residue collision.
    """
    verdict = lattice_residue_check(omega, lattice)
    if not verdict.holds:
        counterexample = _incompleteness_function(omega, verdict.witness)
        raise TightFrameRefusal(
            "two lattice translates of the domain collide on positive measure, "
            "so the dual exponentials are incomplete", verdict.witness,
            counterexample)
    system = WindowedSystem(omega, ((Window.indicator(), LatticeCosets(lattice.dual())),))
    rep = estimate_frame_bounds(system, grid_n)
    provenance = (f"dual lattice exponentials, covolume {lattice.covolume:.6g}; "
                  f"constant measured at {grid_n} cells per axis, "
                  f"{'untruncated' if rep.trunc_box is None else 'Nyquist band'}")
    return ConstructionResult(system, rep.A_est, rep.B_est, (omega,), provenance)


def _incompleteness_function(omega: BoxUnionSet, witness: ResidueWitness) -> GridFunction:
    """chi_{E} - chi_{E - delta} for a residue collision E = omega ∩ (omega+delta),
    on the coarsest grid where delta and every face are whole cells, so both
    indicators are exact there; every dual-lattice frame coefficient of this
    function vanishes."""
    delta = tuple(-v for v in witness.gamma_prime)
    shifted = omega.translate(delta)
    e_plus = canonicalize([cut for s in shifted.boxes for cut in omega.intersect_box(s)])
    e_minus = e_plus.translate(tuple(-v for v in delta))
    bb, n = omega.bounding_box(), _aligned_grid(omega, delta)
    pts = grid_points(bb, n)
    vals = np.select([e_plus.contains(pts), e_minus.contains(pts)], [1.0, -1.0])
    return GridFunction(bb, vals.reshape((n,) * omega.dim), cell_volumes(bb, n, omega))


def _aligned_grid(omega: BoxUnionSet, shift: Sequence[float],
                  grid_n: Optional[int] = None) -> int:
    """Cells per axis of a grid over the bounding box on which the shift and
    every face of the domain are whole numbers of cells: grid_n when it
    aligns, by default the coarsest with at least 256 cells and none above
    DENSE_EIG_LIMIT cells."""
    bb, d = omega.bounding_box(), omega.dim
    faces = np.array([b.lo for b in omega.boxes] + [b.hi for b in omega.boxes])
    units = np.vstack([np.asarray(shift), faces - bb.lo]) / np.array(bb.sides)

    def aligned(n: int) -> bool:
        cells = units * n
        return n >= 1 and bool(np.all(np.abs(cells - np.round(cells))
                                      <= 1e-9 * np.maximum(1.0, np.abs(cells))))

    sizes = [grid_n] if grid_n is not None else range(
        math.ceil(256 ** (1 / d) - 1e-9), int(DENSE_EIG_LIMIT ** (1 / d) + 1e-9) + 1)
    found = next((n for n in sizes if aligned(n)), None)
    if found is None:
        tried = f"{sizes[0]}" if len(sizes) == 1 else f"{sizes[0]} to {sizes[-1]}"
        raise InputError(
            f"the shift {tuple(shift)} and every face of the domain must be whole "
            f"numbers of grid cells; no grid of {tried} cells per axis on the "
            f"bounding box from {bb.lo} to {bb.hi} aligns")
    return found


def analysis_coefficients(f: GridFunction, window: Window,
                          freq_points: np.ndarray) -> np.ndarray:
    """Frame coefficients <f, g e_lambda> by grid quadrature."""
    pts = f.points()
    w = f.cell_weights.ravel()
    vals = f.samples.ravel()
    g = window.eval(pts)
    lam = np.atleast_2d(np.asarray(freq_points, dtype=float))
    return np.exp(-2j * np.pi * (lam @ pts.T)) @ (w * vals * np.conj(g))


@dataclass(frozen=True)
class ObstructionVerdict:
    """The exact zero set of the translate overlap, for the tightness obstruction."""

    hypothesis_satisfied: bool
    R: float
    zero_set: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    caveat: str


def tight_frame_obstruction_scan(omega: BoxUnionSet, x_max: float,
                                 tail_measure: Optional[float] = None
                                 ) -> ObstructionVerdict:
    """Find every shift |x_a| <= x_max with |omega ∩ (omega+x)| = 0.

    The zero set comes from ``overlap_zero_set`` as closed boxes, one sign of
    x up to x -> -x; R is the largest |x| on it (0 when it is empty).  When
    R < x_max the overlap is positive for every scanned shift with |x| > R,
    the no-tight-frame obstruction on the scanned range.  Exact for
    dyadic-rational faces; other faces carry one rounding in each breakpoint.
    """
    zero_set = overlap_zero_set(omega, x_max)
    R = max((math.sqrt(sum(max(a * a, b * b) for a, b in zip(lo, hi)))
             for lo, hi in zero_set), default=0.0)
    caveat = f"exact on the shift box |x_a| <= {x_max!r} only" + (
        "" if tail_measure is None else f"; domain truncation tail measure {tail_measure:.3g}")
    return ObstructionVerdict(R < x_max, R, tuple(zero_set), caveat)


@dataclass(frozen=True)
class TightCertificate:
    """The cosine measure and its frame bounds as measured on the domain."""

    measure_descriptor: ContinuousFreqMeasure
    report: FrameBoundsReport

    @property
    def holds(self) -> bool:
        return self.report.B_est - self.report.A_est <= 1e-9 * self.report.B_est


def cosine_measure_certificate(omega: BoxUnionSet, x0: Sequence[float],
                               grid_n: Optional[int] = None) -> TightCertificate:
    """Measured frame bounds of (1 + cos 2 pi <xi, x0>) d xi with the
    indicator window, tight exactly when |omega ∩ (omega ± x0)| = 0.

    The exact box check refuses an overlapping shift; a positive verdict
    rests only on the bounds.  x0 and every face of the domain must be whole
    numbers of the grid's cells; grid_n=None picks the coarsest such grid
    with at least 256 cells, and none above DENSE_EIG_LIMIT cells.  The
    density fills the Nyquist band with the fewest cells per axis above
    grid_n that move every alias of lag 0 and of ±x0 off the grid's index
    differences: grid_n + s + 1 when every |x0| is at most grid_n cells, s
    being the largest.
    """
    x0 = as_vec(x0)
    ov_plus = translate_overlap(omega, x0)
    ov_minus = translate_overlap(omega, tuple(-v for v in x0))
    if ov_plus > 0.0 or ov_minus > 0.0:
        raise CertificateRefusal(
            "the domain meets its own translate by x0 on positive measure, so "
            "the cosine measure is not a tight frame measure for it",
            ov_plus, ov_minus)
    bb, d = omega.bounding_box(), omega.dim
    grid_n = _aligned_grid(omega, x0, grid_n)
    c = np.abs(np.round(np.asarray(x0) / np.array(bb.sides) * grid_n)).astype(int)
    # the lags c + m N (m != 0) alias onto the grid unless some axis's
    # M_a = {m : |c_a - m N| <= n} is empty, or every M_a is {0}; N = n + s + 1
    # always clears them, and a far x0 is cleared within about 4 n, so the
    # sizes are tested 4 n at a time, in order, up to the first that clears
    for first in range(grid_n + 1, grid_n + c.max() + 2, 4 * grid_n):
        N = np.arange(first, first + 4 * grid_n)[:, None]
        clear = (np.any(-((grid_n - c) // N) > (c + grid_n) // N, axis=1)
                 | ~np.any((c + grid_n) // N, axis=1))
        if clear.any():
            break
    density_n = int(N[clear.argmax(), 0])
    # at the band's cell centres 2 pi <xi_j, x0> = pi sum_a ±c_a (2 j_a + 1 - N) / N,
    # whole half-turns over N, so a far x0 costs the cosine no precision;
    # folding t to min(t, 2N - t) makes the mirrored cells' masses equal
    # bit for bit, so the density is even and the operator real
    j = np.indices((density_n,) * d).reshape(d, -1)
    shift = np.sign(x0).astype(int) * c % (2 * density_n)
    turns = shift @ (2 * j + 1 - density_n) % (2 * density_n)
    turns = np.minimum(turns, 2 * density_n - turns)
    band = nyquist_box(bb, grid_n)
    measure = ContinuousFreqMeasure(density=GridFunction(
        band, 1.0 + np.cos(np.pi * turns / density_n).reshape((density_n,) * d),
        cell_volumes(band, density_n)))
    system = WindowedSystem(omega, ((Window.indicator(), measure),))
    return TightCertificate(measure, estimate_frame_bounds(system, grid_n, band))
