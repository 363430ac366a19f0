"""Comb-with-function convolution and the density/convolution bracket check.

``comb_convolve`` evaluates (mu * f)(x) = sum_lambda w(lambda) f(x - lambda)
on a grid; since f is compactly supported only finitely many terms meet any
evaluation window.  ``check_density_convolution_bracket`` verifies that the
Beurling densities of the combined comb are bracketed by the extremes of the
convolution sum's exact extremes over the evaluation box, up to a roundoff
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .geometry import Box, cartesian
from .gridfn import GridFunction, grid_points
from .pointsets import DensityReport, LatticeCosets, WeightedComb, density_closed_form

TOL_FLOOR = 1e-12


def comb_convolve(comb: WeightedComb, f: GridFunction, eval_box: Box,
                  n_eval: int) -> GridFunction:
    """Evaluate (comb * f) at the cell centers of an n_eval grid on eval_box.

    f must be non-negative; its samples are extended by multilinear
    interpolation inside its bounding box and by zero outside.
    """
    if np.min(f.samples) < -1e-12:
        raise InputError("comb_convolve requires a non-negative function")
    if eval_box.dim != f.dim or comb.dim != f.dim:
        raise InputError("dimension mismatch between comb, function and eval box")
    out = _convolve_at(comb, f, eval_box, grid_points(eval_box, n_eval))
    return GridFunction(eval_box, out.reshape((n_eval,) * eval_box.dim))


def _translates(comb: WeightedComb, f: GridFunction, eval_box: Box):
    """(weight, lambda) for every comb point whose translate of f meets eval_box."""
    support = f.bounding_box
    reach = Box(tuple(a - b for a, b in zip(eval_box.lo, support.hi)),
                tuple(b - a for b, a in zip(eval_box.hi, support.lo)))
    for w, support_set in comb.terms:
        for lam in support_set.points_in_box(reach):
            yield w, lam


def _convolve_at(comb: WeightedComb, f: GridFunction, eval_box: Box,
                 pts: np.ndarray) -> np.ndarray:
    """(comb * f) at points of eval_box."""
    acc = np.zeros(len(pts))
    for w, lam in _translates(comb, f, eval_box):
        acc += w * f.interpolate(pts - lam)
    return acc


def _exact_extremes(pairs: Sequence[tuple[WeightedComb, GridFunction]],
                    eval_box: Box) -> tuple[float, float]:
    """Exact inf and sup of S = sum_i (mu_i * h_i) over the half-open eval box.

    Each translate h(x - lambda) is multilinear between the cuts at lambda
    plus the box edges and cell centres of h, and jumps only at the box
    edges.  On every cell of the product of all cuts S is therefore
    multilinear, so its extremes are corner limits: S is sampled at the 1/4
    and 3/4 points of each axis, off every jump, and extrapolated linearly.
    Every cut is kept; a cell too narrow to hold both strictly inside is dropped.
    """
    cuts = [[np.array([lo])] for lo in eval_box.lo]
    for comb, h in pairs:
        nodes = [np.concatenate(([a], c, [b])) for a, c, b
                 in zip(h.bounding_box.lo, h.axes(), h.bounding_box.hi)]
        for _, lam in _translates(comb, h, eval_box):
            cuts = [c + [x + n] for c, x, n in zip(cuts, lam, nodes)]
    axes = []
    for axis_cuts, lo, hi in zip(cuts, eval_box.lo, eval_box.hi):
        c = np.unique(np.concatenate(axis_cuts))
        c = c[(c >= lo) & (c < hi)]
        ends = np.append(c[1:], hi)
        q1, q3 = c + 0.25 * (ends - c), c + 0.75 * (ends - c)
        keep = (c < q1) & (q1 < q3) & (q3 < ends)
        keep[np.argmax(ends - c)] = True  # a box a few ulps wide keeps its widest cell
        axes.append(np.stack([q1[keep], q3[keep]], axis=1).ravel())
    pts = cartesian(axes)
    vals = sum(_convolve_at(comb, h, eval_box, pts) for comb, h in pairs)
    vals = vals.reshape([m for a in axes for m in (len(a) // 2, 2)])
    for k in range(eval_box.dim):
        q1, q3 = np.take(vals, 0, axis=2 * k + 1), np.take(vals, 1, axis=2 * k + 1)
        vals = np.stack([1.5 * q1 - 0.5 * q3, 1.5 * q3 - 0.5 * q1], axis=2 * k + 1)
    return float(vals.min()), float(vals.max())


class TranslationBoundReport(NamedTuple):
    sup_estimate: float
    attained_at: tuple[float, ...]


def translation_bounded_probe(comb: WeightedComb, window: Box) -> TranslationBoundReport:
    """sup_x mu(x + K): the largest mass of ``WeightedComb.sliding_masses``
    for boxes of K's sides, reported at the first corner in C order that
    attains it; a comb with no point near its hull reports mass 0."""
    if window.dim != comb.dim:
        raise InputError("window dimension does not match the comb")
    corners, masses = comb.sliding_masses(window.sides)
    best = np.unravel_index(np.argmax(masses), masses.shape)
    return TranslationBoundReport(float(masses[best]),
                                  tuple(float(c[i]) for c, i in zip(corners, best)))


@dataclass(frozen=True)
class ConvolutionBracketReport:
    """Outcome of the density/convolution bracket verification."""

    inf_sum: float            # inf over eval_box of sum_i (mu_i * h_i)
    sup_sum: float            # sup over eval_box
    masses: tuple[float, ...]  # integral of each h_i
    densities: DensityReport   # densities of sum_i mass_i * mu_i
    tol: float
    upper_holds: bool          # D+ <= sup + tol
    lower_holds: bool          # inf - tol <= D-
    inconclusive: bool         # the box need not hold S's global extremes
    sum_grid: GridFunction


def check_density_convolution_bracket(
        pairs: Sequence[tuple[WeightedComb, GridFunction]], eval_box: Box,
        n_eval: int) -> ConvolutionBracketReport:
    """Check that densities of the mass-weighted comb sit inside the
    convolution sum's range.

    Forms S = sum_i (mu_i * h_i) and the comb mu = sum_i (integral of h_i)
    mu_i, then tests D+(mu) <= sup S + tol and inf S - tol <= D-(mu), with
    the exact extremes of S over eval_box and a roundoff tolerance.  They
    are global only when every support is a ``LatticeCosets`` of one lattice
    (in any basis) and the box covers a fundamental cell; otherwise the
    report is inconclusive.  ``sum_grid`` holds S at the n_eval grid's cell
    centres.
    """
    if not pairs:
        raise InputError("need at least one (comb, function) pair")
    masses = [h.integral() for _, h in pairs]
    if min(masses) <= 0:
        raise InputError("each function in the bracket check needs positive mass")
    total = sum(comb_convolve(comb, h, eval_box, n_eval).samples for comb, h in pairs)
    combined = WeightedComb(tuple((mass * w, s) for mass, (comb, _) in zip(masses, pairs)
                                  for w, s in comb.terms))
    densities = density_closed_form(combined)
    supports = [support for comb, _ in pairs for _, support in comb.terms]
    periodic = all(isinstance(s, LatticeCosets)
                   and s.lattice.same_group(supports[0].lattice) for s in supports)
    # each side must span the fundamental parallelepiped, the lattice's ``period``
    inconclusive = not (periodic and np.all(np.array(eval_box.sides) >= supports[0].period()))
    inf_sum, sup_sum = _exact_extremes(pairs, eval_box)
    tol = TOL_FLOOR * max(1.0, abs(inf_sum), abs(sup_sum))
    return ConvolutionBracketReport(
        inf_sum=inf_sum,
        sup_sum=sup_sum,
        masses=tuple(masses),
        densities=densities,
        tol=tol,
        upper_holds=densities.upper <= sup_sum + tol,
        lower_holds=inf_sum - tol <= densities.lower,
        inconclusive=inconclusive,
        sum_grid=GridFunction(eval_box, total),
    )
