"""Finitely described infinite point sets and weighted combs.

Every supported set family carries exact upper/lower Beurling densities in
closed form; the exact extremes of the sliding-cube count at finite h are
an independent cross-check.  Each family reduces to a pair of tail densities
(far-left, far-right; in d > 1 both are its uniform density), and densities
of weighted sums combine additively per tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError
from .geometry import Box, Lattice, as_points, as_vec, cover_counts, nearest_whole

Vec = tuple[float, ...]

MATCH_TOL = 1e-9  # absolute tolerance for matching a given point to a set point


def _near(p: Vec) -> Box:
    """Box of half-width MATCH_TOL around p: the points that count as p."""
    return Box(tuple(v - MATCH_TOL for v in p), tuple(v + MATCH_TOL for v in p))


def _hull(pts: Sequence, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Corners of the closed bounding box of the points; the origin when
    there are none."""
    pts = np.array(pts, dtype=float).reshape(-1, dim) if len(pts) else np.zeros((1, dim))
    return pts.min(axis=0), pts.max(axis=0)


def _lexsort(pts: np.ndarray) -> np.ndarray:
    return pts[np.lexsort(pts[:, ::-1].T)]


class StructuredPointSet:
    """Base class; subclasses describe one infinite (or finite) discrete set."""

    dim: int

    def points_in_box(self, box: Box) -> np.ndarray:
        """Exactly the points inside the half-open box, lexicographically sorted."""
        raise NotImplementedError

    def count_in_box(self, box: Box) -> float:
        return float(len(self.points_in_box(box)))

    def tail_densities(self) -> tuple[float, float]:
        """(far-left, far-right) asymptotic densities in 1-D; in d > 1 every
        family's density is uniform, and both entries are it."""
        raise NotImplementedError

    def anchor_hull(self) -> tuple[np.ndarray, np.ndarray]:
        """Corners (lo, hi) of a closed box holding the non-periodic part of
        the structure; the rest repeats it."""
        raise NotImplementedError

    def period(self) -> np.ndarray:
        """Per axis, the extent of one full period of every periodic part: a
        lattice's fundamental cell, an eventually periodic set's longer tail
        period; zeros when nothing repeats."""
        return np.zeros(self.dim)

    def repeats_along(self, axis: int, t: float) -> bool:
        """Whether the shift by t along the axis maps every periodic part onto itself."""
        return True

    def normal_form(self) -> NormalForm | LatticeCosets | None:
        """This set's counting measure as a ``NormalForm``, or as the
        ``LatticeCosets`` it is; None when it has none."""
        return None


class NormalForm(NamedTuple):
    """The counting measure of ``cosets`` (none when None) plus signs[i] at
    finite[i], less the cosets' points in the box ``gap`` (none when None)."""
    cosets: Optional[LatticeCosets]
    finite: tuple[Vec, ...]
    signs: tuple[float, ...]
    gap: Optional[Box] = None


def _summed(points, signs) -> dict:
    """The nonzero sums of signs[i] per point points[i]."""
    weighted = {}
    for p, sign in zip(map(tuple, points), signs):
        weighted[p] = weighted.get(p, 0.0) + sign
    return {p: w for p, w in weighted.items() if w}


def _normal_form(cosets: Optional[LatticeCosets], points, signs, gap: Optional[Box] = None):
    """The form of the cosets less ``gap`` plus signs[i] at points[i], summed
    per point: the cosets themselves when nothing else is left."""
    kept = _summed(points, signs)
    return cosets if cosets and not kept and gap is None else \
        NormalForm(cosets, tuple(kept), tuple(kept.values()), gap)


def signed_points(form, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """The points in ``box`` that ``form`` weighs besides its cosets, and
    their nonzero weights: its finite points and its gap's points at -1."""
    finite = np.array(form.finite, dtype=float).reshape(-1, box.dim)
    inside, gap = box.contains(finite), form.gap and box.intersect(form.gap)
    gone = form.cosets.points_in_box(gap) if gap else finite[:0]
    weighted = _summed(np.vstack([finite[inside], gone]).tolist(),
                       np.r_[np.array(form.signs)[inside], -np.ones(len(gone))])
    points = np.array(list(weighted), dtype=float).reshape(-1, box.dim)
    return points, np.array(list(weighted.values()), dtype=float)


@dataclass(frozen=True)
class LatticeCosets(StructuredPointSet):
    """Union of finitely many cosets of a full-rank lattice; by default the
    lattice itself (the single coset through the origin)."""

    lattice: Lattice
    offsets: Optional[tuple[Vec, ...]] = None
    finite, signs, gap = (), (), None  # as its own normal form: these cosets alone
    cosets = property(lambda self: self)

    def __post_init__(self):
        d = self.lattice.dim
        offs = as_points(((0.0,) * d,) if self.offsets is None else self.offsets, d)
        object.__setattr__(self, "offsets", offs)
        if not offs:
            raise InputError("lattice_cosets needs at least one offset")
        # offsets must be distinct modulo the lattice: no difference is a lattice vector
        reduced = np.array(offs) @ self.lattice.inverse.T % 1.0
        same = np.triu(nearest_whole(reduced[:, None] - reduced)[1].all(axis=2), 1)
        for i, j in np.argwhere(same)[:1]:
            raise InputError(f"offsets {offs[i]} and {offs[j]} coincide mod lattice")

    @property
    def dim(self) -> int:
        return self.lattice.dim

    def normal_form(self) -> LatticeCosets:
        return self

    def points_in_box(self, box: Box) -> np.ndarray:
        return self.lattice.points_in_box(box, self.offsets)

    def tail_densities(self) -> tuple[float, float]:
        rho = len(self.offsets) / self.lattice.covolume
        return (rho, rho)

    def anchor_hull(self) -> tuple[np.ndarray, np.ndarray]:
        # the offsets and the fundamental cell {sum_j t_j b_j : 0 <= t_j <= 1}
        mat = self.lattice.matrix
        return _hull(self.offsets + (np.minimum(mat, 0.0).sum(axis=1),
                                     np.maximum(mat, 0.0).sum(axis=1)), self.dim)

    def period(self) -> np.ndarray:
        return np.abs(self.lattice.matrix).sum(axis=1)

    def repeats_along(self, axis: int, t: float) -> bool:
        # t e_a is a lattice vector exactly when its lattice coordinates are whole
        return bool(nearest_whole(t * self.lattice.inverse[:, axis])[1].all())


@dataclass(frozen=True)
class EventuallyPeriodic1D(StructuredPointSet):
    """Two arithmetic tails plus a finite core on the real line.

    Right tail: {right_start + n * right_period : n >= 0}; left tail:
    {left_start - n * left_period : n >= 0}; either may be absent.
    """

    right_period: Optional[float] = None
    right_start: float = 0.0
    left_period: Optional[float] = None
    left_start: float = 0.0
    core: tuple[float, ...] = ()

    dim = 1

    def __post_init__(self):
        core = tuple(sorted(as_vec(self.core)))
        object.__setattr__(self, "core", core)
        names = [n for n in ("right_start", "left_start", "right_period", "left_period")
                 if n.endswith("start") or getattr(self, n) is not None]
        for name, value in zip(names, as_vec([getattr(self, n) for n in names])):
            object.__setattr__(self, name, value)
            if name.endswith("period") and not value > 0:
                raise InputError(f"{name} must be positive or None, got {value}")
        if len(set(core)) != len(core):
            raise InputError("core points must be distinct")
        for c in core:
            if self._in_tail(c, self._tails()):
                raise InputError(f"core point {c} collides with a periodic tail")

    def _tails(self) -> list[tuple[float, float, int]]:
        """(start, period, direction) of each present tail: the points
        start + direction * period * n, n >= 0."""
        return [(s, p, e) for s, p, e in ((self.right_start, self.right_period, 1),
                                          (self.left_start, self.left_period, -1))
                if p is not None]

    def _in_tail(self, x, tails: list) -> np.ndarray:
        """Whether x, a number or an array, is a point s + e p n, n >= 0, of one of ``tails``,
        to 16 ulps of |x| + max |start|, the rounding two constructions of a point differ by."""
        ulps = 16 * np.spacing(np.abs(x) + max([abs(s) for s, _, _ in self._tails()], default=0))
        near = [(s, e * p, nearest_whole((x - s) / (e * p))[0]) for s, p, e in tails]
        return np.any([(n >= 0) & (np.abs(x - (s + q * n)) <= ulps) for s, q, n in near], axis=0)

    def points_in_box(self, box: Box) -> np.ndarray:
        if box.dim != 1:
            raise InputError("EventuallyPeriodic1D lives on the real line")
        lo, hi = box.lo[0], box.hi[0]
        parts = [np.array(self.core, dtype=float)]
        tails = self._tails()
        for k, (s, p, e) in enumerate(tails):
            # n from floor(a) to ceil(b), kept by the box test; shared points count once
            a, b = sorted(((lo - s) / (e * p), (hi - s) / (e * p)))
            n = np.arange(max(0, math.floor(a)), math.ceil(b) + 1)
            pts = s + (e * p) * n
            parts.append(pts[~self._in_tail(pts, tails[:k])] if k else pts)
        pts = np.concatenate(parts).reshape(-1, 1)
        return np.sort(pts[box.contains(pts)], axis=0)

    def tail_densities(self) -> tuple[float, float]:
        density = {e: 1.0 / p for _, p, e in self._tails()}
        return (density.get(-1, 0.0), density.get(1, 0.0))

    def anchor_hull(self) -> tuple[np.ndarray, np.ndarray]:
        return _hull(self.core + tuple(s for s, _, _ in self._tails()), 1)

    def period(self) -> np.ndarray:
        return np.array([max((p for _, p, _ in self._tails()), default=0.0)])

    def repeats_along(self, axis: int, t: float) -> bool:
        return all(nearest_whole(t / p)[1] for _, p, _ in self._tails())

    def normal_form(self) -> NormalForm | LatticeCosets | None:
        """With both tails on one period p and starts r and l, r - l = k p
        for a whole k (decided on the ``repr`` decimals): the coset pZ + r
        less its points in the gap l < x < r, unless core points fill it,
        plus the core points, on the coset as the coset rounds them."""
        r, p, l, q = self.right_start, self.right_period, self.left_start, self.left_period
        k = (Fraction(repr(r)) - Fraction(repr(l))) / Fraction(repr(p or 1.0))
        if p is None or p != q or k.denominator != 1:
            return None
        cosets, core = LatticeCosets(Lattice.scaled_integers(p), ((r,),)), np.array(self.core)
        on = self._in_tail(core, [(r - p, p, -1)])  # core points in the gap, on the coset
        filled = np.count_nonzero(on) >= k - 1  # then the coset holds them as it rounds them
        pts = [(c,) for c in core[~on]] + (
            [] if filled else [cosets.points_in_box(_near((c,))).tolist()[0] for c in core[on]])
        return _normal_form(cosets, pts, [1.0] * len(pts),
                            None if filled else Box((l + p / 2,), (r - p / 2,)))


@dataclass(frozen=True)
class FiniteSet(StructuredPointSet):
    """A finite point set; both Beurling densities vanish."""

    points: tuple[Vec, ...]
    dimension: int = 1

    def __post_init__(self):
        pts = as_points(self.points, self.dimension)
        object.__setattr__(self, "points", pts)
        if len(set(pts)) != len(pts):
            raise InputError("finite set points must be distinct")

    @property
    def dim(self) -> int:
        return self.dimension

    def points_in_box(self, box: Box) -> np.ndarray:
        pts = np.array(self.points, dtype=float).reshape(-1, self.dim)
        return _lexsort(pts[box.contains(pts)])

    def tail_densities(self) -> tuple[float, float]:
        return (0.0, 0.0)

    def anchor_hull(self) -> tuple[np.ndarray, np.ndarray]:
        return _hull(self.points, self.dim)

    def normal_form(self) -> NormalForm:
        return NormalForm(None, self.points, (1.0,) * len(self.points))


@dataclass(frozen=True)
class FinitePerturbation(StructuredPointSet):
    """A structured set with finitely many points added and removed."""

    base: StructuredPointSet
    added: tuple[Vec, ...] = ()
    removed: tuple[Vec, ...] = ()

    def __post_init__(self):
        added = as_points(self.added, self.base.dim)
        removed = as_points(self.removed, self.base.dim)
        object.__setattr__(self, "added", added)
        object.__setattr__(self, "removed", removed)
        for p in added:
            if self._base_contains(p):
                raise InputError(f"added point {p} already belongs to the base set")
        for p in removed:
            if not self._base_contains(p):
                raise InputError(f"removed point {p} does not belong to the base set")

    def _base_contains(self, p: Vec) -> bool:
        return len(self.base.points_in_box(_near(p))) > 0

    @property
    def dim(self) -> int:
        return self.base.dim

    def points_in_box(self, box: Box) -> np.ndarray:
        pts = self.base.points_in_box(box)
        keep = np.ones(len(pts), dtype=bool)
        for r in self.removed:
            keep &= ~_near(r).contains(pts)
        added = np.array(self.added, dtype=float).reshape(-1, self.dim)
        return _lexsort(np.vstack([pts[keep], added[box.contains(added)]]))

    def tail_densities(self) -> tuple[float, float]:
        return self.base.tail_densities()

    def anchor_hull(self) -> tuple[np.ndarray, np.ndarray]:
        return _hull(self.base.anchor_hull() + self.added + self.removed, self.dim)

    def period(self) -> np.ndarray:
        return self.base.period()

    def repeats_along(self, axis: int, t: float) -> bool:
        return self.base.repeats_along(axis, t)

    def normal_form(self) -> NormalForm | LatticeCosets | None:
        """The base's form, -1 once at each of its points of positive weight
        within MATCH_TOL of a removed point, and +1 at each added point, or
        at the form's point of negative weight within MATCH_TOL of it."""
        if (form := self.base.normal_form()) is None:
            return None

        def near(p: Vec, cosets) -> dict:  # the form's points near p, with ``cosets``
            pts, weights = signed_points(form, _near(p))
            on = cosets.points_in_box(_near(p)) if cosets else pts[:0]
            return _summed(np.vstack([on, pts]).tolist(), np.r_[np.ones(len(on)), weights])
        added = [next((q for q, w in near(p, None).items() if w < 0), p) for p in self.added]
        removed = dict.fromkeys(q for r in self.removed
                                for q, w in near(r, form.cosets).items() if w > 0)
        return _normal_form(form.cosets, form.finite + tuple(added) + tuple(removed),
                            form.signs + (1.0,) * len(added) + (-1.0,) * len(removed), form.gap)


def integers(dim: int = 1, scale: float = 1.0) -> LatticeCosets:
    """The scaled integer lattice as a structured set."""
    return LatticeCosets(Lattice.scaled_integers(scale, dim))


@dataclass(frozen=True)
class WeightedComb:
    """Positive combination of Dirac combs over structured supports."""

    terms: tuple[tuple[float, StructuredPointSet], ...]

    def __post_init__(self):
        terms = tuple(zip(as_vec([w for w, _ in self.terms]), (s for _, s in self.terms)))
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise InputError("a weighted comb needs at least one term")
        dims = {s.dim for _, s in terms}
        if len(dims) != 1:
            raise InputError(f"mixed support dimensions: {dims}")
        for w, _ in terms:
            if not w > 0:
                raise InputError(f"weights must be strictly positive, got {w}")

    @staticmethod
    def single(support: StructuredPointSet, weight: float = 1.0) -> "WeightedComb":
        return WeightedComb(((weight, support),))

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim

    def masses_in_boxes(self, lows: Sequence[np.ndarray], highs: Sequence[np.ndarray],
                        points: Sequence[np.ndarray]) -> np.ndarray:
        """Comb mass of every box of a product grid, in the grid's shape.

        Box (i_0, ..., i_{d-1}) is the half-open product of the intervals
        [lows[a][i_a], highs[a][i_a]), and both face arrays ascend on each
        axis.  ``points[j]`` holds term j's points in the boxes, and maybe
        others, which cover nothing.  A point p lies in the boxes whose index
        on axis a runs over lows[a][i] <= p_a < highs[a][i], two
        ``searchsorted`` calls, and ``cover_counts`` adds up these runs.
        """
        total = 0.0
        for (w, _), pts in zip(self.terms, points):
            runs = [(np.searchsorted(hi, p, "right"), np.searchsorted(lo, p, "right"))
                    for lo, hi, p in zip(lows, highs, pts.T)]
            total = total + w * cover_counts(runs, [len(lo) for lo in lows])
        return total

    def sliding_masses(self, sides: Sequence[float]) -> tuple[list[np.ndarray], np.ndarray]:
        """Every value of x -> mu(x + [0, sides)), on a product grid of corners.

        On axis a the count is constant on each (b, b'] between consecutive
        breakpoints in {p_a, p_a - sides_a}, so over [lo - sides - W, hi + W],
        with (lo, hi) spanning every anchor hull, it takes each of its values
        at a breakpoint or at the upper end.  Beyond that region a box meets
        only periodic parts.  W is the least of the first sixteen multiples of
        the longest ``period`` P on the axis that every support
        ``repeats_along``, so the W beside the hull holds the same boxes and
        the table every value over R^d; failing that W = 2 (sides + P), which
        holds every value for one support.  Each support is enumerated once.
        Returns the corners per axis and their masses in their shape.
        """
        sides = np.asarray(sides, dtype=float)
        lo, hi = zip(*(s.anchor_hull() for _, s in self.terms))
        widen = []
        for a, p in enumerate(np.max([s.period() for _, s in self.terms], axis=0)):
            common = (k * p for k in range(1, 17)
                      if all(s.repeats_along(a, k * p) for _, s in self.terms))
            widen.append(next(common, 2.0 * (sides[a] + p)))
        start, stop = np.min(lo, axis=0) - sides - widen, np.max(hi, axis=0) + widen
        points = [s.points_in_box(Box(tuple(start), tuple(stop + sides))) for _, s in self.terms]
        corners = [np.unique(np.r_[p, p - side, a, b]) for p, side, a, b
                   in zip(np.vstack(points).T, sides, start, stop)]
        corners = [c[(a <= c) & (c <= b)] for c, a, b in zip(corners, start, stop)]
        highs = [c + side for c, side in zip(corners, sides)]
        return corners, self.masses_in_boxes(corners, highs, points)

    def plus(self, other: "WeightedComb") -> "WeightedComb":
        return WeightedComb(self.terms + other.terms)


@dataclass(frozen=True)
class DensityReport:
    lower: float
    upper: float
    method: str  # "closed_form" | "windowed_estimate"
    estimator_trace: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise InputError(f"density report with lower {self.lower} > upper {self.upper}")


def density_closed_form(comb: WeightedComb) -> DensityReport:
    """Exact Beurling densities of a weighted comb of structured supports.

    Every supported family contributes a pair of tail densities and these
    add across terms; the upper density is the larger tail and the lower
    density the smaller one.  In d > 1 both tails of every family are its
    uniform density.
    """
    d_left = sum(w * s.tail_densities()[0] for w, s in comb.terms)
    d_right = sum(w * s.tail_densities()[1] for w, s in comb.terms)
    return DensityReport(min(d_left, d_right), max(d_left, d_right), "closed_form")


def density_windowed(comb: WeightedComb, h_list: Sequence[float]) -> DensityReport:
    """Exact extremes of the sliding-cube count at finite h.

    For each window size h the trace row holds the least and the largest
    mass of a half-open cube of side h over every position, over h^d, read
    from ``WeightedComb.sliding_masses``; the reported densities come from
    the largest h.
    """
    hs = sorted(as_vec(h_list))
    if not hs or not hs[0] > 0:
        raise InputError(f"h_list must be non-empty and positive, got {hs}")
    trace = []
    for h in hs:
        masses, volume = comb.sliding_masses((h,) * comb.dim)[1], h ** comb.dim
        trace.append((h, float(masses.min()) / volume, float(masses.max()) / volume))
    return DensityReport(trace[-1][1], trace[-1][2], "windowed_estimate", tuple(trace))
