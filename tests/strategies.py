"""Hypothesis strategies shared by the theorem properties, and a sampled
window for the tests that need one no closed form expresses."""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from hypothesis import strategies as st

from frameforge.geometry import Box, Lattice, canonicalize
from frameforge.pointsets import (
    EventuallyPeriodic1D,
    FinitePerturbation,
    LatticeCosets,
    WeightedComb,
    integers,
)
from frameforge.windows import Window


@dataclass(frozen=True)
class _Samples:
    """A window known only by its values: the frame operator samples it, and
    it has no range, text or support box."""

    fn: Callable[[np.ndarray], np.ndarray]

    def eval(self, pts):
        return np.asarray(self.fn(pts))

    def support_box(self):
        return None


def sampled_window(fn, label):
    """The window with values ``fn(points)``, for the frame-bound tests that
    need what no closed form c x^a (1-x)^b 1_B expresses: a complex tilt, a
    constant phase, variation along a later axis, steps, a Gaussian or a sinc."""
    return Window(label, _Samples(fn))


def two_period_comb():
    """0.75Z without -1.5 and 0, plus 1.75Z + 1/4, over the hull [-1.5, 1.75].
    The supports coincide every 5.25; the coincidences nearest the hull, 3.75
    and -6.75, lie more than the longer period 1.75 beyond it, and only there
    does a box of side 1/4 hold mass 2."""
    return WeightedComb(((1.0, FinitePerturbation(integers(scale=0.75),
                                                  removed=((-1.5,), (0.0,)))),
                         (1.0, LatticeCosets(Lattice.scaled_integers(1.75), ((0.25,),)))))


def sixteenths(lo, hi):
    return st.integers(round(16 * lo), round(16 * hi)).map(lambda v: v / 16)


def decimals(lo, hi, places=3):
    """Decimals with one to ``places`` places in [lo, hi], as the floats nearest them."""
    return st.integers(1, places).flatmap(lambda p: st.integers(
        math.ceil(lo * 10 ** p), math.floor(hi * 10 ** p)).map(lambda v: v / 10 ** p))


@st.composite
def decimal_unions(draw, dims=(1, 2), places=3):
    """A box union of dimension in ``dims`` with every face a decimal in
    [0, 1] of one to ``places`` places, as the float nearest it: 0.1 + 0.2
    is not the float of 0.3, so only a reading of the decimals as written
    decides these exactly."""
    d, face = draw(st.sampled_from(dims)), decimals(0, 1, places)
    ends = st.tuples(face, face).filter(lambda e: e[0] != e[1]).map(sorted)
    raw = draw(st.lists(st.tuples(*[ends] * d), min_size=1, max_size=4))
    return canonicalize([Box(*zip(*box)) for box in raw])


@st.composite
def decimal_bases(draw, d, places=3):
    """A diagonal or, in 2-D, an upper-triangular skew lattice basis (its
    columns generate the lattice) with entries decimals of one to ``places``
    places: spacings in [0.1, 1] and a shear in [-1, 1]."""
    diagonal = [draw(decimals(0.1, 1, places)) for _ in range(d)]
    shear = draw(st.just(0.0) | decimals(-1, 1, places)) if d == 2 else 0.0
    return Lattice(tuple(tuple(diagonal[i] if i == j else shear if j > i else 0.0
                               for j in range(d)) for i in range(d)))


@st.composite
def decimal_packings(draw, dims=(1, 2), places=3):
    """A ``decimal_unions`` domain and a ``decimal_bases`` lattice of its dimension."""
    omega = draw(decimal_unions(dims, places))
    return omega, draw(decimal_bases(omega.dim, places))


def _apart(x, pts):
    """Whether x lies further than 1e-6 from every point: on a grid of 1/16
    or of 1/1000, a nearer point is x itself, up to rounding."""
    return bool(np.all(np.abs(np.asarray(pts, dtype=float) - x) > 1e-6))


@st.composite
def perturbed_eventually_periodic(draw, number=sixteenths):
    """Tails, a core and a finite perturbation, all drawn by ``number``.  On
    sixteenths every point and box face is exact and the set repeats exactly
    in its tails; on ``decimals`` each carries one rounding."""
    periods = (draw(st.none() | number(0.25, 2)), draw(st.none() | number(0.25, 2)))
    starts = (draw(number(0, 3)), draw(number(-3, -0.0625)))
    tails = EventuallyPeriodic1D(periods[0], starts[0], periods[1], starts[1])
    taken = tails.points_in_box(Box((-8.0,), (8.0,)))[:, 0].tolist()
    core = [x for x in draw(st.lists(number(-4, 4), max_size=4, unique=True))
            if _apart(x, taken)]
    base = EventuallyPeriodic1D(periods[0], starts[0], periods[1], starts[1], tuple(core))
    near = sorted(taken + core)
    removed = draw(st.lists(st.sampled_from(near), max_size=3, unique=True)) if near else []
    added = [x for x in draw(st.lists(number(-6, 6), max_size=3, unique=True))
             if _apart(x, near)]
    return FinitePerturbation(base, tuple(added), tuple(removed))


@st.composite
def overlapping_decimal_tails(draw):
    """Both tails on one decimal period p in [0.05, 0.5], the left one
    starting k p, between 500 and 1000, right of the right one's start: the
    k + 1 points they share are computed by each tail with its own rounding."""
    period, start = draw(decimals(0.05, 0.5)), draw(decimals(-3, 3))
    k = draw(st.integers(math.ceil(500 / period), math.floor(1000 / period)))
    left = float(Fraction(repr(start)) + k * Fraction(repr(period)))
    return EventuallyPeriodic1D(period, start, period, left)


@st.composite
def lattice_cosets_2d(draw):
    """Cosets of a diagonal lattice with spacings in [1/2, 3/2], on sixteenths."""
    spacing = [draw(sixteenths(0.5, 1.5)) for _ in range(2)]
    offsets = draw(st.lists(st.tuples(*[sixteenths(0, c - 0.0625) for c in spacing]),
                            min_size=1, max_size=3, unique=True))
    return LatticeCosets(Lattice(((spacing[0], 0.0), (0.0, spacing[1]))), tuple(offsets))


@st.composite
def perturbed_lattice_cosets_2d(draw):
    """``lattice_cosets_2d`` with up to three of its points near the origin
    removed and up to three points on sixteenths added."""
    base = draw(lattice_cosets_2d())
    near = {tuple(p) for p in base.points_in_box(Box((-3.0, -3.0), (3.0625, 3.0625))).tolist()}
    removed = draw(st.lists(st.sampled_from(sorted(near)), max_size=3, unique=True))
    added = [p for p in draw(st.lists(st.tuples(sixteenths(-3, 3), sixteenths(-3, 3)),
                                      max_size=3, unique=True)) if p not in near]
    return FinitePerturbation(base, tuple(added), tuple(removed))


@st.composite
def perturbed_decimal_integers(draw, band):
    """Z s for a decimal s in [0.25, 2] with up to three decimal points of
    (-band, band) added off it and up to three of its points there removed,
    each as the decimal k s is written, which may not be the float k * s."""
    s = draw(decimals(0.25, 2, places=2))
    ks = range(math.ceil(-band / s), math.floor(band / s) + 1)
    removed = draw(st.lists(st.sampled_from(ks), max_size=3, unique=True))
    added = [x for x in draw(st.lists(decimals(-band, band, places=2), max_size=3, unique=True))
             if abs(x / s - round(x / s)) > 1e-6]
    return FinitePerturbation(integers(scale=s), tuple((x,) for x in added),
                              tuple((float(k * Fraction(repr(s))),) for k in removed))


@st.composite
def decimal_eventually_periodic(draw, band):
    """Both tails on decimals: one period p in [0.25, 2] and starts r and
    l = r - k p for a whole k in [-3, 6] (aligned), or l shifted off that by
    a decimal or a second period (misaligned); a core of up to three decimal
    points of (-band, band) off the tails."""
    p, r = draw(decimals(0.25, 2, places=2)), draw(decimals(-2, 2, places=2))
    left = Fraction(repr(r)) - draw(st.integers(-3, 6)) * Fraction(repr(p))
    q, shift = p, 0.0
    if not draw(st.booleans()):  # misaligned
        q, shift = draw(st.sampled_from([(p, 0.05), (p / 2, 0.0), (2 * p, 0.0)]))
    tails = EventuallyPeriodic1D(p, r, q, float(left) + shift)
    taken = tails.points_in_box(Box((-band - 2,), (band + 2,)))[:, 0].tolist()
    core = [x for x in draw(st.lists(decimals(-band, band, places=2), max_size=3, unique=True))
            if _apart(x, taken)]
    return EventuallyPeriodic1D(p, r, q, float(left) + shift, tuple(core))
