"""Exact geometry of finite unions of axis-aligned boxes.

Domains are stored in canonical form: a disjoint union of half-open boxes
[lo, hi).  Measures, translate overlaps and lattice packing checks all
reduce to arithmetic on box endpoints.  Whether a translate meets the
domain on positive measure is decided in integers on the decimals as written
(``exact_reading``, ``meets``); measures stay floats.
``nearest_whole`` decides, for the whole package, whether a float is a
whole number (a whole multiple, a lattice coordinate) under one relative rule.
Points are (m, d) arrays, m long and d short.  A hot test over points runs
one coordinate column at a time and reduces along m: in NumPy a reduction
across the short axis costs 10-50 times the same one along the long axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError

Vec = tuple[float, ...]


def as_vec(x: Sequence[float] | float) -> Vec:
    """The one conversion of outside numbers, a number (or its text) or a
    sequence of them, to a tuple of floats: ``float`` raises on what it
    cannot read, and NaN or an infinity raises an ``InputError`` naming it."""
    raw = (x,) if isinstance(x, (int, float, str)) else tuple(x)
    vec = tuple(map(float, raw))
    if not all(map(math.isfinite, vec)):
        bad = next(r for r, v in zip(raw, vec) if not math.isfinite(v))
        raise InputError(f"every number must be finite, got {bad}")
    return vec


def as_whole(x: int | float | str) -> int:
    """An outside count (a dimension, cells per axis): one whole number, no boolean."""
    value = as_vec([x])[0] if np.ndim(x) == 0 else math.nan
    if isinstance(x, bool) or not value.is_integer():
        raise InputError(f"every count must be a whole number, got {x}")
    return int(value)


def nearest_whole(x) -> tuple[np.ndarray, np.ndarray]:
    """The nearest integers n to x, a number or an array, as int64, and the mask
    |x - n| <= 1e-9 max(1, |x|): the package's one rounding and whole-number rule."""
    n = np.rint(x := np.asarray(x, dtype=float))
    return n.astype(np.int64), np.abs(x - n) <= 1e-9 * np.maximum(1.0, np.abs(x))


def as_points(pts: Iterable[Sequence[float] | float], dim: int) -> tuple[Vec, ...]:
    """``as_vec`` of every point, each of dimension ``dim``."""
    out = tuple(map(as_vec, pts))
    for p in out:
        if len(p) != dim:
            raise InputError(f"point {p} has dimension {len(p)}, expected {dim}")
    return out


@dataclass(frozen=True)
class Box:
    """Axis-aligned half-open box [lo, hi); lo[i] < hi[i] on every axis."""

    lo: Vec
    hi: Vec

    def __post_init__(self):
        lo, hi = as_vec(self.lo), as_vec(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise InputError(f"box corners have different lengths: {lo} vs {hi}")
        if not lo:
            raise InputError("box must have at least one dimension")
        for a, b in zip(lo, hi):
            if not a < b:
                raise InputError(f"degenerate box: lo={lo}, hi={hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    @property
    def sides(self) -> Vec:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def center(self) -> Vec:
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    def contains(self, points: Sequence[float] | np.ndarray) -> bool | np.ndarray:
        """Whether one point lies in the box, or a mask over an (m, d) array."""
        pts = np.asarray(points, dtype=float)
        cols = np.atleast_2d(pts).T
        if len(cols) != self.dim:
            raise InputError(f"points of dimension {len(cols)} in a box of dimension {self.dim}")
        inside = (cols[0] >= self.lo[0]) & (cols[0] < self.hi[0])
        for col, a, b in zip(cols[1:], self.lo[1:], self.hi[1:]):
            inside &= (col >= a) & (col < b)
        return inside if pts.ndim == 2 else bool(inside[0])

    def translate(self, x: Sequence[float]) -> "Box":
        v = as_vec(x)
        return Box(tuple(a + s for a, s in zip(self.lo, v)),
                   tuple(b + s for b, s in zip(self.hi, v)))

    def intersect(self, other: "Box") -> Optional["Box"]:
        lo = tuple(max(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(min(b, d) for b, d in zip(self.hi, other.hi))
        if all(a < b for a, b in zip(lo, hi)):
            return Box(lo, hi)
        return None


def cartesian(axes: Sequence[Sequence[float]]) -> np.ndarray:
    """Every combination of per-axis values as a fresh (m, d) array in C order."""
    axes = list(axes)
    if len(axes) == 1:
        return np.array(axes[0]).reshape(-1, 1)
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def cover_counts(runs: Sequence[tuple[np.ndarray, np.ndarray]],
                 shape: Sequence[int]) -> np.ndarray:
    """How many items cover each node of a product grid of ``shape``, where
    ``runs[a]`` holds every item's half-open run [start, stop) of node
    indices on axis a (an empty run on any axis covers nothing).  Each item
    puts +-1 at the 2^d corners of its box in a difference array, one
    ``bincount`` per corner pattern, and cumulative sums along every axis
    turn it into the counts."""
    ends = np.array(runs, dtype=np.intp)
    ends = ends[:, :, np.all(ends[:, 0] < ends[:, 1], axis=0)]
    ext = tuple(n + 1 for n in shape)
    diff = np.zeros(math.prod(ext), dtype=np.int64)
    for pattern in cartesian([(0, 1)] * len(ext)):
        at = np.ravel_multi_index(tuple(ends[np.arange(len(ext)), pattern]), ext)
        diff += (-1) ** pattern.sum() * np.bincount(at, minlength=diff.size)
    diff = diff.reshape(ext)
    for a in range(len(ext)):
        np.cumsum(diff, axis=a, out=diff)
    return diff[tuple(slice(n) for n in shape)]


def _sweep_1d(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge 1-D intervals by endpoint sweep; touching intervals coalesce."""
    ivs = sorted(intervals)
    out = []
    cur_lo, cur_hi = ivs[0]
    for lo, hi in ivs[1:]:
        if lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
        else:
            out.append((cur_lo, cur_hi))
            cur_lo, cur_hi = lo, hi
    out.append((cur_lo, cur_hi))
    return out


def _canonical(boxes: list[tuple[Vec, Vec]], dim: int) -> list[tuple[Vec, Vec]]:
    if dim == 1:
        merged = _sweep_1d([(lo[0], hi[0]) for lo, hi in boxes])
        return [((a,), (b,)) for a, b in merged]
    # Recursive coordinate slicing: cut along axis 0 at every endpoint, then
    # canonicalize the (dim-1)-dimensional cross-section of each slab.
    cuts = sorted({lo[0] for lo, _ in boxes} | {hi[0] for _, hi in boxes})
    out: list[tuple[Vec, Vec]] = []
    pending: Optional[tuple[float, float, list[tuple[Vec, Vec]]]] = None

    def flush():
        nonlocal pending
        if pending is not None:
            a, b, rest = pending
            for rlo, rhi in rest:
                out.append(((a, *rlo), (b, *rhi)))
            pending = None

    for a, b in zip(cuts, cuts[1:]):
        covering = [(lo[1:], hi[1:]) for lo, hi in boxes if lo[0] <= a and b <= hi[0]]
        if not covering:
            flush()
            continue
        rest = _canonical(covering, dim - 1)
        if pending is not None and pending[1] == a and pending[2] == rest:
            pending = (pending[0], b, rest)
        else:
            flush()
            pending = (a, b, rest)
    flush()
    return out


def canonicalize(boxes: Iterable[Box]) -> "BoxUnionSet":
    """Reduce an arbitrary finite box collection to a canonical disjoint union."""
    boxes = list(boxes)
    if not boxes:
        raise InputError("a box union must contain at least one box")
    dim = boxes[0].dim
    for b in boxes:
        if b.dim != dim:
            raise InputError(f"mixed dimensions: {b.dim} vs {dim}")
    canon = _canonical([(b.lo, b.hi) for b in boxes], dim)
    return BoxUnionSet(dim=dim, boxes=tuple(Box(lo, hi) for lo, hi in canon))


@dataclass(frozen=True)
class BoxUnionSet:
    """Canonical disjoint union of half-open boxes; use ``canonicalize`` to build."""

    dim: int
    boxes: tuple[Box, ...]

    @staticmethod
    def from_intervals(intervals: Iterable[tuple[float, float]]) -> "BoxUnionSet":
        return canonicalize([Box((a,), (b,)) for a, b in intervals])

    def measure(self) -> float:
        return float(sum(b.volume for b in self.boxes))

    def bounding_box(self) -> Box:
        lo = tuple(min(b.lo[i] for b in self.boxes) for i in range(self.dim))
        hi = tuple(max(b.hi[i] for b in self.boxes) for i in range(self.dim))
        return Box(lo, hi)

    def translate(self, x: Sequence[float]) -> "BoxUnionSet":
        return BoxUnionSet(self.dim, tuple(b.translate(x) for b in self.boxes))

    def contains(self, points: Sequence[float] | np.ndarray) -> bool | np.ndarray:
        """Whether one point lies in the set, or a mask over an (m, d) array."""
        inside = np.any([b.contains(points) for b in self.boxes], axis=0)
        return inside if np.ndim(points) == 2 else bool(inside)

    def intersect_box(self, box: Box) -> list[Box]:
        """Pieces of the set inside ``box`` (possibly empty)."""
        return [p for b in self.boxes if (p := b.intersect(box)) is not None]

    def intersection_volume(self, box: Box) -> float:
        return float(sum(p.volume for p in self.intersect_box(box)))

    def _corner_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        los = np.array([b.lo for b in self.boxes], dtype=float)
        his = np.array([b.hi for b in self.boxes], dtype=float)
        return los, his


# entries in one (shifts, boxes, boxes, d) block of pairwise cut widths
_OVERLAP_BLOCK = 1 << 16


def _overlaps(omega: BoxUnionSet, xs: np.ndarray) -> np.ndarray:
    """Lebesgue measure of omega ∩ (omega + x) for each row x of xs."""
    if xs.shape[1] != omega.dim:
        raise InputError(f"every translate needs dimension {omega.dim}")
    # |omega ∩ (omega+x)| = |omega ∩ (omega-x)|; fixing the sign of the first
    # nonzero coordinate makes the computed value bitwise symmetric in x.
    first = xs[np.arange(len(xs)), np.argmax(xs != 0.0, axis=1)]
    xs = np.where((first < 0.0)[:, None], -xs, xs)
    los, his = omega._corner_arrays()
    rows = max(1, _OVERLAP_BLOCK // (len(los) * los.size))
    out = np.empty(len(xs))
    for start in range(0, len(xs), rows):
        x = xs[start:start + rows, None, None, :]
        widths = np.minimum(his[:, None, :], his + x) - np.maximum(los[:, None, :], los + x)
        np.clip(widths, 0.0, None, out=widths)
        out[start:start + rows] = widths.prod(axis=-1).reshape(len(x), -1).sum(axis=1)
    return out


def translate_overlap(omega: BoxUnionSet, x: Sequence[float]) -> float:
    """Lebesgue measure of omega ∩ (omega + x), exact via pairwise box cuts."""
    return float(_overlaps(omega, np.array([as_vec(x)]))[0])


def exact_reading(omega: BoxUnionSet, values=()) -> tuple:
    """(lo, hi, values, k): omega's faces, (m, d) each, and ``values`` in
    their own shape, each float read as the decimal its shortest round-trip
    ``repr`` writes (Steele & White 1990) times 10^k, k the most places of
    any: int64 while every |n| < 2^60, so sums of a few stay exact."""
    los, his = omega._corner_arrays()
    flat = [*los.ravel().tolist(), *his.ravel().tolist(), *np.ravel(values).tolist()]
    exact = {v: Decimal(repr(v)) for v in flat}  # at most 17 digits each
    k = max(0, -min(dec.as_tuple().exponent for dec in exact.values()))
    ints = [int(exact[v].scaleb(k)) for v in flat]
    n, m = np.array(ints, dtype=np.int64 if max(map(abs, ints)) < 2 ** 60 else object), los.size
    return (n[:m].reshape(los.shape), n[m:2 * m].reshape(los.shape),
            n[2 * m:].reshape(np.shape(values)), k)


def _pair_windows(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one exact pair test, on faces read by ``exact_reading``: box i
    meets box j + x on positive measure exactly when opens < x_a < closes on
    every axis, for the row (lo_i - hi_j, hi_i - lo_j) of pair i * m + j."""
    d = lo.shape[1]
    return (lo[:, None] - hi).reshape(-1, d), (hi[:, None] - lo).reshape(-1, d)


def _meeting(lo: np.ndarray, hi: np.ndarray, n, gens: np.ndarray) -> tuple:
    """(held, xs): the integer shifts xs = n @ gens, int64 while no entry can
    pass 2^62, else Python ints, and whether each meets the faces (lo, hi)."""
    n = np.asarray(n, dtype=np.int64)
    kind = object if max(1, int(np.abs(n).max(initial=0))) * sum(
        map(abs, gens.ravel().tolist())) >= 2 ** 62 else np.int64
    xs, (opens, closes) = n.astype(kind) @ gens.astype(kind), _pair_windows(lo, hi)
    rows = max(1, _OVERLAP_BLOCK // opens.size)
    held = [np.all((opens < x) & (x < closes), axis=-1).any(axis=1)
            for x in (xs[start:start + rows, None] for start in range(0, len(xs), rows))]
    return (np.concatenate(held) if held else np.zeros(0, dtype=bool)), xs


def meets(omega: BoxUnionSet, n, generators) -> np.ndarray:
    """Whether |omega ∩ (omega + x)| > 0 for each shift x = n @ generators,
    n a row of whole numbers, by the pair test on ``exact_reading``."""
    lo, hi, gens, _ = exact_reading(omega, generators)
    return _meeting(lo, hi, n, gens)[0]


def overlap_profile(omega: BoxUnionSet,
                    x_grid: Sequence[Sequence[float] | float] | np.ndarray
                    ) -> list[tuple[Vec, float]]:
    """translate_overlap over a grid of shifts, an (S, d) array or a list of
    S scalars in 1-D, evaluated in one pass."""
    if len(x_grid) == 0:
        raise InputError("overlap_profile needs a non-empty grid of shifts")
    try:
        xs = np.asarray(x_grid, dtype=float).reshape(len(x_grid), -1)
    except ValueError:
        raise InputError(f"every translate needs dimension {omega.dim}") from None
    return list(zip(map(tuple, xs.tolist()), _overlaps(omega, xs).tolist()))


def overlap_zero_set(omega: BoxUnionSet, x_max: float) -> list[tuple[Vec, Vec]]:
    """The shifts x with |omega ∩ (omega + x)| = 0 in the half-box 0 <= x_0,
    |x_a| <= x_max, as closed boxes (lo, hi): every sign pattern of the shift
    up to x -> -x.  By ``_pair_windows``, between breakpoints at the face
    differences every pair term is zero or positive throughout.  The nodes
    are the breakpoints and the midpoints between them; the overlap is zero
    at a node exactly when no box pair's open interval product holds it, and
    ``cover_counts`` counts the pairs holding each node in one pass.  A run
    of zero nodes along axis 0 is one box, closed up to the breakpoints
    around it (in 1-D, the maximal zero intervals).  Breakpoints are exact
    integers at scale 10^k (``exact_reading``), nodes at scale 2 10^k, and
    each box end the correctly rounded float of its breakpoint."""
    if not (math.isfinite(x_max) and x_max > 0):
        raise InputError(f"x_max must be positive and finite, got {x_max}")
    lo, hi, (top,), k = exact_reading(omega, [x_max])
    opens, closes = _pair_windows(lo, hi)
    breaks, runs = [], []
    for a in range(omega.dim):
        start = -top if a else 0
        b = np.unique(np.r_[start, top, opens[:, a], closes[:, a]])
        b = b[(b >= start) & (b <= top)]
        # node j lies between breakpoints j // 2 and (j + 1) // 2
        j = np.arange(2 * len(b) - 1)
        nodes = b[j // 2] + b[(j + 1) // 2]
        runs.append((np.searchsorted(nodes, 2 * opens[:, a], "right"),
                     np.searchsorted(nodes, 2 * closes[:, a])))
        breaks.append(np.array([v / 10 ** k for v in b.tolist()]))
    zero = cover_counts(runs, [2 * len(b) - 1 for b in breaks]) == 0
    edges = np.diff(np.moveaxis(zero, 0, -1).astype(np.int8), axis=-1, prepend=0, append=0)
    *rest, first = np.nonzero(edges == 1)
    last = np.nonzero(edges == -1)[-1] - 1
    lo = np.stack([b[j // 2] for b, j in zip(breaks, [first, *rest])], 1)
    hi = np.stack([b[(j + 1) // 2] for b, j in zip(breaks, [last, *rest])], 1)
    # a run on a breakpoint row can lie inside the run on a midpoint row beside it
    inside = np.all((lo[:, None] >= lo[None]) & (hi[:, None] <= hi[None]), axis=2)
    keep = ~(inside & ~np.eye(len(lo), dtype=bool)).any(axis=1)
    return list(zip(map(tuple, lo[keep].tolist()), map(tuple, hi[keep].tolist())))


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice; columns of ``basis`` generate the group."""

    basis: tuple[tuple[float, ...], ...]
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    covolume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = tuple(map(as_vec, self.basis))
        object.__setattr__(self, "basis", b)
        mat = np.array(b, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InputError("lattice basis must be a square matrix")
        det = np.linalg.det(mat)
        if abs(det) < 1e-300:
            raise InputError("lattice basis is singular")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "covolume", float(abs(det)))

    @staticmethod
    def scaled_integers(c: float, dim: int = 1) -> "Lattice":
        return Lattice(tuple(tuple(c if i == j else 0.0 for j in range(dim))
                             for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def same_group(self, other: "Lattice") -> bool:
        """Whether both bases generate one group: B^-1 B' is integral and unimodular."""
        n, whole = nearest_whole(np.linalg.solve(self.matrix, other.matrix))
        return bool(whole.all() and nearest_whole(abs(np.linalg.det(n)))[0] == 1)

    def dual(self) -> "Lattice":
        inv_t = np.linalg.inv(self.matrix).T
        return Lattice(tuple(tuple(row) for row in inv_t))

    def points_in_box(self, box: Box) -> np.ndarray:
        """All lattice points in the half-open box, shape (n, dim)."""
        if box.dim != self.dim:
            raise InputError(f"box dimension {box.dim} != lattice dimension {self.dim}")
        mat = self.matrix
        inv = np.linalg.inv(mat)
        pre = cartesian(zip(box.lo, box.hi)) @ inv.T
        n_lo = np.floor(pre.min(axis=0) - 1e-9).astype(int)
        n_hi = np.ceil(pre.max(axis=0) + 1e-9).astype(int)
        pts = cartesian([np.arange(a, b + 1) for a, b in zip(n_lo, n_hi)]) @ mat.T
        pts = pts[box.contains(pts)]
        return pts[np.lexsort(pts[:, ::-1].T)]


class ResidueWitness(NamedTuple):
    gamma_prime: Vec
    point: Vec
    overlap: float


class ResidueVerdict(NamedTuple):
    holds: bool
    witness: Optional[ResidueWitness]


def lattice_residue_check(omega: BoxUnionSet, lattice: Lattice) -> ResidueVerdict:
    """Decide whether omega meets each residue class of the lattice at most once.

    Equivalently: |omega ∩ (omega + delta)| = 0 for every nonzero lattice
    vector delta.  Since omega is bounded, only lattice vectors inside the
    difference of its bounding box with itself can produce overlap, so the
    check is a finite enumeration: the coefficients of the lattice points
    with |delta_a| below the box's sides, padded by one basis step so no
    rounding drops one, decided by the pair test on ``exact_reading``.  The
    witness is the lexicographically first hit.
    """
    if lattice.dim != omega.dim:
        raise InputError(f"lattice dimension {lattice.dim} != set dimension {omega.dim}")
    lo, hi, gens, k = exact_reading(omega, np.transpose(lattice.basis))
    pre = cartesian([(-s, s) for s in omega.bounding_box().sides])
    pre = pre @ np.linalg.inv(lattice.matrix).T
    n = cartesian([np.arange(math.floor(a) - 1, math.ceil(b) + 2)
                   for a, b in zip(pre.min(axis=0), pre.max(axis=0))])
    held, deltas = _meeting(lo, hi, n, gens)
    hits = deltas[held & np.any(n != 0, axis=1)]
    if not len(hits):
        return ResidueVerdict(True, None)
    delta = tuple(v / 10 ** k for v in min(map(tuple, hits.tolist())))
    moved = omega.translate(delta)
    point = next((cut.center for b in omega.boxes for cut in moved.intersect_box(b)), None)
    return ResidueVerdict(False, ResidueWitness(tuple(-v for v in delta), point,
                                                translate_overlap(omega, delta)))


class CantorTower(NamedTuple):
    omega: BoxUnionSet
    tail_measure: float


def cantor_tower(n_max: int, k: Optional[int] = None) -> CantorTower:
    """Truncation of the tower of shrinking intervals centered at the integers.

    The full family places [n - 2^{-|n|}, n + 2^{-|n|}] at every integer n; the
    truncation keeps |n| <= n_max and reports the discarded tail measure
    4 * 2^{-n_max}.  With ``k`` given, only [-1, 1] and the intervals with
    |n| > k are kept (the "holed" family).
    """
    if n_max < 2:
        raise InputError("n_max must be at least 2")
    if k is not None and not (4 <= k < n_max):
        raise InputError(f"holed variant needs 4 <= k < n_max, got k={k}, n_max={n_max}")
    intervals = []
    for n in range(-n_max, n_max + 1):
        if k is not None and n != 0 and abs(n) <= k:
            continue
        r = 2.0 ** (-abs(n))
        intervals.append((n - r, n + r))
    omega = BoxUnionSet.from_intervals(intervals)
    return CantorTower(omega, 4.0 * 2.0 ** (-n_max))
