"""Exact geometry of finite unions of axis-aligned boxes.

Domains are stored in canonical form: a disjoint union of half-open boxes
[lo, hi).  Measures, translate overlaps, covering cubes and lattice packing
checks all reduce to arithmetic on box endpoints, so for dyadic-rational
input data every quantity in this module is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        inside = np.all((pts >= self.lo) & (pts < self.hi), axis=-1)
        return inside if pts.ndim == 2 else bool(inside)

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
    """Every combination of per-axis values as an (m, d) array in C order."""
    axes = list(axes)
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
    up to x -> -x.  Box i meets box j + x exactly when each x_a lies in
    (lo_ia - hi_ja, hi_ia - lo_ja), so between breakpoints at these face
    differences every pair term is zero or positive throughout.  The nodes
    are the breakpoints and the midpoints between them; the overlap is zero
    at a node exactly when no box pair's open interval product holds it, and
    ``cover_counts`` counts the pairs holding each node in one pass.  A run
    of zero nodes along axis 0 is one box, closed up to the breakpoints
    around it (in 1-D, the maximal zero intervals).  Exact for
    dyadic-rational faces, like every quantity in this module; other faces
    carry one rounding in each breakpoint."""
    if not (math.isfinite(x_max) and x_max > 0):
        raise InputError(f"x_max must be positive and finite, got {x_max}")
    los, his = omega._corner_arrays()
    breaks, runs = [], []
    for a in range(omega.dim):
        start, diffs = -x_max if a else 0.0, np.subtract.outer(los[:, a], his[:, a])
        # pair (i, j) holds the shifts strictly between its opening and closing ends
        opens, closes = diffs.ravel(), 0.0 - diffs.T.ravel()  # no -0.0 from touching faces
        b = np.unique(np.r_[start, x_max, opens, closes])
        breaks.append(b := b[(b >= start) & (b <= x_max)])
        # node k lies between breakpoints k // 2 and (k + 1) // 2
        k = np.arange(2 * len(b) - 1)
        nodes = (b[k // 2] + b[(k + 1) // 2]) / 2.0
        runs.append((np.searchsorted(nodes, opens, "right"), np.searchsorted(nodes, closes)))
    zero = cover_counts(runs, [2 * len(b) - 1 for b in breaks]) == 0
    edges = np.diff(np.moveaxis(zero, 0, -1).astype(np.int8), axis=-1, prepend=0, append=0)
    *rest, first = np.nonzero(edges == 1)
    last = np.nonzero(edges == -1)[-1] - 1
    lo = np.stack([b[k // 2] for b, k in zip(breaks, [first, *rest])], 1)
    hi = np.stack([b[(k + 1) // 2] for b, k in zip(breaks, [last, *rest])], 1)
    # a run on a breakpoint row can lie inside the run on a midpoint row beside it
    inside = np.all((lo[:, None] >= lo[None]) & (hi[:, None] <= hi[None]), axis=2)
    keep = ~(inside & ~np.eye(len(lo), dtype=bool)).any(axis=1)
    return list(zip(map(tuple, lo[keep].tolist()), map(tuple, hi[keep].tolist())))


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice; columns of ``basis`` generate the group."""

    basis: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        b = tuple(map(as_vec, self.basis))
        object.__setattr__(self, "basis", b)
        mat = np.array(b, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InputError("lattice basis must be a square matrix")
        det = np.linalg.det(mat)
        if abs(det) < 1e-300:
            raise InputError("lattice basis is singular")

    @staticmethod
    def scaled_integers(c: float, dim: int = 1) -> "Lattice":
        return Lattice(tuple(tuple(c if i == j else 0.0 for j in range(dim))
                             for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.basis, dtype=float)

    @property
    def covolume(self) -> float:
        return float(abs(np.linalg.det(self.matrix)))

    def same_group(self, other: "Lattice") -> bool:
        """Whether both bases generate one group: B^-1 B' is integral and unimodular."""
        t = np.linalg.solve(self.matrix, other.matrix)
        return bool(np.all(np.abs(t - np.round(t)) <= 1e-9)
                    and round(abs(np.linalg.det(np.round(t)))) == 1)

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
    gamma: Vec
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
    check is a finite, exact enumeration.
    """
    if lattice.dim != omega.dim:
        raise InputError(f"lattice dimension {lattice.dim} != set dimension {omega.dim}")
    bb = omega.bounding_box()
    diff = Box(tuple(a - b for a, b in zip(bb.lo, bb.hi)),
               tuple(b - a + 1e-9 for a, b in zip(bb.lo, bb.hi)))
    deltas = lattice.points_in_box(diff)
    deltas = deltas[np.any(deltas != 0.0, axis=1)]
    overlaps = _overlaps(omega, deltas)
    hits = np.flatnonzero(overlaps > 0.0)
    if hits.size == 0:
        return ResidueVerdict(True, None)
    delta, ov = deltas[hits[0]], float(overlaps[hits[0]])
    moved = omega.translate(delta).boxes
    point = next((cut.center for b in omega.boxes for p in moved
                  if (cut := b.intersect(p)) is not None), None)
    zero = tuple(0.0 for _ in range(omega.dim))
    gamma_prime = tuple(-float(v) for v in delta)
    return ResidueVerdict(False, ResidueWitness(zero, gamma_prime, point, ov))


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
