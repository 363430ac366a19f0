"""Discretized frame operators for windowed-exponential systems.

The model space is the grid over the domain's bounding box with exact
per-cell domain weights.  The analysis map sends a grid function to its
inner products against windowed exponentials; frame bounds are the extreme
eigenvalues of the (weighted) frame operator.  Frequencies enter the
operator only through the difference x - y of two cells.  Each discrete
part of a pair's frequencies is one triple (points, weights, period in
cells) that acts only at the cell-index differences that are multiples of
its period; any other measure enters as its Toeplitz kernel.  A grid
whose Nyquist band matches the frequency truncation reproduces tight
continuous systems exactly; that band is the default truncation, save for
the lattice cosets kept untruncated on the continuum's Ron-Shen fibers.
Where each such fiber is one point (the painless case), the bounds are the
extremes of sum_j covol(L_j)^-1 |offsets_j| |g_j|^2 over the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import InputError
from .geometry import Box, BoxUnionSet, as_vec, cartesian, exact_reading, nearest_whole
from .gridfn import GridFunction, cell_volumes, grid_points
from .pointsets import (
    DensityReport,
    LatticeCosets,
    StructuredPointSet,
    WeightedComb,
    density_closed_form,
)
from .windows import Window

DENSE_EIG_LIMIT = 4096
ITER_EIG_TOL = 1e-8
# columns of the fine phase table; the coarse one steps by this many cells
_PHASE_BLOCK = 32


@dataclass(frozen=True)
class ContinuousFreqMeasure:
    """Locally finite frequency measure: a sampled density plus point atoms."""

    density: Optional[GridFunction] = None
    atoms: tuple[tuple[tuple[float, ...], float], ...] = ()

    def __post_init__(self):
        atoms = tuple(zip(map(as_vec, (p for p, _ in self.atoms)),
                          as_vec([w for _, w in self.atoms])))
        object.__setattr__(self, "atoms", atoms)
        if self.density is None and not atoms:
            raise InputError("a frequency measure needs a density or atoms")
        dims = {len(p) for p, _ in atoms}
        dims |= {self.density.dim} if self.density is not None else set()
        if len(dims) > 1:
            raise InputError(f"a frequency measure mixes dimensions {sorted(dims)}")
        if self.density is not None and np.min(self.density.samples) < -1e-12:
            raise InputError("frequency density must be non-negative")
        for _, w in atoms:
            if not w > 0:
                raise InputError("atom weights must be positive")

    @property
    def dim(self) -> int:
        return self.density.dim if self.density is not None else len(self.atoms[0][0])


@dataclass(frozen=True)
class CosineFreqMeasure:
    """The frequency measure (1 + cos 2 pi <xi, x0>) d xi."""

    x0: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.x0)


FreqSpec = Union[StructuredPointSet, ContinuousFreqMeasure, CosineFreqMeasure]


def _refuse_window_dimension(name: str, window: Window, omega: BoxUnionSet) -> None:
    """Refuse a window whose support box has a dimension other than the domain's."""
    if (box := window.support_box()) and box.dim != omega.dim:
        raise InputError(f"{name}: window support box of dimension {box.dim} on a "
                         f"domain of dimension {omega.dim}")


@dataclass(frozen=True)
class WindowedSystem:
    """A domain with finitely many (window, frequency set) pairs."""

    omega: BoxUnionSet
    pairs: tuple[tuple[Window, FreqSpec], ...]

    def __post_init__(self):
        if not self.pairs:
            raise InputError("a windowed system needs at least one pair")
        for j, (window, freq) in enumerate(self.pairs):
            name = f"pair {j} ('{window.label}')"
            _refuse_window_dimension(name, window, self.omega)
            if freq.dim != self.omega.dim:
                raise InputError(f"{name}: frequency set of dimension {freq.dim} on a "
                                 f"domain of dimension {self.omega.dim}")


@dataclass(frozen=True)
class FrameBoundsReport:
    A_est: float
    B_est: float
    grid_n: int
    trunc_box: Optional[Box]   # None: the lattices were not truncated
    notes: str = ""

    def __post_init__(self):
        if self.A_est > self.B_est + 1e-9:
            raise InputError(f"A_est {self.A_est} exceeds B_est {self.B_est}")

    @property
    def tight_ratio(self) -> float:
        return self.B_est / self.A_est if self.A_est > 0 else math.inf


def nyquist_box(bb: Box, grid_n: int) -> Box:
    """Frequency box matching the alias band of a grid_n grid on the box."""
    lo, hi = [], []
    for a, b in zip(bb.lo, bb.hi):
        w = grid_n / (b - a)
        lo.append(-w / 2.0)
        hi.append(w / 2.0)
    return Box(tuple(lo), tuple(hi))


def _mirrors(freqs: np.ndarray, weights: np.ndarray) -> bool:
    """Whether the weighted points equal their reflection xi -> -xi exactly;
    IEEE rounding is sign-symmetric, so k s and (-k) s match bit for bit."""
    a, b = (np.column_stack([sign * freqs, weights]) for sign in (1, -1))
    return np.array_equal(a[np.lexsort(a[:, ::-1].T)], b[np.lexsort(b[:, ::-1].T)])


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    return a if not np.iscomplexobj(a) or a.imag.any() else a.real.copy()


def _arithmetic(a: np.ndarray) -> str:
    """The ending of a block solve's note: the arithmetic of ``a``."""
    return "" if np.iscomplexobj(a) else " in real arithmetic"


def _density_part(density: GridFunction, steps: np.ndarray, n: int):
    """A density's cell masses as a triple or as a kernel.  Bitwise equal
    masses that fill one alias cycle per axis (N_a cells, h_a step_a = 1/N_a)
    vanish off the lags k = 0 mod N: the triple (c, total mass, N), c the
    first centre, or (+-c, half the mass each, N) on a box with lo = -hi
    (-c is the last centre mod h).  Cells of 1/M_a of the alias band
    (M_a >= N whole) give e^{2 pi i <c, k step>} times the inverse DFT of the
    masses read at k mod M, M^d log M work; other cells the plain sum over
    the centres, (2n)^d per cell.  Masses that mirror on a box with lo = -hi
    make an even density, whose kernel is real."""
    mass = np.maximum(density.samples * density.cell_weights, 0.0)
    box = density.bounding_box
    centre = np.array(box.lo) + 0.5 * np.array(density.spacing)
    symmetric = box.lo == tuple(-v for v in box.hi)
    cycle, whole = nearest_whole(1.0 / (np.array(density.spacing) * steps))
    if whole.all() and np.all(cycle == mass.shape) and np.all(mass == mass.flat[0]):
        points = np.array([centre, -centre] if symmetric else [centre])
        return points, np.full(len(points), float(mass.sum()) / len(points)), cycle
    if not whole.all() or np.any(cycle < mass.shape):
        keep = mass.ravel() > 0
        kernel = _difference_kernel(density.points()[keep], mass.ravel()[keep],
                                    np.ones(len(steps), dtype=int), steps, n)
    else:
        k = np.arange(-(n - 1), n)
        kernel = np.fft.ifftn(mass, s=tuple(cycle), axes=range(len(cycle))) * np.prod(cycle)
        kernel = kernel[np.ix_(*[k % m for m in cycle])]
        for a, (c, s) in enumerate(zip(centre, steps)):
            kernel *= np.exp(2j * np.pi * c * s * k).reshape((-1,) + (1,) * (len(steps) - a - 1))
    even = symmetric and np.array_equal(mass, np.flip(mass))
    return kernel.real.copy() if even else kernel


def aligned_grid(omega: BoxUnionSet, shift: Sequence[float],
                 grid_n: Optional[int] = None) -> int:
    """Cells per axis of a grid over the bounding box on which the shift and
    every face of the domain are whole numbers of cells, decided in integers
    on ``exact_reading``: n f / S is whole, for an offset f from the box's
    corner on an axis of side S, exactly when S / gcd(f, S) divides n.
    grid_n when it aligns, by default the coarsest with at least 256 and at
    most 65,536 cells in all."""
    bb, d = omega.bounding_box(), omega.dim
    lo, hi, (x, g, top), _ = exact_reading(omega, [shift, bb.lo, bb.hi])
    sides = (top - g).tolist()
    unit = math.lcm(*(s // math.gcd(f, s) for row in np.vstack([lo - g, hi - g, x]).tolist()
                      for f, s in zip(row, sides)))
    first, last = (grid_n, grid_n) if grid_n is not None else (
        math.ceil(256 ** (1 / d) - 1e-9), int(65536 ** (1 / d) + 1e-9))
    if (n := max(1, -(-first // unit)) * unit) <= last:
        return n
    tried = f"{first}" if first == last else f"{first} to {last}"
    raise InputError(
        f"the shift {tuple(shift)} and every face of the domain must be whole "
        f"numbers of grid cells; no grid of {tried} cells per axis on the "
        f"bounding box from {bb.lo} to {bb.hi} aligns")


def _cosine_part(x0: tuple, steps: np.ndarray, n: int,
                 omega: BoxUnionSet) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of (1 + cos 2 pi <xi, x0>) d xi on the alias band of volume
    V: V at lag 0 and V/2 at the lags +-c = +-x0 / step, whole numbers of
    cells, which fall off the grid when some |c_a| >= n; and the period of
    the chains i, i + c, ...: |c_a|, or n where c_a = 0 or the lags fell off.
    c_a = f n / S, f the shift and S the side read by ``exact_reading``, is
    whole exactly when S / gcd(f, S) divides n, as in ``aligned_grid``; a
    shift off the grid is refused with omega's ``aligned_grid``."""
    bb = omega.bounding_box()
    *_, (x, g, top), _ = exact_reading(omega, [x0, bb.lo, bb.hi])
    shift = list(zip(x.tolist(), (top - g).tolist()))
    if any(n % (s // math.gcd(f, s)) for f, s in shift):
        raise InputError(f"the shift {x0} is not a whole number of cells of "
                         f"{tuple(steps.tolist())}; grid_n {aligned_grid(omega, x0)} aligns")
    # a lag at or past n falls off the grid whatever its size
    c = np.array([max(-n, min(n, f * n // s)) for f, s in shift])
    kernel, volume = np.zeros((2 * n - 1,) * len(steps)), np.prod(1.0 / steps)
    near = bool(np.all(np.abs(c) < n))
    for lag, share in [(0 * c, 1.0)] + [(c, 0.5), (-c, 0.5)] * near:
        kernel[tuple(n - 1 + lag)] += share * volume
    return kernel, np.where((c != 0) & near, np.abs(c), n)


def _phase_tables(freqs: np.ndarray, step: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coarse and fine tables of e^{2 pi i lam k step} over the cell-index
    differences k = -(n - 1) + h b + l in (-n, n), 0 <= l < b: the phase is
    coarse[lam, h] * fine[lam, l], about 2n/b + b exponentials per frequency
    instead of 2n."""
    coarse = np.exp(2j * np.pi * step * np.outer(freqs, np.arange(-(n - 1), n, _PHASE_BLOCK)))
    fine = np.exp(2j * np.pi * step * np.outer(freqs, np.arange(_PHASE_BLOCK)))
    return coarse, fine


def _rowwise_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), a.shape[1] * b.shape[1])


def _difference_kernel(freqs: np.ndarray, weights: np.ndarray, period: np.ndarray,
                       steps: np.ndarray, n: int) -> np.ndarray:
    """K(k) = sum_lam w_lam e^{2 pi i <lam, k step>} over the cell-index
    differences k in (-n, n)^d that are multiples of ``period`` per axis,
    and 0 at the others, as a (2n - 1)^d array holding K(k) at k + n - 1.

    Every axis but the last enters as its full phase table; the last axis's
    fine table is the right factor of the one matrix product.  Weighted
    points equal to their reflection make K a cosine sum, returned real.
    """
    span = 2 * n - 1
    *axes, (coarse, fine) = [_phase_tables(freqs[:, a], s, n) for a, s in enumerate(steps)]
    left = weights[:, None]
    for c, f in axes:
        left = _rowwise_outer(left, _rowwise_outer(c, f)[:, :span])
    kernel = _rowwise_outer(left, coarse).T @ fine
    kernel = kernel.reshape(-1, coarse.shape[1] * fine.shape[1])[:, :span]
    kernel = kernel.reshape((span,) * len(steps))
    for a, p in enumerate(period):
        kernel[(slice(None),) * a + (np.arange(-(n - 1), n) % p != 0,)] = 0.0
    return kernel.real.copy() if _mirrors(freqs, weights) else kernel


def _diagonal_spacing(freq: FreqSpec, d: int) -> Optional[np.ndarray]:
    """Per-axis spacings of the cosets of a diagonal d-dim lattice, or None."""
    basis = freq.lattice.basis if isinstance(freq, LatticeCosets) and freq.dim == d else ()
    if not basis or any(v for i, row in enumerate(basis) for j, v in enumerate(row) if i != j):
        return None
    return np.abs([row[a] for a, row in enumerate(basis)])


def _lattice_cosets(freq: FreqSpec, steps: np.ndarray, box: Box) -> Optional[tuple]:
    """The triple (offsets, counts in ``box``, period in cells) of the cosets
    of a diagonal lattice, or None.  Spacing s_a on grid step d_a makes the
    period P_a = 1 / (s_a d_a) cells; when P_a is an integer and each coset
    fills whole periods of the box, its exponential sum over a cell
    difference k is its count times e^{2 pi i <o, k step>} when k = 0 mod P
    and zero otherwise."""
    spacing = _diagonal_spacing(freq, len(steps))
    if spacing is None:
        return None
    periods, whole = nearest_whole(1.0 / (spacing * steps))
    if np.any(periods < 1) or not whole.all():
        return None
    counts = []
    for o in freq.offsets:
        lam = LatticeCosets(freq.lattice, (o,)).points_in_box(box)
        per_axis = [len(np.unique(nearest_whole((lam[:, a] - o[a]) / spacing[a])[0]))
                    for a in range(freq.dim)]
        if any(c % p for c, p in zip(per_axis, periods)):
            return None
        counts.append(float(len(lam)))
    return np.array(freq.offsets, dtype=float), np.array(counts), periods


def _kernel_terms(system: WindowedSystem, xs: np.ndarray, sqw: np.ndarray,
                  steps: np.ndarray, n: int, box: Box) -> tuple[list[tuple], list[str]]:
    """(u, part) per part of each pair's frequencies, u = g sqrt(w) over the
    active cells.  A discrete part is the triple (points, weights, period in
    cells) whose frame operator is u(x) conj(u(y)) times ``_difference_kernel``
    at the index difference of x and y: whole-period lattice cosets
    (``_lattice_cosets``) and a constant density (``_density_part``) with
    their periods, and with period 1 a point set's points in ``box`` and a
    measure's atoms.  Any other part is the pair (kernel array, period): the
    cosine measure's (``_cosine_part``), and any other density's with period
    1.  A part of no weight is dropped, and a pair left with no part is named."""
    terms, notes, ones = [], [], np.ones(len(steps), dtype=int)
    for window, freq in system.pairs:
        if isinstance(freq, CosineFreqMeasure):
            parts = [_cosine_part(freq.x0, steps, n, system.omega)]
        elif isinstance(freq, ContinuousFreqMeasure):
            atoms = np.array([p for p, _ in freq.atoms], dtype=float).reshape(-1, len(steps))
            parts = [(atoms, np.array([w for _, w in freq.atoms], dtype=float), ones)]
            if freq.density is not None:
                part = _density_part(freq.density, steps, n)
                if isinstance(part, tuple):
                    notes.append(f"pair '{window.label}': constant density in closed form "
                                 f"with period {'x'.join(map(str, part[2]))} cells")
                parts.append(part if isinstance(part, tuple) else (part, ones))
        else:
            lam = freq.points_in_box(box)
            parts = [_lattice_cosets(freq, steps, box) or (lam, np.ones(len(lam)), ones)]
        parts = [part for part in parts if np.any(part[-2])]  # weights, or the kernel
        if not parts:
            notes.append(f"pair '{window.label}': no frequencies inside the truncation box; "
                         f"it contributes nothing")
            continue
        u = _real_if_exact(window.eval(xs) * sqw)
        terms += [(u, part) for part in parts]
    return terms, notes


def _fiber_factor(terms: list, turn: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """V with H = V V* on every fiber: a term (u, points, weights, q) of a
    part with q periods per axis in common gets one column per point o of
    weight w and residue mod q of the row's ``turn``, holding
    sqrt(w) e^{2 pi i <o, x>} u(x); real when no entry has an imaginary part."""
    rows, columns = np.arange(len(turn)), []
    for u, points, weights, q in terms:
        col = np.ravel_multi_index((turn % q).T, q)
        for o, w in zip(points, np.sqrt(weights)):
            v = np.zeros((len(turn), int(np.prod(q))), dtype=complex)
            v[rows, col] = w * np.exp(2j * np.pi * (xs @ o)) * u
            columns.append(v)
    return _real_if_exact(np.concatenate(columns, axis=1))


def _block_stacks(order: np.ndarray, sizes: np.ndarray, V: Optional[np.ndarray],
                  kernels: Sequence = (), idx=None, n: int = 0):
    """(cells, H) per stack of blocks of one size, at most DENSE_EIG_LIMIT^2
    entries: H = V V*, or without V the sum over pairs of u u* times K at the
    cells' index differences, one block per fiber, the fibers being runs of
    ``sizes`` rows in ``order``; V* V when a block has more rows than V has
    columns."""
    if V is None:
        shape = (2 * n - 1,) * idx.shape[1]
        at = np.ravel_multi_index(idx.T, shape)
        centre = np.ravel_multi_index((n - 1,) * idx.shape[1], shape)
    singular = V is not None and sizes.max() > V.shape[1]
    for size in np.unique(sizes):
        group = order[np.repeat(sizes == size, sizes)].reshape(-1, size)
        step = max(1, DENSE_EIG_LIMIT ** 2 // (size * (size if V is None else V.shape[1])))
        for cells in np.split(group, range(step, len(group), step)):
            if V is None:
                diff = at[cells][:, :, None] - at[cells][:, None, :] + centre
                H = np.zeros(diff.shape, dtype=np.result_type(*(x for p in kernels for x in p)))
                for u, K in kernels:
                    block = K.ravel()[diff].astype(H.dtype, copy=False)
                    block *= u[cells][:, :, None]
                    block *= u[cells].conj()[:, None, :]
                    H += block
            elif singular:
                H = V[cells].conj().transpose(0, 2, 1) @ V[cells]
            else:  # column by column: each entry sums its terms in pair order
                H = sum(v[:, :, None] * v[:, None, :].conj() for v in np.moveaxis(V[cells], 2, 0))
            yield cells, H


def _extremal_eigs_blocks(order: np.ndarray, sizes: np.ndarray, V: Optional[np.ndarray],
                          kernels: Sequence = (), idx=None, n=0) -> tuple[float, float, str]:
    """Extreme eigenvalues of ``_block_stacks``, a batched eigensolve per
    stack, and the note's ending for the blocks' arithmetic; Gram blocks
    give a lower bound of 0."""
    singular = V is not None and sizes.max() > V.shape[1]
    lo, hi = np.inf, -np.inf
    for _, H in _block_stacks(order, sizes, V, kernels, idx, n):
        # a lone block goes in as a plain matrix, so the solve's order
        # reads off its leading axis
        evs = np.linalg.eigvalsh(H[0] if len(H) == 1 else H).reshape(len(H), -1)
        lo = min(lo, 0.0 if singular else float(evs[:, 0].min()))
        hi = max(hi, float(evs[:, -1].max()))
    return max(lo, 0.0), hi, _arithmetic(H)


def _rank_update_bounds(parts: list, idx: np.ndarray, xs: np.ndarray, steps: np.ndarray,
                        n: int) -> Optional[tuple[float, float, str]]:
    """A, B and the note of H = H_d + V V*: V a column sqrt(w) e^{2 pi i
    <lam, x>} u(x) per point of the parts (u, points, weights, period) of
    period 1, R in all, and H_d the blocks of the other parts (0, each cell
    alone, without them).  None without such a point, or when the blocks'
    solves and ~2 x 60 shifts of n R^2 each (all bisection, the worst case)
    cost more than one dense block.  With H_d = Q diag(lam) Q* and W = Q* V,
    #{lam < t} - #{eigenvalues of I + W* (lam - t)^-1 W <= 0} of H's
    eigenvalues lie below t (Sylvester).  A lies in [lam_1, lam_(R+1)], B in
    [lam_max, lam_max + |V|_F^2]; the counts close each bracket to 4 ulps of
    the top around secular Newton shifts, or midpoints (README, item 2)."""
    columns = [part for part in parts if np.all(part[3] == 1)]
    blocks = [part for part in parts if np.any(part[3] > 1)]
    cells, r = len(idx), sum(len(w) for _, _, w, _ in columns)
    alone = np.full(idx.shape[1], n)  # a period at which every cell is its own block
    order, sizes = _fibers(idx, np.gcd.reduce([q for *_, q in blocks] or [alone]))
    if not r or sizes.max() > DENSE_EIG_LIMIT or \
            np.sum(sizes ** 3.0) + 120.0 * cells * r ** 2 >= float(cells) ** 3:
        return None
    V = _fiber_factor(columns, idx, xs)
    lam, W = np.zeros(cells), V
    if blocks:
        kernels = [(u, _difference_kernel(*part, steps, n)) for u, *part in blocks]
        eig = [(np.linalg.eigh(H), c)
               for c, H in _block_stacks(order, sizes, None, kernels, idx, n)]
        lam = np.concatenate([evs.ravel() for (evs, _), _ in eig])
        W = np.concatenate([(Q.conj().transpose(0, 2, 1) @ V[c]).reshape(-1, r)
                            for (_, Q), c in eig])
    top, Wh, eye, count = lam.max() + float(np.sum(np.abs(V) ** 2)), W.conj().T, np.eye(r), 0
    ends, tol = np.sort(lam), 4 * np.finfo(float).eps * top

    def solve(lo: float, hi: float, k: int, t: float) -> tuple[float, float]:
        nonlocal count
        # the bisection's probes; tol is 0 only when H = 0, with nothing to solve
        budget = count + math.log2(1 + (hi - lo) / tol) if tol else count
        while hi - lo > tol:
            while np.any(lam == t):  # lam - t must be invertible
                t = 0.5 * (lo + t)
            j, (m, U) = np.searchsorted(ends, t), np.linalg.eigh(eye + (Wh / (lam - t)) @ W)
            count, i, step = count + 1, j - k - 1, np.nan  # m[i] crosses 0 at the root
            lo, hi = (t, hi) if np.count_nonzero(m <= 0) > i else (lo, t)
            if 0 <= i < r and (slope := np.sum(np.abs(W @ U[:, i] / (lam - t)) ** 2)) > 0:
                if j == len(lam):  # above every pole: Newton on the concave 1 / (1 - m)
                    step = -m[i] * (1 - m[i]) / slope
                elif (c := m[i] + slope * (t - ends[j - 1])) > 0:  # m ~ c + s / (p - t)
                    step = -m[i] * (t - ends[j - 1]) / c
            newton = count < budget and lo - tol / 2 < t + step < hi + tol / 2
            t = min(max(t + step, lo + tol / 2), hi - tol / 2) if newton else 0.5 * (lo + hi)
        return lo, hi

    a, a_hi = solve(ends[0], ends[min(r, len(lam) - 1)], 0, ends[0] + tol)
    # B = lam_max stays possible when W's rows at lam_max vanish: probe just above it
    silent = not np.any(W[lam == ends[-1]])
    b_lo, b = solve(ends[-1], top, len(lam) - 1, ends[-1] + tol if silent else top)
    return max(float(a), 0.0), float(b), (
        f"rank-{r} update of {len(sizes)} blocks of order at most {sizes.max()}"
        f"{_arithmetic(W)}: inertia-bracketed Newton in "
        f"{count} probes, brackets {a_hi - a:.2g} (A) and {b - b_lo:.2g} (B) wide")


def _extremal_eigs_iterative(kernels: list, idx: np.ndarray, n: int) -> tuple[float, float]:
    """Lanczos on the frame operator; each pair's product with K is a
    circular convolution on a (2n)^d grid, where no index difference wraps."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    d = idx.shape[1]
    grid = (2 * n,) * d
    cells = tuple(idx.T)
    wrapped = np.ix_(*[np.arange(-(n - 1), n) % (2 * n)] * d)
    spectra = []
    for u, K in kernels:
        padded = np.zeros(grid, dtype=complex)
        padded[wrapped] = K
        spectra.append((u, np.fft.fftn(padded)))
    nc = len(idx)

    def apply(v):
        v = np.asarray(v, dtype=complex).ravel()
        out = np.zeros(nc, dtype=complex)
        for u, spectrum in spectra:
            z = np.zeros(grid, dtype=complex)
            z[cells] = u.conj() * v
            out += u * np.fft.ifftn(np.fft.fftn(z) * spectrum)[cells]
        return out

    op = LinearOperator((nc, nc), matvec=apply, dtype=complex)
    b_val = float(eigsh(op, k=1, which="LA", tol=ITER_EIG_TOL,
                        return_eigenvectors=False)[0])
    shift = b_val * (1.0 + 1e-3) + 1e-12

    def apply_shifted(u):
        u = np.asarray(u, dtype=complex).ravel()
        return shift * u - apply(u)

    op2 = LinearOperator((nc, nc), matvec=apply_shifted, dtype=complex)
    top = float(eigsh(op2, k=1, which="LA", tol=ITER_EIG_TOL,
                      return_eigenvectors=False)[0])
    return max(shift - top, 0.0), b_val


def _common_period(duals: np.ndarray, step: float) -> Optional[float]:
    """finest / m for the least m >= 1 making every dual spacing a whole
    multiple of it (``nearest_whole``), or None when that falls below ``step`` or
    m exceeds DENSE_EIG_LIMIT, as the fiber factor would have m columns."""
    finest = duals.min()
    top = min(int(finest / step * (1.0 + 1e-9)), DENSE_EIG_LIMIT)
    if top and nearest_whole(duals / finest)[1].all():
        return finest
    whole = nearest_whole(duals[:, None] * np.arange(1, top + 1) / finest)[1].all(axis=0)
    return finest / (whole.argmax() + 1) if whole.any() else None


def _ron_shen_bounds(system: WindowedSystem, grid_box: Box,
                     grid_n: int) -> Optional[FrameBoundsReport]:
    """Bounds of untruncated cosets of diagonal lattices L_j whose duals share
    a period t per axis, else None.  By Poisson summation o + L acts as
    covol(L)^-1 e^{2 pi i <o, gamma>} at the shifts gamma in L*, so S is a
    direct integral of G(x) = V V* over the fibers x + k t in the domain (V
    from ``_fiber_factor``, u = g_j, weight covol(L_j)^-1/2), sampled at the
    cell centres x within one period of the grid's corner.  k t is counted
    in cells, whole where t is, so the fiber points are then cell centres.
    Where every fiber is one point (painless), G = sum_j covol(L_j)^-1
    |offsets_j| |g_j|^2 is summed as V V* sums its columns, with no V and
    no eigensolve."""
    spacing = [_diagonal_spacing(f, grid_box.dim) for _, f in system.pairs]
    if any(s is None for s in spacing):
        return None
    duals, steps = 1.0 / np.array(spacing), np.array(grid_box.sides) / grid_n
    period = np.array([_common_period(v, h) for v, h in zip(duals.T, steps)], dtype=float)
    if np.isnan(period).any():
        return None
    n, whole = nearest_whole(period / steps)
    cells = np.where(whole, n, period / steps)
    samples = cartesian([np.arange(grid_n)[np.arange(grid_n) + 0.5 < c] + 0.5 for c in cells])
    turns = cartesian([np.arange(math.ceil(grid_n / c)) for c in cells])
    at = samples[:, None, :] + turns * cells  # fiber points, in cells from the corner
    pts = np.array(grid_box.lo) + steps * at
    inside = np.logical_and.reduce([at[..., a] < grid_n for a in range(grid_box.dim)])
    inside[inside] = system.omega.contains(pts[inside])
    if not inside.any():
        raise InputError("singular sampling: every cell centre misses the domain")
    # with one turn every fiber holds at most one point
    sizes, pts = inside[:, 0] if len(turns) == 1 else inside.sum(axis=1), pts[inside]
    terms = [(w.eval(pts), np.array(f.offsets, dtype=float),
              np.full(len(f.offsets), 1.0 / f.lattice.covolume), q)
             for (w, f), q in zip(system.pairs, nearest_whole(duals / period)[0])]
    kept, r = np.count_nonzero(sizes), sum(len(w) * np.prod(q) for *_, w, q in terms)
    if sizes.max() == 1:  # painless: each column's v conj(v), once per coset offset
        g, arithmetic = 0.0, ""
        for u, _, w, _ in terms:
            square = ((v := np.sqrt(w[0]) * u) * v.conj()).real
            for _ in w:
                g = g + square
        a, b = max(float(g.min()), 0.0), float(g.max())
        head = f"Ron-Shen fibers of one point each, summed in closed form (samples {kept}"
    else:
        V = _fiber_factor(terms, np.broadcast_to(turns, at.shape)[inside], pts)
        a, b, arithmetic = _extremal_eigs_blocks(np.arange(len(pts)), sizes[sizes > 0], V)
        head = f"Ron-Shen fiber eigensolve (samples {kept}, largest fiber {sizes.max()}"
    note = f"{head}, columns {r}); lattice untruncated; sampled in x at the cell centres"
    return FrameBoundsReport(a, b, grid_n, None, note + arithmetic)


def _fibers(idx: np.ndarray, period: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells in order of their index residue mod ``period``, and the
    sizes of the runs that share one."""
    residue = np.ravel_multi_index((idx % period).T, period)
    sizes = np.bincount(residue)
    return np.argsort(residue, kind="stable"), sizes[sizes > 0]


def estimate_frame_bounds(system: WindowedSystem, grid_n: int,
                          trunc_box: Optional[Box] = None) -> FrameBoundsReport:
    """Extreme eigenvalues of the discretized frame operator.

    The grid covers the domain's bounding box; cells outside the domain
    carry zero weight.  Discrete frequency sets are truncated to
    ``trunc_box``.  With none, ``_ron_shen_bounds`` takes the lattices it
    keeps untruncated, and the rest are cut to the grid's Nyquist band,
    which keeps the eigenproblem well posed.  Continuous frequency measures
    enter by quadrature against their density plus exact atom sums.

    Every part from ``_kernel_terms``, a triple or a kernel, ends in its
    period (1 for a general density's kernel).  The operator couples two
    cells only when their index difference is a multiple of P, the gcd of
    the periods, so it is block diagonal over the fibers of cells with one
    index residue mod P (the Walnut / Ron-Shen fiber decomposition).  When
    every part is discrete and r, the columns of ``_fiber_factor`` over the
    residues mod P, is below the largest fiber, A = 0 and B comes from the
    blocks' r x r Grams: a finite set alone on more active cells than points
    reads ``dense eigensolve of order n and rank at most R``.  Otherwise,
    with every part discrete, the period-1 points become R columns beside
    the other parts' blocks when that costs less (``_rank_update_bounds``).
    Otherwise the blocks are gathered from the kernels, or above
    ``DENSE_EIG_LIMIT`` in order the kernels are applied as FFT convolutions
    inside an iterative solve.  A block solve's note ends in ``in real
    arithmetic`` when its matrices are real.
    """
    if grid_n < 1:
        raise InputError(f"grid_n must be at least 1, got {grid_n}")
    grid_box = system.omega.bounding_box()
    if trunc_box is None and (untruncated := _ron_shen_bounds(system, grid_box, grid_n)):
        return untruncated
    trunc_box = trunc_box or nyquist_box(grid_box, grid_n)
    weights = cell_volumes(grid_box, grid_n, system.omega)
    if weights.max() == 0.0:
        raise InputError("singular quadrature: every grid cell misses the domain")
    active = weights > 0
    idx = np.argwhere(active)
    xs = grid_points(grid_box, grid_n)[active.ravel()]
    sqw = np.sqrt(weights[active])
    steps = np.array(grid_box.sides) / grid_n
    # both faces move down by a hair, so a frequency that rounds to just
    # below the upper face does not alias onto the one at the lower face
    box = trunc_box.translate([-1e-9 * s for s in trunc_box.sides])
    terms, notes = _kernel_terms(system, xs, sqw, steps, grid_n, box)
    if not terms:
        return FrameBoundsReport(0.0, 0.0, grid_n, trunc_box,
                                 "; ".join(notes + ["no coefficients at all"]))
    discrete = [(u, *part) for u, part in terms if len(part) == 3]
    general = len(discrete) < len(terms)
    period = np.gcd.reduce([part[-1] for _, part in terms])
    order, sizes = _fibers(idx, period)
    note = (f"dense eigensolve of order {sizes[0]}" if len(sizes) == 1 else
            f"dense eigensolve of {len(sizes)} blocks of order at most {sizes.max()}")
    rank = math.inf if general else sum(len(w) * np.prod(q // period) for *_, w, q in discrete)
    if rank < sizes.max() and rank <= DENSE_EIG_LIMIT:
        V = _fiber_factor([(u, points, w, q // period) for u, points, w, q in discrete],
                          idx // period, xs)
        a, b, arithmetic = _extremal_eigs_blocks(order, sizes, V)
        note += f" and rank at most {rank}{arithmetic}"
    elif not general and (update := _rank_update_bounds(discrete, idx, xs, steps, grid_n)):
        a, b, note = update
    else:
        kernels = [(u, part[0] if len(part) == 2 else _difference_kernel(*part, steps, grid_n))
                   for u, part in terms]
        if sizes.max() <= DENSE_EIG_LIMIT:
            a, b, arithmetic = _extremal_eigs_blocks(order, sizes, None, kernels, idx, grid_n)
            note += arithmetic
        else:
            a, b = _extremal_eigs_iterative(kernels, idx, grid_n)
            note = f"iterative extremal eigensolve at tolerance {ITER_EIG_TOL}"
    return FrameBoundsReport(a, b, grid_n, trunc_box, "; ".join(notes + [note]))


@dataclass(frozen=True)
class EssBoundsReport:
    """Enclosures (lo, hi) of the essential inf and sup of ``max_{j in J} |g_j|``
    over the domain, J being the windows bounded on it."""

    ess_inf_of_max: tuple[float, float]
    ess_sup_of_max: tuple[float, float]
    J: tuple[int, ...]
    grid_n: int
    notes: str = ""


def window_ranges(windows: Sequence[Window], omega: BoxUnionSet, grid_n: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pieces of the domain and the range of every |g_j| on each of them.

    The pieces are the slabs of a grid_n grid on axis 0 of the bounding box,
    as a closed form depends on x_0 alone, cut on every axis at the faces of
    the domain and of every window's support, so each lies in or out of the
    domain (as its lower corner does) and every indicator is constant on it.
    Returns corners lo, hi (m, d) and exact range ends inf, sup (q, m).
    """
    for j, w in enumerate(windows):
        _refuse_window_dimension(f"window {j} ('{w.label}')", w, omega)
    bb = omega.bounding_box()
    faces = list(omega.boxes) + [b for w in windows if (b := w.support_box())]
    edges = []
    for k, (a, z) in enumerate(zip(bb.lo, bb.hi)):
        grid = np.linspace(a, z, grid_n + 1) if k == 0 else (a, z)
        cuts = np.r_[grid, [b.lo[k] for b in faces], [b.hi[k] for b in faces]]
        edges.append(np.unique(np.clip(cuts, a, z)))
    lo, hi = cartesian([e[:-1] for e in edges]), cartesian([e[1:] for e in edges])
    inside = omega.contains(lo)
    lo, hi = lo[inside], hi[inside]
    infs, sups = zip(*(w.expr.range_on(lo, hi) for w in windows))
    return lo, hi, np.array(infs), np.array(sups)


def ess_bounds(windows: Sequence[Window], omega: BoxUnionSet, grid_n: int) -> EssBoundsReport:
    """Enclosures of the essential bounds of the pointwise max of the bounded
    windows: on each piece of ``window_ranges`` the max lies between the
    largest lower and the largest upper range end.  The ranges are exact,
    so the enclosures shrink with the pieces."""
    return ess_report(*window_ranges(windows, omega, grid_n)[2:], grid_n)


def ess_report(infs: np.ndarray, sups: np.ndarray, grid_n: int) -> EssBoundsReport:
    """``ess_bounds`` from a ``window_ranges`` table: J holds the rows whose
    upper range ends are finite on every piece, the windows essentially
    bounded on the domain."""
    J = tuple(np.flatnonzero(np.isfinite(sups).all(axis=1)).tolist())
    if not J:
        return EssBoundsReport((0.0, 0.0), (0.0, 0.0), (), grid_n,
                               "every window is unbounded on the domain")
    low, high = infs[list(J)].max(axis=0), sups[list(J)].max(axis=0)
    ess_inf = (float(low.min()), float(high.min()))
    ess_sup = (float(low.max()), float(high.max()))
    notes = [f"{len(low)} pieces", f"ess inf width {ess_inf[1] - ess_inf[0]:.3g}",
             f"ess sup width {ess_sup[1] - ess_sup[0]:.3g}"]
    return EssBoundsReport(ess_inf, ess_sup, J, grid_n, "; ".join(notes))


@dataclass(frozen=True)
class WindowBracketRow:
    label: str
    density_upper: float
    cap: float         # sqrt(B / D+)
    ess_sup: float
    holds: bool
    slack: float


@dataclass(frozen=True)
class BracketCheckReport:
    per_window: tuple[WindowBracketRow, ...]
    lower_cap: float       # sqrt(A / D+ of the combined comb over J')
    ess_inf_max: float     # upper end of the ess inf enclosure
    ess_sup_max: float     # lower end of the ess sup enclosure
    upper_cap_max: float
    lower_holds: bool
    upper_holds: bool
    contradiction: Optional[str]
    notes: str = ""

    @property
    def all_hold(self) -> bool:
        return (self.contradiction is None and self.lower_holds and self.upper_holds
                and all(r.holds for r in self.per_window))


def window_density_bracket_check(system: WindowedSystem, report: FrameBoundsReport,
                                 densities: Sequence[DensityReport],
                                 tol: float = 0.02) -> BracketCheckReport:
    """Verify the bound/density bracket on the windows.

    Per window with positive upper density: ess-sup |g_j| <= sqrt(B / D+_j),
    which an unbounded window fails: such a system is not Bessel, and the
    notes say so.
    Over the bounded positive-density windows J': sqrt(A / D+(sum of combs))
    <= ess-inf max |g_j| and ess-sup max |g_j| <= max_j sqrt(B / D+_j).
    A violation is reported only when the enclosures prove it: the sup
    checks read the lower end of the ess sup enclosure, the inf check the
    upper end of the ess inf enclosure.  The enclosures come from
    ``window_ranges`` on the report's grid, the grid A and B were sampled on.
    """
    if len(densities) != len(system.pairs):
        raise InputError("need one density report per system pair")
    windows = [w for w, _ in system.pairs]
    # one table for every row: its pieces are cut at every pair's support
    # faces, so each enclosure is at least as tight as the window's own
    _, _, infs, sups = window_ranges(windows, system.omega, report.grid_n)
    bounded = np.isfinite(sups).all(axis=1)
    rows, notes = [], []
    for j, (window, dens) in enumerate(zip(windows, densities)):
        if dens.upper <= 0:
            continue
        cap = math.sqrt(report.B_est / dens.upper)
        ess_sup = float(infs[j].max()) if bounded[j] else math.inf
        rows.append(WindowBracketRow(window.label, dens.upper, cap, ess_sup,
                                     ess_sup <= cap + tol, cap + tol - ess_sup))
        if not bounded[j]:
            notes.append(f"not Bessel: window '{window.label}' is unbounded on the domain "
                         f"and carries frequencies of upper density {dens.upper:.6g}")
    j_prime = [j for j in range(len(windows)) if densities[j].upper > 0 and bounded[j]]
    if report.A_est == report.B_est:
        notes.append("tight system (A = B); bracket applied anyway")
    if not j_prime:
        contradiction = ("system reports a positive lower frame bound but no window has "
                         "positive upper density") if report.A_est > 1e-6 and not rows else None
        return BracketCheckReport(tuple(rows), 0.0, 0.0, 0.0, 0.0, False, False,
                                  contradiction, "; ".join(notes))
    combined = WeightedComb(tuple((1.0, _freq_as_support(system.pairs[j][1]))
                                  for j in j_prime))
    d_sum = density_closed_form(combined).upper
    lower_cap = math.sqrt(report.A_est / d_sum) if d_sum > 0 else 0.0
    ess_prime = ess_report(infs[j_prime], sups[j_prime], report.grid_n)
    ess_inf, ess_sup = ess_prime.ess_inf_of_max[1], ess_prime.ess_sup_of_max[0]
    upper_cap = max(math.sqrt(report.B_est / densities[j].upper) for j in j_prime)
    return BracketCheckReport(
        tuple(rows), lower_cap, ess_inf, ess_sup, upper_cap, lower_cap - tol <= ess_inf,
        ess_sup <= upper_cap + tol, None, "; ".join(notes))


def _freq_as_support(freq: FreqSpec) -> StructuredPointSet:
    if isinstance(freq, (ContinuousFreqMeasure, CosineFreqMeasure)):
        raise InputError("the window/density bracket needs discrete frequency sets")
    return freq


@dataclass(frozen=True)
class DecayRow:
    N: float
    A_est: float
    B_est: float


def lower_bound_decay_probe(windows: Sequence[Window],
                            freqs: Sequence[FreqSpec],
                            domain_family: Callable[[float], BoxUnionSet],
                            n_list: Sequence[float],
                            cells_per_unit: int = 128) -> list[DecayRow]:
    """Lower frame bound of a fixed system across a growing domain family.

    The grid spacing and the frequency truncation stay fixed across the
    family, so the rows are comparable: the truncation is the first
    domain's Nyquist box.  For a fixed finite system the lower bound must
    decay as the domain grows.
    """
    rows, trunc_box = [], None
    for n_val in n_list:
        omega = domain_family(n_val)
        bb = omega.bounding_box()
        grid_n = max(8, int(nearest_whole(cells_per_unit * max(bb.sides))[0]))
        if trunc_box is None:
            trunc_box = nyquist_box(bb, grid_n)
        system = WindowedSystem(omega, tuple(zip(windows, freqs)))
        rep = estimate_frame_bounds(system, grid_n, trunc_box)
        rows.append(DecayRow(float(n_val), rep.A_est, rep.B_est))
    return rows
