"""Discretized frame operators for windowed-exponential systems.

The model space is the grid over the domain's bounding box with exact
per-cell domain weights.  The analysis map sends a grid function to its
inner products against windowed exponentials; frame bounds are the extreme
eigenvalues of the (weighted) frame operator.  Frequencies enter the
operator only through the difference x - y of two cells, so each pair
contributes one Toeplitz kernel over the cell-index differences.  A grid
whose Nyquist band matches the frequency truncation reproduces tight
continuous systems exactly; that band is the default truncation, save for
the lattice cosets kept untruncated on the continuum's Ron-Shen fibers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import InputError
from .geometry import Box, BoxUnionSet, cartesian
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
        atoms = tuple((tuple(float(v) for v in p), float(w)) for p, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if self.density is None and not atoms:
            raise InputError("a frequency measure needs a density or atoms")
        if self.density is not None and np.min(self.density.samples.real) < -1e-12:
            raise InputError("frequency density must be non-negative")
        for _, w in atoms:
            if not w > 0:
                raise InputError("atom weights must be positive")


FreqSpec = Union[StructuredPointSet, ContinuousFreqMeasure]


@dataclass(frozen=True)
class WindowedSystem:
    """A domain with finitely many (window, frequency set) pairs."""

    omega: BoxUnionSet
    pairs: tuple[tuple[Window, FreqSpec], ...]

    def __post_init__(self):
        if not self.pairs:
            raise InputError("a windowed system needs at least one pair")

    @property
    def q(self) -> int:
        return len(self.pairs)


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


def _constant_density(density: GridFunction, steps: np.ndarray) -> Optional[tuple]:
    """(N, cosets) when bitwise equal masses fill one alias cycle per axis
    (N_a cells, h_a step_a = 1 / N_a): the kernel is the total mass times
    e^{2 pi i <c, k step>} at lags k = 0 mod N and zero elsewhere, c the
    first cell centre.  On a box with lo = -hi, c and -c (the last centre,
    mod h) share the mass, so the kernel is a cosine sum, real."""
    mass = np.maximum(density.samples.real * density.cell_weights, 0.0)
    ratio = 1.0 / (np.array(density.spacing) * steps)
    if np.any(np.abs(ratio - mass.shape) > 1e-9 * ratio) or np.any(mass != mass.flat[0]):
        return None
    box = density.bounding_box
    c = np.array(box.lo) + 0.5 * np.array(density.spacing)
    offsets = (c, -c) if box.lo == tuple(-v for v in box.hi) else (c,)
    return np.array(mass.shape), tuple((o, float(mass.sum()) / len(offsets)) for o in offsets)


def _mirrors(freqs: np.ndarray, weights: np.ndarray) -> bool:
    """Whether the weighted points equal their reflection xi -> -xi exactly;
    IEEE rounding is sign-symmetric, so k s and (-k) s match bit for bit."""
    a, b = (np.column_stack([sign * freqs, weights]) for sign in (1, -1))
    return np.array_equal(a[np.lexsort(a[:, ::-1].T)], b[np.lexsort(b[:, ::-1].T)])


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    return a if a.imag.any() else a.real.copy()


def _density_kernel(density: GridFunction, steps: np.ndarray, n: int) -> np.ndarray:
    """The kernel of a density's cell masses.  When the N cells per axis are
    each 1/M_a of the grid's alias band (h_a step_a = 1/M_a, M_a >= N whole),
    the sum over the centres c + j h is e^{2 pi i <c, k step>} times the
    inverse DFT of the masses read at k mod M: M^d log M work, where the
    plain sum takes (2n)^d per cell.  Masses that mirror on a box with
    lo = -hi make an even density, whose kernel is real."""
    mass = np.maximum(density.samples.real * density.cell_weights, 0.0)
    box = density.bounding_box
    even = np.array_equal(mass, np.flip(mass)) and box.lo == tuple(-v for v in box.hi)
    ratio = 1.0 / (np.array(density.spacing) * steps)
    cycle = np.round(ratio).astype(int)
    if np.any(np.abs(ratio - cycle) > 1e-9 * ratio) or np.any(cycle < mass.shape):
        keep = mass.ravel() > 0
        kernel = _difference_kernel(density.points()[keep], mass.ravel()[keep], steps, n)
        return kernel.real.copy() if even else kernel
    k = np.arange(-(n - 1), n)
    kernel = np.fft.ifftn(mass, s=tuple(cycle), axes=range(len(cycle))) * np.prod(cycle)
    kernel = kernel[np.ix_(*[k % m for m in cycle])]
    centre = np.array(box.lo) + 0.5 * np.array(density.spacing)
    for a, (c, s) in enumerate(zip(centre, steps)):
        kernel *= np.exp(2j * np.pi * c * s * k).reshape((-1,) + (1,) * (len(steps) - a - 1))
    return kernel.real.copy() if even else kernel


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


def _difference_kernel(freqs: np.ndarray, weights: np.ndarray, steps: np.ndarray,
                       n: int) -> np.ndarray:
    """K(k) = sum_lam w_lam e^{2 pi i <lam, k step>} over the cell-index
    differences k in (-n, n)^d, as a (2n - 1)^d array holding K(k) at k + n - 1.

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
    return kernel.real.copy() if _mirrors(freqs, weights) else kernel


def _diagonal_spacing(freq: FreqSpec, d: int) -> Optional[np.ndarray]:
    """Per-axis spacings of the cosets of a diagonal d-dim lattice, or None."""
    mat = freq.lattice.matrix if isinstance(freq, LatticeCosets) and freq.dim == d else None
    return None if mat is None or np.any(mat != np.diag(np.diag(mat))) else np.abs(np.diag(mat))


def _lattice_cosets(freq: FreqSpec, steps: np.ndarray,
                    box: Box) -> Optional[tuple[np.ndarray, tuple]]:
    """Per-axis period in cells and (offset, count) per coset of a lattice
    frequency set whose difference kernel has a closed form, or None.

    A diagonal lattice with spacing s_a on grid step d_a has the period
    P_a = 1 / (s_a d_a) cells.  When P_a is an integer and each coset fills
    whole periods of the box, the coset's exponential sum over a cell
    difference k is its count times e^{2 pi i <o, k step>} when k = 0 mod P
    and zero otherwise.
    """
    spacing = _diagonal_spacing(freq, len(steps))
    if spacing is None:
        return None
    ratio = 1.0 / (spacing * steps)
    periods = np.round(ratio).astype(int)
    if np.any(periods < 1) or np.any(np.abs(ratio - periods) > 1e-9 * ratio):
        return None
    cosets = []
    for o in freq.offsets:
        lam = LatticeCosets(freq.lattice, (o,)).points_in_box(box)
        per_axis = [len(np.unique(np.round((lam[:, a] - o[a]) / spacing[a])))
                    for a in range(freq.dim)]
        if any(c % p for c, p in zip(per_axis, periods)):
            return None
        cosets.append((np.array(o), len(lam)))
    return periods, tuple(cosets)


def _lattice_kernel(periods: np.ndarray, cosets: tuple, steps: np.ndarray,
                    n: int) -> np.ndarray:
    """The closed-form difference kernel of ``_lattice_cosets`` and
    ``_constant_density``, laid out as ``_difference_kernel``'s."""
    k = np.arange(-(n - 1), n)
    kernel = np.zeros((2 * n - 1,) * len(steps), dtype=complex)
    for o, count in cosets:
        term = np.array(float(count))
        for o_a, s, p in zip(o, steps, periods):
            phase = np.zeros(len(k), dtype=complex)
            phase[(n - 1) % p::p] = np.exp(2j * np.pi * o_a * s * k[(n - 1) % p::p])
            term = np.multiply.outer(term, phase)
        kernel += term
    return _real_if_exact(kernel)


def _kernel_terms(system: WindowedSystem, xs: np.ndarray, sqw: np.ndarray,
                  steps: np.ndarray, n: int,
                  box: Box) -> tuple[list[tuple], list[str]]:
    """(u, P, spec) per part of each pair's frequencies, u = g sqrt(w) over
    the active cells: the part's frame operator is u(x) conj(u(y)) K(index
    of x - index of y), zero off lags that are multiples of the period P.
    The spec is closed-form (offset, weight) cosets with P in cells; finite
    (points, weights) with P = None, a point set's points in ``box`` or a
    measure's atoms; or a density kernel K with P = 1."""
    terms, notes = [], []
    for window, freq in system.pairs:
        if isinstance(freq, ContinuousFreqMeasure):
            atoms = np.array([p for p, _ in freq.atoms], dtype=float).reshape(-1, len(steps))
            parts = [(None, (atoms, np.array([w for _, w in freq.atoms])))] if freq.atoms else []
            if freq.density is not None:
                closed = _constant_density(freq.density, steps)
                parts.append(closed or (np.ones(len(steps), dtype=int),
                                        _density_kernel(freq.density, steps, n)))
                if closed:
                    notes.append(f"pair '{window.label}': constant density in closed form "
                                 f"with period {'x'.join(map(str, closed[0]))} cells")
        else:
            lam = freq.points_in_box(box)
            parts = [_lattice_cosets(freq, steps, box) or (None, (lam, np.ones(len(lam))))]
        parts = [(p, spec) for p, spec in parts
                 if (len(spec[0]) if p is None else spec.any() if isinstance(spec, np.ndarray)
                     else any(c for _, c in spec))]
        if not parts:
            notes.append(_silent_pair_note(window))
            continue
        u = _real_if_exact(window.eval(xs) * sqw)
        terms += [(u, p, spec) for p, spec in parts]
    return terms, notes


def _silent_pair_note(window: Window) -> str:
    return (f"pair '{window.label}': no frequencies inside the truncation box; "
            f"it contributes nothing")


def _fiber_factor(terms: list, turn: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """V with H = V V* on every fiber: a term (u, q, cosets) of a pair with q
    common periods per axis gets one column per (offset o, weight c) and
    residue mod q of the point's ``turn``, holding c e^{2 pi i <o, x>} u(x)."""
    rows, columns = np.arange(len(turn)), []
    for u, q, cosets in terms:
        col = np.ravel_multi_index((turn % q).T, q)
        for o, weight in cosets:
            v = np.zeros((len(turn), int(np.prod(q))), dtype=complex)
            v[rows, col] = weight * np.exp(2j * np.pi * (xs @ o)) * u
            columns.append(v)
    return np.concatenate(columns, axis=1)


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
                          kernels: Sequence = (), idx=None, n: int = 0) -> tuple[float, float]:
    """Extreme eigenvalues of ``_block_stacks``, a batched eigensolve per
    stack; Gram blocks give a lower bound of 0."""
    singular = V is not None and sizes.max() > V.shape[1]
    lo, hi = np.inf, -np.inf
    for _, H in _block_stacks(order, sizes, V, kernels, idx, n):
        # a lone block goes in as a plain matrix, so the solve's order
        # reads off its leading axis
        evs = np.linalg.eigvalsh(H[0] if len(H) == 1 else H).reshape(len(H), -1)
        lo = min(lo, 0.0 if singular else float(evs[:, 0].min()))
        hi = max(hi, float(evs[:, -1].max()))
    return max(lo, 0.0), hi


def _rank_update_bounds(closed: list, finite: list, idx: np.ndarray, xs: np.ndarray,
                        steps: np.ndarray, n: int) -> Optional[tuple[float, float, str]]:
    """A, B and the note of H = H_d + V V*: H_d the blocks of the closed-form
    terms (0, each cell alone, without them), V a column sqrt(w) e^{2 pi i
    <lam, x>} u(x) per finite point, R in all.  None when the blocks' solves
    and ~2 x 60 bisection shifts of n R^2 each cost more than one dense
    block.  With H_d = Q diag(lam) Q* and W = Q* V, Sylvester's law of
    inertia on [[lam - t, W], [W*, -I]] counts the eigenvalues of H below t
    as #{lam < t} + #{eigenvalues of -I - W* (lam - t)^-1 W below 0} - R.
    A lies in [lam_1, lam_(R+1)] and B in [lam_max, lam_max + |V|_F^2];
    each is bisected to 4 ulps of the top."""
    d, cells, r = idx.shape[1], len(idx), sum(len(w) for _, (_, w) in finite)
    order, sizes = _fibers(idx, np.gcd.reduce([p for _, p, _ in closed]) if closed else
                           np.full(d, n))
    if sizes.max() > DENSE_EIG_LIMIT or \
            np.sum(sizes ** 3.0) + 120.0 * cells * r ** 2 >= float(cells) ** 3:
        return None
    V = _real_if_exact(_fiber_factor(
        [(u, np.ones(d, dtype=int), [(o, math.sqrt(w)) for o, w in zip(*spec)])
         for u, spec in finite], idx, xs))
    lam, W = np.zeros(cells), V
    if closed:
        kernels = [(u, _lattice_kernel(p, spec, steps, n)) for u, p, spec in closed]
        eig = [(np.linalg.eigh(H), c)
               for c, H in _block_stacks(order, sizes, None, kernels, idx, n)]
        lam = np.concatenate([evs.ravel() for (evs, _), _ in eig])
        W = np.concatenate([(Q.conj().transpose(0, 2, 1) @ V[c]).reshape(-1, r)
                            for (_, Q), c in eig])
    top, Wh, eye, count = lam.max() + float(np.sum(np.abs(V) ** 2)), W.conj().T, np.eye(r), 0

    def bisect(lo: float, hi: float, k: int) -> tuple[float, float]:
        nonlocal count
        while hi - lo > 4 * np.finfo(float).eps * top:
            t = 0.5 * (lo + hi)
            while np.any(lam == t):  # lam - t must be invertible
                t = 0.5 * (lo + t)
            below = np.count_nonzero(np.linalg.eigvalsh(-eye - (Wh / (lam - t)) @ W) < 0)
            lo, hi = (t, hi) if np.count_nonzero(lam < t) + below - r <= k else (lo, t)
            count += 1
        return lo, hi

    ends = np.sort(lam)
    a, a_hi = bisect(ends[0], ends[min(r, len(lam) - 1)], 0)
    b_lo, b = bisect(ends[-1], top, len(lam) - 1)
    return max(float(a), 0.0), float(b), (
        f"rank-{r} update of {len(sizes)} blocks of order at most {sizes.max()}"
        f"{'' if np.iscomplexobj(W) else ' in real arithmetic'}: inertia bisection in "
        f"{count} steps, brackets {a_hi - a:.2g} (A) and {b - b_lo:.2g} (B) wide")


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
    multiple of it (within 1e-9), or None when that falls below ``step`` or
    m exceeds DENSE_EIG_LIMIT, as the fiber factor would have m columns."""
    top = min(int(duals.min() / step * (1.0 + 1e-9)), DENSE_EIG_LIMIT)
    ratio = np.arange(1, top + 1)[:, None] * duals / duals.min()
    whole = np.all(np.abs(ratio - np.round(ratio)) <= 1e-9 * ratio, axis=1)
    return duals.min() / (whole.argmax() + 1) if whole.any() else None


def _ron_shen_bounds(system: WindowedSystem, grid_box: Box,
                     grid_n: int) -> Optional[FrameBoundsReport]:
    """Bounds of untruncated cosets of diagonal lattices L_j whose duals share
    a period t per axis, else None.  By Poisson summation o + L acts as
    covol(L)^-1 e^{2 pi i <o, gamma>} at the shifts gamma in L*, so S is a
    direct integral of G(x) = V V* over the fibers x + k t in the domain (V
    from ``_fiber_factor``, u = g_j, weight covol(L_j)^-1/2), sampled at the
    cell centres x within one period of the grid's corner.  k t is counted
    in cells, whole where t is, so the fiber points are then cell centres."""
    spacing = [_diagonal_spacing(f, grid_box.dim) for _, f in system.pairs]
    if any(s is None for s in spacing):
        return None
    duals, steps = 1.0 / np.array(spacing), np.array(grid_box.sides) / grid_n
    period = np.array([_common_period(v, h) for v, h in zip(duals.T, steps)], dtype=float)
    if np.isnan(period).any():
        return None
    cells = period / steps
    cells = np.where(np.abs(cells - np.round(cells)) <= 1e-9 * cells, np.round(cells), cells)
    samples = cartesian([np.arange(grid_n)[np.arange(grid_n) + 0.5 < c] + 0.5 for c in cells])
    turns = cartesian([np.arange(math.ceil(grid_n / c)) for c in cells])
    at = samples[:, None, :] + turns * cells  # fiber points, in cells from the corner
    pts = np.array(grid_box.lo) + steps * at
    inside = np.all(at < grid_n, axis=2)
    inside[inside] = system.omega.contains(pts[inside])
    if not inside.any():
        raise InputError("singular sampling: every cell centre misses the domain")
    sizes, pts, turn = inside.sum(axis=1), pts[inside], np.broadcast_to(turns, at.shape)[inside]
    V = _real_if_exact(_fiber_factor(
        [(w.eval(pts), np.round(dual / period).astype(int),
          [(np.array(o), math.sqrt(1.0 / f.lattice.covolume)) for o in f.offsets])
         for (w, f), dual in zip(system.pairs, duals)], turn, pts))
    a, b = _extremal_eigs_blocks(np.arange(len(pts)), sizes[sizes > 0], V)
    note = (f"Ron-Shen fiber eigensolve (samples {np.count_nonzero(sizes)}, largest fiber "
            f"{sizes.max()}, columns {V.shape[1]}); lattice untruncated; sampled in x at the "
            f"cell centres" + ("" if np.iscomplexobj(V) else " in real arithmetic"))
    return FrameBoundsReport(a, b, grid_n, None, note)


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

    Each pair enters through difference kernels: in closed form for a
    diagonal lattice whose spacing divides into the grid and whose
    truncation fills whole periods and for a constant density on one alias
    cycle, as a DFT for a density on whole fractions of the alias band,
    summed over the finite points (other point sets truncated, atoms)
    otherwise.  The operator couples two cells only when their index
    difference is a multiple of P, the gcd of every pair's period (1 for a
    summed kernel), so it is block diagonal over the fibers of cells with
    one index residue mod P (the Walnut / Ron-Shen fiber decomposition).
    The blocks are gathered densely from the kernels.  When every kernel has
    the closed form and a block has more cells than the r columns of
    ``_fiber_factor``, the operator is singular and the blocks' r x r Grams
    give the upper bound.  With closed forms and R finite points alone, the
    points become R columns beside the closed forms' blocks when that costs
    less (``_rank_update_bounds``).  Above ``DENSE_EIG_LIMIT`` in order,
    the operator is applied as FFT convolutions inside an iterative solve.
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
    closed = [t for t in terms if isinstance(t[1], np.ndarray) and isinstance(t[2], tuple)]
    finite = [(u, spec) for u, p, spec in terms if p is None]
    general = len(terms) > len(closed) + len(finite)
    period = np.gcd.reduce([np.ones(len(steps), dtype=int) if p is None else p
                            for _, p, _ in terms])
    order, sizes = _fibers(idx, period)
    note = (f"dense eigensolve of order {sizes[0]}" if len(sizes) == 1 else
            f"dense eigensolve of {len(sizes)} blocks of order at most {sizes.max()}")
    rank = math.inf
    if not (finite or general):
        rank = sum(len(spec) * int(np.prod(p // period)) for _, p, spec in terms)
    if rank < sizes.max() and rank <= DENSE_EIG_LIMIT:
        V = _fiber_factor([(u, p // period, [(o, math.sqrt(c)) for o, c in spec])
                           for u, p, spec in terms], idx // period, xs)
        a, b = _extremal_eigs_blocks(order, sizes, V)
        note += f" and rank at most {rank}"
    elif finite and not general and (update := _rank_update_bounds(closed, finite, idx, xs,
                                                                     steps, grid_n)):
        a, b, note = update
    else:
        kernels = [(u, spec if isinstance(spec, np.ndarray) else
                    _difference_kernel(*spec, steps, grid_n) if p is None else
                    _lattice_kernel(p, spec, steps, grid_n)) for u, p, spec in terms]
        if sizes.max() <= DENSE_EIG_LIMIT:
            a, b = _extremal_eigs_blocks(order, sizes, None, kernels, idx, grid_n)
            if not any(np.iscomplexobj(x) for p in kernels for x in p):
                note += " in real arithmetic"
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

    The pieces are the cells of a grid_n grid over the bounding box, cut at
    the faces of the domain and of every window's support, so each lies in
    or out of the domain (as its lower corner does) and every indicator is
    constant on it.  Returns corners lo, hi (m, d) and range ends inf, sup (q, m).
    """
    bb = omega.bounding_box()
    faces = list(omega.boxes) + [b for w in windows if (b := w.support_box())]
    edges = []
    for k, (a, z) in enumerate(zip(bb.lo, bb.hi)):
        cuts = np.r_[np.linspace(a, z, grid_n + 1), [b.lo[k] for b in faces],
                     [b.hi[k] for b in faces]]
        edges.append(np.unique(np.clip(cuts, a, z)))
    lo, hi = cartesian([e[:-1] for e in edges]), cartesian([e[1:] for e in edges])
    inside = omega.contains(lo)
    lo, hi = lo[inside], hi[inside]
    infs, sups = zip(*(w.expr.range_on(lo, hi) for w in windows))
    return lo, hi, np.array(infs), np.array(sups)


def ess_bounds(windows: Sequence[Window], omega: BoxUnionSet, grid_n: int) -> EssBoundsReport:
    """Enclosures of the essential bounds of the pointwise max of the bounded
    windows: on each piece of ``window_ranges`` the max lies between the
    largest lower and the largest upper range end.  Closed-form ranges are
    exact, so the enclosures shrink with the pieces; callable windows are
    sampled at the piece centres."""
    return _ess_report(windows, *window_ranges(windows, omega, grid_n)[2:], grid_n)


def _ess_report(windows: Sequence[Window], infs: np.ndarray, sups: np.ndarray,
                grid_n: int) -> EssBoundsReport:
    """``ess_bounds`` from a ``window_ranges`` table: J holds the rows whose
    upper range ends are finite on every piece (the test of ``bounded_on``)."""
    J = tuple(np.flatnonzero(np.isfinite(sups).all(axis=1)).tolist())
    if not J:
        return EssBoundsReport((0.0, 0.0), (0.0, 0.0), (), grid_n,
                               "every window is unbounded on the domain")
    low, high = infs[list(J)].max(axis=0), sups[list(J)].max(axis=0)
    ess_inf = (float(low.min()), float(high.min()))
    ess_sup = (float(low.max()), float(high.max()))
    notes = [f"{len(low)} pieces", f"ess inf width {ess_inf[1] - ess_inf[0]:.3g}",
             f"ess sup width {ess_sup[1] - ess_sup[0]:.3g}"]
    if any(windows[j].expr.sampled for j in J):
        notes.append("callable windows sampled at the piece centres")
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
                                 grid_n: int = 256,
                                 tol: float = 0.02) -> BracketCheckReport:
    """Verify the bound/density bracket on the windows.

    Per window with positive upper density: ess-sup |g_j| <= sqrt(B / D+_j),
    which an unbounded window fails.
    Over the bounded positive-density windows J': sqrt(A / D+(sum of combs))
    <= ess-inf max |g_j| and ess-sup max |g_j| <= max_j sqrt(B / D+_j).
    A violation is reported only when the enclosures prove it: the sup
    checks read the lower end of the ess sup enclosure, the inf check the
    upper end of the ess inf enclosure.
    """
    if len(densities) != len(system.pairs):
        raise InputError("need one density report per system pair")
    windows = [w for w, _ in system.pairs]
    # one table for every row: its pieces are cut at every pair's support
    # faces, so each enclosure is at least as tight as the window's own
    _, _, infs, sups = window_ranges(windows, system.omega, grid_n)
    bounded = np.isfinite(sups).all(axis=1)
    rows = []
    for j, (window, dens) in enumerate(zip(windows, densities)):
        if dens.upper <= 0:
            continue
        cap = math.sqrt(report.B_est / dens.upper)
        ess_sup = float(infs[j].max()) if bounded[j] else math.inf
        rows.append(WindowBracketRow(window.label, dens.upper, cap, ess_sup,
                                     ess_sup <= cap + tol, cap + tol - ess_sup))
    j_prime = [j for j in range(len(windows)) if densities[j].upper > 0 and bounded[j]]
    notes = []
    if report.A_est == report.B_est:
        notes.append("tight system (A = B); bracket applied anyway")
    if not j_prime:
        contradiction = ("system reports a positive lower frame bound but no bounded "
                         "window has positive upper density") if report.A_est > 1e-6 else None
        return BracketCheckReport(tuple(rows), 0.0, 0.0, 0.0, 0.0, False, False,
                                  contradiction, "; ".join(notes))
    combined = WeightedComb(tuple((1.0, _freq_as_support(system.pairs[j][1]))
                                  for j in j_prime))
    d_sum = density_closed_form(combined).upper
    lower_cap = math.sqrt(report.A_est / d_sum) if d_sum > 0 else 0.0
    ess_prime = _ess_report([windows[j] for j in j_prime], infs[j_prime], sups[j_prime], grid_n)
    ess_inf, ess_sup = ess_prime.ess_inf_of_max[1], ess_prime.ess_sup_of_max[0]
    upper_cap = max(math.sqrt(report.B_est / densities[j].upper) for j in j_prime)
    return BracketCheckReport(
        tuple(rows), lower_cap, ess_inf, ess_sup, upper_cap, lower_cap - tol <= ess_inf,
        ess_sup <= upper_cap + tol, None, "; ".join(notes))


def _freq_as_support(freq: FreqSpec) -> StructuredPointSet:
    if isinstance(freq, ContinuousFreqMeasure):
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
                            cells_per_unit: int = 128,
                            trunc_box: Optional[Box] = None) -> list[DecayRow]:
    """Lower frame bound of a fixed system across a growing domain family.

    The grid spacing and the frequency truncation stay fixed across the
    family, so the rows are comparable; for a fixed finite system the lower
    bound must decay as the domain grows.
    """
    rows = []
    for n_val in n_list:
        omega = domain_family(n_val)
        bb = omega.bounding_box()
        grid_n = max(8, int(round(cells_per_unit * max(bb.sides))))
        if trunc_box is None:
            trunc_box = nyquist_box(bb, grid_n)
        system = WindowedSystem(omega, tuple(zip(windows, freqs)))
        rep = estimate_frame_bounds(system, grid_n, trunc_box)
        rows.append(DecayRow(float(n_val), rep.A_est, rep.B_est))
    return rows
