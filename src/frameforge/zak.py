"""Zak transform engine and rational-shift Gabor frame certification.

The transform of a compactly supported window is an exact finite sum on an
M x M grid over the unit square (nodes at i/M), so quasiperiodicity holds to
roundoff and piecewise-constant windows with grid-commensurate breakpoints
certify exactly.  The certificate at shift p/q needs only |Zg|, which it
reduces over the cosets of M/q, so M must be divisible by q; where no node
meets two integer translates of the support, |Zg| does not depend on t and
is one column of M values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError
from .geometry import Box
from .windows import EMPTY_SUPPORT, Window

MIN_GRID = 16

FRAME_CERTIFIED = "frame_certified"
NOT_FRAME = "not_frame"
NECESSARY_ONLY = "necessary_only"


@dataclass(frozen=True)
class ZakGrid:
    """Zak transform samples on [0,1) x [0,1): values[i, l] = Zg(i/M, l/M)."""

    values: np.ndarray
    M: int
    source_support: Box
    source_norm_sq: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.shape != (self.M, self.M):
            raise InputError(f"Zak grid must be {self.M} x {self.M}, got {v.shape}")

    def quadrature_norm_sq(self) -> float:
        return _quadrature_norm_sq(np.abs(self.values))

    def unitarity_residual(self) -> float:
        return _unitarity_residual(self.quadrature_norm_sq(), self.source_norm_sq)


def _quadrature_norm_sq(mod: np.ndarray) -> float:
    """Grid quadrature of the integral of |Zg|^2 over the unit square from
    |Zg| on (M, T) nodes; a single column (T = 1) stands for M equal ones."""
    M, T = mod.shape
    return float(np.sum(mod ** 2)) * (M // T) / M ** 2


def _unitarity_residual(quadrature: float, norm_sq: float) -> float:
    if norm_sq == 0:
        raise InputError("source window has zero norm")
    return abs(quadrature - norm_sq) / norm_sq


def _window_support(window: Window, M: int) -> Box:
    """The window's one-dimensional compact support, for an M x M grid."""
    if M < MIN_GRID:
        raise InputError(f"M must be at least {MIN_GRID}")
    support = window.support_box()
    if support is None:
        raise InputError(
            f"window '{window.label}' has no declared compact support; the "
            "Zak transform here only covers compactly supported windows")
    if support == EMPTY_SUPPORT:
        raise InputError(f"window '{window.label}' has empty support: the boxes "
                         "of its factors have no common point")
    if support.dim != 1:
        raise InputError("the Zak engine is one-dimensional; combine axes "
                         "separably for product windows")
    return support


def _translates(window: Window, xs: np.ndarray, support: Box) -> tuple[np.ndarray, np.ndarray]:
    """Every k for which some g(x - k), x in xs, can be nonzero, and g(xs - k)
    as rows: each reduction over the k then runs along the long axis."""
    ks = np.arange(math.floor(xs.min() - support.hi[0]),
                   math.ceil(xs.max() - support.lo[0]) + 1)
    return ks, np.stack([window.eval((xs - k).reshape(-1, 1)) for k in ks])


def _zak_values(window: Window, xs: np.ndarray, ts: np.ndarray, support: Box,
                translates: Optional[tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """Zg on xs x ts: the translates g(xs - k) (or ``translates``) times e^{2 pi i k t}."""
    ks, terms = translates or _translates(window, xs, support)
    return terms.T @ np.exp(2j * np.pi * np.outer(ks, ts))


def _zak_modulus(window: Window, M: int, support: Box) -> np.ndarray:
    """|Zg| at the grid nodes, as an (M, T) array.

    When no node x meets two translates, |Zg(x, t)| = |g(x - k)| for the one
    k that it meets (or 0) at every t, and T = 1; otherwise T = M.
    """
    xs = np.arange(M) / M
    ks, terms = _translates(window, xs, support)
    if np.count_nonzero(terms, axis=0).max() <= 1:
        return np.abs(terms).max(axis=0)[:, None]
    return np.abs(_zak_values(window, xs, xs, support, (ks, terms)))


def zak_transform(window: Window, M: int) -> ZakGrid:
    """Exact finite-sum Zak transform of a compactly supported window."""
    support = _window_support(window, M)
    xs = np.arange(M) / M
    values = _zak_values(window, xs, xs, support)
    return ZakGrid(values, M, support, _norm_sq_on_support(window, support))


def _norm_sq_on_support(window: Window, support: Box) -> float:
    n = 4096
    step = (support.hi[0] - support.lo[0]) / n
    xs = support.lo[0] + step * (np.arange(n) + 0.5)
    vals = np.abs(window.eval(xs.reshape(-1, 1))) ** 2
    return float(vals.sum() * step)


def _check_shift(M: int, p: int, q: int) -> None:
    """Refuse a shift p/q that is not a reduced fraction in (0, 1], or whose
    row offsets p j M / q miss the grid nodes."""
    if math.gcd(p, q) != 1:
        raise InputError(f"p={p} and q={q} must be coprime")
    if not (1 <= p < q or p == q == 1):
        raise InputError(f"need 1 <= p < q, or p = q = 1, got p={p}, q={q}")
    if M % q != 0:
        raise InputError(f"M={M} must be divisible by q={q} so shifts land "
                         "on grid nodes")


@dataclass(frozen=True)
class GaborVerdict:
    p: int
    q: int
    M: int
    A_53: float
    B_53: float
    verdict: str
    zz_min: float
    zz_max: float
    eps_zero: float
    unitarity_residual: float

    def __post_init__(self):
        if self.A_53 > self.B_53 + 1e-12:
            raise InputError("lower Zak bound exceeds the upper one")
        if self.verdict == FRAME_CERTIFIED and self.p != 1:
            raise InputError("certification is only valid for shift 1/q")


def _verdict(a53: float, eps_zero: float, p: int) -> str:
    """Refuted at every shift when max_j |Zg_j| vanishes, else certified only at p = 1."""
    return NOT_FRAME if a53 <= eps_zero else FRAME_CERTIFIED if p == 1 else NECESSARY_ONLY


def certify_gabor(window: Window, p: int, q: int, M: int) -> GaborVerdict:
    """Certify or refute the lattice Gabor system at shift p/q (modulation 1).

    The grid extremes of max_j |Zg_j| over the shifted Zak windows decide the
    verdict: a vanishing minimum refutes the frame property for every
    rational shift; a positive minimum certifies it only at p = 1, where the
    condition is also sufficient.  The min/max of sum_j |Zg_j|^2 are reported
    alongside as the l2-form comparison.

    The shifts' phases are unimodular, so |Zg_j| is |Zg| with its rows rolled
    by p j M / q.  With gcd(p, q) = 1 these offsets run over the multiples of
    M/q, so at row i the max and the square sum over j reduce the coset of i
    mod M/q, whatever p is.
    """
    support = _window_support(window, M)
    _check_shift(M, p, q)
    norm_sq = _norm_sq_on_support(window, support)
    mod = _zak_modulus(window, M, support)
    cosets = mod.reshape(q, M // q, mod.shape[1])
    max_mod = cosets.max(axis=0)
    zz = (cosets ** 2).sum(axis=0)
    a53 = float(max_mod.min())
    b53 = float(max_mod.max())
    eps_zero = 1e-9 * math.sqrt(norm_sq)
    return GaborVerdict(p, q, M, a53, b53, _verdict(a53, eps_zero, p), float(zz.min()),
                        float(zz.max()), eps_zero,
                        _unitarity_residual(_quadrature_norm_sq(mod), norm_sq))
