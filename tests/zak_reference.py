"""Reference Zak-domain constructions for the Gabor tests: the q shifted
windows as whole grids, the quasiperiodicity residuals and the separable
product certificate.  ``certify_gabor`` never builds these; the tests hold
it to them."""

from typing import Sequence

import numpy as np

from frameforge.errors import InputError
from frameforge.windows import Window
from frameforge.zak import (
    GaborVerdict,
    ZakGrid,
    _check_shift,
    _verdict,
    _window_support,
    _zak_values,
    certify_gabor,
)


def quasiperiodicity_residuals(window: Window, M: int) -> tuple[float, float]:
    """Max deviations from Zg(x, t+1) = Zg(x, t) and
    Zg(x+1, t) = e^{2 pi i t} Zg(x, t), via independent re-summation."""
    support = _window_support(window, M)
    xs = ts = np.arange(M) / M
    base = _zak_values(window, xs, ts, support)
    t_shift = _zak_values(window, xs, ts + 1.0, support)
    x_shift = _zak_values(window, xs + 1.0, ts, support)
    r_t = float(np.max(np.abs(t_shift - base)))
    r_x = float(np.max(np.abs(x_shift - np.exp(2j * np.pi * ts)[None, :] * base)))
    return r_t, r_x


def gabor_windows(zak: ZakGrid, p: int, q: int) -> list[ZakGrid]:
    """Zak-domain windows for shift p/q: exact rolls with quasiperiodic phases.

    Row i of shifted window j is row i - s of the transform, s = p j M / q;
    a row that wraps around the square w times picks up the unimodular phase
    e^{-2 pi i w t}.
    """
    _check_shift(zak.M, p, q)
    if q == 1:
        return [zak]
    M = zak.M
    i = np.arange(M)
    ts = np.arange(M) / M
    out = []
    for s in (p * j * M // q for j in range(q)):
        ii = (i - s) % M
        wraps = (s - i + ii) // M
        values = zak.values[ii, :]
        for w in np.unique(wraps):
            rows = wraps == w
            values[rows] *= np.exp(-2j * np.pi * (w * ts))
        out.append(ZakGrid(values, M, zak.source_support, zak.source_norm_sq))
    return out


def certify_gabor_separable(axis_windows: Sequence[Window], p: int, q: int,
                            M: int) -> GaborVerdict:
    """Product-window certification: per-axis verdicts combine by products.

    For g(x) = prod_a g_a(x_a) the Zak transform factors, max over the
    multi-index of |Zg_j| is the product of per-axis maxima, and likewise for
    the square sums.
    """
    if not axis_windows:
        raise InputError("need at least one axis window")
    parts = [certify_gabor(w, p, q, M) for w in axis_windows]
    a53, b53, zz_min, zz_max = (float(np.prod([getattr(v, name) for v in parts]))
                                for name in ("A_53", "B_53", "zz_min", "zz_max"))
    eps_zero = 1e-9 * float(np.prod([v.eps_zero / 1e-9 for v in parts]))
    residual = max(v.unitarity_residual for v in parts)
    return GaborVerdict(p, q, M, a53, b53, _verdict(a53, eps_zero, p), zz_min, zz_max,
                        eps_zero, residual)
