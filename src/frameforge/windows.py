"""Window functions as small closed-form expression trees.

Supported forms: scalars, monomials x^a, reflected monomials (1-x)^a,
box indicators, and products of these.  Each node encloses its modulus over
boxes exactly: |x|^a and |1-x|^a are monotone on either side of their zero,
and an indicator is 0, 1 or both on a box.  Windows built from an arbitrary
callable are supported for probing, have sampled ranges and are not
serializable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError
from .geometry import Box, BoxUnionSet, as_vec
from .gridfn import cell_volumes, grid_points


def _power_range(lo: np.ndarray, hi: np.ndarray,
                 alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Range of |t|^alpha over each [lo, hi): monotone in |t|, with 0^alpha
    infinite for alpha < 0."""
    near = np.where((lo <= 0) & (hi >= 0), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
    far = np.maximum(np.abs(lo), np.abs(hi))
    with np.errstate(divide="ignore", over="ignore"):
        ends = near ** alpha, far ** alpha
    return ends if alpha >= 0 else ends[::-1]


EMPTY_SUPPORT = ()  # support_box() of a product whose factors' boxes do not meet


class Expr:
    sampled = False  # True when ``range_on`` samples rather than encloses

    def eval(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def range_on(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(inf, sup) of |expr| over each half-open box [lo[i], hi[i])."""
        raise NotImplementedError

    def to_string(self) -> str:
        raise NotImplementedError

    def support_box(self) -> Optional[Box]:
        """Box outside which the expression is zero, if known (or EMPTY_SUPPORT)."""
        return None


@dataclass(frozen=True)
class Scalar(Expr):
    value: float

    def eval(self, pts):
        return np.full(len(pts), self.value, dtype=complex)

    def range_on(self, lo, hi):
        v = np.full(len(lo), abs(self.value))
        return v, v

    def to_string(self):
        return repr(self.value)


@dataclass(frozen=True)
class Monomial(Expr):
    """x^alpha in the first coordinate; singular at 0 when alpha < 0."""

    alpha: float

    def eval(self, pts):
        x = pts[:, 0].astype(complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = x ** self.alpha
        out[~np.isfinite(out)] = 0.0
        return out

    def range_on(self, lo, hi):
        return _power_range(lo[:, 0], hi[:, 0], self.alpha)

    def to_string(self):
        return f"x^{self.alpha}"


@dataclass(frozen=True)
class ReflectedMonomial(Expr):
    """(1-x)^alpha in the first coordinate; singular at 1 when alpha < 0."""

    alpha: float

    def eval(self, pts):
        x = (1.0 - pts[:, 0]).astype(complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = x ** self.alpha
        out[~np.isfinite(out)] = 0.0
        return out

    def range_on(self, lo, hi):
        return _power_range(1.0 - hi[:, 0], 1.0 - lo[:, 0], self.alpha)

    def to_string(self):
        return f"(1-x)^{self.alpha}"


@dataclass(frozen=True)
class Indicator(Expr):
    """Indicator of a half-open box; ``box=None`` means the whole domain."""

    box: Optional[Box] = None

    def eval(self, pts):
        if self.box is None:
            return np.ones(len(pts), dtype=complex)
        return self.box.contains(pts).astype(complex)

    def range_on(self, lo, hi):
        if self.box is None:
            return np.ones(len(lo)), np.ones(len(lo))
        inside = np.all((lo >= self.box.lo) & (hi <= self.box.hi), axis=1)
        meets = np.all((hi > self.box.lo) & (lo < self.box.hi), axis=1)
        return inside.astype(float), meets.astype(float)

    def to_string(self):
        if self.box is None:
            return "indicator"
        parts = [str(v) for v in self.box.lo] + [str(v) for v in self.box.hi]
        return "indicator(" + ",".join(parts) + ")"

    def support_box(self):
        return self.box


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple[Expr, ...]

    def eval(self, pts):
        out = np.ones(len(pts), dtype=complex)
        for f in self.factors:
            out = out * f.eval(pts)
        return out

    @property
    def sampled(self):
        return any(f.sampled for f in self.factors)

    def range_on(self, lo, hi):
        infs, sups = zip(*(f.range_on(lo, hi) for f in self.factors))
        # a factor that vanishes on the whole box zeroes the product, inf or not
        zero = np.any(np.equal(sups, 0.0), axis=0)
        with np.errstate(invalid="ignore", over="ignore"):
            return (np.where(zero, 0.0, np.prod(infs, axis=0)),
                    np.where(zero, 0.0, np.prod(sups, axis=0)))

    def to_string(self):
        return "*".join(f.to_string() for f in self.factors)

    def support_box(self):
        box = None
        for b in (f.support_box() for f in self.factors):
            if b is not None:
                box = b if box is None else (box and b and box.intersect(b)) or EMPTY_SUPPORT
        return box


@dataclass(frozen=True)
class CallableExpr(Expr):
    """Escape hatch for windows without a closed form (not serializable)."""

    fn: Callable[[np.ndarray], np.ndarray]
    label: str
    sampled = True

    def eval(self, pts):
        return np.asarray(self.fn(pts), dtype=complex)

    def range_on(self, lo, hi):  # |fn| at the box centres
        v = np.abs(self.eval((lo + hi) / 2.0))
        return v, v

    def to_string(self):
        raise InputError(f"window '{self.label}' has no closed-form serialization")


_NUMBER = r"(-?\d+(?:\.\d+)?(?:e[+-]?\d+)?)"  # every finite repr(float), e.g. 1e-05
_MONOMIAL_RE = re.compile(rf"^x\^{_NUMBER}$")
_REFLECTED_RE = re.compile(rf"^\(1-x\)\^{_NUMBER}$")
_INDICATOR_RE = re.compile(rf"^indicator(?:\(({_NUMBER}(?:,{_NUMBER})*)\))?$")
_SCALAR_RE = re.compile(rf"^{_NUMBER}$")


def parse_expr(text: str) -> Expr:
    """Parse a window expression such as ``x^1.0``, ``indicator(0,0.5)`` or
    ``2.0*(1-x)^0.5``."""
    if not isinstance(text, str):
        raise InputError(f"a window expression must be a string, got {text!r}")
    factors = []
    for part in text.replace(" ", "").split("*"):
        if not part:
            raise InputError(f"empty factor in window expression {text!r}")
        m = _MONOMIAL_RE.match(part)
        if m:
            factors.append(Monomial(*as_vec(m.group(1))))
            continue
        m = _REFLECTED_RE.match(part)
        if m:
            factors.append(ReflectedMonomial(*as_vec(m.group(1))))
            continue
        m = _INDICATOR_RE.match(part)
        if m:
            if m.group(1) is None:
                factors.append(Indicator(None))
            else:
                vals = as_vec(m.group(1).split(","))
                if len(vals) % 2 != 0:
                    raise InputError(f"indicator needs lo and hi corners: {part!r}")
                d = len(vals) // 2
                factors.append(Indicator(Box(vals[:d], vals[d:])))
            continue
        if _SCALAR_RE.match(part):
            factors.append(Scalar(*as_vec(part)))
            continue
        raise InputError(f"cannot parse window factor {part!r}")
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


@dataclass(frozen=True)
class Window:
    """A labelled window function on a domain."""

    label: str
    expr: Expr

    @staticmethod
    def from_string(text: str, label: Optional[str] = None) -> "Window":
        return Window(label if label is not None else text, parse_expr(text))

    @staticmethod
    def from_callable(fn: Callable[[np.ndarray], np.ndarray], label: str) -> "Window":
        return Window(label, CallableExpr(fn, label))

    @staticmethod
    def indicator(box: Optional[Box] = None, label: str = "indicator") -> "Window":
        return Window(label, Indicator(box))

    def eval(self, pts: np.ndarray) -> np.ndarray:
        return self.expr.eval(np.atleast_2d(np.asarray(pts, dtype=float)))

    def support_box(self) -> Optional[Box]:
        return self.expr.support_box()

    def to_string(self) -> str:
        return self.expr.to_string()

    def l2_norm_sq_on(self, omega: BoxUnionSet, grid_n: int = 1024) -> float:
        """Quadrature of |g|^2 over the domain (midpoint rule, exact weights)."""
        bb = omega.bounding_box()
        vals = np.abs(self.eval(grid_points(bb, grid_n))) ** 2
        w = cell_volumes(bb, grid_n, omega).ravel()
        return float(np.sum(vals * w))

