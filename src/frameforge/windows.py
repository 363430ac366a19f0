"""Window functions in one closed form, c * x^a * (1-x)^b * 1_B.

A window expression is a product of scalars, monomials x^a, reflected
monomials (1-x)^b and box indicators; parsing folds it into the one form:
scalars multiply, exponents add and indicator boxes intersect.  Its modulus
is monotone between 0, 1 and its one critical point a / (a + b), so its range
over a box is read at a few points and is exact.  Every window is such a
closed form, so every window has an exact range, a support box and a text
that parses back to it.

A window's values are real unless a negative base meets a fractional
exponent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Optional, Union

import numpy as np

from .errors import InputError
from .geometry import Box, as_vec

EMPTY_SUPPORT = ()  # the box of a window whose indicator boxes do not meet


def _power(base: np.ndarray, exponent: float) -> np.ndarray:
    """base^exponent, 0 where it is singular or overflows: real, and complex
    (the principal branch) only when a negative base meets a fractional
    exponent."""
    if exponent % 1 and (base < 0).any():
        base = base.astype(complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = base ** exponent
    out[~np.isfinite(out)] = 0.0
    return out


@dataclass(frozen=True)
class ClosedForm:
    """c * x^a * (1-x)^b * 1_B in the first coordinate x.  ``box`` None is
    the whole domain and EMPTY_SUPPORT none of it; x^a and (1-x)^b read 0
    at their singular points."""

    c: float = 1.0
    a: float = 0.0
    b: float = 0.0
    box: Union[Box, None, tuple] = None

    def eval(self, pts):
        if self.box == EMPTY_SUPPORT:
            return np.zeros(len(pts))
        # c, x^a, (1-x)^b, 1_B in turn, so s*x^a*(1-x)^b reads as its factors did
        factors = [np.full(len(pts), self.c, dtype=float)] if self.c != 1 else []
        if self.a:
            factors.append(_power(pts[:, 0], self.a))
        if self.b:
            factors.append(_power(1.0 - pts[:, 0], self.b))
        if self.box is not None:
            factors.append(self.box.contains(pts).astype(float))
        return reduce(mul, factors) if factors else np.ones(len(pts))

    def _modulus(self, to_0, to_1):
        """|c| |x|^a |1-x|^b from |x| and |1-x|, infinite at a singular point."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return abs(self.c) * np.power(to_0, self.a) * np.power(to_1, self.b)

    def range_on(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(inf, sup) of |g| over each half-open box [lo[i], hi[i]), exact."""
        zero = np.zeros(len(lo))
        if self.c == 0 or self.box == EMPTY_SUPPORT:
            return zero, zero
        left, right = lo[:, 0], hi[:, 0]
        if self.box is not None:
            left, right = np.maximum(left, self.box.lo[0]), np.minimum(right, self.box.hi[0])
        ends = np.stack([left, right])
        vals = self._modulus(np.abs(ends), np.abs(1.0 - ends))
        inf, sup = vals.min(axis=0), vals.max(axis=0)
        # |g| is monotone between 0, 1 and t = a / (a + b), so it is also read
        # at those inside [left, right]; at t from |t| and |1 - t| = |b / (a + b)|,
        # exact where t rounds to 0 or 1, and from logs where either underflows
        turns = [(0.0, self._modulus(0.0, 1.0))] * (self.a != 0)
        turns += [(1.0, self._modulus(1.0, 0.0))] * (self.b != 0)
        if self.a and self.b and (s := self.a + self.b):
            to_0, to_1 = abs(self.a / s), abs(self.b / s)
            logs = np.log(np.abs([self.a, self.b])) - np.log(abs(s))  # log |t|, log |1 - t|
            turns.append((self.a / s, self._modulus(to_0, to_1) if to_0 and to_1
                          else abs(self.c) * np.exp(np.dot([self.a, self.b], logs))))
        for t, v in turns:
            at = (left <= t) & (t <= right)
            inf, sup = np.where(at, np.minimum(inf, v), inf), np.where(at, np.maximum(sup, v), sup)
        if self.box is None:
            return inf, sup
        inside = np.all((lo >= self.box.lo) & (hi <= self.box.hi), axis=1)
        meets = np.all((hi > self.box.lo) & (lo < self.box.hi), axis=1)
        return np.where(inside, inf, 0.0), np.where(meets, sup, 0.0)

    def to_string(self):
        parts = [repr(self.c)] if self.c != 1 else []
        if self.a:
            parts.append(f"x^{self.a!r}")
        if self.b:
            parts.append(f"(1-x)^{self.b!r}")
        if self.box == EMPTY_SUPPORT:  # two boxes that do not meet
            parts.append("indicator(0.0,1.0)*indicator(1.0,2.0)")
        elif self.box is not None:
            parts.append(f"indicator({','.join(map(repr, self.box.lo + self.box.hi))})")
        return "*".join(parts) or "1.0"

    def support_box(self) -> Union[Box, None, tuple]:
        """Box outside which the window is zero (None: the whole domain)."""
        return self.box


_NUMBER = r"(-?\d+(?:\.\d+)?(?:e[+-]?\d+)?)"  # every finite repr(float), e.g. 1e-05
_MONOMIAL_RE = re.compile(rf"^x\^{_NUMBER}$")
_REFLECTED_RE = re.compile(rf"^\(1-x\)\^{_NUMBER}$")
_INDICATOR_RE = re.compile(rf"^indicator(?:\(({_NUMBER}(?:,{_NUMBER})*)\))?$")
_SCALAR_RE = re.compile(rf"^{_NUMBER}$")


def parse_expr(text: str) -> ClosedForm:
    """Fold a window expression such as ``x^1.0``, ``indicator(0,0.5)`` or
    ``2.0*(1-x)^0.5`` into its closed form."""
    if not isinstance(text, str):
        raise InputError(f"a window expression must be a string, got {text!r}")
    c, a, b, box, dim = 1.0, 0.0, 0.0, None, None
    for part in text.replace(" ", "").split("*"):
        if not part:
            raise InputError(f"empty factor in window expression {text!r}")
        if m := _MONOMIAL_RE.match(part):
            a += as_vec(m.group(1))[0]
        elif m := _REFLECTED_RE.match(part):
            b += as_vec(m.group(1))[0]
        elif m := _INDICATOR_RE.match(part):
            if m.group(1) is None:
                continue
            vals = as_vec(m.group(1).split(","))
            if len(vals) % 2 != 0:
                raise InputError(f"indicator needs lo and hi corners: {part!r}")
            d = len(vals) // 2
            if dim not in (None, d):
                raise InputError(f"indicator boxes of dimensions {dim} and {d} "
                                 f"in one window expression {text!r}")
            factor, dim = Box(vals[:d], vals[d:]), d
            box = factor if box is None else (box and box.intersect(factor)) or EMPTY_SUPPORT
        elif _SCALAR_RE.match(part):
            c *= as_vec(part)[0]
        else:
            raise InputError(f"cannot parse window factor {part!r}")
    return ClosedForm(*as_vec((c, a, b)), box)


@dataclass(frozen=True)
class Window:
    """A labelled window function on a domain."""

    label: str
    expr: ClosedForm

    @staticmethod
    def from_string(text: str, label: Optional[str] = None) -> "Window":
        return Window(label if label is not None else text, parse_expr(text))

    @staticmethod
    def indicator(box: Optional[Box] = None, label: str = "indicator") -> "Window":
        return Window(label, ClosedForm(box=box))

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """g at each point: float64 unless some value is not real, then complex128."""
        return self.expr.eval(np.atleast_2d(np.asarray(pts, dtype=float)))

    def support_box(self) -> Union[Box, None, tuple]:
        return self.expr.support_box()

    def to_string(self) -> str:
        return self.expr.to_string()
