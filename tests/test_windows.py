"""Window expression trees: parsing, evaluation, boundedness and range enclosures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameforge.errors import InputError
from frameforge.framebounds import ess_bounds, window_ranges
from frameforge.geometry import Box, BoxUnionSet, canonicalize, cartesian
from frameforge.windows import (
    EMPTY_SUPPORT,
    Indicator,
    Monomial,
    Product,
    ReflectedMonomial,
    Scalar,
    Window,
    parse_expr,
)

UNIT = BoxUnionSet.from_intervals([(0, 1)])


def test_parse_monomial():
    w = Window.from_string("x^1.0")
    pts = np.array([[0.25], [0.5]])
    assert np.allclose(w.eval(pts), [0.25, 0.5])


def test_parse_reflected():
    w = Window.from_string("(1-x)^0.5")
    assert np.allclose(w.eval(np.array([[0.75]])), [0.5])


def test_parse_indicator_with_box():
    w = Window.from_string("indicator(0,0.5)")
    vals = w.eval(np.array([[0.25], [0.5], [0.75]]))
    assert vals.real.tolist() == [1.0, 0.0, 0.0]


def test_parse_product_with_scalar():
    w = Window.from_string("2.0*x^1.0")
    assert np.allclose(w.eval(np.array([[0.5]])), [1.0])


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        parse_expr("sin(x)")


@pytest.mark.parametrize("value", [5, None, ["x^1.0"]], ids=["int", "none", "list"])
def test_parse_rejects_a_non_string(value):
    with pytest.raises(InputError, match="^a window expression must be a string, got "):
        parse_expr(value)


def test_roundtrip_to_string():
    for text in ["x^1.0", "(1-x)^0.5", "indicator(0.0,0.5)", "2.0*x^-0.25"]:
        w = Window.from_string(text)
        again = Window.from_string(w.to_string())
        pts = np.linspace(0.05, 0.95, 7).reshape(-1, 1)
        assert np.allclose(w.eval(pts), again.eval(pts))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def closed_form_exprs(draw):
    """A factor, or a product of two or three, as ``parse_expr`` builds them."""
    def factor():
        kind = draw(st.sampled_from([Scalar, Monomial, ReflectedMonomial, Indicator]))
        if kind is not Indicator:
            return kind(draw(FINITE))
        if draw(st.booleans()):
            return Indicator(None)
        d = draw(st.integers(1, 2))
        lo = draw(st.tuples(*[FINITE] * d))
        hi = draw(st.tuples(*[FINITE] * d).filter(lambda h: all(a < b for a, b in zip(lo, h))))
        return Indicator(Box(lo, hi))

    n = draw(st.integers(1, 3))
    return factor() if n == 1 else Product(tuple(factor() for _ in range(n)))


@given(closed_form_exprs())
@settings(max_examples=200, deadline=None)
def test_every_closed_form_round_trips(expr):
    # to_string writes repr(float), so 1e-05, -2e-05 and 1e+17 must parse
    assert parse_expr(Window("w", expr).to_string()) == expr


def test_exponent_notation_parses():
    assert parse_expr("1e-05") == Scalar(1e-05)
    assert parse_expr("x^-2e-05*(1-x)^1e-05*1e+17") == Product(
        (Monomial(-2e-05), ReflectedMonomial(1e-05), Scalar(1e17)))
    for text in ("1e", "1.e5", ".5", "1e+", "x^e5"):
        with pytest.raises(InputError, match="cannot parse window factor"):
            parse_expr(text)


@pytest.mark.parametrize("text, intervals, bounded", [
    ("x^1.0", [(0, 1)], True),
    ("indicator", [(0, 1)], True),
    ("(1-x)^-0.25", [(0, 1)], False),
    ("x^-0.25", [(0.5, 1)], True),
    ("(1-x)^-0.5", [(0, 0.5), (1.5, 2)], True),
    ("x^-0.25", [(-1, -0.5), (0.5, 1)], True),
    ("(1-x)^-0.5", [(2, 3)], True),
    ("x^-0.25", [(0, 1)], False),
    ("(1-x)^-0.25", [(0.5, 1)], False),
    ("x^-0.25", [(-1, 1)], False),
    ("x^-0.25*indicator(0.5,1)", [(0, 1)], True),
    ("x^-0.25*indicator(0,0.5)", [(0, 1)], False),
    ("x^-0.25*indicator(-1,1)", [(0.5, 2)], True),
])
def test_boundedness_reads_each_box_of_the_domain(text, intervals, bounded):
    # a singularity between two boxes, beyond the far face, or where the
    # window's indicator factor vanishes is harmless
    omega = BoxUnionSet.from_intervals(intervals)
    assert ess_bounds([Window.from_string(text)], omega, 64).J == ((0,) if bounded else ())


def test_vanishing_factor_zeroes_the_product():
    # 0 * inf would be nan: the indicator is 0 on the whole box
    expr = Product((Indicator(Box((2.0,), (3.0,))), Monomial(-0.5)))
    inf, sup = expr.range_on(np.array([[0.0]]), np.array([[1.0]]))
    assert (inf.tolist(), sup.tolist()) == ([0.0], [0.0])
    assert ess_bounds([Window("cut", expr)], UNIT, 64).J == (0,)


def test_l2_norm_quadrature():
    w = Window.from_string("x^1.0")
    assert w.l2_norm_sq_on(UNIT) == pytest.approx(1.0 / 3.0, abs=1e-5)
    chi = Window.indicator()
    assert chi.l2_norm_sq_on(UNIT) == pytest.approx(1.0, abs=1e-12)


def test_support_box_intersection():
    e = Product((Indicator(Box((0.0,), (2.0,))), Indicator(Box((1.0,), (3.0,)))))
    assert e.support_box() == Box((1.0,), (2.0,))
    # an empty intersection stays empty, whatever factor follows
    for text in ("indicator(0,1)*indicator(2,3)*indicator(0.5,0.7)",
                 "indicator(0,1)*indicator(2,3)"):
        assert Window.from_string(text).support_box() == EMPTY_SUPPORT


def test_empty_support_window_is_zero_and_bounded():
    # identically zero, even where a factor is singular: no piece counts
    zero = Window.from_string("x^-1.0*indicator(0,1)*indicator(2,3)")
    omega = BoxUnionSet.from_intervals([(0.0, 3.0)])
    rep = ess_bounds([zero, Window.from_string("1.0")], omega, 64)
    assert rep.J == (0, 1) and rep.ess_inf_of_max == (1.0, 1.0)
    assert ess_bounds([zero], omega, 64).ess_sup_of_max == (0.0, 0.0)


def test_callable_window_not_serializable():
    w = Window.from_callable(lambda p: np.exp(-p[:, 0] ** 2), "gauss")
    with pytest.raises(InputError):
        w.to_string()


# faces in sixteenths, where the pieces' grid lines also fall, or anywhere
FACES = st.one_of(st.integers(-8, 24).map(lambda k: k / 16),
                  st.floats(-0.5, 1.5, allow_nan=False))


def boxes(d):
    def build(axes):
        return Box(*zip(*[sorted(pair) for pair in axes]))
    return st.lists(st.tuples(FACES, FACES).filter(lambda p: abs(p[0] - p[1]) > 1e-6),
                    min_size=d, max_size=d).map(build)


def factors(d):
    exponent = st.floats(-1, 2, allow_nan=False)
    return st.one_of(st.floats(-2, 2, allow_nan=False).map(Scalar),
                     exponent.map(Monomial), exponent.map(ReflectedMonomial),
                     boxes(d).map(Indicator))


def exprs(d):
    return st.one_of(factors(d), st.lists(factors(d), min_size=2, max_size=3).map(
        lambda fs: Product(tuple(fs))))


def points_in(lo, hi, per_axis):
    """Interior points of the box plus points 1e-12 inside each face (closer
    on thinner boxes)."""
    axes = []
    for a, b in zip(lo, hi):
        near = min(1e-12, (b - a) / 4)
        axes.append(np.r_[a + near, a + (b - a) * (np.arange(per_axis) + 0.5) / per_axis,
                          b - near])
    pts = cartesian(axes)
    return pts[Box(tuple(lo), tuple(hi)).contains(pts)]


def regular(exprs, pts):
    """The points off every singular point: x^a and (1-x)^a with a < 0 read
    0 there, on a null set."""
    keep = np.ones(len(pts), dtype=bool)
    for e in exprs:
        for f in (e.factors if isinstance(e, Product) else (e,)):
            if isinstance(f, Monomial) and f.alpha < 0:
                keep &= pts[:, 0] != 0.0
            if isinstance(f, ReflectedMonomial) and f.alpha < 0:
                keep &= 1.0 - pts[:, 0] != 0.0
    return pts[keep]


def assert_within(vals, inf, sup):
    assert np.all(vals >= inf * (1 - 1e-12))
    assert np.all(vals <= sup * (1 + 1e-12))


class TestEnclosureOracle:
    @given(st.sampled_from([1, 2]).flatmap(
        lambda d: st.tuples(exprs(d), st.lists(boxes(d), min_size=1, max_size=4))))
    @settings(max_examples=200, deadline=None)
    def test_range_on_contains_every_sample(self, drawn):
        expr, cells = drawn
        lo = np.array([b.lo for b in cells])
        hi = np.array([b.hi for b in cells])
        inf, sup = expr.range_on(lo, hi)
        assert np.all(inf <= sup)
        for i, box in enumerate(cells):
            pts = regular([expr], points_in(box.lo, box.hi, 64 if box.dim == 1 else 8))
            assert len(pts) >= 64
            assert_within(np.abs(expr.eval(pts)), inf[i], sup[i])

    @given(st.sampled_from([1, 2]).flatmap(
        lambda d: st.tuples(st.lists(exprs(d), min_size=1, max_size=3),
                            st.lists(boxes(d), min_size=1, max_size=3),
                            st.sampled_from([4, 8, 16]))))
    @settings(max_examples=100, deadline=None)
    def test_ess_bounds_contain_the_sampled_extremes(self, drawn):
        found, cells, grid_n = drawn
        omega = canonicalize(cells)
        windows = [Window(f"g{j}", e) for j, e in enumerate(found)]
        rep = ess_bounds(windows, omega, grid_n)
        bounded = [windows[j] for j in rep.J]
        if not bounded:
            return
        # a dense grid over the domain, and points in every piece, so the
        # piece that attains an enclosure end is sampled too
        lo, hi, _, _ = window_ranges(bounded, omega, grid_n)
        bb = omega.bounding_box()
        dense = points_in(bb.lo, bb.hi, 256 if omega.dim == 1 else 32)
        pts = regular(found, np.vstack([dense[omega.contains(dense)]]
                                       + [points_in(a, b, 1) for a, b in zip(lo, hi)]))
        assert np.all(omega.contains(pts))
        vals = np.max([np.abs(w.eval(pts)) for w in bounded], axis=0)
        assert rep.ess_inf_of_max[0] <= vals.min() * (1 + 1e-12)
        assert vals.min() <= rep.ess_inf_of_max[1] * (1 + 1e-12)
        assert rep.ess_sup_of_max[0] <= vals.max() * (1 + 1e-12)
        assert vals.max() <= rep.ess_sup_of_max[1] * (1 + 1e-12)
