"""Window expressions: folding into the one closed form, evaluation,
boundedness and exact ranges."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frameforge.cli import main
from frameforge.errors import InputError
from frameforge.framebounds import ess_bounds, window_ranges
from frameforge.geometry import Box, BoxUnionSet, canonicalize, cartesian
from frameforge.windows import EMPTY_SUPPORT, CallableExpr, ClosedForm, Window, parse_expr

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
def closed_forms(draw):
    """Any normal form with a one-dimensional box, the whole domain or none."""
    box = draw(st.sampled_from(["box", None, EMPTY_SUPPORT]))
    if box == "box":
        lo = draw(FINITE)
        box = Box((lo,), (draw(FINITE.filter(lambda hi: lo < hi)),))
    return ClosedForm(draw(FINITE), draw(FINITE), draw(FINITE), box)


@given(closed_forms())
@settings(max_examples=200, deadline=None)
def test_every_closed_form_round_trips(form):
    # to_string writes repr(float), so 1e-05, -2e-05 and 1e+17 must parse
    assert parse_expr(Window("w", form).to_string()) == form


@pytest.mark.parametrize("text, form", [
    ("x^1.0*2.0", ClosedForm(2.0, 1.0)),
    ("2.0*x^1.0", ClosedForm(2.0, 1.0)),
    ("x^1.0*x^2.0", ClosedForm(a=3.0)),
    ("(1-x)^0.5*3.0*(1-x)^0.5*0.5", ClosedForm(1.5, b=1.0)),
    ("indicator(0,2)*x^-1.0*indicator(1,3)", ClosedForm(a=-1.0, box=Box((1.0,), (2.0,)))),
    ("indicator(0,0,2,2)*indicator(1,-1,3,1)", ClosedForm(box=Box((1.0, 0.0), (2.0, 1.0)))),
    ("indicator*1.0", ClosedForm()),
    ("0.0*x^-1.0", ClosedForm(0.0, -1.0)),
    ("indicator(0,1)*indicator(2,3)*indicator(0.5,0.7)", ClosedForm(box=EMPTY_SUPPORT)),
], ids=["scalar_last", "scalar_first", "exponents_add", "reflected_and_scalars",
        "boxes_meet", "boxes_meet_2d", "trivial", "zero", "boxes_miss"])
def test_factors_fold_into_one_form(text, form):
    assert parse_expr(text) == form


@pytest.mark.parametrize("text, canonical", [
    ("indicator(0,1)*x^2.0*3.0", "3.0*x^2.0*indicator(0.0,1.0)"),
    ("(1-x)^0.5*x^1.0", "x^1.0*(1-x)^0.5"),
    ("1.0*indicator", "1.0"),
    ("x^1.0*x^-1.0", "1.0"),
    ("-1.0*x^0.0", "-1.0"),
    ("x^1.0*indicator(0,1)*indicator(2,3)", "x^1.0*indicator(0.0,1.0)*indicator(1.0,2.0)"),
])
def test_to_string_writes_the_canonical_text(text, canonical):
    assert parse_expr(text).to_string() == canonical


def test_cancelled_exponents_read_one_at_the_singular_point():
    # x^1.0 * x^-1.0 folds to x^0.0 = 1, also at 0 where x^-1.0 alone reads 0
    w = Window.from_string("x^1.0*x^-1.0")
    assert w.eval(np.array([[0.0], [0.5]])).tolist() == [1.0, 1.0]
    assert Window.from_string("x^-1.0").eval(np.array([[0.0]])).tolist() == [0.0]


@pytest.mark.parametrize("text", ["1e200*1e200", "x^1e308*x^1e308", "(1-x)^-1e308*(1-x)^-1e308"])
def test_a_folded_number_must_be_finite(text, capsys):
    with pytest.raises(InputError, match=r"^every number must be finite, got -?inf$"):
        parse_expr(text)
    assert main(["gabor", "--window", text, "--M", "64"]) == 2
    assert "every number must be finite" in capsys.readouterr().err


def test_indicator_boxes_share_one_dimension():
    with pytest.raises(InputError, match=r"^indicator boxes of dimensions 1 and 2 in one "):
        parse_expr("indicator(0,1)*indicator(0,0,1,1)")
    with pytest.raises(InputError, match=r"^indicator boxes of dimensions 2 and 1 in one "):
        parse_expr("indicator(0,0,1,1)*indicator(2,2,3,3)*indicator(0,1)")


def test_exponent_notation_parses():
    assert parse_expr("1e-05") == ClosedForm(1e-05)
    assert parse_expr("x^-2e-05*(1-x)^1e-05*1e+17") == ClosedForm(1e17, -2e-05, 1e-05)
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
    ("0.0*x^-0.25", [(0, 1)], True),
])
def test_boundedness_reads_each_box_of_the_domain(text, intervals, bounded):
    # a singularity between two boxes, beyond the far face, or where the
    # window's indicator factor vanishes is harmless
    omega = BoxUnionSet.from_intervals(intervals)
    assert ess_bounds([Window.from_string(text)], omega, 64).J == ((0,) if bounded else ())


def test_vanishing_factor_zeroes_the_product():
    # 0 * inf would be nan: the indicator is 0 on the whole box
    expr = ClosedForm(a=-0.5, box=Box((2.0,), (3.0,)))
    inf, sup = expr.range_on(np.array([[0.0]]), np.array([[1.0]]))
    assert (inf.tolist(), sup.tolist()) == ([0.0], [0.0])
    assert ess_bounds([Window("cut", expr)], UNIT, 64).J == (0,)


def test_ess_sup_of_a_product_is_exact():
    # x^2 (1-x) peaks at its critical point 2/3 with 4/27; the piece
    # [0.5, 0.75) holds it, and its inf 0.125 is the largest piece inf
    rep = ess_bounds([Window.from_string("x^2.0*(1-x)^1.0")], UNIT, 4)
    assert rep.ess_sup_of_max == (0.125, pytest.approx(4 / 27, rel=1e-15, abs=0))


def test_support_box_intersection():
    e = parse_expr("indicator(0,2)*indicator(1,3)")
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


def indicator_text(box):
    return f"indicator({','.join(map(repr, box.lo + box.hi))})"


# scalars of moderate size, so no order of multiplying underflows
SCALARS = st.floats(0.5, 2.0).flatmap(lambda v: st.sampled_from([v, -v]))
EXPONENTS = st.floats(-1.0, 2.0, allow_nan=False)


def factor_texts(d):
    """One factor: a scalar, x^a, (1-x)^b, the whole-domain indicator or a box's."""
    return st.one_of(SCALARS.map(repr), EXPONENTS.map(lambda a: f"x^{a!r}"),
                     EXPONENTS.map(lambda b: f"(1-x)^{b!r}"), st.just("indicator"),
                     boxes(d).map(indicator_text))


def exprs(d):
    """A normal form with a box of dimension d or the whole domain; the
    exponents span the sums of two factors'."""
    exponent = st.floats(-2.0, 4.0, allow_nan=False)
    return st.builds(ClosedForm, SCALARS, exponent, exponent, st.none() | boxes(d))


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


def regular(forms, pts):
    """The points off every singular point: x^a and (1-x)^b with a, b < 0
    read 0 there, on a null set."""
    keep = np.ones(len(pts), dtype=bool)
    for form in forms:
        if form.a < 0:
            keep &= pts[:, 0] != 0.0
        if form.b < 0:
            keep &= 1.0 - pts[:, 0] != 0.0
    return pts[keep]


@given(st.sampled_from([1, 2]).flatmap(
    lambda d: st.tuples(st.lists(factor_texts(d), min_size=1, max_size=3),
                        st.lists(boxes(d), min_size=1, max_size=2))))
@settings(max_examples=200, deadline=None)
def test_folding_keeps_the_product_of_the_factors(drawn):
    # the oracle multiplies the factors' own values one by one, off the
    # points where some factor is singular
    texts, cells = drawn
    pts = regular([parse_expr(t) for t in texts],
                  np.vstack([points_in(b.lo, b.hi, 16 if b.dim == 1 else 4) for b in cells]))
    folded = Window.from_string("*".join(texts)).eval(pts)
    product = np.prod([Window.from_string(t).eval(pts) for t in texts], axis=0)
    assert np.all(np.abs(folded - product) <= 1e-12 * np.abs(product))


def pieces_away(d):
    """A piece with sixteenths for faces, at least 1/8 away from 0 and 1 along x."""
    def faces(lo, hi):
        return st.lists(st.integers(lo, hi), min_size=2, max_size=2, unique=True).map(
            lambda ks: (min(ks) / 16, max(ks) / 16))
    along_x = st.sampled_from([(2, 14), (2, 14), (-8, -2), (18, 24)]).flatmap(
        lambda r: faces(*r))
    return st.tuples(along_x, *[faces(-8, 24)] * (d - 1)).map(lambda axes: Box(*zip(*axes)))


def dense_points(piece, box):
    """4096 points along x and 4 along another axis in the piece, plus points
    just inside each face of its parts cut at the window's box faces."""
    axes = []
    for k, (a, b) in enumerate(zip(piece.lo, piece.hi)):
        n = 4096 if k == 0 else 4
        cuts = np.unique(np.clip([a, b] + ([box.lo[k], box.hi[k]] if box else []), a, b))
        near = np.minimum(1e-12, np.diff(cuts) / 4)
        axes.append(np.r_[a + (b - a) * (np.arange(n) + 0.5) / n,
                          cuts[:-1] + near, cuts[1:] - near])
    pts = cartesian(axes)
    return pts[piece.contains(pts)]


def assert_within(vals, inf, sup):
    assert np.all(vals >= inf * (1 - 1e-12))
    assert np.all(vals <= sup * (1 + 1e-12))


class TestEnclosureOracle:
    @given(st.sampled_from([1, 2]).flatmap(
        lambda d: st.tuples(exprs(d), st.lists(boxes(d), min_size=1, max_size=4))))
    @settings(max_examples=200, deadline=None)
    # a / (a + b) underflows to 0, where 0^a = 0 would hide the sup 1
    @example(drawn=(ClosedForm(1.0, 5e-324, 2.0, None), [Box((0.0,), (0.0625,))]))
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
        # a dense grid over the domain, and points in every piece of
        # ess_bounds (cut at every window's support, bounded or not), so the
        # piece that attains an enclosure end is sampled too
        lo, hi, _, _ = window_ranges(windows, omega, grid_n)
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

    @given(st.sampled_from([1, 2]).flatmap(
        lambda d: st.tuples(exprs(d), st.lists(pieces_away(d), min_size=1, max_size=3))))
    @settings(max_examples=200, deadline=None)
    def test_range_on_ends_are_attained(self, drawn):
        # away from 0 and 1 the modulus is smooth, so the exact ends are the
        # extremes of a dense sample, to its spacing squared at a critical point
        form, cells = drawn
        inf, sup = form.range_on(np.array([b.lo for b in cells]),
                                 np.array([b.hi for b in cells]))
        for i, piece in enumerate(cells):
            vals = np.abs(form.eval(dense_points(piece, form.box)))
            assert np.isclose(vals.min(), inf[i], rtol=1e-5, atol=0)
            assert np.isclose(vals.max(), sup[i], rtol=1e-5, atol=0)


def centres(n, lo=0.0, hi=1.0):
    """The n cell centres of [lo, hi) as points."""
    return (lo + (hi - lo) * (np.arange(n) + 0.5) / n).reshape(-1, 1)


class TestRealArithmetic:
    """A window's values are real unless some value is not."""

    @pytest.mark.parametrize("a", [-0.9, -0.25, 0.1, 1.37, 2.9])
    def test_real_powers_are_within_one_ulp(self, a):
        # cell centres and 1 - x are exact in binary, and the two grids'
        # centres mirror onto themselves, so one reference serves x^a and
        # (1-x)^a; complex pow is off by up to 15 ulp at these exponents
        x = np.vstack([centres(256), centres(1024)])
        with localcontext() as ctx:
            ctx.prec = 50
            ref = {v: float(Decimal(v) ** Decimal(a)) for v in x[:, 0].tolist()}
        for form, base in ((ClosedForm(a=a), x[:, 0]), (ClosedForm(b=a), 1.0 - x[:, 0])):
            vals = form.eval(x)
            want = np.array([ref[v] for v in base.tolist()])
            assert vals.dtype == np.float64
            assert np.all(np.abs(vals - want) <= np.spacing(want))

    @pytest.mark.parametrize("a", [-0.9, 0.5, 2.9])
    def test_negative_base_with_a_fractional_exponent_stays_complex(self, a):
        # x < 0 and 1 - x < 0 both occur; the principal branch of complex pow
        x = centres(192, -1.0, 2.0)
        for form in (ClosedForm(a=a), ClosedForm(b=a), ClosedForm(-1.5, a)):
            base = x[:, 0] if form.a else 1.0 - x[:, 0]
            vals = form.eval(x)
            assert vals.dtype == np.complex128
            assert np.array_equal(vals, form.c * base.astype(complex) ** a)
            assert np.all(vals[base < 0].imag != 0)

    @pytest.mark.parametrize("form", [
        ClosedForm(), ClosedForm(-2.0), ClosedForm(a=-0.25), ClosedForm(0.5, 1.5, -0.75),
        ClosedForm(2.0, 2.0, 3.0, Box((-0.5,), (0.5,))), ClosedForm(a=-1.0, box=EMPTY_SUPPORT),
    ], ids=["one", "scalar", "singular", "product", "boxed", "empty"])
    def test_closed_forms_on_real_bases_are_real(self, form):
        x = np.vstack([[[0.0], [1.0]], centres(32)])  # singular points included
        vals = form.eval(x)
        assert vals.dtype == np.float64
        assert np.all(np.isfinite(vals))

    def test_integer_exponents_of_negative_bases_are_real(self):
        x = centres(32, -2.0, 0.0)
        assert ClosedForm(3.0, 2.0, -3.0).eval(x).dtype == np.float64
        assert np.array_equal(ClosedForm(a=2.0).eval(x)[:, None], x ** 2)

    @pytest.mark.parametrize("fn, dtype", [
        (lambda p: np.exp(-p[:, 0] ** 2), np.float64),
        (lambda p: p[:, 0].astype(np.float32), np.float64),
        (lambda p: (p[:, 0] > 0.5).astype(int), np.float64),
        (lambda p: np.exp(2j * np.pi * p[:, 0]), np.complex128),
        (lambda p: np.ones(len(p), dtype=np.complex64), np.complex128),
    ], ids=["real", "float32", "int", "complex", "complex64"])
    def test_callables_keep_their_kind(self, fn, dtype):
        x = centres(16)
        vals = Window.from_callable(fn, "f").eval(x)
        assert vals.dtype == dtype
        assert np.array_equal(vals, fn(x))
        with pytest.raises(InputError, match="'f' has no closed form"):
            CallableExpr(fn, "f").range_on(x, x)
