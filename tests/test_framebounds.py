"""Frame-bound estimation, essential window bounds, and the bound/density
bracket checks."""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frameforge import framebounds
from frameforge.errors import InputError
from frameforge.framebounds import (
    ContinuousFreqMeasure,
    CosineFreqMeasure,
    FrameBoundsReport,
    WindowedSystem,
    ess_bounds,
    estimate_frame_bounds,
    lower_bound_decay_probe,
    nyquist_box,
    window_density_bracket_check,
    window_ranges,
)
from frameforge.geometry import Box, BoxUnionSet, Lattice, canonicalize
from frameforge.gridfn import GridFunction, cell_volumes, grid_points
from frameforge.pointsets import (
    DensityReport,
    FiniteSet,
    LatticeCosets,
    WeightedComb,
    density_closed_form,
    integers,
)
from frameforge.windows import ClosedForm, Window
from strategies import sampled_window

UNIT = BoxUnionSet.from_intervals([(0, 1)])
UNIT_CLOSED = BoxUnionSet.from_intervals([(0, 1)])


def dense_gram_oracle(omega, pairs, grid_n):
    """Independent assembly of the analysis matrix and its spectral range.

    ``pairs`` holds (window, frequencies of shape (m, d)), optionally with
    per-frequency weights (m,) as a third entry, 1 by default; the cell
    weights come from one ``intersection_volume`` call per cell.
    """
    bb = omega.bounding_box()
    steps = [(b - a) / grid_n for a, b in zip(bb.lo, bb.hi)]
    centers, weights = [], []
    for idx in np.ndindex(*(grid_n,) * bb.dim):
        lo = tuple(a + i * s for a, i, s in zip(bb.lo, idx, steps))
        hi = tuple(a + (i + 1) * s for a, i, s in zip(bb.lo, idx, steps))
        centers.append([a + (i + 0.5) * s for a, i, s in zip(bb.lo, idx, steps)])
        weights.append(omega.intersection_volume(Box(lo, hi)))
    xs, w = np.array(centers), np.array(weights)
    keep = w > 0
    xs, w = xs[keep], w[keep]
    rows = []
    for window, lam, *lam_weights in pairs:
        g = window.eval(xs)
        scale = np.sqrt(lam_weights[0] if lam_weights else np.ones(len(lam)))
        rows.append(scale[:, None] * np.exp(-2j * np.pi * (lam @ xs.T))
                    * (np.conj(g) * np.sqrt(w)))
    m = np.vstack(rows)
    evs = np.linalg.eigvalsh(m.conj().T @ m)
    return max(evs[0], 0.0), evs[-1]


def oracle_frequencies(freq, box):
    """The oracle's frequencies and weights: a point set's points in
    ``box``, weighing 1, or a measure's atoms and density cell centres,
    weighing their weights and masses."""
    if not isinstance(freq, ContinuousFreqMeasure):
        lam = freq.points_in_box(box)
        return lam, np.ones(len(lam))
    lam = [np.array([p for p, _ in freq.atoms]).reshape(-1, box.dim)]
    weights = [np.array([w for _, w in freq.atoms])]
    if freq.density is not None:
        lam.append(freq.density.points())
        weights.append((freq.density.samples * freq.density.cell_weights).ravel())
    return np.vstack(lam), np.concatenate(weights)


def draw_domain(draw, d):
    """One to three boxes on a quarter grid, so the union may have gaps."""
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        lo = [draw(st.integers(0, 6)) / 4.0 for _ in range(d)]
        boxes.append(Box(tuple(lo), tuple(a + draw(st.integers(1, 3)) / 4.0 for a in lo)))
    return canonicalize(boxes)


def draw_window(draw, j, real=False):
    """c0 + c1 x_0 + i c2 x_last^2, or with a real last term when ``real``."""
    c = [draw(st.floats(0.2, 1.5)) for _ in range(3)]
    unit = 1.0 if real else 1j
    return sampled_window(
        lambda p, c=c: c[0] + c[1] * p[:, 0] + unit * c[2] * p[:, -1] ** 2, f"w{j}")


@st.composite
def fiberizable_systems(draw):
    """Diagonal lattices (cosets of them too) whose spacings divide into the
    grid, on domains with gaps, truncated to whole periods.

    Coset offsets are multiples of an eighth of the spacing and the
    truncation faces sit half a sixteenth of the finest spacing off them, so
    no frequency lies near a face.  Returns the system, the grid, the
    truncation box and each pair's periods in cells.
    """
    d = draw(st.sampled_from([1, 2]))
    grid_n = draw(st.sampled_from([6, 8, 12, 16] if d == 1 else [4, 6, 8]))
    omega = draw_domain(draw, d)
    steps = np.array(omega.bounding_box().sides) / grid_n
    base = np.array([draw(st.sampled_from([1, 2, 3, 4, 6])) for _ in range(d)])
    pairs, periods = [], []
    for j in range(draw(st.integers(1, 2))):
        periods.append(base * draw(st.sampled_from([1, 2])))
        pairs.append((draw_window(draw, j), whole_period_lattice(draw, periods[-1], steps)))
    unit = np.min([np.diag(f.lattice.matrix) for _, f in pairs], axis=0) / 16.0
    width = draw(st.integers(1, 2)) / steps
    lo = [(2 * draw(st.integers(-40, 40)) + 1) * u for u in unit]
    trunc = Box(tuple(lo), tuple(a + w for a, w in zip(lo, width)))
    return WindowedSystem(omega, tuple(pairs)), grid_n, trunc, periods


def whole_period_lattice(draw, periods, steps):
    """Cosets of the diagonal lattice with the given periods in cells, at
    offsets that are multiples of an eighth of the spacing."""
    d = len(periods)
    spacing = 1.0 / (periods * steps)
    lattice = Lattice(tuple(tuple(spacing[a] if a == b else 0.0 for b in range(d))
                            for a in range(d)))
    offsets = []
    for e in draw(st.lists(st.integers(0, 7), min_size=1, max_size=2, unique=True)):
        eighths = [e] + [draw(st.integers(0, 7)) for _ in range(d - 1)]
        offsets.append(tuple(spacing * eighths / 8.0))
    return LatticeCosets(lattice, tuple(offsets))


@st.composite
def dense_systems(draw, with_lattice=False, even=False):
    """Frequency specs without a closed-form kernel, up to two pairs on
    domains with gaps: finite sets, spacings 0.79 (1 + k/16) (the grid steps
    are quarters over small integers, so no period is a whole number of
    cells), skew 2-D lattices, and measures with a density and atoms, the
    density's cells on or off a whole fraction of the alias band.

    With ``even`` every window is real and every frequency measure equals
    its reflection xi -> -xi: the truncation box is symmetric about 0, a
    finite set holds -p with each p, the skew lattice's entries are
    0.79 (1 + k/16) too (so no point meets a face of the box), and the
    density sits on a box with lo = -hi with its samples and atoms
    mirrored, so the operator is real.

    The truncation box holds the origin, a point of every lattice drawn, so
    no pair is silent.  With ``with_lattice`` the first pair is a diagonal
    lattice (cosets of one) with a period of 1 to 4 cells, one pair of the
    kinds above sits beside it, and the truncation box spans one or two
    Nyquist bands, so the lattice fills whole periods.  Returns the system, the grid, the
    truncation box and the oracle's (window, frequencies, weights) per pair.
    """
    d = draw(st.sampled_from([1, 2]))
    grid_n = draw(st.sampled_from([6, 8, 12, 16] if d == 1 else [4, 6, 8]))
    omega = draw_domain(draw, d)
    band = grid_n / np.array(omega.bounding_box().sides)
    if with_lattice:
        lo = [-draw(st.integers(1, 15)) / 16.0 * w for w in band]
        trunc = Box(tuple(lo), tuple(a + draw(st.integers(1, 2)) * w for a, w in zip(lo, band)))
    elif even:
        half = [draw(st.integers(1, 8)) / 16.0 * w for w in band]
        trunc = Box(tuple(-h for h in half), tuple(half))
    else:
        trunc = Box(tuple(-draw(st.integers(1, 8)) / 16.0 * w for w in band),
                    tuple(draw(st.integers(1, 8)) / 16.0 * w for w in band))
    hair = trunc.translate([-1e-9 * s for s in trunc.sides])
    pairs, oracle = [], []
    if with_lattice:
        window = draw_window(draw, "L")
        periods = np.array([draw(st.integers(1, 4)) for _ in range(d)])
        freq = whole_period_lattice(draw, periods, 1.0 / band)
        pairs.append((window, freq))
        oracle.append((window, *oracle_frequencies(freq, hair)))
    for j in range(1 if with_lattice else draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["finite", "spacing", "measure"]
                                    + (["skew"] if d == 2 else [])))
        window = draw_window(draw, j, real=even)
        if kind == "measure":
            lo = [draw(st.floats(-3.0, 1.0)) for _ in range(d)]
            cells = draw(st.integers(2, 5))
            # cells of 1/M of the alias band, M >= cells, make the density's
            # kernel a DFT of its masses; other cells take the plain sum
            cycle = draw(st.sampled_from([None, cells, cells + 3]))
            sides = ([draw(st.floats(0.5, 3.0)) for _ in range(d)] if cycle is None
                     else cells * band / cycle)
            if even:
                lo = [-0.5 * s for s in sides]
            box = Box(tuple(lo), tuple(a + s for a, s in zip(lo, sides)))
            c = [draw(st.floats(0.1, 2.0)) for _ in range(2)]
            density = GridFunction.from_callable(
                lambda xi, c=c: c[0] + c[1] * xi[:, 0] ** 2, box, cells)
            atoms = tuple((tuple(draw(st.floats(-3.0, 3.0)) for _ in range(d)),
                           draw(st.floats(0.5, 2.0)))
                          for _ in range(draw(st.integers(0, 2))))
            if even:
                # a sum is commutative, so the samples mirror bit for bit
                density = GridFunction(box, density.samples + np.flip(density.samples))
                atoms += tuple((tuple(-v for v in p), w) for p, w in atoms)
            freq = ContinuousFreqMeasure(density=density, atoms=atoms)
        else:
            if kind == "finite" and even:
                cells = draw(st.sets(st.tuples(*[st.integers(-15, 15)] * d),
                                     min_size=1, max_size=3))
                cells |= {tuple(-k for k in cell) for cell in cells}
                freq = FiniteSet(tuple(tuple(k / 16.0 * h for k, h in zip(cell, trunc.hi))
                                       for cell in sorted(cells)), d)
            elif kind == "finite":
                cells = draw(st.lists(st.tuples(*[st.integers(1, 15)] * d),
                                      min_size=1, max_size=5, unique=True))
                freq = FiniteSet(tuple(
                    tuple(a + (b - a) * k / 16.0 for a, b, k in zip(trunc.lo, trunc.hi, cell))
                    for cell in cells), d)
            elif kind == "spacing":
                freq = integers(d, 0.79 * (1.0 + draw(st.integers(0, 16)) / 16.0))
            else:
                sides = [0.79 * (1.0 + draw(st.integers(0, 16)) / 16.0) if even
                         else draw(st.floats(0.5, 1.5)) for _ in range(3)]
                freq = LatticeCosets(Lattice(((sides[0], sides[1]), (0.0, sides[2]))))
        pairs.append((window, freq))
        oracle.append((window, *oracle_frequencies(freq, hair)))
    return WindowedSystem(omega, tuple(pairs)), grid_n, trunc, oracle


class TestEstimateFrameBounds:
    def test_orthonormal_saturation(self):
        system = WindowedSystem(UNIT, ((Window.indicator(), integers()),))
        rep = estimate_frame_bounds(system, 256)
        assert abs(rep.A_est - 1.0) <= 1e-9
        assert abs(rep.B_est - 1.0) <= 1e-9

    def test_half_integer_tight_frame_constant_two(self):
        # half-integer exponentials on [0,1): tight with constant = density 2
        system = WindowedSystem(UNIT, ((Window.indicator(), integers(scale=0.5)),))
        rep = estimate_frame_bounds(system, 512)
        assert rep.A_est == pytest.approx(2.0, rel=0.02)
        assert rep.B_est == pytest.approx(2.0, rel=0.02)
        # independent dense-Gram oracle at a matched setup
        lam = np.arange(-128, 128).reshape(-1, 1) * 0.5
        a, b = dense_gram_oracle(UNIT, [(Window.indicator(), lam)], 128)
        assert a == pytest.approx(2.0, rel=1e-9)
        assert b == pytest.approx(2.0, rel=1e-9)

    def test_single_functional_rank_one(self):
        system = WindowedSystem(UNIT, ((Window.indicator(), FiniteSet(((0.0,),))),))
        rep = estimate_frame_bounds(system, 64)
        assert rep.A_est <= 1e-9
        assert rep.B_est == pytest.approx(1.0, abs=1e-9)
        assert rep.tight_ratio == np.inf

    def test_matches_dense_gram_oracle_for_random_window(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0.3, 1.4, size=8)

        def step_window(pts):
            idx = np.clip((pts[:, 0] * 8).astype(int), 0, 7)
            return vals[idx]

        window = sampled_window(step_window, "steps")
        system = WindowedSystem(UNIT, ((window, integers()),))
        rep = estimate_frame_bounds(system, 128)
        lam = np.arange(-64, 64, dtype=float).reshape(-1, 1)
        a, b = dense_gram_oracle(UNIT, [(window, lam)], 128)
        assert rep.A_est == pytest.approx(a, rel=1e-9, abs=1e-12)
        assert rep.B_est == pytest.approx(b, rel=1e-9)

    def test_scaling_squares_the_bounds(self):
        base = WindowedSystem(UNIT, ((Window.indicator(), integers()),))
        scaled = WindowedSystem(
            UNIT, ((Window.from_string("3.0*indicator"), integers()),))
        r1 = estimate_frame_bounds(base, 128)
        r2 = estimate_frame_bounds(scaled, 128)
        assert r2.A_est == pytest.approx(9.0 * r1.A_est, rel=1e-10)
        assert r2.B_est == pytest.approx(9.0 * r1.B_est, rel=1e-10)

    def test_union_bound_subadditive(self):
        s1 = WindowedSystem(UNIT, ((Window.from_string("x^1.0"), integers()),))
        s2 = WindowedSystem(UNIT, ((Window.from_string("(1-x)^1.0"), integers()),))
        both = WindowedSystem(UNIT, s1.pairs + s2.pairs)
        b1 = estimate_frame_bounds(s1, 128).B_est
        b2 = estimate_frame_bounds(s2, 128).B_est
        b12 = estimate_frame_bounds(both, 128).B_est
        assert b12 <= b1 + b2 + 1e-9

    def test_restriction_monotonicity_on_shared_grid(self):
        trunc = Box((-64.0,), (64.0,))
        omega = BoxUnionSet.from_intervals([(0, 1)])
        omega_sub = BoxUnionSet.from_intervals([(0, 0.5)])
        big = estimate_frame_bounds(
            WindowedSystem(omega, ((Window.indicator(), integers()),)), 256, trunc)
        small = estimate_frame_bounds(
            WindowedSystem(omega_sub, ((Window.indicator(), integers()),)), 128, trunc)
        assert small.B_est <= big.B_est + 1e-9
        assert small.A_est >= big.A_est - 1e-9

    def test_empty_truncation_warns_and_contributes_nothing(self):
        system = WindowedSystem(
            UNIT, ((Window.indicator(), integers()),
                   (Window.from_string("x^1.0"), FiniteSet(((99.0,),)))))
        rep = estimate_frame_bounds(system, 128, Box((-8.0,), (8.0,)))
        assert "contributes nothing" in rep.notes

    def test_continuous_measure_matched_lebesgue_is_parseval(self):
        n = 128
        freq_box = nyquist_box(UNIT.bounding_box(), n)
        dens = GridFunction.indicator(freq_box, n)
        system = WindowedSystem(
            UNIT, ((Window.indicator(), ContinuousFreqMeasure(density=dens)),))
        rep = estimate_frame_bounds(system, n)
        assert rep.A_est == pytest.approx(1.0, abs=1e-9)
        assert rep.B_est == pytest.approx(1.0, abs=1e-9)

    def test_continuous_measure_atoms_match_finite_set(self):
        atoms = ContinuousFreqMeasure(atoms=(((0.0,), 1.0),))
        r_atom = estimate_frame_bounds(
            WindowedSystem(UNIT, ((Window.indicator(), atoms),)), 64)
        r_fin = estimate_frame_bounds(
            WindowedSystem(UNIT, ((Window.indicator(), FiniteSet(((0.0,),))),)), 64)
        assert r_atom.B_est == pytest.approx(r_fin.B_est, rel=1e-12)

    def test_iterative_path_agrees_with_dense(self, monkeypatch):
        l_shape = canonicalize([Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 0.5))])
        # a bowl-shaped density, so the measures keep a general kernel (a
        # constant one on whole cycles would take the closed form)
        bowl = GridFunction.from_callable(lambda xi: 1.0 + (xi[:, 0] / 64.0) ** 2,
                                          Box((-64.0,), (64.0,)), 100)
        measure = ContinuousFreqMeasure(density=bowl, atoms=(((3.3,), 1.5), ((-20.7,), 0.5)))
        even = ContinuousFreqMeasure(
            density=GridFunction(bowl.bounding_box, bowl.samples + np.flip(bowl.samples)),
            atoms=(((3.3,), 1.5), ((-3.3,), 1.5)))
        # each case is truncated to its Nyquist band, which keeps the lattices
        # off the untruncated path; spacing 0.79 does not divide into the
        # grid, so the operator is one block; cosets of 32Z have a period of
        # 4 cells on the 128-cell grid,
        # and the gap of cells 96 to 100 leaves blocks of 31, 31, 31 and 30
        # cells, so only the largest block exceeds the limit; Z 0.79 and the
        # even measure have real kernels, which the iterative path takes too
        gapped = BoxUnionSet.from_intervals([(0.0, 0.75), (101 / 128, 1.0)])
        cosets = LatticeCosets(Lattice.scaled_integers(32.0),
                               tuple((1.37 * k,) for k in range(40)))
        cases = [(UNIT, Window.indicator(), integers(scale=0.79), 128,
                  "dense eigensolve of order 128 in real arithmetic"),
                 (UNIT, Window.from_string("x^1.0"), measure, 128,
                  "dense eigensolve of order 128"),
                 (UNIT, Window.from_string("x^1.0"), even, 128,
                  "dense eigensolve of order 128 in real arithmetic"),
                 (l_shape, Window.from_string("(1-x)^1.0"), integers(dim=2, scale=0.79),
                  16, "dense eigensolve of order 192 in real arithmetic"),
                 (gapped, Window.from_string("x^1.0"), cosets, 128,
                  "dense eigensolve of 4 blocks of order at most 31")]
        for omega, window, freq, grid_n, note in cases:
            system = WindowedSystem(omega, ((window, freq),))
            band = nyquist_box(omega.bounding_box(), grid_n)
            dense = estimate_frame_bounds(system, grid_n, band)
            assert dense.notes == note
            with monkeypatch.context() as patch:
                patch.setattr(framebounds, "DENSE_EIG_LIMIT", 30)
                iterative = estimate_frame_bounds(system, grid_n, band)
            assert "iterative" in iterative.notes
            assert iterative.A_est == pytest.approx(dense.A_est, rel=1e-6)
            assert iterative.B_est == pytest.approx(dense.B_est, rel=1e-6)

    @pytest.mark.parametrize("m", [196, 206, 214])
    def test_band_edge_frequency_is_not_aliased(self, m):
        # spacing 128/m puts m frequencies in the band [-64, 64); (m/2) * 128/m
        # rounds to 63.99999999999999, which aliases onto -64 on a 128 grid
        system = WindowedSystem(UNIT, ((Window.from_string("0.5"),
                                        integers(scale=128 / m)),))
        rep = estimate_frame_bounds(system, 128, Box((-64.0,), (64.0,)))
        assert rep.A_est == pytest.approx(0.25 * m / 128, rel=1e-9)
        assert rep.B_est == pytest.approx(0.25 * m / 128, rel=1e-9)

    def test_2d_square_orthonormal(self):
        square = canonicalize([Box((0.0, 0.0), (1.0, 1.0))])
        system = WindowedSystem(square, ((Window.indicator(), integers(dim=2)),))
        rep = estimate_frame_bounds(system, 16)
        assert rep.A_est == pytest.approx(1.0, abs=1e-9)
        assert rep.B_est == pytest.approx(1.0, abs=1e-9)


def assert_one_block_matches_oracle(case, arithmetic=""):
    """Predict the route from the parts, then check the bounds against the
    dense Gram.  Every part but a non-constant density is a triple (points,
    weights, period): a whole-period lattice its cosets, a constant density
    on whole alias cycles its closed form (which the notes name), and the
    other point sets and the atoms their R points with period 1.  With no
    density kernel, r columns over the residues mod the periods' gcd bound
    each block's rank, and a block of more cells takes the r x r Gram, real
    only when every point is 0 (``arithmetic`` then names the windows' real
    arithmetic); else the period-1 points become R columns beside the other
    parts' blocks where that costs less than the one block.  Otherwise the
    blocks are gathered from the kernels, in ``arithmetic``."""
    system, grid_n, trunc, oracle = case
    rep = estimate_frame_bounds(system, grid_n, trunc)
    bb = system.omega.bounding_box()
    idx = np.argwhere(cell_volumes(bb, grid_n, system.omega) > 0)
    steps = np.array(bb.sides) / grid_n
    hair = trunc.translate([-1e-9 * s for s in trunc.sides])
    ones = np.ones(bb.dim, dtype=int)
    general, constant, parts = False, [], []
    for (window, freq), (_, lam, weights) in zip(system.pairs, oracle):
        if isinstance(freq, ContinuousFreqMeasure):
            parts.append((np.array([w for _, w in freq.atoms]), ones))
            form = framebounds._density_part(freq.density, steps, grid_n)
            if isinstance(form, tuple):
                constant.append(f"pair '{window.label}': constant density in closed form")
                parts.append(form[1:])
            else:
                general = True
        else:
            form = framebounds._lattice_cosets(freq, steps, hair)
            parts.append((weights, ones) if form is None else form[1:])
    parts = [(w, p) for w, p in parts if len(w)]
    *named, note = rep.notes.split("; ")
    assert [n[:n.index(" with period")] for n in named] == constant
    period = np.gcd.reduce([p for _, p in parts] + [ones] * general)
    sizes = fiber_sizes(idx, period)
    r = sum(len(w) * int(np.prod(p // period)) for w, p in parts)
    columns = sum(len(w) for w, p in parts if np.all(p == 1))
    blocks = [p for _, p in parts if np.any(p > 1)]
    update = fiber_sizes(idx, np.gcd.reduce(blocks) if blocks else np.full(bb.dim, grid_n))
    if not general and r < max(sizes):
        zero = not any(lam.any() for _, lam, _ in oracle)
        assert note == block_note(sizes, r) + (arithmetic if zero else "")
    elif (not general and columns and max(update) <= framebounds.DENSE_EIG_LIMIT
          and np.sum(update ** 3.0) + 120.0 * len(idx) * columns ** 2 < float(len(idx)) ** 3):
        assert note.startswith(f"rank-{columns} update of {len(update)} blocks ")
    else:
        assert note == block_note(sizes) + arithmetic
    a, b = dense_gram_oracle(system.omega, oracle, grid_n)
    assert abs(rep.A_est - a) <= 1e-9 * b
    assert abs(rep.B_est - b) <= 1e-9 * b


def fiber_sizes(idx, period):
    """The number of active cells of each index residue mod ``period``."""
    _, sizes = np.unique(idx % period, axis=0, return_counts=True)
    return sizes


def block_note(sizes, rank=None):
    if len(sizes) == 1:
        note = f"dense eigensolve of order {sizes[0]}"
    else:
        note = f"dense eigensolve of {len(sizes)} blocks of order at most {max(sizes)}"
    if rank is not None and max(sizes) > rank:
        note += f" and rank at most {rank}"
    return note


class TestDenseKernelPath:
    @settings(max_examples=60, deadline=None)
    @given(dense_systems())
    def test_matches_dense_assembly(self, case):
        assert_one_block_matches_oracle(case)

    @settings(max_examples=60, deadline=None)
    @given(dense_systems(with_lattice=True))
    def test_whole_period_lattice_beside_other_pairs(self, case):
        # the other pair has period 1, so the lattice's coset triple enters
        # the one block of every active cell: its Gram, the rank update or
        # the kernels' block, as the harness predicts
        system, grid_n, trunc, _ = case
        steps = np.array(system.omega.bounding_box().sides) / grid_n
        hair = trunc.translate([-1e-9 * s for s in trunc.sides])
        assert framebounds._lattice_cosets(system.pairs[0][1], steps, hair) is not None
        assert_one_block_matches_oracle(case)


class TestRealPath:
    """A real window against a frequency measure equal to its reflection has
    a real kernel, and the one block solve then runs in real arithmetic; the
    complex dense Gram is its oracle."""

    @settings(max_examples=60, deadline=None)
    @given(dense_systems(even=True))
    def test_even_systems_solve_in_real_arithmetic(self, case):
        assert_one_block_matches_oracle(case, " in real arithmetic")

    def test_constant_density_on_singular_blocks(self):
        # two equal cells on [-12, 12) fill one alias cycle of the 6-cell grid
        # on [0, 1/4): the closed form with period 2 cells, so the operator is
        # 2 blocks of 3 cells, each of rank at most 2 (the offsets c and -c)
        omega = BoxUnionSet.from_intervals([(0.0, 0.25)])
        window = sampled_window(lambda p: 1.0 + p[:, 0] + p[:, -1] ** 2, "w0")
        density = GridFunction(Box((-12.0,), (12.0,)), np.array([74.0, 74.0]))
        freq = ContinuousFreqMeasure(density=density)
        trunc = Box((-1.5,), (1.5,))
        hair = trunc.translate([-1e-9 * s for s in trunc.sides])
        case = (WindowedSystem(omega, ((window, freq),)), 6, trunc,
                [(window, *oracle_frequencies(freq, hair))])
        assert_one_block_matches_oracle(case, " in real arithmetic")
        rep = estimate_frame_bounds(*case[:3])
        assert rep.notes.endswith("dense eigensolve of 2 blocks of order at most 3 "
                                  "and rank at most 2")
        assert rep.A_est == 0.0
        assert rep.B_est == pytest.approx(306.5124598373602, rel=1e-12)

    RAMP = Window.from_string("(1-x)^1.0")
    TILTED = sampled_window(lambda p: 1.0 + 0.5j * p[:, 0], "tilted")
    ONE_SIDED = FiniteSet(((1.0,), (2.5,)))

    # each case has a complex factor somewhere: a one-sided set and atoms at
    # +-p with unequal weights, two points on 16 cells, so their 2 x 2 Gram
    # of complex columns; a constant density on [0, 4), whose masses
    # mirror on a box that does not; 1/2 + 2Z,
    # a coset at a quarter of its spacing whose closed-form kernel has the
    # phase i at a lag of one period (beside the 21 points of Z 0.79 in the
    # band, which outnumber the cells and as columns would cost more than
    # the one block); the band-edge set, whose top frequency 63.99999999999999
    # lies within the hair below the upper face and is dropped while its
    # negative stays (at 96 cells its period is no whole number of cells, so
    # its kernel is summed); a complex window; and real pairs beside complex
    # ones
    @pytest.mark.parametrize("pairs, grid_n, trunc, note", [
        (((RAMP, ONE_SIDED),), 16, None, "dense eigensolve of order 16 and rank at most 2"),
        (((RAMP, ContinuousFreqMeasure(atoms=(((1.5,), 1.0), ((-1.5,), 2.0)))),), 16, None,
         "dense eigensolve of order 16 and rank at most 2"),
        (((RAMP, ContinuousFreqMeasure(
            density=GridFunction.indicator(Box((0.0,), (4.0,)), 8))),), 16, None,
         "dense eigensolve of order 16"),
        (((RAMP, LatticeCosets(Lattice.scaled_integers(2.0), ((0.5,),))),
          (Window.indicator(), integers(scale=0.79))), 16, None, "dense eigensolve of order 16"),
        (((Window.from_string("0.5"), integers(scale=128 / 214)),), 96, Box((-64.0,), (64.0,)),
         "dense eigensolve of order 96"),
        (((TILTED, integers(scale=0.79)),), 16, Box((-8.0,), (8.0,)),
         "dense eigensolve of order 16"),
        (((Window.indicator(), integers(scale=0.79)), (RAMP, ONE_SIDED)), 16, None,
         "dense eigensolve of order 16"),
        (((TILTED, FiniteSet(((0.0,), (1.0,), (-1.0,)))), (RAMP, integers(scale=0.79))), 16,
         None, "dense eigensolve of order 16"),
    ], ids=["one_sided_set", "unequal_mirrored_atoms", "off_centre_density",
            "coset_offset_quarter", "band_edge_set", "complex_window",
            "real_beside_complex_kernel", "complex_window_beside_real"])
    def test_complex_factors_keep_the_complex_solve(self, pairs, grid_n, trunc, note):
        rep = estimate_frame_bounds(WindowedSystem(UNIT, pairs), grid_n, trunc)
        assert rep.notes == note
        trunc = trunc or nyquist_box(UNIT.bounding_box(), grid_n)
        hair = trunc.translate([-1e-9 * s for s in trunc.sides])
        a, b = dense_gram_oracle(UNIT, [(w, *oracle_frequencies(f, hair)) for w, f in pairs],
                                 grid_n)
        assert abs(rep.A_est - a) <= 1e-9 * b
        assert abs(rep.B_est - b) <= 1e-9 * b

    # two points take the 2 x 2 Gram, whose columns are complex either way
    @pytest.mark.parametrize("freq, real_note, complex_note", [
        (integers(scale=0.79), "dense eigensolve of order 64 in real arithmetic",
         "dense eigensolve of order 64"),
        (FiniteSet(((-2.0,), (2.0,))), "dense eigensolve of order 64 and rank at most 2",
         "dense eigensolve of order 64 and rank at most 2"),
    ], ids=["freq0", "freq1"])
    def test_a_constant_phase_moves_the_solve_not_the_bounds(self, freq, real_note,
                                                             complex_note):
        # e^{0.3i} (1 - x) gives the operator of 1 - x, since the phase
        # cancels in u(x) conj(u(y)), but it is stored complex
        phased = sampled_window(lambda p: np.exp(0.3j) * (1.0 - p[:, 0]), "phased")
        band = Box((-32.0,), (32.0,))
        real = estimate_frame_bounds(WindowedSystem(UNIT, ((self.RAMP, freq),)), 64, band)
        cplx = estimate_frame_bounds(WindowedSystem(UNIT, ((phased, freq),)), 64, band)
        assert real.notes == real_note
        assert cplx.notes == complex_note
        assert abs(real.A_est - cplx.A_est) <= 1e-12 * real.B_est
        assert abs(real.B_est - cplx.B_est) <= 1e-12 * real.B_est


@st.composite
def rank_update_systems(draw):
    """A closed form of rank at least the cells beside R <= 3 finite points,
    on a box filled by a grid of 48 or 64 cells (1-D) or 8 x 8 (2-D), so
    the r x r Grams do not apply and the rank-R update costs less than the
    one dense block.

    The closed part is a constant density whose N cells per axis fill one
    alias band (on a box with lo = -hi or not), N being the grid's cells,
    3 more, or in 1-D half of them where +-c make 2 N columns; or cosets of
    a diagonal lattice with a period of the grid's cells or one more,
    truncated to one or two whole bands.  The finite points are a point set
    drawn in the truncation box and the density's atoms.  Windows are
    polynomials, indicators (whose blocks have tied eigenvalues) or vanish on
    the cells below a cut.  Returns the system, the grid, the truncation
    box, the oracle's (window, frequencies, weights) per pair and R.
    """
    d = draw(st.sampled_from([1, 2]))
    grid_n = draw(st.sampled_from([48, 64] if d == 1 else [8]))
    lo = np.array([draw(st.integers(-4, 4)) / 4.0 for _ in range(d)])
    side = draw(st.sampled_from([0.5, 1.0, 2.0]))
    omega = BoxUnionSet(d, (Box(tuple(lo), tuple(lo + side)),))
    band = grid_n / side
    start = [-draw(st.integers(1, 15)) / 16.0 * band for _ in range(d)]
    trunc = Box(tuple(start), tuple(a + draw(st.integers(1, 2)) * band for a in start))
    hair = trunc.translate([-1e-9 * s for s in trunc.sides])

    def window(j):
        kind = draw(st.sampled_from(["poly", "indicator", "vanishing"]))
        if kind == "indicator":
            return Window.indicator()
        if kind == "poly":
            return draw_window(draw, j)
        cut = lo[0] + draw(st.integers(1, 3)) / 4.0 * side
        return Window(f"v{j}", ClosedForm(a=1.0, box=Box((cut, *lo[1:]), tuple(lo + side))))

    pairs, rank = [], 0
    if draw(st.booleans()):
        symmetric = draw(st.booleans())
        at = -0.5 * band if symmetric else draw(st.floats(-3.0, 3.0))
        halves = [grid_n // 2] if symmetric and d == 1 else []
        cells = draw(st.sampled_from([grid_n, grid_n + 3] + halves))
        box = Box((at,) * d, (at + band,) * d)
        atoms = tuple((tuple(draw(st.floats(-band / 2, band / 2)) for _ in range(d)),
                       draw(st.floats(0.5, 2.0))) for _ in range(draw(st.integers(0, 2))))
        rank += len(atoms)
        density = GridFunction.from_callable(lambda xi: np.full(len(xi), 0.7), box, cells)
        pairs.append((window("D"), ContinuousFreqMeasure(density=density, atoms=atoms)))
    else:
        periods = np.array([grid_n + draw(st.integers(0, 1)) for _ in range(d)])
        pairs.append((window("L"), whole_period_lattice(draw, periods, np.full(d, side / grid_n))))
    if rank == 0 or draw(st.booleans()):
        points = draw(st.lists(st.tuples(*[st.integers(1, 15)] * d), min_size=1,
                               max_size=3 - rank, unique=True))
        rank += len(points)
        pairs.append((window(0), FiniteSet(tuple(
            tuple(a + (b - a) * k / 16.0 for a, b, k in zip(trunc.lo, trunc.hi, p))
            for p in points), d)))
    oracle = [(w, *oracle_frequencies(f, hair)) for w, f in pairs]
    return WindowedSystem(omega, tuple(pairs)), grid_n, trunc, oracle, rank


class TestRankUpdatePath:
    """Finite points and atoms enter as R columns beside the closed forms'
    blocks, and inertia counts bracket A and B around secular Newton probes;
    the dense Gram is the oracle."""

    @settings(max_examples=80, deadline=None)
    @given(rank_update_systems())
    def test_matches_the_dense_gram(self, case):
        system, grid_n, trunc, oracle, rank = case
        rep = estimate_frame_bounds(system, grid_n, trunc)
        assert rep.notes.split("; ")[-1].startswith(f"rank-{rank} update of ")
        assert_one_block_matches_oracle(case[:4])

    def test_shaped_like_the_continuous_benchmark(self):
        # a constant density over the Nyquist band of 1024 cells, on 1331
        # cells, plus three atoms: one coset of period 1331 > 1024 cells, so
        # every cell is its own block beside three columns
        n = 1024
        band = Box((-n / 2.0,), (n / 2.0,))
        density = GridFunction.from_callable(lambda xi: np.full(len(xi), 1.1), band, 1331)
        freq = ContinuousFreqMeasure(density=density, atoms=(((-301.7,), 0.8), ((12.25,), 1.9),
                                                             ((400.5,), 1.2)))
        window = Window.from_string("0.8*x^1.3")
        rep = estimate_frame_bounds(WindowedSystem(UNIT, ((window, freq),)), n)
        probes = re.fullmatch(
            r"pair '0\.8\*x\^1\.3': constant density in closed form with period 1331 cells; "
            r"rank-3 update of 1024 blocks of order at most 1: inertia-bracketed Newton in "
            r"(\d+) probes, brackets \S+ \(A\) and \S+ \(B\) wide", rep.notes)
        assert int(probes.group(1)) <= 16
        a, b = dense_gram_oracle(UNIT, [(window, *oracle_frequencies(freq, band))], n)
        assert abs(rep.A_est - a) <= 1e-9 * b
        assert abs(rep.B_est - b) <= 1e-9 * b

    @staticmethod
    def constant_density(n, cells, value, atoms, d=1):
        """A constant density over the Nyquist band of n cells per axis,
        sampled on ``cells`` > n cells per axis, so every grid cell is its
        own block, plus ``atoms``; and that band."""
        band = Box((-n / 2.0,) * d, (n / 2.0,) * d)
        density = GridFunction.from_callable(lambda xi: np.full(len(xi), value), band, cells)
        return ContinuousFreqMeasure(density=density, atoms=atoms), band

    ATOMS = (((-20.3,), 0.8), ((5.25,), 1.9), ((17.5,), 1.2))
    HALF = Window.from_string("x^1.0*indicator(0.5,1)", "half")

    # tied poles: the indicator makes every block 1.1, so A = 1.1 lies at
    # both ends of its bracket; zero rows of W: the window vanishes on half
    # the cells, whose blocks are 0, so A = 0 is read the same way; a window
    # that vanishes everywhere (H = 0, tol = 0: no probe at all); one
    # column; and a 2-D system on 16 x 16 cells beside two atoms
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega, window, args, n, a_read", [
        (UNIT, Window.indicator(), (64, 67, 1.1, ATOMS), 64, True),
        (UNIT, HALF, (64, 67, 1.1, ATOMS), 64, True),
        (UNIT, Window.from_string("0.0", "zero"),
         (64, 67, 1.1, ATOMS), 64, True),
        (UNIT, Window.from_string("(1-x)^1.0"), (64, 67, 0.9, (((7.5,), 1.3),)), 64, False),
        (BoxUnionSet(2, (Box((0.0, 0.0), (1.0, 1.0)),)),
         sampled_window(lambda p: 1.0 + p[:, 0] * p[:, 1], "tilt"),
         (16, 19, 1.2, (((2.5, -3.25), 0.7), ((-6.0, 1.5), 1.4)), 2), 16, False),
    ], ids=["tied_poles", "zero_rows", "silent_window", "one_column", "two_d"])
    def test_fixed_systems_match_the_dense_gram(self, omega, window, args, n, a_read):
        freq, band = self.constant_density(*args)
        rep = estimate_frame_bounds(WindowedSystem(omega, ((window, freq),)), n)
        probes, a_width = re.search(r"Newton in (\d+) probes, brackets (\S+) \(A\)",
                                    rep.notes).groups()
        assert int(probes) <= 16
        assert (float(a_width) == 0.0) == a_read
        a, b = dense_gram_oracle(omega, [(window, *oracle_frequencies(freq, band))], n)
        assert abs(rep.A_est - a) <= 1e-9 * b
        assert abs(rep.B_est - b) <= 1e-9 * b

    @pytest.mark.parametrize("first, most", [("2.0*x^1.0*indicator(0.5,1)", 4),
                                             ("2.0*x^1.0", 16)])
    def test_b_at_a_pole_that_the_columns_miss(self, first, most):
        # the columns vanish on [0.5, 1), where Z's one-cell blocks peak, so
        # H keeps lam_max: the B end starts just above it, not at the top
        pairs = ((Window.from_string(first), integers()),
                 (Window.from_string("indicator(0,0.5)"), FiniteSet(((0.0,), (1.0,), (2.0,)))))
        band = nyquist_box(UNIT.bounding_box(), 256)
        rep = estimate_frame_bounds(WindowedSystem(UNIT, pairs), 256, band)
        probes = re.search(r"rank-3 update of 256 blocks of order at most 1: "
                           r"inertia-bracketed Newton in (\d+) probes", rep.notes)
        assert int(probes.group(1)) <= most
        a, b = dense_gram_oracle(UNIT, [(w, *oracle_frequencies(f, band)) for w, f in pairs], 256)
        assert abs(rep.A_est - a) <= 1e-9 * b
        assert abs(rep.B_est - b) <= 1e-9 * b

    def test_costly_columns_keep_the_dense_block(self):
        # Z has a period of 16 cells on the 16-cell grid, so 16 + 2 columns
        # outnumber the cells, and beside its 16 blocks of one cell two
        # points cost 120 n R^2 = 7680 > 16^3
        pairs = ((Window.indicator(), integers()),
                 (Window.from_string("(1-x)^1.0"), FiniteSet(((1.0,), (2.5,)))))
        rep = estimate_frame_bounds(WindowedSystem(UNIT, pairs), 16)
        assert rep.notes == "dense eigensolve of order 16"
        band = nyquist_box(UNIT.bounding_box(), 16)
        a, b = dense_gram_oracle(UNIT, [(w, *oracle_frequencies(f, band)) for w, f in pairs], 16)
        assert abs(rep.A_est - a) <= 1e-9 * b
        assert abs(rep.B_est - b) <= 1e-9 * b


class TestRouting:
    """One small system per route of the grid model on [0, 1) at its Nyquist
    band, each against the dense Gram: a finite set alone on more cells than
    points takes its R x R Gram (A = 0); closed forms beside atoms the
    rank-R update; whole-period lattices alone their blocks; a non-constant
    density the one dense block, and the iterative solve above the limit."""

    RAMP = Window.from_string("(1-x)^1.0")
    # a constant density on 67 cells over the band of 64: one coset pair
    # +-c of period 67 cells, 134 columns, so every cell is its own block
    CONSTANT = ContinuousFreqMeasure(
        density=GridFunction.from_callable(lambda xi: np.full(len(xi), 0.9),
                                           Box((-32.0,), (32.0,)), 67),
        atoms=(((5.3,), 1.2), ((-11.7,), 0.6)))
    # cells of 1/32 of the alias band, on a box with lo != -hi: a DFT kernel
    BOWL = ContinuousFreqMeasure(density=GridFunction.from_callable(
        lambda xi: 1.0 + (xi[:, 0] / 32.0) ** 2, Box((-30.0,), (34.0,)), 32))

    @pytest.mark.parametrize("pairs, limit, note", [
        (((RAMP, FiniteSet(((1.0,), (2.5,), (-3.0,)))),), None,
         r"dense eigensolve of order 64 and rank at most 3"),
        (((RAMP, CONSTANT),), None,
         r"pair '\(1-x\)\^1\.0': constant density in closed form with period 67 cells; "
         r"rank-2 update of 64 blocks of order at most 1: inertia-bracketed Newton in "
         r"\d+ probes, brackets \S+ \(A\) and \S+ \(B\) wide"),
        (((RAMP, integers()), (Window.indicator(), integers(scale=2.0))), None,
         r"dense eigensolve of 32 blocks of order at most 2 in real arithmetic"),
        (((RAMP, BOWL),), None, r"dense eigensolve of order 64"),
        (((RAMP, BOWL),), 30, r"iterative extremal eigensolve at tolerance 1e-08"),
    ], ids=["finite_gram", "rank_update", "closed_blocks", "density_block", "iterative"])
    def test_route(self, monkeypatch, pairs, limit, note):
        band = nyquist_box(UNIT.bounding_box(), 64)
        with monkeypatch.context() as patch:
            if limit is not None:
                patch.setattr(framebounds, "DENSE_EIG_LIMIT", limit)
            rep = estimate_frame_bounds(WindowedSystem(UNIT, pairs), 64, band)
        assert re.fullmatch(note, rep.notes)
        hair = band.translate([-1e-9 * s for s in band.sides])
        a, b = dense_gram_oracle(UNIT, [(w, *oracle_frequencies(f, hair)) for w, f in pairs], 64)
        assert abs(rep.A_est - a) <= 1e-9 * b
        assert abs(rep.B_est - b) <= 1e-9 * b
        if "rank at most" in note:
            assert rep.A_est == 0.0

    def test_whole_period_cosets_are_counted_without_their_points(self, monkeypatch):
        # the closed blocks take each coset's count from its lattice
        # coordinates; the points themselves are enumerated only for a box
        # that holds no whole number of periods, and then once
        calls = []
        enumerate_points = LatticeCosets.points_in_box
        monkeypatch.setattr(LatticeCosets, "points_in_box",
                            lambda s, box: calls.append(box) or enumerate_points(s, box))
        system = WindowedSystem(UNIT, ((self.RAMP, LatticeCosets(Lattice.scaled_integers(1.0),
                                                                 ((0.0,), (0.5,)))),))
        whole = estimate_frame_bounds(system, 64, nyquist_box(UNIT.bounding_box(), 64))
        assert "blocks" in whole.notes and calls == []
        estimate_frame_bounds(system, 64, Box((-20.0,), (20.0,)))
        assert len(calls) == 1


class TestAlignedGrid:
    CUBE = {d: canonicalize([Box((0.0,) * d, (1.0,) * d)]) for d in range(1, 5)}

    @pytest.mark.parametrize("d, first, last", [(1, 256, 65536), (2, 16, 256), (3, 7, 40),
                                                (4, 4, 16)])
    def test_the_default_grids_are_the_whole_roots(self, d, first, last):
        # the least n with n^d >= 256 and the largest with n^d <= 65536,
        # exact at d = 4, where 256 and 65536 are fourth powers
        assert framebounds.aligned_grid(self.CUBE[d], (0.0,) * d) == first
        assert framebounds.aligned_grid(self.CUBE[d], (1.0 / last,) * d) == last
        with pytest.raises(InputError, match=f"no grid of {first} to {last} cells"):
            framebounds.aligned_grid(self.CUBE[d], (1.0 / (2 * last),) * d)


class TestSilentPairs:
    SILENT = "pair 'x^1.0': no frequencies inside the truncation box; it contributes nothing"

    # 4 + 8Z misses [-2, 2); its period on the 8-cell grid is one cell, so
    # it takes the closed form, whose one coset counts no point
    @pytest.mark.parametrize("freq", [
        FiniteSet(((99.0,),)), LatticeCosets(Lattice.scaled_integers(8.0), ((4.0,),))],
        ids=["dense", "fiberized"])
    def test_no_coefficients_at_all(self, freq):
        system = WindowedSystem(UNIT, ((Window.from_string("x^1.0"), freq),))
        rep = estimate_frame_bounds(system, 8, Box((-2.0,), (2.0,)))
        assert rep.A_est == 0.0 and rep.B_est == 0.0
        assert rep.notes == f"{self.SILENT}; no coefficients at all"

    def test_silent_pair_beside_a_live_one(self):
        system = WindowedSystem(UNIT, ((Window.indicator(), integers()),
                                       (Window.from_string("x^1.0"), FiniteSet(((99.0,),)))))
        rep = estimate_frame_bounds(system, 8, Box((-4.0,), (4.0,)))
        assert rep.notes == (f"{self.SILENT}; dense eigensolve of 8 blocks of order at most 1"
                             " in real arithmetic")
        assert rep.A_est == pytest.approx(1.0, rel=1e-12)
        assert rep.B_est == pytest.approx(1.0, rel=1e-12)


class TestFiberizedPath:
    @settings(max_examples=60, deadline=None)
    @given(fiberizable_systems())
    def test_matches_dense_assembly(self, case):
        # one block per index residue mod the gcd of the periods; when a
        # block has more cells than the r columns of the pairs' cosets and
        # residues mod their periods over the gcd, the note names r
        system, grid_n, trunc, periods = case
        rep = estimate_frame_bounds(system, grid_n, trunc)
        bb = system.omega.bounding_box()
        active = np.argwhere(cell_volumes(bb, grid_n, system.omega) > 0)
        period = np.gcd.reduce(periods)
        _, sizes = np.unique(active % period, axis=0, return_counts=True)
        rank = sum(len(f.offsets) * int(np.prod(p // period))
                   for (_, f), p in zip(system.pairs, periods))
        assert rep.notes == block_note(sizes, rank)
        hair = trunc.translate([-1e-9 * s for s in trunc.sides])
        a, b = dense_gram_oracle(
            system.omega, [(w, f.points_in_box(hair)) for w, f in system.pairs], grid_n)
        assert abs(rep.A_est - a) <= 1e-9 * b
        assert abs(rep.B_est - b) <= 1e-9 * b

    def test_notes_name_the_fibers(self):
        system = WindowedSystem(UNIT, ((Window.from_string("x^1.0"), integers()),
                                       (Window.from_string("0.5"), integers(scale=0.5))))
        rep = estimate_frame_bounds(system, 256, Box((-128.0,), (128.0,)))
        assert rep.notes == "dense eigensolve of 256 blocks of order at most 1 in real arithmetic"

    def test_inactive_cells_leave_fibers_out(self):
        # [0, 1/4) and [3/4, 1) at 8 cells: 4 active cells, one per fiber
        omega = BoxUnionSet.from_intervals([(0.0, 0.25), (0.75, 1.0)])
        system = WindowedSystem(omega, ((Window.indicator(), integers(scale=2.0)),))
        rep = estimate_frame_bounds(system, 8, Box((-4.0,), (4.0,)))
        assert rep.notes == "dense eigensolve of 4 blocks of order at most 1 in real arithmetic"
        assert rep.A_est == pytest.approx(0.5, rel=1e-14)
        assert rep.B_est == pytest.approx(0.5, rel=1e-14)

    def test_singular_blocks_solve_as_grams(self, monkeypatch):
        # Z and 1/2 + Z on [0, 4) at 64 cells: a period of 16 cells, so 16
        # blocks of 4 cells against 2 columns, and every block is singular
        omega = BoxUnionSet.from_intervals([(0.0, 4.0)])
        freq = LatticeCosets(Lattice.scaled_integers(1.0), ((0.0,), (0.5,)))
        window = Window.from_string("(1-x)^1.0")
        band = Box((-8.0,), (8.0,))
        rep = estimate_frame_bounds(WindowedSystem(omega, ((window, freq),)), 64, band)
        assert rep.notes == "dense eigensolve of 16 blocks of order at most 4 and rank at most 2"
        assert rep.A_est == 0.0
        a, b = dense_gram_oracle(omega, [(window, freq.points_in_box(band))], 64)
        assert a <= 1e-12 * b
        assert abs(rep.B_est - b) <= 1e-9 * b
        # with the rank above the limit too, the operator goes iterative
        with monkeypatch.context() as patch:
            patch.setattr(framebounds, "DENSE_EIG_LIMIT", 1)
            iterative = estimate_frame_bounds(WindowedSystem(omega, ((window, freq),)), 64, band)
        assert "iterative" in iterative.notes
        assert iterative.A_est <= 1e-6 * b
        assert iterative.B_est == pytest.approx(b, rel=1e-6)

    def test_stacks_stay_within_the_dense_budget(self, monkeypatch):
        # each batched eigensolve holds at most DENSE_EIG_LIMIT^2 entries, and
        # a singular block larger than the limit still takes its small Gram
        solve = np.linalg.eigvalsh
        shapes = []

        def recording(H):
            shapes.append(H.shape)
            return solve(H)

        two = (Window.from_string("x^1.0"), integers()), (Window.from_string("0.5"),
                                                         integers(scale=0.5))
        eight = BoxUnionSet.from_intervals([(0.0, 8.0)])
        ramp = ((Window.from_string("(1-x)^1.0"), integers()),)
        # a lone block goes in as a plain matrix
        cases = [(UNIT, ((Window.indicator(), integers(scale=0.79)),), 64, 64, [(64, 64)],
                  "dense eigensolve of order 64 in real arithmetic"),
                 (UNIT, two, 256, 8, [(64, 1, 1)] * 4,
                  "dense eigensolve of 256 blocks of order at most 1 in real arithmetic"),
                 (eight, ramp, 128, 8, [(8, 1, 1)] * 2,
                  "dense eigensolve of 16 blocks of order at most 8 and rank at most 1"
                  " in real arithmetic"),
                 (eight, ramp, 128, 4, [(2, 1, 1)] * 8,
                  "dense eigensolve of 16 blocks of order at most 8 and rank at most 1"
                  " in real arithmetic")]
        for omega, pairs, grid_n, limit, stacks, note in cases:
            system = WindowedSystem(omega, pairs)
            band = nyquist_box(omega.bounding_box(), grid_n)
            whole = estimate_frame_bounds(system, grid_n, band)
            shapes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(framebounds, "DENSE_EIG_LIMIT", limit)
                patch.setattr(np.linalg, "eigvalsh", recording)
                rep = estimate_frame_bounds(system, grid_n, band)
            assert rep.notes == whole.notes == note
            assert shapes == stacks
            assert (rep.A_est, rep.B_est) == (whole.A_est, whole.B_est)

    def test_gapped_domain_with_unequal_fibers(self):
        # cells 0, 1, 2, 4 and 7 of 8 are active; 2Z and 1/2 + 2Z have a
        # period of 4 cells, so the blocks are {0, 4}, {1}, {2} and {7}
        omega = BoxUnionSet.from_intervals([(0.0, 0.375), (0.5, 0.625), (0.875, 1.0)])
        freq = LatticeCosets(Lattice.scaled_integers(2.0), ((0.0,), (0.5,)))
        window = Window.from_string("(1-x)^1.0")
        band = Box((-4.0,), (4.0,))
        rep = estimate_frame_bounds(WindowedSystem(omega, ((window, freq),)), 8, band)
        assert rep.notes == "dense eigensolve of 4 blocks of order at most 2"
        lam = freq.points_in_box(band)
        assert len(lam) == 8
        a, b = dense_gram_oracle(omega, [(window, lam)], 8)
        assert a > 1e-3
        assert abs(rep.A_est - a) <= 1e-9 * b
        assert abs(rep.B_est - b) <= 1e-9 * b

    def test_partial_period_truncation_stays_dense(self):
        # 11 integers in the truncation box, against a period of 16 cells:
        # no closed form, so 11 points on 16 cells and their 11 x 11 Gram
        window = Window.from_string("x^1.0")
        system = WindowedSystem(UNIT, ((window, integers()),))
        rep = estimate_frame_bounds(system, 16, Box((-5.5,), (5.5,)))
        assert rep.notes == "dense eigensolve of order 16 and rank at most 11"
        a, b = dense_gram_oracle(UNIT, [(window, np.arange(-5.0, 6.0).reshape(-1, 1))], 16)
        assert rep.A_est == pytest.approx(a, rel=1e-9, abs=1e-12)
        assert rep.B_est == pytest.approx(b, rel=1e-9)

    # nine points on 64 cells take their 9 x 9 Gram of complex columns; the
    # 81 points of Z 0.79 outnumber the cells, and as columns they would
    # cost more than the one block
    @pytest.mark.parametrize("freq, note", [
        (FiniteSet(tuple((float(k),) for k in range(-4, 5))),
         "dense eigensolve of order 64 and rank at most 9"),
        (integers(scale=0.79), "dense eigensolve of order 64 in real arithmetic"),
    ], ids=["freq0", "freq1"])
    def test_other_frequency_sets_stay_dense(self, freq, note):
        system = WindowedSystem(UNIT, ((Window.indicator(), freq),))
        assert estimate_frame_bounds(system, 64, Box((-32.0,), (32.0,))).notes == note

    def test_unit_interval_is_tight_to_roundoff(self):
        system = WindowedSystem(UNIT, ((Window.indicator(), integers()),))
        rep = estimate_frame_bounds(system, 256)
        assert abs(rep.A_est - 1.0) <= 1e-14 and abs(rep.B_est - 1.0) <= 1e-14

    def test_l_shape_is_tight_to_roundoff(self):
        l_shape = canonicalize([Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 0.5))])
        system = WindowedSystem(l_shape, ((Window.indicator(), integers(dim=2)),))
        rep = estimate_frame_bounds(system, 48)
        assert abs(rep.A_est - 1.0) <= 1e-14 and abs(rep.B_est - 1.0) <= 1e-14

    def test_decay_row_one_is_tight_to_roundoff(self):
        rows = lower_bound_decay_probe(
            [Window.indicator()], [integers()],
            lambda n: BoxUnionSet.from_intervals([(0.0, float(n))]), [1, 2, 4])
        assert abs(rows[0].A_est - 1.0) <= 1e-14 and abs(rows[0].B_est - 1.0) <= 1e-14


def painless_note(samples, columns):
    return (f"Ron-Shen fibers of one point each, summed in closed form (samples {samples}, "
            f"columns {columns}); lattice untruncated; sampled in x at the cell centres")


@st.composite
def grid_line_lattice_systems(draw):
    """Whole-period diagonal lattices (cosets of them too), one or two pairs,
    on unions of the cells of a k-cell grid over a box; the grid has a whole
    multiple of k cells and every length is dyadic, so each face of the
    domain lies on a grid line and every cell is in or out.  Returns the
    system and the grid."""
    d = draw(st.sampled_from([1, 2]))
    k = draw(st.sampled_from([2, 4]))
    grid_n = k * draw(st.sampled_from([1, 2, 4] if d == 1 else [1, 2]))
    lo = np.array([draw(st.integers(-4, 4)) / 4.0 for _ in range(d)])
    cell = np.array([draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(d)]) / k
    # the two far corners keep the bounding box at the k-cell grid's box
    cells = {(0,) * d, (k - 1,) * d} | {c for c in np.ndindex(*(k,) * d) if draw(st.booleans())}
    omega = canonicalize([Box(tuple(lo + np.array(c) * cell), tuple(lo + (np.array(c) + 1) * cell))
                          for c in sorted(cells)])
    steps = cell * k / grid_n
    base = np.array([draw(st.sampled_from([1, 2, 3, 4, 6])) for _ in range(d)])
    pairs = [(draw_window(draw, j),
              whole_period_lattice(draw, base * draw(st.sampled_from([1, 2])), steps))
             for j in range(draw(st.integers(1, 2)))]
    return WindowedSystem(omega, tuple(pairs)), grid_n


class TestRonShenPath:
    """With no truncation given, lattices whose duals share a period stay
    untruncated: the frame operator's fibers over the cell centres.  The
    grid's kernel and block solves at the Nyquist band are its oracle where
    the period is a whole number of cells, and the painless closed form
    where no fiber holds two points."""

    @settings(max_examples=60, deadline=None)
    @given(grid_line_lattice_systems())
    def test_matches_the_nyquist_grid_on_whole_periods(self, case):
        system, grid_n = case
        rep = estimate_frame_bounds(system, grid_n)
        assert rep.trunc_box is None and rep.notes.startswith("Ron-Shen")
        grid = estimate_frame_bounds(system, grid_n,
                                     nyquist_box(system.omega.bounding_box(), grid_n))
        assert abs(rep.A_est - grid.A_est) <= 1e-9 * grid.B_est
        assert abs(rep.B_est - grid.B_est) <= 1e-9 * grid.B_est

    # a spacing s up to 0.79 (1 + 4/16) stays below the domain's length 1,
    # so the fibers over [0, 1) are the cell centres one by one and
    # S = |offsets| sum_j |g_j|^2 / s there: each coset's phase has modulus 1
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 2), st.sampled_from([64, 128, 256]),
           st.lists(st.integers(1, 7), max_size=3, unique=True), st.data())
    def test_painless_spacings_meet_the_closed_form(self, k, count, grid_n, eighths, data):
        s = 0.79 * (1.0 + k / 16.0)
        windows = [draw_window(data.draw, j) for j in range(count)]
        offsets = tuple((s * e / 8.0,) for e in eighths) or ((0.0,),)
        cosets = LatticeCosets(Lattice.scaled_integers(s), offsets)
        rep = estimate_frame_bounds(WindowedSystem(UNIT, tuple((w, cosets) for w in windows)),
                                    grid_n)
        assert rep.notes == painless_note(grid_n, count * len(offsets))
        x = ((np.arange(grid_n) + 0.5) / grid_n).reshape(-1, 1)
        total = len(offsets) * sum(np.abs(w.eval(x)) ** 2 for w in windows) / s
        assert rep.A_est == pytest.approx(total.min(), rel=1e-12)
        assert rep.B_est == pytest.approx(total.max(), rel=1e-12)

    # the benchmark's L-shape: the unit square at a shift of eighths minus
    # one quadrant, with cosets of Z^2 at 48 cells, one fiber point per cell
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 3), st.tuples(st.integers(-16, 16), st.integers(-16, 16)),
           st.integers(1, 2), st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                                       min_size=1, max_size=3, unique=True), st.data())
    def test_painless_l_shape_meets_the_closed_form(self, missing, shift, count, eighths, data):
        tx, ty = np.array(shift) / 8.0
        omega = canonicalize([Box((tx + 0.5 * i, ty + 0.5 * j),
                                  (tx + 0.5 * (i + 1), ty + 0.5 * (j + 1)))
                              for i in (0, 1) for j in (0, 1) if 2 * i + j != missing])
        windows = [draw_window(data.draw, j) for j in range(count)]
        cosets = LatticeCosets(Lattice.scaled_integers(1.0, 2),
                               tuple((a / 8.0, b / 8.0) for a, b in eighths))
        rep = estimate_frame_bounds(WindowedSystem(omega, tuple((w, cosets) for w in windows)),
                                    48)
        assert rep.notes == painless_note(48 * 36, count * len(eighths))
        x = grid_points(omega.bounding_box(), 48)
        x = x[omega.contains(x)]
        total = len(eighths) * sum(np.abs(w.eval(x)) ** 2 for w in windows)
        assert rep.A_est == pytest.approx(total.min(), rel=1e-12)
        assert rep.B_est == pytest.approx(total.max(), rel=1e-12)

    # with every offset 0 the sum is the one-point block solve bit for bit
    @settings(max_examples=40, deadline=None)
    @given(grid_line_lattice_systems())
    def test_painless_sum_is_the_block_solve_at_offset_zero(self, case):
        system, grid_n = case
        system = WindowedSystem(system.omega, tuple(
            (w, LatticeCosets(f.lattice)) for w, f in system.pairs))
        rep = estimate_frame_bounds(system, grid_n)
        assume(rep.notes.startswith("Ron-Shen fibers of one point each"))
        x = grid_points(system.omega.bounding_box(), grid_n)
        x = x[system.omega.contains(x)]
        covols = [f.lattice.covolume for _, f in system.pairs]
        V = framebounds._fiber_factor(
            [(w.eval(x), np.zeros((1, x.shape[1])), np.array([1.0 / c]), np.ones(x.shape[1], int))
             for (w, _), c in zip(system.pairs, covols)], np.zeros_like(x, dtype=int), x)
        a, b, _ = framebounds._extremal_eigs_blocks(np.arange(len(x)), np.ones(len(x), int), V)
        assert (rep.A_est, rep.B_est) == (a, b)

    def test_readme_pair_keeps_its_bits(self):
        system = WindowedSystem(UNIT, tuple((Window.from_string(w), integers())
                                            for w in ("x^1.0", "(1-x)^1.0")))
        rep = estimate_frame_bounds(system, 256)
        assert (rep.A_est, rep.B_est) == (0.5000076293945312, 0.9961013793945312)
        assert rep.notes == painless_note(256, 2)

    def test_painless_systems_call_no_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a painless system needs no factor and no eigensolve")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(framebounds, "_fiber_factor", refuse)
        lshape = canonicalize([Box((0.0, 0.0), (1.0, 0.5)), Box((0.0, 0.5), (0.5, 1.0))])
        windows = [Window.from_string(w) for w in ("x^1.0", "2.0*(1-x)^0.5", "indicator")]
        for omega, pairs, grid_n in [
                (UNIT, [(w, integers()) for w in windows], 1024),
                (UNIT, [(w, integers(scale=0.8)) for w in windows[:2]], 1024),
                (lshape, [(Window.indicator(), integers(2))], 48)]:
            rep = estimate_frame_bounds(WindowedSystem(omega, tuple(pairs)), grid_n)
            assert rep.notes.startswith("Ron-Shen fibers of one point each")
        # a fiber of two points still takes the block solve
        long = WindowedSystem(BoxUnionSet.from_intervals([(0.0, 2.0)]),
                              ((Window.indicator(), integers()),))
        with pytest.raises(AssertionError, match="no eigensolve"):
            estimate_frame_bounds(long, 64)

    def test_truncated_grid_converges_toward_the_fibers(self):
        # x and 1 - x with 0.79 Z: the Nyquist cut lifts B far above the
        # exact 1 / 0.79, and less so as the grid refines
        system = WindowedSystem(UNIT, tuple((Window.from_string(w), integers(scale=0.79))
                                            for w in ("x^1.0", "(1-x)^1.0")))
        gaps = []
        for grid_n in (256, 512, 1024):
            exact = estimate_frame_bounds(system, grid_n)
            cut = estimate_frame_bounds(system, grid_n, nyquist_box(UNIT.bounding_box(), grid_n))
            assert exact.B_est == pytest.approx(1 / 0.79, rel=2 / grid_n)
            gaps.append(abs(cut.B_est - exact.B_est))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_long_fibers_are_singular(self):
        # Z and 1/2 + Z on [0, 4): fibers of 4 points against 2 columns
        omega = BoxUnionSet.from_intervals([(0.0, 4.0)])
        freq = LatticeCosets(Lattice.scaled_integers(1.0), ((0.0,), (0.5,)))
        system = WindowedSystem(omega, ((Window.from_string("(1-x)^1.0"), freq),))
        rep = estimate_frame_bounds(system, 64)
        assert rep.notes == ("Ron-Shen fiber eigensolve (samples 16, largest fiber 4, "
                             "columns 2); lattice untruncated; sampled in x at the cell centres")
        grid = estimate_frame_bounds(system, 64, Box((-8.0,), (8.0,)))
        assert rep.A_est == grid.A_est == 0.0
        assert abs(rep.B_est - grid.B_est) <= 1e-12 * grid.B_est

    # a lone point in the band takes the rank-1 update beside a
    # whole-period lattice and its 1 x 1 Gram alone
    @pytest.mark.parametrize("pairs, note", [
        (((Window.indicator(), LatticeCosets(Lattice(((1.0, 0.5), (0.0, 1.0))))),),
         "dense eigensolve"),
        (((Window.indicator(), integers(2)), (Window.indicator(), FiniteSet(((0.0, 0.0),), 2))),
         "rank-1 update of 64 blocks"),
        (((Window.indicator(), integers(2)), (Window.indicator(), integers(2, np.sqrt(2.0)))),
         "dense eigensolve"),
        (((Window.indicator(), integers(2, 512.0)),),
         "dense eigensolve of order 64 and rank at most 1 in real arithmetic"),
    ], ids=["skew", "beside_a_finite_set", "incommensurable", "period_below_a_step"])
    def test_other_systems_keep_the_nyquist_grid(self, pairs, note):
        square = canonicalize([Box((0.0, 0.0), (1.0, 1.0))])
        rep = estimate_frame_bounds(WindowedSystem(square, pairs), 8)
        assert rep.trunc_box == nyquist_box(square.bounding_box(), 8)
        assert rep.notes.startswith(note)

    def test_no_cell_centre_in_the_domain(self):
        omega = BoxUnionSet.from_intervals([(0.0, 0.1), (0.9, 1.0)])
        with pytest.raises(InputError, match="every cell centre misses the domain"):
            estimate_frame_bounds(WindowedSystem(omega, ((Window.indicator(), integers()),)), 2)


class TestFrequencyMeasure:
    def test_a_negative_density_sample_is_refused(self):
        density = GridFunction(Box((-1.0,), (1.0,)), np.array([1.0, -0.5]))
        with pytest.raises(InputError, match="frequency density must be non-negative"):
            ContinuousFreqMeasure(density)

    def test_the_cosine_measure_at_no_shift_is_twice_lebesgue(self):
        # 1 + cos 0 = 2: the lags 0 and ±x0 meet
        system = WindowedSystem(UNIT, ((Window.indicator(), CosineFreqMeasure((0.0,))),))
        rep = estimate_frame_bounds(system, 16)
        assert rep.A_est == pytest.approx(2.0, abs=1e-12)
        assert rep.B_est == pytest.approx(2.0, abs=1e-12)
        assert rep.notes == "dense eigensolve of 16 blocks of order at most 1 in real arithmetic"

    def test_a_cosine_shift_off_the_cells_is_refused(self):
        system = WindowedSystem(UNIT, ((Window.indicator(), CosineFreqMeasure((0.3,))),))
        with pytest.raises(InputError, match=r"the shift \(0.3,\) is not a whole number"):
            estimate_frame_bounds(system, 16)

    @given(st.one_of(st.integers(-3000, 3000).map(lambda k: k / 1000),
                     st.integers(1, 5000).map(lambda q: 2.0 + 1.0 / q)),
           st.integers(1, 64))
    @example(2.0 + 1.0 / 4099, 4099)
    @settings(max_examples=60, deadline=None)
    def test_the_cosine_shift_is_whole_where_aligned_grid_says(self, x0, grid_n):
        # every face of [0, 1) aligns with every grid, so the shift alone
        # decides; 2 + 1/4099 is within the relative rule of 8199 cells, but
        # its decimals 2.000243961941937 are no whole number of 1/4099
        system = WindowedSystem(UNIT, ((Window.indicator(), CosineFreqMeasure((x0,))),))
        try:
            framebounds.aligned_grid(UNIT, (x0,), grid_n)
        except InputError:
            with pytest.raises(InputError, match="whole number"):
                estimate_frame_bounds(system, grid_n)
        else:
            rep = estimate_frame_bounds(system, grid_n)
            assert 0.0 <= rep.A_est <= rep.B_est

    @pytest.mark.parametrize("freq", [
        CosineFreqMeasure((2.0,)), ContinuousFreqMeasure(atoms=(((0.0,), 1.0),))],
        ids=["cosine", "atoms"])
    def test_the_bracket_refuses_a_measure(self, freq):
        system = WindowedSystem(UNIT, ((Window.indicator(), freq),))
        with pytest.raises(InputError, match="needs discrete frequency sets"):
            window_density_bracket_check(system, estimate_frame_bounds(system, 16),
                                         [DensityReport(1.0, 1.0, "closed_form")])


class TestDimensionRule:
    """A window's support box and a frequency set must have the domain's
    dimension; the error names the pair (or window) and both dimensions."""

    SQUARE = canonicalize([Box((0.0, 0.0), (1.0, 1.0))])

    def test_one_dimensional_window_on_a_square(self):
        window = Window.from_string("indicator(0,0.5)")
        with pytest.raises(InputError, match=re.escape(
                "window 0 ('indicator(0,0.5)'): window support box of dimension 1 on a "
                "domain of dimension 2")):
            ess_bounds([window], self.SQUARE, 8)
        with pytest.raises(InputError, match=r"^pair 0 .* dimension 1 on a domain of dimension 2"):
            WindowedSystem(self.SQUARE, ((window, integers(2)),))

    def test_two_dimensional_window_on_a_line(self):
        window = Window.from_string("indicator(0,0,0.5,0.5)")
        with pytest.raises(InputError, match="dimension 2 on a domain of dimension 1"):
            ess_bounds([Window.indicator(), window], UNIT, 8)
        with pytest.raises(InputError, match=re.escape(
                "pair 1 ('indicator(0,0,0.5,0.5)'): window support box of dimension 2")):
            WindowedSystem(UNIT, ((Window.indicator(), integers()), (window, integers())))

    @pytest.mark.parametrize("freq", [
        integers(), FiniteSet(((0.0,),)), ContinuousFreqMeasure(atoms=(((0.0,), 1.0),)),
        CosineFreqMeasure((1.0,))], ids=["lattice", "finite", "atoms", "cosine"])
    def test_one_dimensional_frequencies_on_a_square(self, freq):
        with pytest.raises(InputError, match=re.escape(
                "pair 0 ('indicator'): frequency set of dimension 1 on a domain of dimension 2")):
            WindowedSystem(self.SQUARE, ((Window.indicator(), freq),))

    @pytest.mark.parametrize("atoms, density", [
        ((((0.0,), 1.0), ((0.0, 1.0), 1.0)), None),
        ((((0.0, 1.0), 1.0),), GridFunction(Box((-1.0,), (1.0,)), np.ones(2)))],
        ids=["atoms", "atom_and_density"])
    def test_a_measure_of_mixed_dimensions(self, atoms, density):
        with pytest.raises(InputError, match=re.escape("mixes dimensions [1, 2]")):
            ContinuousFreqMeasure(density, atoms)

    def test_windows_without_a_box_fit_any_domain(self):
        pairs = ((Window.from_string("x^1.0"), integers(2)),
                 (sampled_window(lambda p: p[:, 1], "y"), integers(2)))
        rep = estimate_frame_bounds(WindowedSystem(self.SQUARE, pairs), 8)
        assert rep.notes.startswith("Ron-Shen fibers of one point each")


class TestEssBounds:
    def test_linear_pair(self):
        ws = [Window.from_string("x^1.0"), Window.from_string("(1-x)^1.0")]
        rep = ess_bounds(ws, UNIT_CLOSED, 256)
        assert rep.J == (0, 1)
        lo, hi = rep.ess_inf_of_max
        assert lo == 0.5
        assert hi - lo <= 1 / 256
        assert 0.99 <= rep.ess_sup_of_max[0] <= rep.ess_sup_of_max[1] <= 1.0 + 1e-9

    def test_all_unbounded_empty_J(self):
        rep = ess_bounds([Window.from_string("x^-0.25")], UNIT, 128)
        assert rep.J == ()
        assert rep.ess_inf_of_max == (0.0, 0.0)

    def test_indicator_is_exactly_one(self):
        rep = ess_bounds([Window.indicator()], UNIT, 64)
        assert rep.ess_inf_of_max == pytest.approx((1.0, 1.0), abs=1e-12)
        assert rep.ess_sup_of_max == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_indicators_meeting_off_the_grid(self):
        # 0.3 is no grid line; the pieces are cut at the supports' faces
        ws = [Window.from_string("indicator(0,0.3)"), Window.from_string("indicator(0.3,1)")]
        rep = ess_bounds(ws, UNIT, 256)
        assert rep.ess_inf_of_max == (1.0, 1.0)
        assert rep.ess_sup_of_max == (1.0, 1.0)

    def test_pieces_tile_the_domain(self):
        # the grid line 1.0624999999999998 misses the face 1.0625 by one ulp,
        # and the sliver between them lies outside the domain
        omega = BoxUnionSet.from_intervals([(-0.25, 0.0), (1.0625, 1.4999999999999998)])
        lo, hi, infs, sups = window_ranges([Window.indicator()], omega, 4)
        assert omega.contains(lo).all()
        assert np.sum(hi - lo) == pytest.approx(omega.measure(), rel=1e-15)
        assert infs.shape == sups.shape == (1, len(lo))

    def test_unbounded_windows_excluded_from_J(self):
        ws = [Window.from_string("x^1.0"), Window.from_string("x^-0.25")]
        rep = ess_bounds(ws, UNIT, 128)
        assert rep.J == (0,)


class TestBracketCheck:
    def test_indicator_equality_case(self):
        system = WindowedSystem(UNIT, ((Window.indicator(), integers()),))
        rep = estimate_frame_bounds(system, 256)
        dens = [density_closed_form(WeightedComb.single(integers()))]
        out = window_density_bracket_check(system, rep, dens)
        assert out.all_hold
        row = out.per_window[0]
        assert row.cap == pytest.approx(1.0, abs=1e-6)
        assert row.ess_sup == pytest.approx(1.0, abs=1e-6)

    def test_two_linear_windows_bracket(self):
        ws = (Window.from_string("x^1.0"), Window.from_string("(1-x)^1.0"))
        system = WindowedSystem(UNIT, tuple((w, integers()) for w in ws))
        rep = estimate_frame_bounds(system, 256)
        dens = [density_closed_form(WeightedComb.single(integers()))] * 2
        out = window_density_bracket_check(system, rep, dens)
        assert out.all_hold
        assert out.lower_cap == pytest.approx(np.sqrt(rep.A_est / 2.0), rel=1e-12)
        assert out.ess_inf_max >= 0.5 - 0.02

    def test_equality_needs_no_tolerance(self):
        # A = 1/2 and B = 1 meet ess inf max = 1/2 and ess sup = 1 head-on;
        # only a violation the enclosures prove may be reported
        ws = (Window.from_string("x^1.0"), Window.from_string("(1-x)^1.0"))
        system = WindowedSystem(UNIT, tuple((w, integers()) for w in ws))
        rep = estimate_frame_bounds(system, 256)
        dens = [density_closed_form(WeightedComb.single(integers()))] * 2
        out = window_density_bracket_check(system, rep, dens, tol=0.0)
        assert out.all_hold
        assert out.ess_inf_max == 0.50390625
        assert [row.ess_sup for row in out.per_window] == [0.99609375] * 2

    def test_scaled_indicator_equality(self):
        system = WindowedSystem(
            UNIT, ((Window.from_string("2.0*indicator"), integers()),))
        rep = estimate_frame_bounds(system, 256)
        assert rep.A_est == pytest.approx(4.0, abs=1e-9)
        dens = [density_closed_form(WeightedComb.single(integers()))]
        out = window_density_bracket_check(system, rep, dens)
        row = out.per_window[0]
        assert row.cap == pytest.approx(2.0, abs=1e-6)
        assert row.ess_sup == pytest.approx(2.0, abs=1e-6)
        assert out.all_hold

    def test_unbounded_window_fails_its_row(self):
        # a finite B with D+ > 0 forbids an unbounded window
        ws = (Window.indicator(), Window.from_string("x^-0.25"))
        system = WindowedSystem(UNIT, tuple((w, integers()) for w in ws))
        rep = estimate_frame_bounds(system, 256)
        dens = [density_closed_form(WeightedComb.single(integers()))] * 2
        out = window_density_bracket_check(system, rep, dens)
        assert [(row.ess_sup, row.holds) for row in out.per_window] == [
            (1.0, True), (np.inf, False)]
        assert not out.all_hold

    def test_rows_kept_when_no_window_is_bounded(self):
        # with no bounded window of positive density the caps are moot, but
        # the unbounded window's failing row still stands
        system = WindowedSystem(UNIT, ((Window.from_string("x^-0.5"), integers()),))
        dens = [density_closed_form(WeightedComb.single(integers()))]
        out = window_density_bracket_check(system, FrameBoundsReport(0.5, 2.0, 64, None), dens)
        assert [(row.label, row.ess_sup, row.holds) for row in out.per_window] == [
            ("x^-0.5", np.inf, False)]
        assert not (out.lower_holds or out.upper_holds or out.all_hold)
        # the system is not Bessel, which is no contradiction of the bracket
        assert out.contradiction is None
        assert out.notes == ("not Bessel: window 'x^-0.5' is unbounded on the domain and "
                             "carries frequencies of upper density 1")

    def test_contradiction_flagged_for_claimed_frame_without_density(self):
        system = WindowedSystem(UNIT, ((Window.indicator(), FiniteSet(((0.0,),))),))
        fake = FrameBoundsReport(0.5, 1.0, 64, Box((-1.0,), (1.0,)))
        dens = [density_closed_form(WeightedComb.single(FiniteSet(((0.0,),))))]
        out = window_density_bracket_check(system, fake, dens)
        assert out.contradiction is not None

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_table_matches_the_per_window_enclosures(self, data):
        # one table cut at every pair's support faces: without faces each
        # row is the window's own ess_bounds bit for bit, with them no
        # enclosure is looser than the one the windows give alone
        faces = data.draw(st.booleans())
        face = st.integers(-4, 20).map(lambda v: v / 16) | st.floats(-0.25, 1.25)
        pairs = []
        for _ in range(data.draw(st.integers(1, 3))):
            text = data.draw(st.sampled_from(
                ["x^1.0", "(1-x)^2.0", "x^-0.5", "(1-x)^-0.25", "0.5", "x^0.5*(1-x)^1.5"]))
            if faces and data.draw(st.booleans()):
                lo, hi = sorted(data.draw(st.tuples(face, face).filter(lambda p: p[0] != p[1])))
                text += f"*indicator({lo!r},{hi!r})"
            freq = data.draw(st.sampled_from([integers(), integers(scale=0.75),
                                              FiniteSet(((0.0,),))]))
            pairs.append((Window.from_string(text), freq))
        omega = data.draw(st.sampled_from(
            [UNIT, BoxUnionSet.from_intervals([(0, 0.5), (0.75, 1.25)])]))
        grid_n = data.draw(st.sampled_from([4, 8, 16]))
        system = WindowedSystem(omega, tuple(pairs))
        dens = [density_closed_form(WeightedComb.single(f)) for _, f in pairs]
        out = window_density_bracket_check(system, FrameBoundsReport(0.5, 2.0, grid_n, None),
                                           dens, grid_n)
        positive = [j for j, d in enumerate(dens) if d.upper > 0]
        j_prime = [pairs[j][0] for j in positive
                   if ess_bounds([pairs[j][0]], omega, grid_n).J]
        assert len(out.per_window) == len(positive)
        for j, row in zip(positive, out.per_window):
            alone = ess_bounds([pairs[j][0]], omega, grid_n)
            own = alone.ess_sup_of_max[0] if alone.J else np.inf
            assert row.ess_sup >= own if faces else row.ess_sup == own
        if not j_prime:
            assert not out.all_hold
            return
        alone = ess_bounds(j_prime, omega, grid_n)
        own = (alone.ess_inf_of_max[1], alone.ess_sup_of_max[0])
        if faces:
            assert out.ess_inf_max <= own[0] and out.ess_sup_max >= own[1]
        else:
            assert (out.ess_inf_max, out.ess_sup_max) == own

    def test_random_piecewise_constant_property(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            k = 8
            vals = rng.uniform(0.2, 1.5, size=k)
            c = float(rng.uniform(0.5, 1.0))

            def step_window(pts, vals=vals, k=k):
                idx = np.clip((pts[:, 0] * k).astype(int), 0, k - 1)
                return vals[idx]

            window = sampled_window(step_window, f"pw{trial}")
            freq = integers(scale=c)
            system = WindowedSystem(UNIT, ((window, freq),))
            rep = estimate_frame_bounds(system, 128)
            d_plus = density_closed_form(WeightedComb.single(freq)).upper
            cap = np.sqrt(rep.B_est / d_plus)
            assert vals.max() <= cap + 0.02


class TestDecayProbe:
    def test_constant_window_integer_frequencies(self):
        rows = lower_bound_decay_probe(
            [Window.indicator()], [integers()],
            lambda n: BoxUnionSet.from_intervals([(0.0, float(n))]),
            [1, 2, 4])
        a_vals = [r.A_est for r in rows]
        assert a_vals[0] == pytest.approx(1.0, abs=1e-9)
        assert a_vals[0] >= a_vals[1] - 1e-9
        assert a_vals[1] >= a_vals[2] - 1e-9
        assert a_vals[2] <= 0.6 * a_vals[0]

    def test_single_row_orthonormal(self):
        rows = lower_bound_decay_probe(
            [Window.indicator()], [integers()],
            lambda n: BoxUnionSet.from_intervals([(0.0, float(n))]), [1])
        assert len(rows) == 1
        assert rows[0].A_est == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_window_decays(self):
        gauss = sampled_window(lambda p: np.exp(-p[:, 0] ** 2 / 2.0), "gauss")
        rows = lower_bound_decay_probe(
            [gauss], [integers()],
            lambda n: BoxUnionSet.from_intervals([(-n / 2.0, n / 2.0)]),
            [2, 4, 8], cells_per_unit=32)
        a_vals = [r.A_est for r in rows]
        assert a_vals[0] >= a_vals[1] - 1e-9 >= a_vals[2] - 2e-9

    def test_translate_system_has_no_frame_on_growing_domains(self):
        # a system of integer translates of g maps, on the Fourier side, to
        # windowed exponentials with window g-hat and integer frequencies;
        # its lower bound collapsing on growing domains demonstrates that no
        # finite family of translates frames the whole line
        def g_hat(pts):
            # transform of the unit-box indicator: modulus |sinc|
            x = pts[:, 0]
            out = np.ones_like(x)
            nz = x != 0
            out[nz] = np.abs(np.sin(np.pi * x[nz]) / (np.pi * x[nz]))
            return out

        window = sampled_window(g_hat, "box_transform")
        rows = lower_bound_decay_probe(
            [window], [integers()],
            lambda n: BoxUnionSet.from_intervals([(-n / 2.0, n / 2.0)]),
            [1, 2, 4], cells_per_unit=64)
        a_vals = [r.A_est for r in rows]
        assert a_vals[0] > 0.1
        assert a_vals[0] >= a_vals[1] - 1e-9 >= a_vals[2] - 2e-9
        assert a_vals[2] <= 0.1 * a_vals[0]
