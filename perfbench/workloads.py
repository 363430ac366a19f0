"""Workloads of the frameforge benchmark: seeded inputs, timed calls, oracles.

A workload is a fixed list of case kinds.  One round draws a fresh case of
every kind, in order, from the workload's generator, so every round has the
same mix of problem sizes and the run-to-run spread comes from the machine,
not from the draw.  A case carries its generated parameters (plain data), the
call into frameforge that the benchmark times, and an oracle that judges the
result from the parameters alone, outside the timed region.  The oracles
never ask frameforge for the answer they check.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import frameforge as ff
from frameforge import cli
from frameforge.geometry import Box, Lattice

BOUNDS_RTOL = 1e-9          # eigenvalue error, relative to the operator norm
BRACKET_SLACK = 0.02        # criterion 5's slack on ess sup |g| <= sqrt(B / D+)
GABOR_M = 2048
GABOR_TOL = 1e-9
UNITARITY_TOL = 1e-6
DEFECT_SCALES = (0.99, 1.01)


@dataclass(frozen=True)
class Case:
    """One verdict: generated inputs, the timed call and its oracle.

    ``known_defect`` marks a fixed reproduction of a documented program
    defect.  Its verdict is checked like any other and counts as attempted,
    and as failed when wrong, but it is not timed or traced, and its failure
    does not make the run's outputs unexpected.
    """

    kind: str
    params: dict
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    known_defect: bool = False


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    """A uniform draw rounded to 3 decimals, so window strings are exact."""
    return round(float(rng.uniform(lo, hi)), 3)


# --------------------------------------------------------------- frame-bounds

UNIT = ff.BoxUnionSet.from_intervals([(0.0, 1.0)])


def _draw_windows(rng: np.random.Generator, count: int) -> list[tuple]:
    """``count`` windows s * x^a * (1-x)^b on [0, 1): a monomial, a reflected
    monomial, then products.  The first two keep sum |g_j|^2 away from 0."""
    shapes = [(1, 0), (0, 1)] + [(1, 1)] * (count - 2)
    out = []
    for has_a, has_b in shapes[:count]:
        out.append((_u(rng, 0.5, 1.5),
                    _u(rng, 0.5, 2.0) if has_a else 0.0,
                    _u(rng, 0.5, 2.0) if has_b else 0.0))
    return out


def _window_expr(s: float, a: float, b: float) -> str:
    factors = [repr(s)]
    if a:
        factors.append(f"x^{a!r}")
    if b:
        factors.append(f"(1-x)^{b!r}")
    return "*".join(factors)


def _window_values(s: float, a: float, b: float, x: np.ndarray) -> np.ndarray:
    return s * x ** a * (1.0 - x) ** b


def _window_ess_sup(s: float, a: float, b: float) -> float:
    """Exact ess sup of s * x^a * (1-x)^b over [0, 1)."""
    if a and b:
        return s * (a / (a + b)) ** a * (b / (a + b)) ** b
    return s


def _system(windows: list[tuple], freq, omega=UNIT) -> ff.WindowedSystem:
    return ff.WindowedSystem(omega, tuple(
        (ff.Window.from_string(_window_expr(*w)), freq) for w in windows))


def _draw_multiplication(grid_n: int, n_windows: int):
    def draw(rng):
        return {"grid_n": grid_n, "windows": _draw_windows(rng, n_windows)}
    return draw


def _run_multiplication(p: dict) -> Callable[[], Any]:
    system = _system(p["windows"], ff.integers())
    return lambda: ff.estimate_frame_bounds(system, p["grid_n"])


def _check_multiplication(p: dict, rep) -> bool:
    """Z frequencies on [0, 1) at a Nyquist-matched grid: the discrete frame
    operator is multiplication by sum_j |g_j|^2 at the cell centres."""
    n = p["grid_n"]
    x = (np.arange(n) + 0.5) / n
    total = sum(_window_values(*w, x) ** 2 for w in p["windows"])
    a, b = float(total.min()), float(total.max())
    tol = BOUNDS_RTOL * b
    return abs(rep.A_est - a) <= tol and abs(rep.B_est - b) <= tol


def _draw_lshape(rng) -> dict:
    return {"grid_n": 48, "missing_quadrant": int(rng.integers(4)),
            "shift": (int(rng.integers(-16, 17)) / 8.0,
                      int(rng.integers(-16, 17)) / 8.0)}


def _run_lshape(p: dict) -> Callable[[], Any]:
    """The unit square at ``shift`` minus one of its four half-side quadrants."""
    tx, ty = p["shift"]
    boxes = [Box((tx + 0.5 * i, ty + 0.5 * j), (tx + 0.5 * (i + 1), ty + 0.5 * (j + 1)))
             for i in (0, 1) for j in (0, 1) if 2 * i + j != p["missing_quadrant"]]
    system = ff.WindowedSystem(ff.canonicalize(boxes),
                               ((ff.Window.indicator(), ff.integers(2)),))
    return lambda: ff.estimate_frame_bounds(system, p["grid_n"])


def _check_lshape(p: dict, rep) -> bool:
    """Grid-aligned domain, Z^2 frequencies, matched grid: A = B = 1."""
    return abs(rep.A_est - 1.0) <= BOUNDS_RTOL and abs(rep.B_est - 1.0) <= BOUNDS_RTOL


def _draw_incommensurate(rng) -> dict:
    return {"grid_n": 1024, "spacing": _u(rng, 0.79, 0.81),
            "windows": _draw_windows(rng, 2)}


def _run_incommensurate(p: dict) -> Callable[[], Any]:
    system = _system(p["windows"], ff.integers(scale=p["spacing"]))
    return lambda: ff.estimate_frame_bounds(system, p["grid_n"])


def _check_bracketed(rep, windows: list[tuple], density: float) -> bool:
    """0 <= A <= B, and ess sup |g_j| <= sqrt(B / D+) + 0.02 for every window."""
    if not 0.0 <= rep.A_est <= rep.B_est:
        return False
    cap = math.sqrt(rep.B_est / density) + BRACKET_SLACK
    return all(_window_ess_sup(*w) <= cap for w in windows)


def _check_incommensurate(p: dict, rep) -> bool:
    return _check_bracketed(rep, p["windows"], 1.0 / p["spacing"])


def _draw_continuous(rng) -> dict:
    n = 1024
    return {"grid_n": n, "density": _u(rng, 0.8, 1.2),
            "density_cells": 1331,
            "atoms": [(_u(rng, -n / 2.0, n / 2.0), _u(rng, 0.5, 2.0)) for _ in range(3)],
            "windows": _draw_windows(rng, 1)}


def _run_continuous(p: dict) -> Callable[[], Any]:
    """A constant frequency density over the grid's Nyquist band, sampled on
    cells that do not divide the band, plus point atoms: the dense fallback."""
    n = p["grid_n"]
    band = Box((-n / 2.0,), (n / 2.0,))
    rho = p["density"]
    density = ff.GridFunction.from_callable(lambda xi: np.full(len(xi), rho),
                                            band, p["density_cells"])
    freq = ff.ContinuousFreqMeasure(density=density,
                                    atoms=tuple(((xi,), w) for xi, w in p["atoms"]))
    system = _system(p["windows"], freq)
    return lambda: ff.estimate_frame_bounds(system, n)


def _check_continuous(p: dict, rep) -> bool:
    return _check_bracketed(rep, p["windows"], p["density"])


# a constant window against spacing 128/m on a 128-cell grid: the band
# [-64, 64) holds m frequencies, so A = B = v^2 m / 128.  For m = 214 the end
# frequencies round to -63.99999999999999 and 63.99999999999999, both ends
# alias to one frequency, and B comes out (m + 128) / m too large
BAND_EDGE_DEFECT = {"grid_n": 128, "value": 0.5, "frequencies": 214}


def _run_band_edge(p: dict) -> Callable[[], Any]:
    freq = ff.integers(scale=p["grid_n"] / p["frequencies"])
    system = ff.WindowedSystem(UNIT, ((ff.Window.from_string(repr(p["value"])), freq),))
    return lambda: ff.estimate_frame_bounds(system, p["grid_n"])


def _check_band_edge(p: dict, rep) -> bool:
    exact = p["value"] ** 2 * p["frequencies"] / p["grid_n"]
    tol = BOUNDS_RTOL * exact
    return abs(rep.A_est - exact) <= tol and abs(rep.B_est - exact) <= tol


def _draw_gabor(q: int):
    def draw(rng):
        # support inside [0, 1): one Zak term, so the cost does not vary
        sixteenths = int(rng.integers(1, 17))
        return {"q": q, "p": int(rng.choice([v for v in range(1, max(q, 2))
                                             if math.gcd(v, q) == 1])),
                "start": int(rng.integers(17 - sixteenths)) / 16.0,
                "length": sixteenths / 16.0, "M": GABOR_M}
    return draw


def _run_gabor(p: dict) -> Callable[[], Any]:
    window = ff.Window.from_string(
        f"indicator({p['start']!r},{p['start'] + p['length']!r})")
    return lambda: ff.certify_gabor(window, p["p"], p["q"], p["M"])


def _check_gabor(p: dict, v) -> bool:
    """An indicator of length a <= 1 has |Zg| in {0, 1} on an interval of
    length a mod 1; the q shifts by j/q cover the circle iff a >= 1/q."""
    covers = p["length"] * p["q"] >= 1.0
    if covers:
        expected = ff.zak.FRAME_CERTIFIED if p["p"] == 1 else ff.zak.NECESSARY_ONLY
        bound_ok = abs(v.A_53 - 1.0) <= GABOR_TOL
    else:
        expected = ff.zak.NOT_FRAME
        bound_ok = v.A_53 <= GABOR_TOL
    return (v.verdict == expected and bound_ok and abs(v.B_53 - 1.0) <= GABOR_TOL
            and v.unitarity_residual <= UNITARITY_TOL)


# ------------------------------------------------- defects outside frame bounds

# translation_bounded_probe on a two-coset lattice reports 10; the sup is 12,
# at a corner whose x comes from one coset and whose y from the other
PROBE_DEFECT = {"side": (2.429, 1.515), "spacing": 1.08,
                "offsets": [(0.0, 0.0), (0.26784, 0.66096)]}


def _run_probe(p: dict) -> Callable[[], Any]:
    cosets = ff.LatticeCosets(Lattice.scaled_integers(p["spacing"], 2),
                              tuple(tuple(o) for o in p["offsets"]))
    window = Box((0.0, 0.0), tuple(p["side"]))
    return lambda: ff.translation_bounded_probe(ff.WeightedComb.single(cosets), window)


def _check_probe(p: dict, rep) -> bool:
    """sup_x #(comb in x + K) for half-open K: slide each axis of K up until a
    point sits on its lower face, so the sup is attained at a corner whose
    coordinates are point coordinates; the comb is periodic, so corners within
    one period of the origin reach it."""
    c, side = p["spacing"], np.asarray(p["side"])
    ks = np.arange(-8, 9) * c
    lattice = np.stack(np.meshgrid(ks, ks, indexing="ij"), axis=-1).reshape(-1, 2)
    pts = np.vstack([lattice + np.asarray(o) for o in p["offsets"]])
    axes = [np.unique(pts[:, a][np.abs(pts[:, a]) <= 2 * c]) for a in range(2)]
    corners = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    inside = np.all((pts[None, :, :] >= corners[:, None, :])
                    & (pts[None, :, :] < corners[:, None, :] + side), axis=2)
    return rep.sup_estimate == float(inside.sum(axis=1).max())


def _defect_params(s: float) -> dict:
    return {"support": s, "eval_hi": 4.0, "n_eval": 128}


def _run_bracket(p: dict) -> Callable[[], Any]:
    """h = chi[0, s) sampled on 256 cells against Z."""
    chi = ff.GridFunction.indicator(Box((0.0,), (p["support"],)), 256)
    eval_box = Box((0.0,), (p["eval_hi"],))
    return lambda: ff.check_density_convolution_bracket(
        [(ff.WeightedComb.single(ff.integers()), chi)], eval_box, p["n_eval"])


def _exact_extremes(s: float, lo: float, hi: float) -> tuple[int, int]:
    """Exact min and max over [lo, hi) of S(x) = #{n in Z : 0 <= x - n < s}.

    S is right-continuous and piecewise constant with breakpoints at the
    integers (steps up) and at the integers plus s (steps down), so it takes
    every one of its values at the midpoint of two neighbouring breakpoints.
    """
    ns = np.arange(math.floor(lo - s) - 1, math.ceil(hi) + 2)
    cuts = np.concatenate(([lo, hi], ns, ns + s))
    cuts = np.unique(cuts[(cuts >= lo) & (cuts <= hi)])
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    lag = mid[:, None] - ns[None, :]
    values = ((lag >= 0.0) & (lag < s)).sum(axis=1)
    return int(values.min()), int(values.max())


def _check_bracket(p: dict, rep) -> bool:
    """The bracket min S <= D- <= D+ <= max S is a theorem, so both sides must
    hold.  A sampled minimum can lie anywhere between the exact minimum of
    S = #{n : 0 <= x - n < s} over the evaluation box and its minimum at the
    cell centres, and likewise the maximum; a report outside either range is
    wrong."""
    s, n, hi = p["support"], p["n_eval"], p["eval_hi"]
    x = (np.arange(n) + 0.5) * (hi / n)
    lag = x[:, None] - np.arange(-math.ceil(s) - 2, math.ceil(hi) + 2)[None, :]
    centres = ((lag >= 0.0) & (lag < s)).sum(axis=1)
    exact_min, exact_max = _exact_extremes(s, 0.0, hi)
    tol = 1e-9
    return (rep.upper_holds and rep.lower_holds
            and exact_min - tol <= rep.inf_sum <= centres.min() + tol
            and centres.max() - tol <= rep.sup_sum <= exact_max + tol)


# --------------------------------------------------------------------- verify

# ``verify --seed 7`` writes the golden CSVs.  Criterion 5 fails for about
# one seed in ten (6 of seeds 1-60) through the band-edge defect above, which
# frame-bounds reproduces on every round instead
GOLDEN_SEED = 7


class VerifyRunner:
    """``frameforge verify --seed 7`` in-process, writing its CSVs under
    ``outdir``; every round and the warm-up are that one call.  The oracle
    asks for 12/12 criteria and for CSV bytes identical to those of the
    first run."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self.reference: Optional[dict[str, bytes]] = None

    def round(self, rng: np.random.Generator) -> list[Case]:
        return [self.case()]

    def warmup(self, rng: np.random.Generator) -> Case:
        return self.case()

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    def case(self) -> Case:
        shutil.rmtree(self.outdir, ignore_errors=True)
        argv = ["verify", "--seed", str(GOLDEN_SEED), "--outdir", self.outdir]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()
        return Case("verify", {"argv": argv}, call, self.check)

    def check(self, result) -> bool:
        code, text = result
        lines = text.strip().splitlines()
        if code != 0 or not lines or lines[-1] != "12/12 criteria passed":
            return False
        artifacts = {}
        for name in sorted(os.listdir(self.outdir)):
            with open(os.path.join(self.outdir, name), "rb") as fh:
                artifacts[name] = fh.read()
        if self.reference is None:
            self.reference = artifacts
        return artifacts == self.reference


# ------------------------------------------------------------------ workloads

Kind = tuple[str, Callable[[np.random.Generator], dict],
             Callable[[dict], Callable[[], Any]], Callable[[dict, Any], bool]]

FRAME_BOUNDS: list[Kind] = [
    ("mult_1d_n1024_q2", _draw_multiplication(1024, 2), _run_multiplication,
     _check_multiplication),
    ("mult_1d_n2048_q2", _draw_multiplication(2048, 2), _run_multiplication,
     _check_multiplication),
    ("mult_1d_n1024_q3", _draw_multiplication(1024, 3), _run_multiplication,
     _check_multiplication),
    ("lshape_2d_n48", _draw_lshape, _run_lshape, _check_lshape),
    ("incommensurate_1d_n1024", _draw_incommensurate, _run_incommensurate,
     _check_incommensurate),
    ("continuous_1d_n1024", _draw_continuous, _run_continuous, _check_continuous),
    ("gabor_q1", _draw_gabor(1), _run_gabor, _check_gabor),
    ("gabor_q2", _draw_gabor(2), _run_gabor, _check_gabor),
    ("gabor_q4", _draw_gabor(4), _run_gabor, _check_gabor),
]

# fixed reproductions of documented defects, run untimed in every round;
# each counts as a failed verdict until its defect is fixed
REPRODUCTIONS = [
    ("band_edge_defect", BAND_EDGE_DEFECT, _run_band_edge, _check_band_edge),
    *[(f"bracket_defect_s{s}", _defect_params(s), _run_bracket, _check_bracket)
      for s in DEFECT_SCALES],
    ("probe_2d_defect", PROBE_DEFECT, _run_probe, _check_probe),
]


class FrameBounds:
    """One fresh case of every kind in ``FRAME_BOUNDS`` per round, then the
    fixed reproductions, which are judged but not timed.

    ``sizes`` maps a kind to parameter overrides applied after the draw, so
    the self-tests run the real rounds at tiny sizes on the same draws.
    """

    def __init__(self, sizes: Optional[dict[str, dict]] = None):
        self.sizes = sizes or {}

    def round(self, rng: np.random.Generator) -> list[Case]:
        cases = [self._case(kind, rng) for kind in FRAME_BOUNDS]
        for kind, p, run, check in REPRODUCTIONS:
            cases.append(Case(kind, p, run(p), lambda res, p=p, check=check: check(p, res),
                              known_defect=True))
        return cases

    def warmup(self, rng: np.random.Generator) -> Case:
        """A representative verdict with fresh inputs, for the set-up."""
        return self._case(FRAME_BOUNDS[0], rng)

    def close(self) -> None:
        pass

    def _case(self, kind: Kind, rng: np.random.Generator) -> Case:
        name, draw, run, check = kind
        p = {**draw(rng), **self.sizes.get(name, {})}
        return Case(name, p, run(p), lambda res: check(p, res))


# name -> factory taking a scratch directory the workload may write to
WORKLOADS: dict[str, Callable[[str], Any]] = {
    "frame-bounds": lambda scratch: FrameBounds(),
    "verify": VerifyRunner,
}
