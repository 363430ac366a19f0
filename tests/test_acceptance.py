"""Acceptance gate: every pinned criterion must pass at its stated tolerance.

One pass/fail line prints per criterion (run pytest with -s to see them all).
"""

import pytest

from frameforge.acceptance import ALL_CRITERIA, criterion_05_window_bound_bracket

SEED = 7


@pytest.mark.parametrize("fn", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(fn):
    result = fn(SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.number:2d} ({result.name}): {result.detail}")
    assert result.passed, f"criterion {result.number} ({result.name}): {result.detail}"


@pytest.mark.parametrize("seed", [10, 21, 36, 44, 45, 54])
def test_window_bound_bracket_at_band_edge_seeds(seed):
    # seeds at which an aliased band-edge frequency inflated B and failed it
    result = criterion_05_window_bound_bracket(seed)
    assert result.passed, result.detail


def test_window_bound_bracket_cap_is_the_ess_sup_on_every_trial():
    # the lattices stay untruncated, so sqrt(B / D+) is the window's largest
    # value at the cell centres, which the piecewise-constant windows all take
    rows = criterion_05_window_bound_bracket(SEED).artifacts[0].rows
    assert len(rows) == 20
    assert all(abs(cap - ess_sup) <= 1e-12 * cap for *_, cap, ess_sup, _ in rows)
