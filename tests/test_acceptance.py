"""Acceptance gate: every pinned criterion must pass at its stated tolerance.

One pass/fail line prints per criterion (run pytest with -s to see them all).
"""

import functools
import itertools
from collections import Counter

import pytest

from frameforge import acceptance
from frameforge.acceptance import (
    ALL_CRITERIA,
    CriterionResult,
    CsvArtifact,
    criterion_05_window_bound_bracket,
    criterion_12_determinism,
    run_all,
)

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
    # the lattices stay untruncated and every Ron-Shen fiber is one point, so
    # sqrt(B / D+) is the window's largest value at the cell centres; each
    # window is constant on eighths, so that value is its exact ess sup
    rows = criterion_05_window_bound_bracket(SEED).artifacts[0].rows
    assert len(rows) == 20
    assert all(abs(cap - ess_sup) <= 1e-12 * cap for *_, cap, ess_sup, _ in rows)


def replace_main_criteria(monkeypatch, wrap):
    """Put ``wrap(number, fn)`` in place of every main criterion, in
    ``MAIN_CRITERIA`` and in ``run_all``'s default criteria."""
    main = tuple(wrap(number, fn) for number, fn in enumerate(acceptance.MAIN_CRITERIA, 1))
    monkeypatch.setattr(acceptance, "MAIN_CRITERIA", main)
    monkeypatch.setattr(run_all, "__defaults__", tuple(
        main + (criterion_12_determinism,) if d is ALL_CRITERIA else d
        for d in run_all.__defaults__))
    return main


@pytest.fixture
def calls(monkeypatch):
    """Calls of each main criterion, by number."""
    counts = Counter()

    def counted(number, fn):
        @functools.wraps(fn)
        def wrapper(seed):
            counts[number] += 1
            return fn(seed)
        return wrapper

    replace_main_criteria(monkeypatch, counted)
    return counts


def flaky(number):
    """A criterion whose one CSV gets a new row on every call."""
    draws = itertools.count()

    def criterion(seed):
        art = CsvArtifact(f"c{number:02d}_flaky.csv", ("draw",), ((next(draws),),))
        return CriterionResult(number, "flaky", True, "", (art,))
    return criterion


def test_run_all_runs_each_main_criterion_twice(calls):
    # once for the report and once for criterion 12's rerun
    results = run_all(SEED)
    assert [r.passed for r in results] == [True] * 12
    assert calls == {number: 2 for number in range(1, 12)}


def test_determinism_on_a_subset_still_compares_every_main_criterion(calls):
    results = run_all(SEED, (acceptance.MAIN_CRITERIA[3], criterion_12_determinism))
    assert [(r.number, r.passed) for r in results] == [(4, True), (12, True)]
    assert calls == {number: 2 for number in range(1, 12)}


@pytest.mark.parametrize("number", [4, 7])
def test_determinism_names_the_csv_that_changed(monkeypatch, number):
    # criterion 4 is in the subset run_all reports, criterion 7 is not
    main = replace_main_criteria(monkeypatch,
                                 lambda n, fn: flaky(number) if n == number else fn)
    for result in (criterion_12_determinism(SEED),
                   run_all(SEED)[-1],
                   run_all(SEED, (main[3], criterion_12_determinism))[-1]):
        assert (result.number, result.passed) == (12, False)
        assert result.detail == f"artifacts differ: ['c{number:02d}_flaky.csv']"
