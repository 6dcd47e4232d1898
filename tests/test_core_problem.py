"""Tests for the FJVoteProblem objective and caching."""

import numpy as np
import pytest

from repro.core.problem import FJVoteProblem
from repro.voting.scores import (
    CopelandScore,
    CumulativeScore,
    PluralityScore,
)
from tests.conftest import random_instance


def test_objective_matches_score_on_full_matrix(random_state):
    for score in (CumulativeScore(), PluralityScore(), CopelandScore()):
        problem = FJVoteProblem(random_state, 1, 4, score)
        seeds = np.array([0, 5])
        direct = score.evaluate(problem.full_opinions(seeds), 1)
        assert problem.objective(seeds) == pytest.approx(direct)


def test_competitors_independent_of_seeds(random_state):
    problem = FJVoteProblem(random_state, 0, 3, PluralityScore())
    before = problem.competitor_opinions().copy()
    problem.objective(np.array([1, 2, 3]))
    np.testing.assert_array_equal(problem.competitor_opinions(), before)


def test_full_opinions_row_order(random_state):
    problem = FJVoteProblem(random_state, 1, 2, CumulativeScore())
    full = problem.full_opinions(())
    from repro.opinion.fj import fj_evolve

    for q in range(random_state.r):
        expected = fj_evolve(
            random_state.initial_opinions[q],
            random_state.stubbornness[q],
            random_state.graph(q),
            2,
        )
        np.testing.assert_allclose(full[q], expected)


def test_with_score_shares_caches(random_state):
    base = FJVoteProblem(random_state, 0, 5, CumulativeScore())
    base.others_by_user()
    clone = base.with_score(PluralityScore())
    assert clone._others_by_user is base._others_by_user
    assert isinstance(clone.score, PluralityScore)
    assert clone.horizon == base.horizon


def test_target_wins(random_state):
    problem = FJVoteProblem(random_state, 0, 3, CumulativeScore())
    all_seeds = np.arange(random_state.n)
    # Seeding everyone gives the maximum possible cumulative score n.
    assert problem.objective(all_seeds) == pytest.approx(random_state.n)
    assert problem.target_wins(all_seeds)


def test_invalid_target():
    state = random_instance(n=6, r=2, seed=1)
    with pytest.raises(ValueError):
        FJVoteProblem(state, 5, 3, CumulativeScore())


def test_horizon_zero_uses_initial_opinions(random_state):
    problem = FJVoteProblem(random_state, 0, 0, CumulativeScore())
    assert problem.objective(()) == pytest.approx(
        random_state.initial_opinions[0].sum()
    )


def test_seeded_objective_monotone_in_seed_count(random_state):
    problem = FJVoteProblem(random_state, 0, 4, CumulativeScore())
    values = [problem.objective(np.arange(k)) for k in range(5)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# Pickle budget and shared-array views (the dm-mp data plane's inputs)
# ----------------------------------------------------------------------
def test_getstate_drops_seeded_trajectories_within_byte_budget(random_state):
    """Regression: ``__getstate__`` must keep dropping session/trajectory
    caches.  A problem that evaluated many seeded trajectories has to
    pickle to (essentially) the same bytes as one that evaluated none —
    the budget is the warmed baseline plus loose change, nowhere near the
    dense ``(horizon+1, n)`` arrays the seeded cache holds — and the
    unpickled copy must rebuild those trajectories lazily with identical
    values."""
    import pickle

    problem = FJVoteProblem(random_state, 0, 6, CumulativeScore())
    problem.others_by_user()  # warm the shareable caches (these do ship)
    problem.target_trajectory()
    budget = len(pickle.dumps(problem)) + 512
    seeded = [(1,), (2, 3), (4,), (1, 5), (6,), (0, 7), (8,), (2, 9)]
    for seeds in seeded:
        problem.target_trajectory(seeds)
    assert problem._seeded_trajectories  # the cache is genuinely populated
    payload = pickle.dumps(problem)
    assert len(payload) <= budget, (
        f"pickled problem grew to {len(payload)} bytes (budget {budget}): "
        "a session cache is leaking into __getstate__"
    )
    clone = pickle.loads(payload)
    assert clone._seeded_trajectories == {}
    for seeds in seeded:
        np.testing.assert_array_equal(
            clone.target_trajectory(seeds), problem.target_trajectory(seeds)
        )
