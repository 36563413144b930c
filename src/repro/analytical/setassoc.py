"""Set-associative miss prediction from stack-distance profiles.

Smith's classic model (A. J. Smith, "Cache Memories", Computing Surveys
1982 -- the paper's reference [12]) predicts the miss ratio of an A-way,
S-set cache from the *fully-associative* LRU stack-distance profile: under
the assumption that blocks map to sets uniformly at random, a reuse at
stack distance ``d`` misses exactly when at least ``A`` of the ``d - 1``
intervening distinct blocks land in the referenced block's set -- a
binomial tail::

    P(miss | d) = P[ Binomial(d - 1, 1/S) >= A ]

This lets a single profiling pass answer miss-ratio questions for *every*
(sets, associativity) geometry at once -- the measurement-side complement
of the paper's Equation 3 analysis (which needs the global miss ratio
improvement of each associativity step).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.trace.stats import StackDistanceProfile
from repro.units import check_power_of_two


def miss_probability_by_distance(
    distances: np.ndarray, sets: int, associativity: int
) -> np.ndarray:
    """``P(miss | stack distance)`` for each distance under Smith's model."""
    if sets < 1 or associativity < 1:
        raise ValueError("sets and associativity must be at least 1")
    distances = np.asarray(distances, dtype=np.int64)
    if np.any(distances < 1):
        raise ValueError("stack distances are 1-based (1 = immediate reuse)")
    if sets == 1:
        # Fully associative: miss iff more than A-1 intervening blocks,
        # i.e. distance > associativity (exact, no approximation).
        return (distances > associativity).astype(np.float64)
    return _binomial_sf(associativity, distances - 1, 1.0 / sets)


def _binomial_sf(threshold: int, trials: np.ndarray, p: float) -> np.ndarray:
    """``P[Binomial(trials, p) >= threshold]`` elementwise, ``0 < p < 1``.

    One minus the pmf summed over ``k < threshold``, by the recurrence
    ``pmf(k + 1) = pmf(k) * (n - k) / (k + 1) * p / (1 - p)`` from
    ``pmf(0) = (1 - p) ** n`` (taken in log space, so long reuse
    distances underflow to a tail of exactly 1).
    """
    n = trials.astype(np.float64)
    term = np.exp(n * np.log1p(-p))
    below = term.copy()
    odds = p / (1.0 - p)
    for k in range(threshold - 1):
        term = term * (n - k) / (k + 1) * odds
        below += term
    # Fewer trials than the threshold can never reach it; elsewhere clip
    # the rounding error of ``1 - below`` into [0, 1].
    return np.where(trials >= threshold, np.clip(1.0 - below, 0.0, 1.0), 0.0)


def predicted_miss_ratio(
    profile: StackDistanceProfile, sets: int, associativity: int
) -> float:
    """Predicted miss ratio of an (S, A) cache from a profile.

    Cold references always miss; reuse references miss with the binomial
    probability of their stack distance.
    """
    if profile.total_references == 0:
        return 0.0
    reuse_misses = float(
        miss_probability_by_distance(
            profile.distances, sets, associativity
        ).sum()
    )
    return (reuse_misses + profile.cold_references) / profile.total_references


def associativity_curve(
    profile: StackDistanceProfile,
    capacity_blocks: int,
    set_sizes: Sequence[int] = (1, 2, 4, 8),
) -> dict:
    """Predicted miss ratio at fixed capacity for each set size.

    ``capacity_blocks`` is held constant, so doubling the associativity
    halves the set count -- the paper's section 5 sweep, answered
    analytically from one profile.
    """
    check_power_of_two(capacity_blocks, "capacity_blocks")
    curve = {}
    for ways in set_sizes:
        check_power_of_two(ways, "set size")
        if ways > capacity_blocks:
            raise ValueError(
                f"{ways}-way does not fit in {capacity_blocks} blocks"
            )
        curve[ways] = predicted_miss_ratio(
            profile, capacity_blocks // ways, ways
        )
    return curve


def miss_ratio_spread(
    profile: StackDistanceProfile, capacity_blocks: int
) -> float:
    """Direct-mapped minus fully-associative predicted miss ratio: the
    conflict-miss headroom associativity can reclaim at this capacity."""
    direct = predicted_miss_ratio(profile, capacity_blocks, 1)
    full = predicted_miss_ratio(profile, 1, capacity_blocks)
    return direct - full
