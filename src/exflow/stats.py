"""Two-sided Wilcoxon rank-sum test.

Ties take midranks. Small samples (both sizes at or below the cutoff) get
the exact two-sided p-value by counting rank-subset sums; larger samples
use the normal approximation with tie-corrected variance and an optional
continuity correction. Midranks are handled in doubled integer units so
the exact count stays in integer arithmetic.
"""

from __future__ import annotations

import math
from typing import Sequence

from .record import Record


class StatResult(Record):
    __slots__ = ("statistic", "p_value", "method")

    def __init__(self, statistic: float, p_value: float, method: str):
        self.statistic = statistic  # Mann-Whitney U of the first sample
        self.p_value = p_value
        self.method = method  # "exact" | "normal-approximation"

    def __hash__(self) -> int:
        return hash((self.statistic, self.p_value, self.method))


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float], *,
                      exact_cutoff: int = 12,
                      continuity: bool = True) -> StatResult:
    if not a or not b:
        raise ValueError("wilcoxon_rank_sum requires two non-empty samples")
    n, m = len(a), len(b)
    total = n + m
    scaled = _scaled_midranks(list(a) + list(b))
    w_scaled = sum(scaled[:n])  # doubled rank sum of sample a
    u_statistic = w_scaled / 2 - n * (n + 1) / 2

    if n <= exact_cutoff and m <= exact_cutoff:
        p = _exact_p(scaled, n, w_scaled)
        return StatResult(u_statistic, p, "exact")

    mu_scaled = n * (total + 1)  # doubled mean of the rank sum
    tie_term = _tie_correction(list(a) + list(b))
    variance = (n * m / 12.0) * ((total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0:
        return StatResult(u_statistic, 1.0, "normal-approximation")
    deviation = abs(w_scaled - mu_scaled) / 2.0
    if continuity:
        deviation = max(deviation - 0.5, 0.0)
    z = deviation / math.sqrt(variance)
    p = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return StatResult(u_statistic, p, "normal-approximation")


def _scaled_midranks(values: list[float]) -> list[int]:
    """Midrank of each value in input order, doubled so ties stay integral."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    scaled = [0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        # positions i+1 .. j+1 share midrank (i+j+2)/2; doubled: i+j+2
        for k in range(i, j + 1):
            scaled[order[k]] = i + j + 2
        i = j + 1
    return scaled


def _tie_correction(values: list[float]) -> float:
    counts: dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return float(sum(t ** 3 - t for t in counts.values()))


def _exact_p(scaled: list[int], n: int, observed: int) -> float:
    """P(|W - mu| >= |observed - mu|) over all size-n rank subsets, in
    doubled rank units."""
    total = len(scaled)
    mu = n * (total + 1)  # doubled
    threshold = abs(observed - mu)
    # dp[k][s] = number of size-k subsets of the ranks seen so far with sum s
    dp: list[dict[int, int]] = [dict() for _ in range(n + 1)]
    dp[0][0] = 1
    for rank in scaled:
        for k in range(n - 1, -1, -1):
            target = dp[k + 1]
            for s, count in dp[k].items():
                target[s + rank] = target.get(s + rank, 0) + count
    matching = sum(count for s, count in dp[n].items()
                   if abs(s - mu) >= threshold)
    return matching / math.comb(total, n)
