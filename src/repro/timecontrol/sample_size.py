"""Sample-Size-Determine — the bisection of Figure 3.4, over whole blocks.

Given the amount of time ``T_i`` available for the stage and a monotone
stage-cost function (built by the strategy from the adaptive ``QCOST``
formulas), find the stage size whose predicted cost is as close to ``T_i``
as possible without exceeding it:

    while |μ_t − T_i| > ε:
        if μ_t < T_i: low := f else high := f
        f := (low + high) / 2

``ε`` is "a system-defined constant denoting the tolerable error in choosing
a μ_t as close to T_i as possible" — we express it as a fraction of ``T_i``.

The paper bisects the real fraction ``f``, but a stage draws whole blocks,
so the search variable here is the integer *stage size* ``k ∈ [1, k_max]``
(the strategy maps it to ``f``). The loop stops within ``ε`` on either side,
as in the figure, or when ``low`` and ``high`` are adjacent sizes — then
``low`` is the largest size under the budget. Each size is priced at most
once, and the loop runs at most ``⌈log₂ k_max⌉`` times.

The bisection is wrapped with the practical boundary cases the paper's
prototype needed: the smallest stage (one block), the largest (everything
still unsampled — if that is affordable, take it all and finish the
relation), and infeasibility (even one block would overspend — the stage is
not started and the remaining quota is wasted, Section 5's "time left which
is too small to start another stage").
"""

from __future__ import annotations

from typing import Callable

from repro.errors import TimeControlError

EPSILON_RATIO = 0.02
"""Figure 3.4's ε, "a system-defined constant", as a fraction of ``T_i``."""


def determine_stage_size(
    cost: Callable[[int], float],
    budget_seconds: float,
    max_size: int,
    epsilon_ratio: float,
) -> tuple[int | None, int]:
    """``(size, iterations)``: the stage size in ``[1, max_size]`` to run.

    ``size`` is ``None`` when no feasible stage exists (nothing left, or even
    size 1 overruns the budget); ``iterations`` counts Figure 3.4's loop. A
    NaN price, which fails every comparison, raises :class:`TimeControlError`.
    """

    def price(size: int) -> float:
        mu = cost(size)
        if mu != mu:  # NaN
            raise TimeControlError(f"stage size {size} is priced at {mu} seconds")
        return mu

    if budget_seconds <= 0 or max_size < 1 or price(1) > budget_seconds:
        return None, 0
    if price(max_size) <= budget_seconds:
        return max_size, 0
    epsilon = epsilon_ratio * budget_seconds
    low, high = 1, max_size  # cost(low) ≤ budget < cost(high)
    iterations = 0
    while high - low > 1:
        iterations += 1
        size = (low + high) // 2
        mu = price(size)
        # Figure 3.4's loop condition: stop once μ_t is within ε of T_i —
        # on either side. Accepting a predicted cost slightly above the
        # budget is what makes d_β (not the bisection) carry the risk
        # control, and why the risk sits near 50% at d_β = 0 (Section 5.A).
        if abs(mu - budget_seconds) <= epsilon:
            return size, iterations
        if mu < budget_seconds:
            low = size
        else:
            high = size
    return low, iterations
