"""Page value functions (equations 1–5 of the paper), as the tests read them.

The reference the policies' inlined formulas are held to
(``tests/core/test_values.py``, ``tests/test_properties.py``); nothing
under ``src/`` imports it.

All strategies price a page from some combination of:

* ``f`` — a frequency term (past accesses, matched subscriptions, or a
  blend; equations 1, 3, 4, 5),
* ``c`` — the cost to fetch the page from the publisher,
* ``s`` — the page size,
* ``L`` — the GD* inflation value capturing access recency,
* ``beta`` — the GD* balance between long-term popularity and
  short-term temporal correlation.

GD*-framework value (eq. 1):  ``V(p) = L + (f·c/s)^(1/beta)``.
SUB value (eq. 2):            ``V(p) = s_subs·c/s``.
SR value (eq. 5):             ``V(p) = (s_subs − a)·c/s``.
"""

from __future__ import annotations


def gdstar_value(
    inflation: float, frequency: float, cost: float, size: int, beta: float
) -> float:
    """Equation 1: ``L + (f·c/s)^(1/beta)``.

    The frequency term may be negative for SG2 (``f = s − a`` when a
    page was accessed more often than it was subscribed to, eq. 4);
    the fractional power is undefined there, so the base is clamped at
    zero — such a page has no predicted future use and sits at the
    inflation floor, making it the next eviction candidate.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    base = frequency * cost / size
    if base <= 0.0:
        return inflation
    return inflation + base ** (1.0 / beta)


def sub_value(match_count: float, cost: float, size: int) -> float:
    """Equation 2: ``s_subs·c/s`` — the SUB push-time value."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    return match_count * cost / size


def sr_value(match_count: float, access_count: float, cost: float, size: int) -> float:
    """Equation 5: ``(s_subs − a)·c/s`` — remaining-demand value.

    May be negative once a page has been read more times than it was
    subscribed to; negative values simply sort first for eviction.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    return (match_count - access_count) * cost / size


def sg1_frequency(match_count: float, access_count: float) -> float:
    """Equation 3: ``f = s + a`` (prediction plus history)."""
    return match_count + access_count


def sg2_frequency(match_count: float, access_count: float) -> float:
    """Equation 4: ``f = s − a`` (estimated *remaining* references)."""
    return match_count - access_count
