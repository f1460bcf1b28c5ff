"""Closed-form evaluators for the explicit height-bound expressions.

These are pure formula evaluators: the curve-side inputs (genus, the
self-intersection of the metrized dualizing sheaf, the discriminant term,
and the unspecified residual constant) are user-supplied reals, never
computed here.  Outputs keep the residual constant explicit -- it defaults
to zero and is reported as its own term so no invented constant can
masquerade as a sharp one.

When the discriminant term and the residual constant vanish and the other
inputs are rational, every evaluator stays in exact rational arithmetic
(Fraction in, Fraction out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

# largest deviation from the limit that asymptotic_consistency accepts at d = 10^8
CONVERGENCE_TOL = 1e-6


@dataclass(frozen=True)
class CurveInvariants:
    """User-supplied inputs to the bound evaluators.

    g: genus, at least 2.  r: field degree.  log_disc: log|disc|, >= 0.
    omega_sq: arithmetic self-intersection of the metrized dualizing sheaf
    (nonnegative by a known theorem; enforced on input).  residual_c: the
    unspecified constant of the explicit bounds, >= 0, default 0.  The three
    reals must be finite.
    """

    g: int
    r: int = 1
    log_disc: float = 0.0
    omega_sq: Number = 0.0
    residual_c: float = 0.0

    def __post_init__(self):
        for name in ("log_disc", "omega_sq", "residual_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.g < 2:
            raise ValueError("genus must be at least 2")
        if self.r < 1:
            raise ValueError("field degree must be at least 1")
        if self.log_disc < 0:
            raise ValueError("log discriminant must be nonnegative")
        if self.omega_sq < 0:
            raise ValueError("omega self-intersection must be nonnegative")
        if self.residual_c < 0:
            raise ValueError("residual constant must be nonnegative")


def binomial_sum_constant(m: int, k: int, g: int) -> int:
    """Exact combinatorial constant: 1 for k = 1, else
    (m+g) * sum_{a=0}^{min(k-1,g)} C(m+g-k-a, k-1-a) * C(g, a)."""
    if m < 1 or k < 1 or g < 0:
        raise ValueError("need m >= 1, k >= 1, g >= 0")
    if k == 1:
        return 1
    total = 0
    for a in range(min(k - 1, g) + 1):
        top = m + g - k - a
        if top < 0:
            raise ValueError(f"negative binomial upper index m+g-k-a = {top}; m, k, g out of range")
        total += math.comb(top, k - 1 - a) * math.comb(g, a)
    return (m + g) * total


def height_limit(l_sq: Number, deg_l: Number) -> Number:
    """Asymptotic height floor for a positive-degree metrized line bundle:
    (self-intersection) / (2 * degree)."""
    if deg_l <= 0:
        raise ValueError("degree must be positive")
    return l_sq / (2 * deg_l)


def _log_term(c: float, d: int) -> Number:
    # returning integer zero keeps exact-rational inputs exact
    return 0 if c == 0 else c * math.log(d) / d


def _disc_term(g_minus_1: int, denom: int, log_disc: float) -> Number:
    return 0 if log_disc == 0 else Fraction(g_minus_1, denom) * log_disc


def height_lower_bounds(inv: CurveInvariants, d: int) -> tuple[Number, Number | None]:
    """Lower bounds for the normalized height at divisor degree d.

    Returns (bound_a, bound_b); bound_b is present only when d >= 2g+1.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    g, w = inv.g, inv.omega_sq
    bound_a = (
        w * (d * g + g - 1) / (4 * g * (g - 1) * (d + 2 * g - 2))
        - _disc_term(g - 1, d + 2 * g - 2, inv.log_disc)
        - _log_term(inv.residual_c, d)
    )
    bound_b = None
    if d >= 2 * g + 1:
        bound_b = (
            w * (d - 2 * g + 1) / (4 * (g - 1) * (d - g))
            - _disc_term(g - 1, d - g, inv.log_disc)
            - _log_term(inv.residual_c, d)
        )
    return bound_a, bound_b


def height_upper_bounds(inv: CurveInvariants, d0: int) -> tuple[Number, Number | None]:
    """Upper bounds for the normalized height at divisor degree d0.

    Returns (bound_a, bound_b); bound_b is present only when d0 >= 2g+1.
    """
    if d0 < 1:
        raise ValueError("d0 must be a positive integer")
    g, w = inv.g, inv.omega_sq
    bound_a = (
        w / (4 * (g - 1))
        + w * (2 * g - 1) / (4 * g * (d0 + 2 * g - 2))
        + _disc_term(g - 1, d0 + g - 1, inv.log_disc)
        + _log_term(inv.residual_c, d0)
    )
    bound_b = None
    if d0 >= 2 * g + 1:
        bound_b = (
            w / (4 * (g - 1))
            + w / (4 * (d0 - g))
            + _disc_term(g - 1, d0 - g, inv.log_disc)
            + _log_term(inv.residual_c, d0)
        )
    return bound_a, bound_b


def height_floor(inv: CurveInvariants) -> Number:
    """Scale-invariant floor omega_sq / (4 g (g-1)) for the normalized
    degree of the metrized dualizing sheaf."""
    return inv.omega_sq / (4 * inv.g * (inv.g - 1))


@dataclass(frozen=True)
class AsymptoticReport:
    """Consistency data of the two bound families on a geometric grid."""

    limit: float
    grid: tuple[int, ...]
    lower_values: tuple[float, ...]  # sharpest lower bound per grid point
    upper_values: tuple[float, ...]  # sharpest upper bound per grid point
    fitted_k: float  # max_d d * |deviation from limit|
    converged: bool


def asymptotic_consistency(inv: CurveInvariants) -> AsymptoticReport:
    """Both bound families must straddle and converge to the common limit.

    On the grid d = 10^1 .. 10^8: with zero discriminant term and zero
    residual constant, every lower bound must sit below every upper bound
    (checked pointwise for d >= 2g+1; ValueError otherwise), both families
    must converge to omega_sq / (4(g-1)) with deviation <= fitted_k / d,
    and the deviation at d = 10^8 must be below CONVERGENCE_TOL.
    """
    g = inv.g
    limit = float(height_limit(inv.omega_sq, 2 * g - 2))
    grid = tuple(10**e for e in range(1, 9))
    lows, ups = [], []
    fitted_k = 0.0
    for d in grid:
        la, lb = height_lower_bounds(inv, d)
        ua, ub = height_upper_bounds(inv, d)
        lo = max(float(la), float(lb) if lb is not None else -math.inf)
        hi = min(float(ua), float(ub) if ub is not None else math.inf)
        lows.append(lo)
        ups.append(hi)
        if d >= 2 * g + 1 and inv.residual_c == 0 and inv.log_disc == 0 and lo > hi + 1e-9:
            raise ValueError(
                "lower bound exceeded upper bound on the grid; formula transcription bug"
            )
        for v in (lo, hi):
            fitted_k = max(fitted_k, d * abs(v - limit))
    converged = all(abs(v - limit) <= CONVERGENCE_TOL for v in (lows[-1], ups[-1]))
    return AsymptoticReport(
        limit=limit,
        grid=grid,
        lower_values=tuple(lows),
        upper_values=tuple(ups),
        fitted_k=fitted_k,
        converged=converged,
    )
