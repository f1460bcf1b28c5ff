"""Executable transference statements and a seeded fuzz harness.

Each checker computes both sides of one inequality from certified minima
and returns a TheoremReport, as do the slope checkers of ``hermlat.slopes``:
one report type, rendered one way, carries every verdict.  A report passes
only when every inequality holds within its declared slack AND every minima
computation certified; uncertified minima can never produce a pass.

Slack policy: 1e-6 for statements whose bound involves transcendental
constants, 1e-9 for purely structural comparisons.  ``DECLARED`` holds
one entry per statement: its checker, valid indices k, slack and the
minima profiles it reads.  The checkers take their k range and slack from
it, ``BundleChecks`` the reads, and ``check_all`` and the command line the
statements they sweep.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .bundles import HermitianBundle, random_bundle, restrict_scalars
from .duality import (
    minkowski_codifferent_bound,
    minkowski_codifferent_vector,
    trace_dual,
    transfer_vector,
)
from .minima import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    MinimaProfile,
    successive_minima,
)
from .numberfield import NumberField, duality_gap_constant

SLACK_ANALYTIC = 1e-6
SLACK_STRUCTURAL = 1e-9


@dataclass(frozen=True)
class TheoremReport:
    """Verdict plus the numeric sides of one checked statement."""

    statement: str
    digest: str
    quantities: tuple[tuple[str, float], ...]
    slack: float
    verdict: str  # pass | fail | uncertified
    witnesses: tuple[tuple[str, tuple[int, ...]], ...] = ()
    links: tuple["TheoremReport", ...] = ()
    context: tuple[tuple[str, str], ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def get(self, name: str) -> float:
        for key, value in self.quantities:
            if key == name:
                return value
        raise KeyError(name)


def _verdict(certified: bool, holds: bool) -> str:
    if not certified:
        return "uncertified"
    return "pass" if holds else "fail"


def _value(profile: MinimaProfile, idx: int) -> float:
    """Profile value, NaN when a partial profile is too short."""
    return profile.values[idx] if idx < len(profile.values) else math.nan


def _witness(profile: MinimaProfile, idx: int) -> tuple[int, ...]:
    return profile.witnesses[idx].z_coords if idx < len(profile.witnesses) else ()


# profile key -> (BundleChecks lattice attribute, mode, norm), over the lattice's full rank
PROFILES = {
    "mu": ("primal", "f-rank", "sup"),  # sup-norm F-independent minima of the bundle
    "mu_star": ("star", "f-rank", "sup"),  # same for the dual bundle
    "lambda": ("primal", "q-rank", "sup"),  # sup-norm Q-independent minima
    "lambda_vee": ("tdual", "q-rank", "sum"),  # polar (sum-norm) minima of the trace dual
    "mu_vee": ("weighted", "f-rank", "sup"),  # alpha-weighted sup minima of the trace dual
}


def bundle_digest(bundle: HermitianBundle) -> str:
    h = hashlib.sha256()
    h.update(repr(bundle.nf.defining_poly).encode())
    h.update(str(bundle.rank).encode())
    for g in bundle.grams:
        h.update(np.round(np.asarray(g, dtype=complex), 12).tobytes())
    return h.hexdigest()[:16]


class BundleChecks:
    """Shared minima profiles for one bundle; lazily computed, memoized.

    The lattices the profiles run on are built at most once each and share
    one memo dict; ``hermlat.minima`` keys its entries by content, so that
    is where it is decided which reductions and searched balls two of them
    share.  ``statements`` names what the context will check
    (every declared statement by default).  When those read both ``mu`` and
    ``lambda``, ``lambda`` is computed first: ``mu``'s ball lies inside
    ``lambda``'s (same lattice, same sup norm, smaller proven radius), so
    ``mu`` reads a prefix of that ball instead of searching its own.  The
    bundle and its derived lattices are immutable; the only mutations are
    the internal cache and the memo, which are only filled during
    single-threaded checks.
    """

    def __init__(self, bundle: HermitianBundle, budget: int = DEFAULT_BUDGET,
                 statements: Iterable[str] | None = None):
        self.bundle = bundle
        self.nf = bundle.nf
        self.budget = budget
        self.digest = bundle_digest(bundle)
        self._profiles: dict[str, MinimaProfile] = {}
        self._memo: dict = {}
        names = DECLARED if statements is None else statements
        reads = {key for name in names for key in DECLARED[name][3]}
        self._lambda_first = {"mu", "lambda"} <= reads

    @cached_property
    def primal(self):
        return replace(restrict_scalars(self.bundle), memo=self._memo)

    @cached_property
    def star(self):
        return replace(restrict_scalars(self.bundle.dual), memo=self._memo)

    @cached_property
    def tdual(self):
        return replace(trace_dual(self.bundle), memo=self._memo)

    @cached_property
    def weighted(self):
        return replace(self.tdual.weighted(), memo=self._memo)

    def profile(self, key: str) -> MinimaProfile:
        """The minima profile named ``key`` in ``PROFILES``, computed once."""
        if key not in self._profiles:
            if key == "mu" and self._lambda_first:
                self.profile("lambda")
            attr, mode, norm = PROFILES[key]
            lat = getattr(self, attr)
            count = lat.max_f_rank if mode == "f-rank" else lat.z_rank
            self._profiles[key] = successive_minima(lat, count, mode, norm, self.budget)
        return self._profiles[key]

    def transfer(self) -> tuple:
        """The field's transfer vector and its sup log-norm; (None, NaN) past the budget."""
        return _searched(transfer_vector, self.nf, self.budget)


def _searched(search, nf: NumberField, budget: int) -> tuple:
    """A field vector search's (vector, log-norm), or (None, NaN) past the budget."""
    try:
        return search(nf, budget)
    except BudgetExhausted:
        return None, math.nan


def _prepare(name: str, source, k: int, slack: float | None = None):
    """The BundleChecks of ``source`` (a bundle or a BundleChecks) and the declared slack
    of statement ``name`` unless overridden; ValueError for k outside its declared range."""
    ctx = source if isinstance(source, BundleChecks) else BundleChecks(source, statements=[name])
    _, indices, declared, _ = DECLARED[name]
    ks = indices(ctx.bundle.rank, ctx.nf.degree)
    if k not in ks:
        raise ValueError(f"k={k} out of range for {name}: need {ks.start} <= k <= {ks.stop - 1}")
    return ctx, declared if slack is None else slack


def check_sandwich(bundle_or_checks, k: int, slack: float | None = None) -> TheoremReport:
    """Sandwich 0 <= mu_k(E) + mu_(N+1-k)(E*) <= C(N, F)."""
    ctx, slack = _prepare("sandwich", bundle_or_checks, k, slack)
    n = ctx.bundle.rank
    pe = ctx.profile("mu")
    pd = ctx.profile("mu_star")
    total = _value(pe, k - 1) + _value(pd, n - k)
    c = duality_gap_constant(n, ctx.nf)
    certified = pe.certified and pd.certified
    holds = -slack <= total <= c + slack
    return TheoremReport(
        statement=f"sandwich[k={k}]",
        digest=ctx.digest,
        quantities=(
            ("mu_k", _value(pe, k - 1)),
            ("mu_dual_N+1-k", _value(pd, n - k)),
            ("sum", total),
            ("gap_constant", c),
        ),
        slack=slack,
        verdict=_verdict(certified, holds),
        witnesses=(
            ("mu_k", _witness(pe, k - 1)),
            ("mu_dual_N+1-k", _witness(pd, n - k)),
        ),
    )


def check_polar_transference(bundle_or_checks, k: int, slack: float | None = None) -> TheoremReport:
    """Polar transference: lambda_k + lambda^v_(Nr+1-k) <= (3/2) log(Nr).

    The companion lower bound lambda_k + lambda^v_(Nr+1-k) >= 0 is recorded
    in the report but does not affect the verdict.
    """
    ctx, slack = _prepare("polar", bundle_or_checks, k, slack)
    nr = ctx.bundle.rank * ctx.nf.degree
    pl = ctx.profile("lambda")
    pv = ctx.profile("lambda_vee")
    lam = _value(pl, k - 1)
    lam_vee = _value(pv, nr - k)
    total = lam + lam_vee
    bound = 1.5 * math.log(nr)
    certified = pl.certified and pv.certified
    holds = total <= bound + slack
    return TheoremReport(
        statement=f"polar[k={k}]",
        digest=ctx.digest,
        quantities=(
            ("lambda_k", lam),
            ("lambda_vee_Nr+1-k", lam_vee),
            ("sum", total),
            ("bound", bound),
            ("lower_companion", total),  # >= 0 expected, report-only
        ),
        slack=slack,
        verdict=_verdict(certified, holds),
        witnesses=(
            ("lambda_k", _witness(pl, k - 1)),
            ("lambda_vee_Nr+1-k", _witness(pv, nr - k)),
        ),
    )


def check_index_comparison(bundle_or_checks, k: int, slack: float | None = None) -> TheoremReport:
    """Index comparison mu_(k+1) <= lambda_(kr+1) between the two
    independence notions on the same sup-normed lattice."""
    ctx, slack = _prepare("index", bundle_or_checks, k, slack)
    pe = ctx.profile("mu")
    pl = ctx.profile("lambda")
    lhs = _value(pe, k)
    rhs = _value(pl, k * ctx.nf.degree)
    certified = pe.certified and pl.certified
    return TheoremReport(
        statement=f"index[k={k}]",
        digest=ctx.digest,
        quantities=(("mu_k+1", lhs), ("lambda_kr+1", rhs)),
        slack=slack,
        verdict=_verdict(certified, lhs <= rhs + slack),
        witnesses=(("mu_k+1", _witness(pe, k)),),
    )


def check_proof_chain(bundle_or_checks, k: int) -> TheoremReport:
    """Every intermediate inequality of the duality-sandwich assembly.

    Links, for a rank-N bundle over a degree-r field with 1 <= k <= N:

      L1  mu_k(E) <= lambda_((k-1)r+1)                       [structural]
      L2  mu_(N+1-k)(E*) <= mu_(N+1-k)(E^v_w) + log|v|        [transfer]
      L3  log|v| <= (1/r)log|disc| - (r2/r)log(pi)            [minkowski]
      L4  mu_(N+1-k)(E^v_w) <= lambda^v_((N-k)r+1) + log(r)   [norm sandwich]
      L5  lambda_((k-1)r+1) + lambda^v_((N-k)r+1)
            <= lambda_(kr) + lambda^v_(Nr-kr+1)               [index shift]
      L6  lambda_(kr) + lambda^v_(Nr-kr+1) <= (3/2)log(Nr)    [polar transference]

    plus the assembled sandwich mu_k(E) + mu_(N+1-k)(E*) <= C(N,F).
    """
    ctx, _ = _prepare("chain", bundle_or_checks, k)
    n, r = ctx.bundle.rank, ctx.nf.degree
    nr = n * r
    pe = ctx.profile("mu")
    ps = ctx.profile("mu_star")
    pl = ctx.profile("lambda")
    pv = ctx.profile("lambda_vee")
    pw = ctx.profile("mu_vee")
    v, v_log = ctx.transfer()
    certified = v is not None and all(p.certified for p in (pe, ps, pl, pv, pw))

    mu_k = _value(pe, k - 1)
    mu_star = _value(ps, n - k)
    mu_vee = _value(pw, n - k)
    lam_a = _value(pl, (k - 1) * r)  # lambda_((k-1)r+1)
    lam_b = _value(pl, k * r - 1)  # lambda_(kr)
    lamv_a = _value(pv, (n - k) * r)  # lambda^v_((N-k)r+1) == lambda^v_(Nr-kr+1)
    mink = minkowski_codifferent_bound(ctx.nf)
    c = duality_gap_constant(n, ctx.nf)

    def link(name, lhs, rhs, slack):
        return TheoremReport(
            statement=name,
            digest=ctx.digest,
            quantities=(("lhs", lhs), ("rhs", rhs)),
            slack=slack,
            verdict=_verdict(certified, lhs <= rhs + slack),
        )

    links = (
        link(f"chain.L1.index[k={k}]", mu_k, lam_a, SLACK_STRUCTURAL),
        link(f"chain.L2.dual_transfer[k={k}]", mu_star, mu_vee + v_log, SLACK_ANALYTIC),
        link(f"chain.L3.minkowski[k={k}]", v_log, mink, SLACK_ANALYTIC),
        link(f"chain.L4.log_r_step[k={k}]", mu_vee, lamv_a + math.log(r), SLACK_ANALYTIC),
        link(f"chain.L5.index_shift[k={k}]", lam_a + lamv_a, lam_b + lamv_a, SLACK_STRUCTURAL),
        link(f"chain.L6.polar[k={k}]", lam_b + lamv_a, 1.5 * math.log(nr), SLACK_ANALYTIC),
        link(f"chain.assembled[k={k}]", mu_k + mu_star, c, SLACK_ANALYTIC),
    )
    all_hold = all(l.verdict == "pass" for l in links)
    return TheoremReport(
        statement=f"chain[k={k}]",
        digest=ctx.digest,
        quantities=(
            ("mu_k", mu_k),
            ("mu_star_N+1-k", mu_star),
            ("mu_vee_N+1-k", mu_vee),
            ("transfer_log_norm", v_log),
            ("gap_constant", c),
        ),
        slack=SLACK_ANALYTIC,
        verdict=_verdict(certified, all_hold),
        links=links,
    )


def dual_minima_comparison(bundle_or_checks, k: int, slack: float | None = None) -> TheoremReport:
    """Check mu_k(E*) <= mu_k(E^v) + sup log|v| with the transfer vector.

    The left side is the ``mu_star`` profile (dual bundle, inverse
    metrics), the middle the ``mu_vee`` profile (trace-dual lattice with
    the weighted alpha norms and F-independence), and v is the field's
    transfer vector: the shortest vector of the inverse trace module in the
    duality metric.  The codifferent Minkowski vector and its guaranteed
    bound are reported alongside; the verdict does not read them, so a
    Minkowski search that exhausts the budget reports nan and leaves the
    verdict as it is.
    """
    ctx, slack = _prepare("dual-minima", bundle_or_checks, k, slack)
    star = ctx.profile("mu_star")
    dual = ctx.profile("mu_vee")
    v, v_log = ctx.transfer()
    _, mink_log = _searched(minkowski_codifferent_vector, ctx.nf, ctx.budget)
    certified = star.certified and dual.certified and v is not None
    lhs = _value(star, k - 1)
    mid = _value(dual, k - 1)
    return TheoremReport(
        statement=f"dual-minima[k={k}]",
        digest=ctx.digest,
        quantities=(
            ("mu_dual_bundle", lhs),  # mu_k of E* via the inverse metric
            ("mu_trace_dual", mid),  # mu_k of E^v through the alpha identification
            ("transfer_log_norm", v_log),  # sup log-norm of the transfer vector
            ("minkowski_log_norm", mink_log),  # sup log-norm of the codifferent Minkowski vector
            ("minkowski_bound", minkowski_codifferent_bound(ctx.nf)),  # (1/r)log|disc| - (r2/r)log(pi)
        ),
        slack=slack,
        verdict=_verdict(certified, lhs <= mid + v_log + slack),
        witnesses=(
            ("mu_dual_bundle", _witness(star, k - 1)),
            ("mu_trace_dual", _witness(dual, k - 1)),
        ),
    )


# One entry per statement: (checker, valid k for a rank-N bundle over a
# degree-r field, slack or None if fixed, the profiles the checker reads).
# The reads decide whether BundleChecks computes lambda before mu, so they
# must name exactly what the checker reads.
DECLARED = {
    "sandwich": (check_sandwich, lambda n, r: range(1, n + 1), SLACK_ANALYTIC, ("mu", "mu_star")),
    "polar": (check_polar_transference, lambda n, r: range(1, n * r + 1), SLACK_ANALYTIC,
              ("lambda", "lambda_vee")),
    "index": (check_index_comparison, lambda n, r: range(0, n), SLACK_STRUCTURAL, ("mu", "lambda")),
    "chain": (check_proof_chain, lambda n, r: range(1, n + 1), None, tuple(PROFILES)),
    "dual-minima": (dual_minima_comparison, lambda n, r: range(1, n + 1), SLACK_ANALYTIC,
                    ("mu_star", "mu_vee")),
}
# check_all's statements: every declared one but the dual-minima comparison
STATEMENTS = {name: entry for name, entry in DECLARED.items() if name != "dual-minima"}


def check_all(bundle: HermitianBundle, budget: int = DEFAULT_BUDGET) -> list[TheoremReport]:
    """Run every checker of ``STATEMENTS`` at every valid index for one bundle."""
    ctx = BundleChecks(bundle, budget, STATEMENTS)
    n, r = bundle.rank, bundle.nf.degree
    return [check(ctx, k) for check, indices, *_ in STATEMENTS.values() for k in indices(n, r)]


def fuzz(
    fields: Sequence[NumberField],
    rank_max: int,
    trials: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> list[TheoremReport]:
    """Seeded randomized sweep of all checkers; deterministic for a fixed seed.

    Desk-scale guard: rank_max times the largest field degree must not
    exceed 12.  ``fields`` must be non-empty, ``rank_max`` at least 1 and
    ``trials`` non-negative (ValueError).
    """
    if not fields:
        raise ValueError("fuzz needs at least one field")
    if rank_max < 1:
        raise ValueError(f"rank_max must be at least 1, got {rank_max}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    max_deg = max(nf.degree for nf in fields)
    if rank_max * max_deg > 12:
        raise ValueError("rank_max * max degree exceeds the desk-scale guard of 12")
    rng = np.random.default_rng(seed)
    reports: list[TheoremReport] = []
    for trial in range(trials):
        nf = fields[trial % len(fields)]
        rank = int(rng.integers(1, rank_max + 1))
        bundle = random_bundle(nf, rank, rng)
        trial_context = (
            ("trial", str(trial)),
            ("seed", str(seed)),
            ("field", _poly_str(nf)),
            ("rank", str(rank)),
            ("gram_dump", _gram_dump(bundle)),
        )
        reports.extend(replace(rep, context=trial_context) for rep in check_all(bundle, budget))
    return reports


def _poly_str(nf: NumberField) -> str:
    return ",".join(str(c) for c in nf.defining_poly)


def _gram_dump(bundle: HermitianBundle) -> str:
    parts = []
    for s, g in enumerate(bundle.grams):
        flat = ";".join(f"{z.real!r},{z.imag!r}" for z in np.asarray(g, dtype=complex).ravel().tolist())
        parts.append(f"{s}:{flat}")
    return "|".join(parts)
