"""Correctness gate of the hermlat benchmark.

A wrong result fails the run; it is never folded into a metric.  Every
checked bundle must pass ``check_bundle``, and every run re-checks a small
panel of bundles against ``reference.json``, recorded at the commit that
introduced the benchmark.
"""

from __future__ import annotations

import math
from collections import namedtuple

from hermlat import dual_bundle, restrict_scalars, trace_dual
from hermlat.bundles import BundleVector
from hermlat.minima import aggregate, exact_rank
from hermlat.transference import BundleChecks

PROFILE_KEYS = ("mu", "mu_star", "lambda", "lambda_vee", "mu_vee")
LOG_TOL = 1e-9
REL_TOL = 1e-9
ABS_TOL = 1e-12

# The one inequality allowed to fail: the transfer-radius link L3 over
# zeta5, documented in the README ("A known lossy step in the assembly
# chain") and pinned by tests/test_transference.py.  The chain[k] report
# containing it fails with it.
ALLOWED_FAIL_LINK = "chain.L3.minkowski["

# exact_rank reads .bundle, .z_coords and .f_coords; a trace-dual witness
# keeps its module coordinates (over the codifferent) in .t_coords.
_DualWitness = namedtuple("_DualWitness", "bundle z_coords f_coords")


def capturing_checks(sink: list) -> type:
    """A BundleChecks subclass that appends each instance to ``sink``.

    Installed as ``transference.BundleChecks`` so the gate can read the
    profiles that ``check_all`` computed without computing them again.
    """

    class CapturedChecks(BundleChecks):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sink.append(self)

    return CapturedChecks


def _lattice(bundle, key: str):
    if key in ("mu", "lambda"):
        return restrict_scalars(bundle)
    if key == "mu_star":
        return restrict_scalars(dual_bundle(bundle))
    dual = trace_dual(bundle)
    return dual if key == "lambda_vee" else dual.weighted()


def _verdict_problems(reports) -> list[str]:
    problems = []
    for rep in reports:
        failed_links = [l.statement for l in rep.links if l.verdict == "fail"]
        bad_links = [s for s in failed_links if not s.startswith(ALLOWED_FAIL_LINK)]
        problems += [f"{rep.statement}: link {s} failed" for s in bad_links]
        if rep.verdict == "fail" and not (
            rep.statement.startswith("chain[") and failed_links and not bad_links
        ):
            problems.append(f"{rep.statement}: verdict fail")
    return problems


def check_bundle(ctx: BundleChecks, reports) -> list[str]:
    """Problems with one checked bundle; empty when it is correct.

    Every certified profile must have the requested number of witnesses,
    each witness's norm re-evaluated through the lattice's public
    ``sigma_norms``/``aggregate`` must equal the reported minimum, and the
    witnesses must be independent by ``minima.exact_rank``.
    """
    problems = _verdict_problems(reports)
    n, r = ctx.bundle.rank, ctx.nf.degree
    for key in PROFILE_KEYS:
        prof = ctx.profile(key)
        if not prof.certified:
            continue
        want = n * r if prof.mode == "q-rank" else n
        if len(prof.values) != want or len(prof.witnesses) != want:
            problems.append(f"{key}: {len(prof.values)} certified minima, expected {want}")
            continue
        lat = _lattice(ctx.bundle, key)
        for i, (value, w) in enumerate(zip(prof.values, prof.witnesses)):
            norm = aggregate(lat.sigma_norms(w.z_coords), prof.norm)
            if not abs(math.log(norm) - value) <= LOG_TOL:
                problems.append(f"{key}[{i}]: witness norm {math.log(norm)!r} != {value!r}")
        vecs = [w if isinstance(w, BundleVector) else _DualWitness(lat, w.z_coords, w.t_coords)
                for w in prof.witnesses]
        rank = exact_rank(vecs, prof.mode)
        if rank != want:
            problems.append(f"{key}: witnesses have {prof.mode} {rank}, expected {want}")
    return problems


def _finite(x: float):
    return x if math.isfinite(x) else None


def summarize(reports) -> list:
    """JSON form of a bundle's reports: statement, verdict, values, links."""
    return [
        [rep.statement, rep.verdict, [_finite(v) for _, v in rep.quantities],
         [[l.statement, l.verdict, _finite(l.get("lhs")), _finite(l.get("rhs"))]
          for l in rep.links]]
        for rep in reports
    ]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_reference(ref: dict, digest: str, reports) -> list[str]:
    """Differences from a recorded bundle.  A report recorded as
    ``uncertified`` may come out certified; every other report must keep
    its verdict, values and link results."""
    if digest != ref["digest"]:
        return [f"bundle digest {digest} != recorded {ref['digest']}"]
    got = summarize(reports)
    if [g[0] for g in got] != [e[0] for e in ref["reports"]]:
        return ["statements differ from the reference"]
    problems = []
    for (stmt, verdict, values, links), (_, ref_verdict, ref_values, ref_links) in zip(
            got, ref["reports"]):
        if ref_verdict == "uncertified":
            continue
        if verdict != ref_verdict:
            problems.append(f"{stmt}: verdict {verdict}, recorded {ref_verdict}")
        elif not all(_close(a, b) for a, b in zip(values, ref_values)):
            problems.append(f"{stmt}: values {values} != recorded {ref_values}")
        elif [(l[0], l[1]) for l in links] != [(l[0], l[1]) for l in ref_links] or not all(
                _close(a, b) for l, m in zip(links, ref_links) for a, b in zip(l[2:], m[2:])):
            problems.append(f"{stmt}: links differ from the reference")
    return problems
