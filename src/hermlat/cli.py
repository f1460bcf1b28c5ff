"""Command-line front end.

Subcommands: field, minima, check, fuzz, bounds.  All output is
self-describing structured text with a version field and the effective
configuration in the header; identical (fixture, seed) runs produce
byte-identical output.  The header's ``precision`` is the number of bits
at which the field's roots were certified (the largest over the fields for
fuzz); ``build_field`` picks it.

Exit codes: 0 all checks passed (or report-only command succeeded),
1 usage or fixture parse error, 2 at least one check failed,
3 uncertified result, exhausted budget, or float64 lattice forms that are
not positive definite.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

from .bundles import BundleError, PrecisionError
from .duality import (
    DualityError,
    codifferent_covolume,
    minkowski_codifferent_bound,
    minkowski_codifferent_vector,
    trace_module,
    unit_ball_volume,
)
from .fixtures import FixtureError, load_bundle, load_field, load_invariants
from .heights import height_limit, height_lower_bounds, height_upper_bounds
from .minima import DEFAULT_BUDGET, BudgetExhausted, successive_minima
from .numberfield import FieldError, duality_gap_constant, trace_gram
from .reports import fmt, fmt_vec, render_documents, render_header, render_report
from .transference import DECLARED, BundleChecks, fuzz

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_UNCERTIFIED = 3

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="hermlat", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fixture_help):
        sp.add_argument("--fixture", required=True, help=fixture_help)
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")

    sp = sub.add_parser("field", help="inspect a field fixture")
    common(sp, "field fixture path")
    sp.add_argument("--cn-max", type=int, default=16, help="largest N in the duality-gap constant table")

    sp = sub.add_parser("minima", help="successive minima of a bundle fixture")
    common(sp, "bundle fixture path")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--mode", choices=["f-rank", "q-rank"], default="f-rank")
    sp.add_argument("--norm", choices=["sup", "sum"], default="sup")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    sp = sub.add_parser("check", help="run transference checks on a bundle fixture")
    common(sp, "bundle fixture path")
    sp.add_argument(
        "--statement",
        choices=[*DECLARED, "all"],
        default="all",
    )
    sp.add_argument("--k", type=int, default=None, help="single index; default sweeps all valid k")
    sp.add_argument("--slack", type=float, default=None,
                    help="override the declared slack (not for chain or all: the chain's links keep theirs)")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    sp = sub.add_parser("fuzz", help="seeded randomized sweep of all checkers")
    sp.add_argument("--fields", required=True,
                    help="comma-separated field fixture paths")
    sp.add_argument("--rank-max", type=int, default=2)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("bounds", help="evaluate the explicit height-bound formulas")
    common(sp, "curve-invariants fixture path")
    sp.add_argument("--d", required=True, help="comma-separated divisor degrees")

    return p


def _list_flag(flag: str, text: str) -> list[str]:
    """The stripped entries of a comma-separated flag; FixtureError naming an empty one."""
    entries = [entry.strip() for entry in text.split(",")]
    if "" in entries:
        raise FixtureError(f"{flag} entry {entries.index('') + 1} is empty in {text!r}")
    return entries


def _exit_code(reports) -> int:
    """The exit code of a run from its reports' verdicts: a failure outranks
    an uncertified result."""
    verdicts = {rep.verdict for rep in reports}
    if "fail" in verdicts:
        return EXIT_FAIL
    if "uncertified" in verdicts:
        return EXIT_UNCERTIFIED
    return EXIT_PASS


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_field(args) -> int:
    if args.cn_max < 1:
        raise ValueError(f"--cn-max must be at least 1, got {args.cn_max}")
    nf = load_field(args.fixture)
    tm = trace_module(nf)
    header = render_header(
        "field",
        [
            ("fixture", str(args.fixture)),
            ("precision", str(nf.prec_bits)),
        ],
    )
    doc = [
        f"poly: {','.join(str(c) for c in nf.defining_poly)}",
        f"degree: {nf.degree}",
        f"signature: ({nf.r1}, {nf.r2})",
        f"discriminant: {nf.discriminant}",
        f"order: {'Z[theta] (maximality unverified)' if nf.power_basis_order else 'user-supplied basis'}",
    ]
    for i, row in enumerate(trace_gram(nf)):
        doc.append(f"trace_gram[{i}]: " + " ".join(str(x) for x in row))
    for j, c in enumerate(tm.codifferent_basis):
        doc.append(f"codifferent[{j}]: " + " ".join(str(x) for x in c.coords))
    doc.append("metric_weights: " + " ".join(str(int(w)) for w in tm.metric_weights))
    doc.append(f"codifferent_covolume_log: {fmt(codifferent_covolume(nf))}")
    doc.append(f"unit_ball_volume: {fmt(unit_ball_volume(nf))}")
    v, lg = minkowski_codifferent_vector(nf)
    doc.append(f"minkowski_vector: " + " ".join(str(x) for x in v.coords))
    doc.append(f"minkowski_sup_log_norm: {fmt(lg)}")
    doc.append(f"minkowski_bound: {fmt(minkowski_codifferent_bound(nf))}")
    table = ["gap_table: N gap_constant(N, field)"]
    for n in range(1, args.cn_max + 1):
        table.append(f"gap: {n} {fmt(duality_gap_constant(n, nf))}")
    _emit(render_documents(header, [doc, table]), args.out)
    return EXIT_PASS


def _cmd_minima(args) -> int:
    from .bundles import restrict_scalars

    bundle = load_bundle(args.fixture)
    lattice = restrict_scalars(bundle)
    profile = successive_minima(lattice, args.k, args.mode, args.norm, args.budget)
    header = render_header(
        "minima",
        [
            ("fixture", str(args.fixture)),
            ("k", str(args.k)),
            ("mode", args.mode),
            ("norm", args.norm),
            ("budget", str(args.budget)),
            ("precision", str(bundle.nf.prec_bits)),
        ],
    )
    doc = []
    for i, (value, witness) in enumerate(zip(profile.values, profile.witnesses), start=1):
        doc.append(f"minimum {i}: {fmt(value)} witness {fmt_vec(witness.z_coords)}")
    doc.append(f"radius_used: {fmt(profile.radius_used)}")
    doc.append(f"nodes: {profile.nodes}")
    doc.append(f"certified: {'yes' if profile.certified else 'no'}")
    _emit(render_documents(header, [doc]), args.out)
    return EXIT_PASS if profile.certified else EXIT_UNCERTIFIED


def _cmd_check(args) -> int:
    selected = {name: st for name, st in DECLARED.items() if args.statement in (name, "all")}
    fixed = [name for name, (_, _, slack, _) in selected.items() if slack is None]
    if fixed and args.slack is not None:
        raise ValueError(
            f"--slack does not apply to {args.statement}: the {fixed[0]}'s links keep their declared slacks"
        )
    if args.slack is not None and not math.isfinite(args.slack):
        raise ValueError(f"--slack must be finite, got {args.slack}")
    bundle = load_bundle(args.fixture)
    ctx = BundleChecks(bundle, args.budget, selected)
    kw = {} if args.slack is None else {"slack": args.slack}
    reports = []
    for check, indices, *_ in selected.values():
        ks = indices(bundle.rank, bundle.nf.degree) if args.k is None else [args.k]
        reports += [check(ctx, k, **kw) for k in ks]
    docs = [render_report(rep) for rep in reports]

    header = render_header(
        "check",
        [
            ("fixture", str(args.fixture)),
            ("statement", args.statement),
            ("k", "all" if args.k is None else str(args.k)),
            ("slack", "default" if args.slack is None else fmt(args.slack)),
            ("budget", str(args.budget)),
            ("precision", str(bundle.nf.prec_bits)),
        ],
    )
    _emit(render_documents(header, docs), args.out)
    return _exit_code(reports)


def _cmd_fuzz(args) -> int:
    fields = [load_field(p) for p in _list_flag("--fields", args.fields)]
    reports = fuzz(fields, args.rank_max, args.trials, args.seed, args.budget)
    header = render_header(
        "fuzz",
        [
            ("fields", args.fields),
            ("rank_max", str(args.rank_max)),
            ("trials", str(args.trials)),
            ("seed", str(args.seed)),
            ("budget", str(args.budget)),
            ("precision", str(max(nf.prec_bits for nf in fields))),
        ],
    )
    counts = Counter(rep.verdict for rep in reports)
    summary = [f"reports: {len(reports)}"]
    summary += [f"{verdict}: {counts[verdict]}" for verdict in ("pass", "fail", "uncertified")]
    docs = [summary]
    docs.extend(render_report(rep) for rep in reports)
    _emit(render_documents(header, docs), args.out)
    return _exit_code(reports)


def _cmd_bounds(args) -> int:
    inv = load_invariants(args.fixture)
    entries = _list_flag("--d", args.d)  # its FixtureError is a ValueError: keep it out of the try
    try:
        degrees = [int(x) for x in entries]
    except ValueError:
        raise FixtureError(f"--d must be a comma-separated integer list, got {args.d!r}") from None
    if any(d < 1 for d in degrees):
        raise FixtureError("--d needs positive integers")
    header = render_header(
        "bounds",
        [
            ("fixture", str(args.fixture)),
            ("g", str(inv.g)),
            ("r", str(inv.r)),
            ("log_disc", fmt(inv.log_disc)),
            ("omega_sq", fmt(float(inv.omega_sq))),
            ("residual_C", fmt(inv.residual_c)),
            ("residual_note", "bounds carry -/+ residual_C*log(d)/d with the configured constant"),
        ],
    )
    limit = height_limit(float(inv.omega_sq), 2 * inv.g - 2)
    rows = ["columns: d|lower_a|lower_b|upper_a|upper_b|limit"]
    for d in degrees:
        la, lb = height_lower_bounds(inv, d)
        ua, ub = height_upper_bounds(inv, d)
        rows.append(
            "|".join(
                [
                    str(d),
                    fmt(float(la)),
                    "" if lb is None else fmt(float(lb)),
                    fmt(float(ua)),
                    "" if ub is None else fmt(float(ub)),
                    fmt(limit),
                ]
            )
        )
    _emit(render_documents(header, [rows]), args.out)
    return EXIT_PASS


_COMMANDS = {
    "field": _cmd_field,
    "minima": _cmd_minima,
    "check": _cmd_check,
    "fuzz": _cmd_fuzz,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        return _COMMANDS[args.command](args)
    except (FixtureError, FieldError, BundleError, OSError, ValueError) as e:
        sys.stderr.write(f"hermlat: {e}\n")
        return EXIT_USAGE
    except (BudgetExhausted, PrecisionError) as e:
        sys.stderr.write(f"hermlat: {e}\n")
        return EXIT_UNCERTIFIED
    except DualityError as e:
        sys.stderr.write(f"hermlat: {e}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
