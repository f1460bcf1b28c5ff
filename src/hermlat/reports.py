"""Deterministic plain-text rendering of reports.

One self-describing document per report, key: value lines, blank-line
separated, preceded by a header block that records the format version and
the full effective run configuration.  Floats are always rendered with
%.12e so byte-identical reruns are guaranteed for identical inputs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .transference import TheoremReport

REPORT_VERSION = "hermlat-report/1"


def fmt(x: float) -> str:
    return f"{float(x):.12e}"


def fmt_vec(v: Sequence[int]) -> str:
    return "[" + " ".join(str(int(c)) for c in v) + "]"


def render_header(command: str, config: Sequence[tuple[str, str]]) -> list[str]:
    lines = [f"version: {REPORT_VERSION}", f"command: {command}"]
    lines.extend(f"{key}: {value}" for key, value in config)
    return lines


def render_report(rep: TheoremReport) -> list[str]:
    lines = [f"statement: {rep.statement}", f"digest: {rep.digest}"]
    if rep.context:
        lines.extend(f"{k}: {v}" for k, v in rep.context if k != "gram_dump")
    for name, value in rep.quantities:
        lines.append(f"{name}: {fmt(value)}")
    lines.append(f"slack: {fmt(rep.slack)}")
    lines.append(f"verdict: {rep.verdict}")
    for name, coords in rep.witnesses:
        lines.append(f"witness {name}: {fmt_vec(coords)}")
    for link in rep.links:
        lines.append(
            f"link {link.statement}: lhs={fmt(link.get('lhs'))} "
            f"rhs={fmt(link.get('rhs'))} slack={fmt(link.slack)} verdict={link.verdict}"
        )
    if rep.verdict == "fail" and rep.context:
        # full reproduction data for failures
        lines.extend(f"repro {k}: {v}" for k, v in rep.context)
    return lines


def render_documents(header: list[str], documents: Iterable[list[str]]) -> str:
    blocks = ["\n".join(header)]
    blocks.extend("\n".join(doc) for doc in documents)
    return "\n\n".join(blocks) + "\n"
