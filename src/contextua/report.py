"""Report documents: a JSON-stable, round-trippable record of an analysis.

Every field bottoms out in strings, integers, and booleans so that
rendering is byte-identical across runs and parse(render(r)) == r holds
exactly. Builders translate solver outputs into report blocks; the text
renderer mirrors the JSON content for terminal reading.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from . import gf2
from .contexts import ContextGroup
from .mbqc import ContextualityReport
from .presheaf import GlobalSection, StateConstraint

TOOL_VERSION = "0.2.0"


@dataclass(frozen=True)
class CertificateBlock:
    """Row indices of the contradiction and their rendered equations."""

    rows: tuple[int, ...]
    equations: tuple[str, ...]


@dataclass(frozen=True)
class SectionBlock:
    """A global section as (observable, bit) pairs plus solution dimension."""

    values: tuple[tuple[str, int], ...]
    dimension: int


@dataclass(frozen=True)
class MbqcBlock:
    input_bits: int
    truth_table: tuple[int, ...] | None
    indeterminate_inputs: tuple[str, ...]
    affine_coefficients: tuple[int, ...] | None
    affine_constant: int | None
    theorem_consistent: bool


@dataclass(frozen=True)
class Analysis:
    verdict: str
    observables: tuple[str, ...]
    contexts: tuple[tuple[str, ...], ...]
    spectrum_sizes: tuple[int, ...]
    pins: tuple[tuple[str, int], ...]
    certificate: CertificateBlock | None
    section: SectionBlock | None
    mbqc: MbqcBlock | None


@dataclass(frozen=True)
class Report:
    version: str
    input_sha256: str
    analyses: tuple[tuple[str, Analysis], ...]


def equation_lines(problem: gf2.Gf2System, rows: Sequence[int]) -> tuple[str, ...]:
    """Render system rows as product equations over the variable labels."""
    lines = []
    for r in rows:
        terms = sorted(problem.labels[c] for c in gf2.set_bits(problem.matrix.rows[r]))
        rhs = "-1" if problem.rhs >> r & 1 else "+1"
        lines.append(f"{' * '.join(terms) if terms else 'I'} = {rhs}")
    return tuple(lines)


def build_analysis(
    contexts: Sequence[ContextGroup],
    problem: gf2.Gf2System,
    outcome: GlobalSection | gf2.Certificate,
    pins: Sequence[StateConstraint] = (),
    mbqc: MbqcBlock | None = None,
) -> Analysis:
    if isinstance(outcome, gf2.Certificate):
        verdict = "contextual"
        certificate = CertificateBlock(
            rows=outcome.selected,
            equations=equation_lines(problem, outcome.selected),
        )
        section = None
    else:
        verdict = "noncontextual"
        certificate = None
        section = SectionBlock(
            values=tuple(outcome.values.items()), dimension=outcome.dimension
        )
    return Analysis(
        verdict=verdict,
        observables=problem.labels,
        contexts=tuple(tuple(op.body() for op in c.members) for c in contexts),
        spectrum_sizes=tuple(c.group_order for c in contexts),
        pins=tuple((p.observable.body(), p.value_bit) for p in pins),
        certificate=certificate,
        section=section,
        mbqc=mbqc,
    )


def mbqc_block(rep: ContextualityReport) -> MbqcBlock:
    return MbqcBlock(
        input_bits=rep.truth_table.input_bits,
        truth_table=rep.truth_table.outputs,
        indeterminate_inputs=(),
        affine_coefficients=rep.affine.a if rep.affine is not None else None,
        affine_constant=rep.affine.c if rep.affine is not None else None,
        theorem_consistent=rep.theorem_consistent,
    )


def to_dict(report: Report) -> dict:
    def analysis_dict(a: Analysis) -> dict:
        return {
            "verdict": a.verdict,
            "observables": list(a.observables),
            "contexts": [list(c) for c in a.contexts],
            "spectrum_sizes": list(a.spectrum_sizes),
            "pins": [{"observable": o, "value_bit": b} for o, b in a.pins],
            "certificate": None
            if a.certificate is None
            else {
                "rows": list(a.certificate.rows),
                "equations": list(a.certificate.equations),
            },
            "section": None
            if a.section is None
            else {
                "values": {label: bit for label, bit in a.section.values},
                "dimension": a.section.dimension,
            },
            "mbqc": None
            if a.mbqc is None
            else {
                "input_bits": a.mbqc.input_bits,
                "truth_table": None
                if a.mbqc.truth_table is None
                else list(a.mbqc.truth_table),
                "indeterminate_inputs": list(a.mbqc.indeterminate_inputs),
                "affine": None
                if a.mbqc.affine_coefficients is None
                else {
                    "coefficients": list(a.mbqc.affine_coefficients),
                    "constant": a.mbqc.affine_constant,
                },
                "theorem_consistent": a.mbqc.theorem_consistent,
            },
        }

    return {
        "tool": "contextua",
        "version": report.version,
        "input_sha256": report.input_sha256,
        "analyses": {name: analysis_dict(a) for name, a in report.analyses},
    }


def from_dict(data: dict) -> Report:
    def analysis_from(d: dict) -> Analysis:
        cert = d["certificate"]
        sect = d["section"]
        mb = d["mbqc"]
        return Analysis(
            verdict=d["verdict"],
            observables=tuple(d["observables"]),
            contexts=tuple(tuple(c) for c in d["contexts"]),
            spectrum_sizes=tuple(d["spectrum_sizes"]),
            pins=tuple((p["observable"], p["value_bit"]) for p in d["pins"]),
            certificate=None
            if cert is None
            else CertificateBlock(
                rows=tuple(cert["rows"]), equations=tuple(cert["equations"])
            ),
            section=None
            if sect is None
            else SectionBlock(
                values=tuple(sect["values"].items()), dimension=sect["dimension"]
            ),
            mbqc=None
            if mb is None
            else MbqcBlock(
                input_bits=mb["input_bits"],
                truth_table=None
                if mb["truth_table"] is None
                else tuple(mb["truth_table"]),
                indeterminate_inputs=tuple(mb["indeterminate_inputs"]),
                affine_coefficients=None
                if mb["affine"] is None
                else tuple(mb["affine"]["coefficients"]),
                affine_constant=None
                if mb["affine"] is None
                else mb["affine"]["constant"],
                theorem_consistent=mb["theorem_consistent"],
            ),
        )

    return Report(
        version=data["version"],
        input_sha256=data["input_sha256"],
        analyses=tuple(
            (name, analysis_from(a)) for name, a in data["analyses"].items()
        ),
    )


def render_json(report: Report) -> str:
    return json.dumps(to_dict(report), indent=2) + "\n"


def parse_json(text: str) -> Report:
    return from_dict(json.loads(text))


def _affine_text(coefficients: tuple[int, ...], constant: int) -> str:
    terms = [f"i{j + 1}" for j, c in enumerate(coefficients) if c]
    if constant:
        terms.insert(0, "1")
    return " + ".join(terms) if terms else "0"


def render_text(report: Report) -> str:
    lines = [f"contextua {report.version}", f"input sha256: {report.input_sha256}"]
    for name, a in report.analyses:
        lines.append("")
        lines.append(f"[{name}]")
        lines.append(f"verdict: {a.verdict}")
        lines.append(f"observables ({len(a.observables)}): {' '.join(a.observables)}")
        lines.append("contexts:")
        for k, (members, size) in enumerate(zip(a.contexts, a.spectrum_sizes), start=1):
            lines.append(f"  {k}) {' '.join(members)}   (spectrum size {size})")
        if a.pins:
            lines.append("pinned eigenvalues:")
            for label, bit in a.pins:
                lines.append(f"  {label} = {'-1' if bit else '+1'}")
        if a.certificate is not None:
            lines.append("certificate (no global section exists):")
            for eq in a.certificate.equations:
                lines.append(f"  {eq}")
            lines.append("  sum of the selected rows: 0 = 1 => contradiction")
        if a.section is not None:
            lines.append(
                f"global section (solution space dimension {a.section.dimension}):"
            )
            for label, bit in a.section.values:
                lines.append(f"  {label} = {'-1' if bit else '+1'}")
        if a.mbqc is not None:
            m = a.mbqc
            if m.truth_table is not None:
                lines.append("truth table:")
                for index, out in enumerate(m.truth_table):
                    key = format(index, f"0{m.input_bits}b") if m.input_bits else "()"
                    lines.append(f"  {key} -> {out}")
            else:
                lines.append(
                    "truth table: indeterminate for inputs "
                    + ", ".join(m.indeterminate_inputs)
                )
            if m.affine_coefficients is not None:
                lines.append(
                    f"affine form: o(i) = {_affine_text(m.affine_coefficients, m.affine_constant or 0)}"
                )
            elif m.truth_table is not None:
                lines.append("affine form: none (the computed function is not affine)")
            lines.append(
                f"theorem consistent: {'yes' if m.theorem_consistent else 'NO'}"
            )
    return "\n".join(lines) + "\n"
