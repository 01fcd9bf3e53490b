"""Report documents: a JSON-stable, round-trippable record of an analysis.

The dataclasses below are the one definition of the JSON document. Each
field is a key, in key order: a field name is the key, a tuple an array, a
dict an object, a nested dataclass an object and None null; every value
bottoms out in strings, integers and booleans. :func:`render_json` adds
the constant ``"tool": "contextua"`` in front and writes the document
itself, byte for byte as ``json.dumps(document, indent=2)`` does but
without its pure-Python encoder, so rendering is byte-identical across
runs and parse_json(render_json(r)) == r holds exactly. Builders
translate solver outputs into report blocks; the text renderer mirrors
the JSON content for terminal reading.
"""
from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Sequence, get_args, get_origin, get_type_hints

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
class MbqcBlock:
    input_bits: int
    truth_table: tuple[int, ...] | None
    indeterminate_inputs: tuple[str, ...]
    affine: gf2.AffineForm | None
    theorem_consistent: bool


@dataclass(frozen=True)
class Pin:
    observable: str
    value_bit: int


@dataclass(frozen=True)
class Analysis:
    verdict: str
    observables: tuple[str, ...]
    contexts: tuple[tuple[str, ...], ...]
    spectrum_sizes: tuple[int, ...]
    pins: tuple[Pin, ...]
    certificate: CertificateBlock | None
    section: GlobalSection | None
    mbqc: MbqcBlock | None


@dataclass(frozen=True)
class Report:
    version: str
    input_sha256: str
    analyses: dict[str, Analysis]


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
    """The report block of one decided problem.

    Observables are named by the problem's labels, and each context by its
    ``names`` tuple, taken as it is: no member operator is read, so a
    maximal context whose relations the solver never read builds none. No
    operator is hashed.
    """
    certificate = section = None
    if isinstance(outcome, gf2.Certificate):
        certificate = CertificateBlock(
            rows=outcome.selected,
            equations=equation_lines(problem, outcome.selected),
        )
    else:
        section = outcome
    return Analysis(
        verdict="noncontextual" if certificate is None else "contextual",
        observables=problem.labels,
        contexts=tuple([c.names for c in contexts]),
        spectrum_sizes=tuple([1 << c.rank for c in contexts]),
        pins=tuple(Pin(p.observable.body(), p.value_bit) for p in pins),
        certificate=certificate,
        section=section,
        mbqc=mbqc,
    )


def mbqc_block(rep: ContextualityReport) -> MbqcBlock:
    return MbqcBlock(
        input_bits=rep.truth_table.input_bits,
        truth_table=rep.truth_table.outputs,
        indeterminate_inputs=(),
        affine=rep.affine,
        theorem_consistent=rep.theorem_consistent,
    )


def _same(value: Any) -> Any:
    return value


@functools.cache
def _codec(tp: Any) -> tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    """(encode, decode) between values of type tp and their JSON form.

    Encoding leaves tuples of plain values as they are: json writes a tuple
    as an array.
    """
    args = get_args(tp)
    if dataclasses.is_dataclass(tp):
        fields = [(name, *_codec(hint)) for name, hint in get_type_hints(tp).items()]
        return (
            lambda v: {name: enc(getattr(v, name)) for name, enc, _ in fields},
            lambda d: tp(**{name: dec(d[name]) for name, _, dec in fields}),
        )
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        enc, dec = _codec(inner)
        return (
            _same if enc is _same else lambda v: None if v is None else enc(v),
            _same if dec is _same else lambda d: None if d is None else dec(d),
        )
    origin = get_origin(tp)
    if origin is tuple:
        enc, dec = _codec(args[0])
        return (
            _same if enc is _same else lambda v: [enc(x) for x in v],
            tuple if dec is _same else lambda d: tuple(dec(x) for x in d),
        )
    if origin is dict:
        enc, dec = _codec(args[1])
        return (
            _same if enc is _same else lambda v: {k: enc(x) for k, x in v.items()},
            _same if dec is _same else lambda d: {k: dec(x) for k, x in d.items()},
        )
    return _same, _same


_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _write(value: Any, pad: str) -> str:
    """value as ``json.dumps(value, indent=2)`` writes it, nested under pad.

    Every array of the document holds one type, so an array whose first
    element is a scalar is written by one map.
    """
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if not value:
        return "{}" if type(value) is dict else "[]"
    inner = pad + "  "
    joint = ",\n" + inner
    if type(value) is dict:
        items = [encode_basestring_ascii(k) + ": " + _write(v, inner) for k, v in value.items()]
        body = joint.join(items)
        return "{\n" + inner + body + "\n" + pad + "}"
    scalar = _SCALARS.get(type(value[0]))
    if scalar is not None:
        body = joint.join(map(scalar, value))
    else:
        body = joint.join([_write(v, inner) for v in value])
    return "[\n" + inner + body + "\n" + pad + "]"


def render_json(report: Report) -> str:
    """The report's document, byte for byte as ``json.dumps(document, indent=2)`` writes it."""
    document = {"tool": "contextua", **_codec(Report)[0](report)}
    return _write(document, "") + "\n"


def parse_json(text: str) -> Report:
    return _codec(Report)[1](json.loads(text))


def _affine_text(affine: gf2.AffineForm) -> str:
    terms = [f"i{j + 1}" for j, c in enumerate(affine.coefficients) if c]
    if affine.constant:
        terms.insert(0, "1")
    return " + ".join(terms) if terms else "0"


def render_text(report: Report) -> str:
    lines = [f"contextua {report.version}", f"input sha256: {report.input_sha256}"]
    for name, a in report.analyses.items():
        lines.append("")
        lines.append(f"[{name}]")
        lines.append(f"verdict: {a.verdict}")
        lines.append(f"observables ({len(a.observables)}): {' '.join(a.observables)}")
        lines.append("contexts:")
        for k, (members, size) in enumerate(zip(a.contexts, a.spectrum_sizes), start=1):
            lines.append(f"  {k}) {' '.join(members)}   (spectrum size {size})")
        if a.pins:
            lines.append("pinned eigenvalues:")
            for pin in a.pins:
                lines.append(f"  {pin.observable} = {'-1' if pin.value_bit else '+1'}")
        if a.certificate is not None:
            lines.append("certificate (no global section exists):")
            for eq in a.certificate.equations:
                lines.append(f"  {eq}")
            lines.append("  sum of the selected rows: 0 = 1 => contradiction")
        if a.section is not None:
            lines.append(
                f"global section (solution space dimension {a.section.dimension}):"
            )
            for label, bit in a.section.values.items():
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
            if m.affine is not None:
                lines.append(f"affine form: o(i) = {_affine_text(m.affine)}")
            elif m.truth_table is not None:
                lines.append("affine form: none (the computed function is not affine)")
            lines.append(
                f"theorem consistent: {'yes' if m.theorem_consistent else 'NO'}"
            )
    return "\n".join(lines) + "\n"
