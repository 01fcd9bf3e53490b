"""Output checks that do not go through the solver.

Each report is parsed (text or JSON) into a :class:`Parsed` record and
checked against the item that produced it:

- the input digest matches the files the item wrote;
- every context is a commuting set, and on ``--contexts`` items equals an
  input block; on clique items the observables are exactly the input and
  the contexts are exactly its maximal commuting subsets, enumerated here
  by a separate Bron-Kerbosch search; spectrum sizes are 2^rank;
- a certificate is re-multiplied row by row with ``pauli.multiply_all``:
  each relation row is a product of members of one context equal to its
  right-hand side, each pin row repeats a pin, every label occurs an even
  number of times and an odd number of rows read -1;
- a section satisfies a basis of every context's product relations, found
  by a separate elimination, and every pin;
- an MBQC truth table equals the closed form o(i) = (wt(Qi)/2) mod 2 of the
  GHZ family, its affine fit is recomputed, and the theorem flag is set;
- a JSON report validates against the schema and round-trips through
  ``report.parse_json``.

:func:`check_report` returns the verdict and a list of failure messages
(empty when the report is correct).
"""
from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

from contextua.pauli import multiply, multiply_all, parse_pauli
from contextua.report import parse_json, render_json
from workloads import Item, symplectic


@dataclass
class Parsed:
    sha256: str = ""
    verdict: str = ""
    observables: list[str] = field(default_factory=list)
    contexts: list[list[str]] = field(default_factory=list)
    spectrum_sizes: list[int] = field(default_factory=list)
    pins: list[tuple[str, int]] = field(default_factory=list)
    equations: list[str] | None = None
    section: dict[str, int] | None = None
    truth_table: list[int] | None = None
    affine: tuple[tuple[int, ...], int] | None = None
    theorem_consistent: bool | None = None
    has_mbqc: bool = False


class ReportFormatError(ValueError):
    """The report text does not have the expected layout."""


# ---------------------------------------------------------------- parsing


def parse_json_report(text: str) -> Parsed:
    data = json.loads(text)
    (analysis,) = data["analyses"].values()
    parsed = Parsed(
        sha256=data["input_sha256"],
        verdict=analysis["verdict"],
        observables=list(analysis["observables"]),
        contexts=[list(c) for c in analysis["contexts"]],
        spectrum_sizes=list(analysis["spectrum_sizes"]),
        pins=[(p["observable"], p["value_bit"]) for p in analysis["pins"]],
    )
    if analysis["certificate"] is not None:
        parsed.equations = list(analysis["certificate"]["equations"])
    if analysis["section"] is not None:
        parsed.section = dict(analysis["section"]["values"])
    mbqc = analysis["mbqc"]
    if mbqc is not None:
        parsed.has_mbqc = True
        parsed.truth_table = mbqc["truth_table"]
        if mbqc["affine"] is not None:
            parsed.affine = (tuple(mbqc["affine"]["coefficients"]), mbqc["affine"]["constant"])
        parsed.theorem_consistent = mbqc["theorem_consistent"]
    return parsed


def _signed_bit(text: str) -> int:
    if text not in ("+1", "-1"):
        raise ReportFormatError(f"expected +1 or -1, got {text!r}")
    return 1 if text == "-1" else 0


def parse_text_report(text: str) -> Parsed:
    lines = text.splitlines()
    parsed = Parsed()
    section_name = ""
    for line in lines:
        if line.startswith("input sha256: "):
            parsed.sha256 = line.split(": ", 1)[1]
        elif line.startswith("verdict: "):
            parsed.verdict = line.split(": ", 1)[1]
        elif line.startswith("observables ("):
            parsed.observables = line.split(": ", 1)[1].split()
        elif line == "contexts:":
            section_name = "contexts"
        elif line == "pinned eigenvalues:":
            section_name = "pins"
        elif line.startswith("certificate ("):
            section_name = "certificate"
            parsed.equations = []
        elif line.startswith("global section ("):
            section_name = "section"
            parsed.section = {}
        elif line == "truth table:":
            section_name = "table"
            parsed.has_mbqc = True
            parsed.truth_table = []
        elif line.startswith("affine form: o(i) = "):
            section_name = ""
            inputs = len(parsed.truth_table or ()).bit_length() - 1
            parsed.affine = _parse_affine_text(line.split(" = ", 1)[1], inputs)
        elif line.startswith("theorem consistent: "):
            parsed.theorem_consistent = line.endswith(": yes")
        elif line.startswith("  ") and section_name:
            _parse_entry(parsed, section_name, line.strip())
    return parsed


def _parse_entry(parsed: Parsed, section_name: str, entry: str) -> None:
    if section_name == "contexts":
        members, size = entry.split(")", 1)[1].split("(spectrum size ")
        parsed.contexts.append(members.split())
        parsed.spectrum_sizes.append(int(size.rstrip(")")))
    elif section_name == "pins":
        label, value = entry.split(" = ")
        parsed.pins.append((label, _signed_bit(value)))
    elif section_name == "certificate":
        if not entry.startswith("sum of the selected rows"):
            parsed.equations.append(entry)
    elif section_name == "section":
        label, value = entry.split(" = ")
        parsed.section[label] = _signed_bit(value)
    elif section_name == "table":
        parsed.truth_table.append(int(entry.split(" -> ")[1]))


def _parse_affine_text(form: str, inputs: int) -> tuple[tuple[int, ...], int]:
    terms = form.split(" + ")
    indices = {int(t[1:]) for t in terms if t.startswith("i")}
    return tuple(int(j + 1 in indices) for j in range(inputs)), int("1" in terms)


# ---------------------------------------------------------------- algebra


def _commute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) % 2 == 0


def _packed(label: str) -> int:
    x, z = symplectic(label)
    return x | (z << len(label))


def relation_basis(members: list[str]) -> list[list[str]]:
    """Member subsets whose product is a phase, spanning all such subsets."""
    pivots: dict[int, tuple[int, int]] = {}  # lead bit -> (vector, member mask)
    relations = []
    for index, label in enumerate(members):
        vector, mask = _packed(label), 1 << index
        while vector:
            lead = vector.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (vector, mask)
                break
            vector ^= pivots[lead][0]
            mask ^= pivots[lead][1]
        if not vector:
            relations.append([members[k] for k in range(index + 1) if (mask >> k) & 1])
    return relations


def product_sign_bit(labels: list[str]) -> int | None:
    """Sign bit of the product of the labels, or None if it is no phase."""
    product = multiply_all([parse_pauli(label) for label in labels])
    if product.x_bits or product.z_bits:
        return None
    return product.phase_exp // 2


def _rank(members: list[str]) -> int:
    return len(members) - len(relation_basis(members))


# ---------------------------------------------------------------- checks


def input_digest(item: Item) -> str:
    digest = hashlib.sha256()
    for text in item.files.values():
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _check_contexts(item: Item, parsed: Parsed, errors: list[str]) -> None:
    if len(parsed.spectrum_sizes) != len(parsed.contexts):
        errors.append("one spectrum size per context expected")
    for members, size in zip(parsed.contexts, parsed.spectrum_sizes):
        vectors = [symplectic(m) for m in members]
        if any(not _commute(a, b) for i, a in enumerate(vectors) for b in vectors[i + 1 :]):
            errors.append(f"context {' '.join(members)} does not commute")
            return
        if size != 1 << _rank(members):
            errors.append(f"context {' '.join(members)}: spectrum size {size} is not 2^rank")
    labels = sorted({m for c in parsed.contexts for m in c})
    if sorted(parsed.observables) != labels:
        errors.append("observable list differs from the union of the contexts")
    if "contexts.txt" in item.files:
        blocks, current = [], None
        for line in item.files["contexts.txt"].splitlines():
            if line == "context:":
                current = []
                blocks.append(current)
            else:
                current.append(line)
        if [sorted(b) for b in blocks] != parsed.contexts:
            errors.append("contexts differ from the input blocks")
    elif "obs.txt" in item.files:
        obs = item.files["obs.txt"].split()
        if sorted(parsed.observables) != sorted(obs):
            errors.append("observable list differs from the input observables")
        _check_maximal_cliques(obs, parsed.contexts, errors)


def maximal_clique_masks(neighbours: list[int]) -> set[int]:
    """Every maximal clique of a graph given by neighbour bitmasks.

    Bron-Kerbosch with a pivot of most neighbours among the candidates.
    """
    cliques: set[int] = set()

    def expand(clique: int, candidates: int, excluded: int) -> None:
        if not candidates and not excluded:
            cliques.add(clique)
            return
        pool, pivot_count, pivot = candidates | excluded, -1, 0
        while pool:
            u = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            count = (candidates & neighbours[u]).bit_count()
            if count > pivot_count:
                pivot_count, pivot = count, u
        branch = candidates & ~neighbours[pivot]
        while branch:
            bit = branch & -branch
            branch ^= bit
            v = bit.bit_length() - 1
            expand(clique | bit, candidates & neighbours[v], excluded & neighbours[v])
            candidates &= ~bit
            excluded |= bit

    expand(0, (1 << len(neighbours)) - 1, 0)
    return cliques


def _check_maximal_cliques(obs: list[str], contexts: list[list[str]], errors: list[str]) -> None:
    """The contexts are exactly the maximal commuting subsets of the input."""
    index = {label: k for k, label in enumerate(obs)}
    vectors = [symplectic(label) for label in obs]
    neighbours = [
        sum(1 << j for j, b in enumerate(vectors) if j != i and _commute(a, b))
        for i, a in enumerate(vectors)
    ]
    listed = set()
    for members in contexts:
        if any(m not in index for m in members):
            errors.append(f"context {' '.join(members)} uses a label outside the input")
            return
        mask = sum(1 << index[m] for m in members)
        if mask in listed:
            errors.append(f"context {' '.join(members)} is listed twice")
        listed.add(mask)
    expected = maximal_clique_masks(neighbours)
    for mask in sorted(listed - expected)[:1]:
        members = " ".join(label for label, k in index.items() if (mask >> k) & 1)
        errors.append(f"context {members} is not a maximal commuting subset")
    if expected - listed:
        errors.append(f"{len(expected - listed)} maximal commuting subsets are not listed")


def _parse_equation(equation: str) -> tuple[list[str], int]:
    lhs, rhs = equation.split(" = ")
    labels = [] if lhs == "I" else lhs.split(" * ")
    return labels, _signed_bit(rhs)


def check_certificate(parsed: Parsed) -> list[str]:
    """Re-derive every row of the certificate and its 0 = 1 contradiction."""
    errors = []
    pins = dict(parsed.pins)
    contexts = [set(c) for c in parsed.contexts]
    occurrences: dict[str, int] = {}
    minus_rows = 0
    for equation in parsed.equations or ():
        labels, bit = _parse_equation(equation)
        minus_rows += bit
        for label in labels:
            occurrences[label] = occurrences.get(label, 0) + 1
        if len(labels) == 1 and pins.get(labels[0]) == bit:
            continue
        if not any(set(labels) <= c for c in contexts):
            errors.append(f"row {equation!r} lies in no context")
        elif product_sign_bit(labels) != bit:
            errors.append(f"row {equation!r} does not multiply to its right-hand side")
    if not parsed.equations:
        errors.append("empty certificate")
    odd = sorted(label for label, n in occurrences.items() if n % 2)
    if odd:
        errors.append(f"labels occur an odd number of times: {' '.join(odd[:5])}")
    if minus_rows % 2 == 0:
        errors.append("an even number of rows read -1, so the rows do not sum to 0 = 1")
    return errors


def check_section(parsed: Parsed) -> list[str]:
    """The section must respect every context relation and every pin."""
    errors = []
    values = parsed.section or {}
    if sorted(values) != sorted(parsed.observables):
        return ["section does not assign exactly the observables"]
    for members in parsed.contexts:
        for relation in relation_basis(members):
            if sum(values[m] for m in relation) % 2 != product_sign_bit(relation):
                errors.append(f"section violates {' * '.join(relation)}")
                return errors
    for label, bit in parsed.pins:
        if values.get(label) != bit:
            errors.append(f"section breaks the pin on {label}")
    return errors


@functools.cache
def _ghz_signs(parties: int) -> dict[str, int]:
    """Eigenvalue bit of every element of the n-party GHZ stabilizer group."""
    gens = [parse_pauli("X" * parties)] + [
        parse_pauli("I" * k + "ZZ" + "I" * (parties - k - 2)) for k in range(parties - 1)
    ]
    signs = {}
    for mask in range(1, 1 << parties):
        product = None
        for k, gen in enumerate(gens):
            if (mask >> k) & 1:
                product = gen if product is None else multiply(product, gen)
        signs[product.body()] = product.sign_bit
    return signs


def affine_fit(table: list[int], inputs: int) -> tuple[tuple[int, ...], int] | None:
    constant = table[0]
    coefficients = tuple(table[1 << (inputs - 1 - j)] ^ constant for j in range(inputs))
    for index, out in enumerate(table):
        predicted = constant
        for j, a in enumerate(coefficients):
            predicted ^= a & (index >> (inputs - 1 - j))
        if predicted != out:
            return None
    return coefficients, constant


def check_mbqc(item: Item, parsed: Parsed) -> list[str]:
    errors = []
    q_rows = item.q_rows
    parties, inputs = len(q_rows), len(q_rows[0])
    expected = []
    for index in range(1 << inputs):
        bits = [(index >> (inputs - 1 - j)) & 1 for j in range(inputs)]
        weight = sum(sum(q & b for q, b in zip(row, bits)) % 2 for row in q_rows)
        expected.append((weight // 2) % 2)
    if parsed.truth_table != expected:
        errors.append("truth table differs from o(i) = (wt(Qi)/2) mod 2")
        return errors
    fit = affine_fit(expected, inputs)
    if parsed.affine != fit:
        errors.append(f"affine block {parsed.affine} differs from the fit {fit}")
    if parsed.theorem_consistent is not True:
        errors.append("theorem_consistent is not set")
    if parsed.verdict == "noncontextual" and fit is None:
        errors.append("noncontextual verdict on a non-affine table")
    signs = _ghz_signs(parties)
    for label, bit in parsed.pins:
        if signs.get(label) != bit:
            errors.append(f"pin {label}={bit} disagrees with the GHZ state")
    return errors


def check_report(item: Item, output: str, validator) -> tuple[str, list[str]]:
    """The report's verdict and every failure found in it (none when correct)."""
    try:
        parsed = parse_json_report(output) if item.fmt == "json" else parse_text_report(output)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "unreadable", [f"unreadable report: {exc!r}"]
    return parsed.verdict, _errors(item, output, parsed, validator)


def _errors(item: Item, output: str, parsed: Parsed, validator) -> list[str]:
    errors = []
    if item.fmt == "json":
        errors += check_json(output, validator)
    if parsed.sha256 != input_digest(item):
        errors.append("input digest does not match the input files")
    if parsed.verdict not in ("contextual", "noncontextual"):
        return errors + [f"unknown verdict {parsed.verdict!r}"]
    _check_contexts(item, parsed, errors)
    if "pins.txt" in item.files:
        expected_pins = []
        for line in item.files["pins.txt"].splitlines():
            _, label, value = line.split()
            expected_pins.append((label, _signed_bit(value)))
        if parsed.pins != expected_pins:
            errors.append("pins differ from the pin file")
    contextual = parsed.verdict == "contextual"
    if contextual != (parsed.equations is not None) or contextual == (parsed.section is not None):
        return errors + ["verdict does not match the certificate/section blocks"]
    errors += check_certificate(parsed) if contextual else check_section(parsed)
    if item.q_rows is not None:
        errors += check_mbqc(item, parsed)
    elif parsed.has_mbqc:
        errors.append("unexpected MBQC block")
    return errors


def check_json(output: str, validator) -> list[str]:
    """Schema validation (a jsonschema validator) and the parse_json round trip."""
    errors = [f"schema: {e.message}" for e in validator.iter_errors(json.loads(output))]
    if render_json(parse_json(output)) != output:
        errors.append("parse_json does not round-trip the report")
    return errors
