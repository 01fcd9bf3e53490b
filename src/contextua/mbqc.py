"""Measurement-based computation with mod-2 linear classical control.

An instance is a resource stabilizer state on n qubits, an n x m setting
matrix Q over GF(2), and per party k one single-qubit observable for each
setting bit. Input i selects settings q = Q*i; the computed output is the
parity of the n local outcomes, which is deterministic exactly when the
joint observable (the tensor of the selected locals) lies in the resource
group up to sign. Everything per input depends on i only through q, so the
analysis evaluates each distinct setting once (there are at most 2^rank(Q))
and fills the 2^m-entry table by lookup. The module builds the instance's
measurement contexts, decides contextuality of the state-pinned presheaf,
tabulates the computed function, and checks the statement that a
noncontextual instance computes an affine function of its input.

Each party's local acts on its own qubit, so a setting's local context is
built already in member order (see :func:`joint_observable`); the sorting
:func:`~contextua.contexts.close_context` stays its oracle in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor
from typing import Sequence

from . import gf2
from .contexts import ContextGroup, _close, close_context
from .pauli import PauliBasis, PauliOperator, PauliParseError, multiply_all, parse_pauli
from .presheaf import (
    GlobalSection,
    StateConstraint,
    build_global_problem,
    solve_global,
)
from .stabilizer import make_stabilizer, member_sign


# Every analysis walks all 2^input_bits inputs; larger instances are refused.
MAX_INPUT_BITS = 16


class NonLocalObservableError(ValueError):
    """A party's observable acts outside that party's qubit."""


class ShapeMismatchError(ValueError):
    """Instance dimensions disagree (setting matrix, widths, list lengths)."""


class MalformedFieldError(ValueError):
    """An instance field has the wrong JSON type or a value out of range."""


class InvalidResourceError(ValueError):
    """The resource is not a valid stabilizer group (or not one at all)."""


class IndeterminateInputsError(ValueError):
    """Some inputs' joint observable is not in the resource group up to sign."""

    def __init__(self, inputs: tuple[tuple[int, ...], ...]) -> None:
        self.inputs = inputs
        listing = ", ".join("".join(str(b) for b in i) or "()" for i in inputs)
        super().__init__(f"output is indeterminate for inputs: {listing}")


class VerificationFailedError(RuntimeError):
    """Internal check failed: the derived affine map disagrees with the table."""


@dataclass(eq=False)
class MBQCInstance:
    """A validated instance; build through validate_instance.

    observables[setting][party] is the full-width embedded operator the
    party measures for that setting bit. columns packs Q's columns once:
    bit k of columns[j] is Q[k, j].
    """

    parties: int
    input_bits: int
    columns: tuple[int, ...]
    observables: tuple[tuple[PauliOperator, ...], ...]
    resource: PauliBasis


@dataclass(frozen=True)
class TruthTable:
    """The computed function o: Z_2^m -> Z_2, outputs in binary input order."""

    input_bits: int
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.outputs) != 1 << self.input_bits:
            raise ValueError("truth table must cover every input")
        if any(bit not in (0, 1) for bit in self.outputs):
            raise ValueError("outputs must be bits")


@dataclass(eq=False)
class ContextualityReport:
    """Everything the theorem check needs, bundled.

    theorem_consistent is False only if a global section exists while the
    table is not affine; that combination would contradict the statement
    that noncontextual instances compute affine functions.
    """

    global_section: GlobalSection | gf2.Certificate
    truth_table: TruthTable
    affine: gf2.AffineForm | None
    theorem_consistent: bool
    contexts: tuple[ContextGroup, ...]
    pins: tuple[StateConstraint, ...]
    problem: gf2.Gf2System

    @property
    def is_contextual(self) -> bool:
        return isinstance(self.global_section, gf2.Certificate)


@dataclass(frozen=True)
class LinearOutputMap:
    """Affine description of the output plus the per-party outcome bits.

    outcomes[k] = (s_k(0), s_k(1)); the affine form satisfies
    o(i) = sum_k s_k((Qi)_k) = a.i + c over GF(2) for every input.
    """

    affine: gf2.AffineForm
    outcomes: tuple[tuple[int, int], ...]


def _parse_observable(entry: str, party: int, parties: int) -> PauliOperator:
    if not isinstance(entry, str) or not entry.strip():
        raise MalformedFieldError(
            f"observables entry for party {party} must be a Pauli string, got {entry!r}"
        )
    try:
        op = parse_pauli(entry)
    except PauliParseError as exc:
        raise MalformedFieldError(f"observables entry for party {party}: {exc}") from exc
    if op.width == 1:
        return PauliOperator(parties, op.x_bits << party, op.z_bits << party, op.phase_exp)
    if op.width != parties:
        raise ShapeMismatchError(
            f"observable {entry!r} has width {op.width}, expected {parties}"
        )
    if not set(op.support()) <= {party}:
        raise NonLocalObservableError(
            f"observable {entry!r} for party {party} acts on qubits "
            f"{sorted(op.support())}"
        )
    return op


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_instance(raw: dict) -> MBQCInstance:
    """Check raw (JSON-shaped) instance data and build an MBQCInstance."""
    try:
        parties = raw["parties"]
        input_bits = raw["input_bits"]
        q_rows = raw["Q"]
        observable_lists = raw["observables"]
        resource_lines = raw["resource"]
    except (KeyError, TypeError) as exc:
        raise ShapeMismatchError(f"missing or malformed instance field: {exc}") from exc
    for name, value in (("parties", parties), ("input_bits", input_bits)):
        if not _is_int(value):
            raise MalformedFieldError(f"{name} must be an integer, got {value!r}")
    if parties < 1 or input_bits < 0:
        raise ShapeMismatchError("parties must be >= 1 and input_bits >= 0")
    if input_bits > MAX_INPUT_BITS:
        raise MalformedFieldError(
            f"input_bits must be at most {MAX_INPUT_BITS}, got {input_bits}"
        )
    if not isinstance(q_rows, list) or not all(isinstance(r, list) for r in q_rows):
        raise MalformedFieldError("Q must be a list of rows of bits")
    if len(q_rows) != parties or any(len(row) != input_bits for row in q_rows):
        raise ShapeMismatchError(
            f"setting matrix must be {parties} rows of {input_bits} bits"
        )
    for row in q_rows:
        for entry in row:
            if not _is_int(entry) or entry not in (0, 1):
                raise MalformedFieldError(f"Q entries must be 0 or 1, got {entry!r}")
    if not isinstance(observable_lists, list) or not all(
        isinstance(lst, list) for lst in observable_lists
    ):
        raise MalformedFieldError("observables must be two lists of Pauli strings")
    if len(observable_lists) != 2 or any(len(lst) != parties for lst in observable_lists):
        raise ShapeMismatchError("observables must be two lists of one entry per party")
    if not isinstance(resource_lines, list) or not all(
        isinstance(line, str) for line in resource_lines
    ):
        raise MalformedFieldError("resource must be a list of signed Pauli strings")
    observables = tuple(
        tuple(
            _parse_observable(entry, party, parties)
            for party, entry in enumerate(setting_list)
        )
        for setting_list in observable_lists
    )
    try:
        gens = [parse_pauli(line) for line in resource_lines]
        for g in gens:
            if g.width != parties:
                raise ShapeMismatchError(
                    f"resource generator {g} has width {g.width}, expected {parties}"
                )
        resource = make_stabilizer(gens)
    except ShapeMismatchError:
        raise
    except ValueError as exc:
        raise InvalidResourceError(str(exc)) from exc
    return MBQCInstance(
        parties=parties,
        input_bits=input_bits,
        columns=tuple(
            sum(row[j] << k for k, row in enumerate(q_rows)) for j in range(input_bits)
        ),
        observables=observables,
        resource=resource,
    )


def _setting_of(inst: MBQCInstance, bits: Sequence[int]) -> int:
    """Settings q = Q*i for one input, packed: bit k is party k's setting."""
    if len(bits) != inst.input_bits:
        raise ValueError(f"input must have {inst.input_bits} bits")
    return reduce(xor, (c for b, c in zip(bits, inst.columns) if b & 1), 0)


def _distinct_settings(inst: MBQCInstance) -> list[int]:
    """Every input's packed setting, in binary input order (i_m least significant)."""
    settings = [0]
    for column in reversed(inst.columns):
        settings += [q ^ column for q in settings]
    return settings


def _locals(inst: MBQCInstance, q: int) -> list[PauliOperator]:
    return [inst.observables[(q >> k) & 1][k] for k in range(inst.parties)]


def joint_observable(
    inst: MBQCInstance, bits: Sequence[int]
) -> tuple[PauliOperator, ContextGroup]:
    """The measured product observable for one input, and its local context.

    The context is generated by the selected per-party observables together
    with their product, so the product appears as a named member. It is
    built in member order without the sort of :func:`close_context`, which
    stays its oracle: party k's local has its body letter at position k and
    I elsewhere, and of two such bodies the one with its letter further left
    sorts later, so the canonical non-identity locals in descending party
    order are sorted. A joint of two or more of them agrees with the
    leftmost up to its letter and has more letters after it, so it sorts
    last; with one, the joint is that local up to sign and is not repeated.

    No commutation check runs: a validated instance refuses any party
    observable outside its own qubit (NonLocalObservableError), so the
    locals commute and their joint, their product, commutes with each.
    """
    locals_ = _locals(inst, _setting_of(inst, bits))
    joint = multiply_all(locals_, width=inst.parties)
    members = [op.canonical() for op in reversed(locals_) if not op.is_identity_class]
    if len(members) > 1:
        members.append(joint.canonical())
    return joint, _close(members, inst.parties)


def run(inst: MBQCInstance, bits: Sequence[int]) -> int | None:
    """Computed output bit for one input; None when indeterminate.

    The parity of the local outcomes is fixed by the resource exactly when
    the joint observable is a signed member of the stabilizer group: sign +1
    gives output 0, sign -1 gives output 1.
    """
    locals_ = _locals(inst, _setting_of(inst, bits))
    return member_sign(inst.resource, multiply_all(locals_, width=inst.parties))


def _table(
    settings: list[int], outputs: dict[int, int | None], input_bits: int
) -> TruthTable:
    """The table from each setting's output; raises naming undetermined inputs."""
    if None in outputs.values():
        missing = (index for index, q in enumerate(settings) if outputs[q] is None)
        raise IndeterminateInputsError(tuple(gf2.input_vector(i, input_bits) for i in missing))
    return TruthTable(input_bits, tuple(outputs[q] for q in settings))


def truth_table(inst: MBQCInstance) -> TruthTable:
    """Outputs for all 2^m inputs; raises if any input is indeterminate."""
    settings = _distinct_settings(inst)
    outputs = {
        q: member_sign(inst.resource, multiply_all(_locals(inst, q), width=inst.parties))
        for q in dict.fromkeys(settings)
    }
    return _table(settings, outputs, inst.input_bits)


def contextuality_report(inst: MBQCInstance) -> ContextualityReport:
    """Decide contextuality of the state-pinned presheaf and check the theorem.

    The contexts are one per reachable setting vector, in first-reached
    order over binary input enumeration, then the special context: the
    closure of the reachable joint observables, each pinned to its output.
    Every joint must lie in the resource group up to sign; otherwise the
    instance has indeterminate outputs, no state-pinned analysis is
    meaningful, and IndeterminateInputsError names the inputs.
    """
    settings = _distinct_settings(inst)
    contexts: list[ContextGroup] = []
    joints: dict[int, PauliOperator] = {}
    outputs: dict[int, int | None] = {}
    for index, q in enumerate(settings):
        if q in joints:
            continue
        joint, context = joint_observable(inst, gf2.input_vector(index, inst.input_bits))
        outputs[q] = member_sign(inst.resource, joint)
        joints[q] = joint
        contexts.append(context)
    table = _table(settings, outputs, inst.input_bits)
    # The canonical joint is (-1)^sign_bit times the joint.
    pin_bits = {joint.canonical(): outputs[q] ^ joint.sign_bit for q, joint in joints.items()}
    special = close_context(list(pin_bits), width=inst.parties)
    contexts.append(special)
    pins = tuple(
        StateConstraint(observable=op, value_bit=pin_bits[op]) for op in special.members
    )
    problem = build_global_problem(contexts, pins)
    outcome = solve_global(problem)
    affine = gf2.fit_affine(table.outputs)
    return ContextualityReport(
        global_section=outcome,
        truth_table=table,
        affine=affine,
        theorem_consistent=not (isinstance(outcome, GlobalSection) and affine is None),
        contexts=tuple(contexts),
        pins=pins,
        problem=problem,
    )


def linear_output_map(report: ContextualityReport, inst: MBQCInstance) -> LinearOutputMap:
    """Read the affine output description off a report's global section.

    The outcome bit for party k at setting b is the section's value on the
    signed observable O_k(b). A setting whose observable never occurs in any
    reachable context leaves no trace in the output; its outcome bit falls
    back to the setting-0 bit, which drops its coefficient. The form read
    off must equal report.affine, the one affine form that agrees with the
    table on every input.
    """
    if report.is_contextual:
        raise ValueError("a contextual report has no global section to read")
    section = report.global_section
    outcomes: list[tuple[int, int]] = []
    for k in range(inst.parties):
        pair: list[int | None] = []
        for b in (0, 1):
            op = inst.observables[b][k]
            if op.is_identity_class:
                pair.append(op.sign_bit)
                continue
            if op.body() in section.values:
                pair.append(section.value_of(op))
            else:
                pair.append(None)
        s0, s1 = pair
        if s0 is None:
            raise ValueError(
                f"section does not cover party {k}'s setting-0 observable"
            )
        outcomes.append((s0, s0 if s1 is None else s1))
    # Coefficient j is the parity of the flipping parties that column j sets.
    flips = sum((s0 ^ s1) << k for k, (s0, s1) in enumerate(outcomes))
    affine = gf2.AffineForm(
        coefficients=tuple((column & flips).bit_count() & 1 for column in inst.columns),
        constant=sum(s0 for s0, _ in outcomes) % 2,
    )
    if affine != report.affine:
        raise VerificationFailedError(
            f"section's map {affine} differs from the table's fit {report.affine}"
        )
    return LinearOutputMap(affine=affine, outcomes=tuple(outcomes))
