"""Measurement-based computation with mod-2 linear classical control.

An instance is a resource stabilizer state on n qubits, an n x m setting
matrix Q over GF(2), and per party k one single-qubit observable for each
setting bit. Input i selects settings q = Q*i; the computed output is the
parity of the n local outcomes, which is deterministic exactly when the
joint observable (the tensor of the selected locals) lies in the resource
group up to sign. Everything per input depends on i only through q, and
no step runs Python code per input: the inputs' settings come by list
doubling, the 2^m-entry table by one ``map``, its bits checked by two
counts. The reached settings, at most 2^r for r = rank(Q), are listed by
doubling over a basis of Q's columns in the order binary input
enumeration first reaches them: only setting 0 and the r pivots are looked
up in the resource group, and every other setting's member is one signed
product (:func:`_reached`). The module builds the instance's measurement
contexts, decides contextuality of the state-pinned presheaf, tabulates
the computed function, and checks the statement that a noncontextual
instance computes an affine function of its input.

Party k's local acts on qubit k alone, so a setting's joint and local
context are a few int operations on a mask table (:func:`joint_observable`);
the sorting :func:`~contextua.contexts.close_context` stays their oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import xor
from typing import Sequence

from . import gf2
from .contexts import ContextGroup, close_context
from .pauli import PauliBasis, PauliOperator, PauliParseError, _unchecked, parse_pauli
from .presheaf import GlobalSection, StateConstraint, decide_global
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
    bit k of columns[j] is Q[k, j]. The mask table is built once: per setting
    bit, masks ORs its locals' x, z, low and high phase_exp bits at bit k.
    canonical[party][setting] pairs the canonical local with its body.
    """

    parties: int
    input_bits: int
    columns: tuple[int, ...]
    observables: tuple[tuple[PauliOperator, ...], ...]
    resource: PauliBasis
    masks: tuple[tuple[int, int, int, int], ...] = field(init=False, repr=False)
    canonical: tuple[tuple[tuple[PauliOperator, str], ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Party k's local sits at bit k, so summing over parties ORs disjoint bits.
        self.masks = tuple(
            (sum(op.x_bits for op in ops), sum(op.z_bits for op in ops),
             sum((op.phase_exp & 1) << k for k, op in enumerate(ops)),
             sum((op.phase_exp >> 1) << k for k, op in enumerate(ops)))
            for ops in self.observables
        )
        self.canonical = tuple(
            tuple((op.canonical(), op.body()) for op in ops) for ops in zip(*self.observables)
        )


@dataclass(frozen=True)
class TruthTable:
    """The computed function o: Z_2^m -> Z_2, outputs in binary input order."""

    input_bits: int
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.outputs) != 1 << self.input_bits:
            raise ValueError("truth table must cover every input")
        if self.outputs.count(0) + self.outputs.count(1) != len(self.outputs):
            raise ValueError("outputs must be bits")


@dataclass(eq=False)
class ContextualityReport:
    """Everything the theorem check needs, bundled.

    theorem_consistent is False only if a global section exists while the
    table is not affine; that combination would contradict the statement
    that noncontextual instances compute affine functions. problem is what
    :func:`~contextua.presheaf.decide_global` read: every label, and the rows
    up to the certificate's last (all of them when a section exists).
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


def _parse_observable(entry: str, party: int, parties: int, parsed: dict) -> PauliOperator:
    if not isinstance(entry, str) or not entry.strip():
        raise MalformedFieldError(
            f"observables entry for party {party} must be a Pauli string, got {entry!r}"
        )
    op = parsed.get(entry)
    if op is None:
        try:
            op = parsed[entry] = parse_pauli(entry)
        except PauliParseError as exc:
            raise MalformedFieldError(f"observables entry for party {party}: {exc}") from exc
    if op.width == 1:  # a valid operator moved onto qubit party, its letters padded with I
        local = _unchecked(parties, op.x_bits << party, op.z_bits << party, op.phase_exp)
        local._body = "I" * party + op.body() + "I" * (parties - 1 - party)
        return local
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
    columns = [int("".join(map("01".__getitem__, reversed(column))), 2) for column in zip(*q_rows)]
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
    parsed: dict[str, PauliOperator] = {}  # each distinct text is parsed once
    observables = tuple(
        tuple(
            _parse_observable(entry, party, parties, parsed)
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
        columns=tuple(columns),
        observables=observables,
        resource=resource,
    )


def _setting_of(inst: MBQCInstance, bits: Sequence[int]) -> int:
    """Settings q = Q*i for one input, packed: bit k is party k's setting."""
    if len(bits) != inst.input_bits:
        raise ValueError(f"input must have {inst.input_bits} bits")
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"input bits must be 0 or 1, got {bit!r}")
    return reduce(xor, compress(inst.columns, bits), 0)


def _distinct_settings(inst: MBQCInstance) -> list[int]:
    """Every input's packed setting, in binary input order (i_m least significant)."""
    settings = [0]
    for column in reversed(inst.columns):
        settings += [q ^ column for q in settings]
    return settings


def _joint(inst: MBQCInstance, q: int) -> PauliOperator:
    """multiply_all of setting q's locals: on disjoint qubits, their phases just add."""
    (x0, z0, lo0, hi0), (x1, z1, lo1, hi1) = inst.masks
    phase = (lo0 & ~q | lo1 & q).bit_count() + 2 * (hi0 & ~q | hi1 & q).bit_count()
    return _unchecked(inst.parties, x0 & ~q | x1 & q, z0 & ~q | z1 & q, phase & 3)


def joint_observable(
    inst: MBQCInstance, bits: Sequence[int]
) -> tuple[PauliOperator, ContextGroup]:
    """The measured product observable for one input, and its local context.

    The context is generated by the selected per-party observables together
    with their product, so the product appears as a named member. It is
    written down without :func:`close_context`, which stays its oracle:
    party k's local has its body letter at position k and I elsewhere, so
    the canonical non-identity locals in descending party order are sorted.
    A joint of two or more of them sorts last (it agrees with the leftmost
    up to its letter and has more after it) and is the one dependent member.
    Its relation, the all-members row, has sign +1: canonical locals on
    disjoint qubits multiply to exactly the canonical joint. With one such
    local, the joint is that local up to sign and is not repeated. Nothing
    is checked: validation refuses an observable off its party's qubit, so
    the locals and their product commute.
    """
    return _local_context(inst, _setting_of(inst, bits))


def _local_context(inst: MBQCInstance, q: int) -> tuple[PauliOperator, ContextGroup]:
    """:func:`joint_observable` of packed setting q."""
    joint = _joint(inst, q)
    non_identity = joint.x_bits | joint.z_bits
    descending = range(inst.parties - 1, -1, -1)
    picked = [inst.canonical[k][q >> k & 1] for k in descending if non_identity >> k & 1]
    relations = ()
    if len(picked) > 1:
        canonical = joint.canonical()
        picked.append((canonical, canonical.body()))
        relations = ((1 << len(picked)) - 1,)
    members, names = zip(*picked) if picked else ((), ())
    return joint, ContextGroup(members, inst.parties, relations, names=names)


def run(inst: MBQCInstance, bits: Sequence[int]) -> int | None:
    """Computed output bit for one input; None when indeterminate.

    The parity of the local outcomes is fixed by the resource exactly when
    the joint observable is a signed member of the stabilizer group: sign +1
    gives output 0, sign -1 gives output 1.
    """
    return member_sign(inst.resource, _joint(inst, _setting_of(inst, bits)))


def _reached(inst: MBQCInstance) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Each reached setting in first-reached order, with its signed resource member.

    A setting's member is the group element (x, z, phase) with its joint's
    letters. Pivots are the columns of Q, from the last input bit, that one
    :class:`~contextua.gf2.Basis` keeps: those independent of the ones
    before. Setting 0 and each pivot c take one member_sign lookup, r + 1
    in all. The joints' letters are affine in q and the group is abelian,
    Hermitian and free of -I, so M(q) M(c) M(0) is the member of q ^ c:
    one signed product of int triples. Doubling over the pivots counts in
    binary, the first pivot lowest, which is the order of binary input
    enumeration: a non-pivot column is a sum of pivots at lower input bits,
    so the first input to reach a setting sets pivots alone. When a lookup
    finds no member, every setting is looked up, so that
    IndeterminateInputsError names each undetermined input in order.
    """
    basis = gf2.Basis()
    pivots = [column for column in reversed(inst.columns) if basis.add(column, 0)[0]]
    base = []
    for q in (0, *pivots):
        joint = _joint(inst, q)
        sign = member_sign(inst.resource, joint)
        if sign is None:
            raise _undetermined(inst)
        base.append((joint.x_bits, joint.z_bits, joint.phase_exp + 2 * sign & 3))
    (x0, z0, p0), settings, members = base[0], [0], base[:1]
    for c, (x, z, p) in zip(pivots, base[1:]):
        dx, dz, dp = x ^ x0, z ^ z0, p + p0 + 2 * (z & x0).bit_count()
        settings += [q ^ c for q in settings]
        members += [(mx ^ dx, mz ^ dz, mp + dp + 2 * (mz & dx).bit_count() & 3)
                    for mx, mz, mp in members]
    return settings, members


def _undetermined(inst: MBQCInstance) -> IndeterminateInputsError:
    """The error naming every input whose setting's joint has no member, by a lookup each."""
    settings = _distinct_settings(inst)
    signs = {q: member_sign(inst.resource, _joint(inst, q)) for q in dict.fromkeys(settings)}
    missing = (index for index, q in enumerate(settings) if signs[q] is None)
    return IndeterminateInputsError(tuple(gf2.input_vector(i, inst.input_bits) for i in missing))


def _table(inst: MBQCInstance, outputs: dict[int, int]) -> TruthTable:
    """The table from each reached setting's output, by one map over the inputs' settings."""
    return TruthTable(inst.input_bits, tuple(map(outputs.__getitem__, _distinct_settings(inst))))


def truth_table(inst: MBQCInstance) -> TruthTable:
    """Outputs for all 2^m inputs; raises if any input is indeterminate."""
    settings, members = _reached(inst)
    return _table(inst, {
        q: (phase - _joint(inst, q).phase_exp) >> 1 & 1
        for q, (_, _, phase) in zip(settings, members)
    })


def contextuality_report(inst: MBQCInstance) -> ContextualityReport:
    """Decide contextuality of the state-pinned presheaf and check the theorem.

    The contexts are one per reachable setting vector, in first-reached
    order over binary input enumeration, then the special context: the
    closure of the reachable joint observables, each canonical joint pinned
    to its sign in the resource group. The special context is closed by
    :func:`~contextua.contexts.close_context`, as any given context is, and
    the system is decided by :func:`~contextua.presheaf.decide_global`.
    Every joint must lie in the resource group up to sign; otherwise the
    instance has indeterminate outputs, no state-pinned analysis is
    meaningful, and IndeterminateInputsError names the inputs.
    """
    contexts: list[ContextGroup] = []
    outputs: dict[int, int] = {}
    pin_bits: dict[PauliOperator, int] = {}
    for q, (x, z, phase) in zip(*_reached(inst)):
        joint, context = _local_context(inst, q)
        outputs[q] = (phase - joint.phase_exp) >> 1 & 1
        # The canonical joint ends a nonempty context; the member is its signed copy.
        canonical = context.members[-1] if context.members else joint.canonical()
        pin_bits[canonical] = (phase - (x & z).bit_count()) >> 1 & 1
        contexts.append(context)
    table = _table(inst, outputs)
    special = close_context(pin_bits, width=inst.parties)
    contexts.append(special)
    pins = tuple(
        StateConstraint(observable=op, value_bit=pin_bits[op]) for op in special.members
    )
    problem, outcome = decide_global(contexts, pins)
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
