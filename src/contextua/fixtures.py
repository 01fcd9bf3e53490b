"""Built-in example systems used by the CLI and the test suite."""
from __future__ import annotations

from .contexts import ContextGroup, close_context
from .mbqc import MBQCInstance, validate_instance
from .pauli import PauliBasis, PauliOperator, parse_pauli
from .presheaf import StateConstraint
from .stabilizer import make_stabilizer, member_sign

MERMIN_BODIES = (
    "XII", "YII", "IXI", "IYI", "IIX", "IIY",
    "XXX", "XYY", "YXY", "YYX",
)

MERMIN_CONTEXT_BODIES = (
    ("XII", "IXI", "IIX", "XXX"),
    ("XII", "IYI", "IIY", "XYY"),
    ("YII", "IXI", "IIY", "YXY"),
    ("YII", "IYI", "IIX", "YYX"),
    ("XXX", "XYY", "YXY", "YYX"),
)

GHZ_GENERATORS = ("+XXX", "+ZZI", "+IZZ")


def mermin_observables() -> list[PauliOperator]:
    """The ten three-qubit observables of the square-free parity argument."""
    return [parse_pauli(body) for body in MERMIN_BODIES]


def mermin_contexts() -> list[ContextGroup]:
    """The five displayed measurement contexts over the ten observables.

    These are the contexts the argument actually uses. Plain maximal-clique
    search over the ten observables finds additional relation-free cliques
    (commuting triples with no named product); those add no constraints, so
    the built-in analysis works with the five displayed contexts directly.
    """
    return [
        close_context(parse_pauli(body) for body in block)
        for block in MERMIN_CONTEXT_BODIES
    ]


def mermin_file_text() -> str:
    lines = ["# ten observables, single-qubit X/Y per wire plus four products"]
    lines.extend(MERMIN_BODIES)
    return "\n".join(lines) + "\n"


def mermin_contexts_file_text() -> str:
    lines = ["# the five displayed contexts over the ten observables"]
    for block in MERMIN_CONTEXT_BODIES:
        lines.append("context:")
        lines.extend(block)
    return "\n".join(lines) + "\n"


def ghz_group() -> PauliBasis:
    return make_stabilizer([parse_pauli(g) for g in GHZ_GENERATORS])


def ghz_pins() -> tuple[StateConstraint, ...]:
    """Eigenvalue pins of the four product observables on the GHZ state."""
    group = ghz_group()
    return tuple(
        StateConstraint(observable=op, value_bit=member_sign(group, op))
        for op in map(parse_pauli, ("XXX", "XYY", "YXY", "YYX"))
    )


def anders_browne_raw() -> dict:
    """Three parties computing OR of two bits from a GHZ resource."""
    return {
        "parties": 3,
        "input_bits": 2,
        "Q": [[1, 0], [0, 1], [1, 1]],
        "observables": [["X", "X", "X"], ["Y", "Y", "Y"]],
        "resource": list(GHZ_GENERATORS),
    }


def anders_browne_instance() -> MBQCInstance:
    return validate_instance(anders_browne_raw())


def z_product_raw() -> dict:
    """Two parties measuring Z on a product state; output constantly zero."""
    return {
        "parties": 2,
        "input_bits": 1,
        "Q": [[1], [1]],
        "observables": [["Z", "Z"], ["Z", "Z"]],
        "resource": ["+ZI", "+IZ"],
    }


def z_product_instance() -> MBQCInstance:
    return validate_instance(z_product_raw())
