"""Stabilizer groups with sign-resolved membership.

A stabilizer group is the :class:`~contextua.pauli.PauliBasis` of its
signed generators. They stream once into that basis, which refuses one
that anticommutes with a generator it keeps; after the stream, the first
one it did not keep is refused: dependent or, when the phase folded while
reducing it signs its circuit -1, putting minus the identity in the
group. A membership query folds the sign in the loop
that reduces the packed symplectic vector, on ints, with no cap on the
width. The sign a group fixes for a member is its exact eigenvalue on
the stabilized state, so no state vector is needed.
"""
from __future__ import annotations

from .contexts import MinusIdentityError
from .pauli import PauliBasis, PauliOperator


class DependentGeneratorsError(ValueError):
    """A generator is a product of earlier ones (group would be degenerate)."""


def make_stabilizer(gens: list[PauliOperator] | tuple[PauliOperator, ...]) -> PauliBasis:
    """Validate signed generators into the PauliBasis of their group.

    Requires Hermitian, equal-width, pairwise commuting, symplectically
    independent generators, checked in that order; a dependent generator
    whose sign disagrees with the product of the ones it depends on would
    put minus the identity in the group and is rejected as such. The
    basis checks commutation as it takes each generator and names the
    first that anticommutes with a kept one, with that kept one. The first
    dependent generator is refused only once every generator has been
    taken, so a pair that does not commute is named first.
    """
    ops = list(gens)
    if not ops:
        raise ValueError("at least one generator is required")
    width = ops[0].width
    for op in ops:
        if op.width != width:
            raise ValueError(f"width mismatch: {op.width} vs {width}")
        if not op.is_hermitian:
            raise ValueError(f"non-Hermitian generator: {op!r}")
    basis = PauliBasis(width)
    dependent = None
    for op in ops:
        found = basis.add(op)
        if found is not None and dependent is None:
            dependent = op, found[1]
    if dependent is not None:
        op, sign = dependent
        if sign:
            raise MinusIdentityError(
                f"{op} conflicts in sign with the product of earlier generators"
            )
        raise DependentGeneratorsError(f"{op} is the product of earlier generators")
    return basis


def member_sign(basis: PauliBasis, op: PauliOperator) -> int | None:
    """Outcome bit the group of the basis fixes for op, or None.

    0 means +op lies in the group, 1 means -op does, None means neither.
    A non-Hermitian op raises NonHermitianError.
    """
    found = basis.signed_combination(op)
    return None if found is None else found[1]
