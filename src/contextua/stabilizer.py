"""Stabilizer groups with sign-resolved membership.

A stabilizer group is the :class:`~contextua.pauli.PauliBasis` of its
signed generators. After the pair check of
:func:`contextua.contexts.close_context`, they stream once into that
basis; the first one it does not keep is refused: dependent or, when the
phase folded while reducing it signs its circuit -1, putting minus the
identity in the group. A membership query folds the sign in the loop
that reduces the packed symplectic vector, on ints, with no cap on the
width. The sign a group fixes for a member is its exact eigenvalue on
the stabilized state, so no state vector is needed.
"""
from __future__ import annotations

from .contexts import MinusIdentityError, _check_commuting
from .pauli import PauliBasis, PauliOperator


class DependentGeneratorsError(ValueError):
    """A generator is a product of earlier ones (group would be degenerate)."""


def make_stabilizer(gens: list[PauliOperator] | tuple[PauliOperator, ...]) -> PauliBasis:
    """Validate signed generators into the PauliBasis of their group.

    Requires Hermitian, equal-width, pairwise commuting, symplectically
    independent generators; a dependent generator whose sign disagrees with
    the product of the ones it depends on would put minus the identity in
    the group and is rejected as such.
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
    _check_commuting(ops, width, ops)
    basis = PauliBasis(width)
    for op in ops:
        found = basis.add(op)
        if found is not None:
            if found[1]:
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
