"""Stabilizer groups with sign-resolved membership.

A stabilizer group is the :class:`~contextua.pauli.PauliBasis` of its
signed generators, closed by the insertion pass and generator-pair check of
:func:`contextua.contexts.close_context`; the top bit of the first relation
row names a refused generator: dependent or, when the row's sign is -1,
putting minus the identity in the group. Membership queries reduce the
packed symplectic vector against the basis and fold the sign of the
chosen generators' product on ints, with no cap on the width. The sign a
group fixes for a member is its exact eigenvalue on the stabilized state,
so no state vector is needed.
"""
from __future__ import annotations

from .contexts import MinusIdentityError, _check_commuting, _insert
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
    basis = PauliBasis(width)
    rows, signs = _insert(basis, ops)
    _check_commuting(basis, ops)
    if rows:
        op = ops[rows[0].bit_length() - 1]
        if signs & 1:
            raise MinusIdentityError(
                f"{op} conflicts in sign with the product of earlier generators"
            )
        raise DependentGeneratorsError(f"{op} is the product of earlier generators")
    return basis


def member_sign(basis: PauliBasis, op: PauliOperator) -> int | None:
    """Outcome bit the group of the basis fixes for op, or None.

    0 means +op lies in the group, 1 means -op does, None means neither.
    A non-Hermitian op raises NonHermitianError, as in PauliBasis.decompose.
    """
    decomposed = basis.decompose(op)
    return None if decomposed is None else decomposed[1]
