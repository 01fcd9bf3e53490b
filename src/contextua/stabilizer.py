"""Stabilizer groups with sign-resolved membership, plus a dense oracle.

A stabilizer group is the :class:`~contextua.pauli.PauliBasis` of its
signed generators, closed by the insertion pass and generator-pair check of
:func:`contextua.contexts.close_context`: membership queries reduce the
packed symplectic vector against the basis and fold the sign of the
chosen generators' product on ints. The dense state-vector path exists for
desk-scale checks and is capped at 10 qubits; the sign arithmetic itself has
no cap. Only the dense path uses numpy, and it imports it when first called.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .contexts import MinusIdentityError, _check_commuting, _insert
from .pauli import PauliBasis, PauliOperator

if TYPE_CHECKING:
    import numpy as np


class DependentGeneratorsError(ValueError):
    """A generator is a product of earlier ones (group would be degenerate)."""


class WidthTooLargeError(ValueError):
    """Dense state vectors are limited to 10 qubits."""


_DENSE_WIDTH_CAP = 10


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
    relations = _insert(basis, ops)
    _check_commuting(basis, ops)
    if relations:
        op = relations[0].members[-1]
        if relations[0].sign_bit:
            raise MinusIdentityError(
                f"{op} conflicts in sign with the product of earlier generators"
            )
        raise DependentGeneratorsError(f"{op} is the product of earlier generators")
    return basis


def member_sign(basis: PauliBasis, op: PauliOperator) -> int | None:
    """Outcome bit the group of the basis fixes for op, or None.

    0 means +op lies in the group, 1 means -op does, None means neither.
    """
    if not op.is_hermitian:
        raise ValueError(f"non-Hermitian query: {op!r}")
    decomposed = basis.decompose(op)
    return None if decomposed is None else decomposed[1]


@dataclass(eq=False)
class DenseState:
    """Explicit amplitudes over the computational basis, qubit 0 first.

    Basis index bit ordering matches np.kron applied left to right: qubit 0
    is the most significant bit of the index.
    """

    amplitudes: np.ndarray
    width: int


def _reverse_bits(mask: int, width: int) -> int:
    out = 0
    for k in range(width):
        if (mask >> k) & 1:
            out |= 1 << (width - 1 - k)
    return out


def apply_pauli(op: PauliOperator, amplitudes: np.ndarray) -> np.ndarray:
    """Apply the operator to a dense vector by index shuffling (no matrices)."""
    import numpy as np

    n = op.width
    if amplitudes.shape != (1 << n,):
        raise ValueError(f"amplitude vector must have length {1 << n}")
    xr = _reverse_bits(op.x_bits, n)
    zr = _reverse_bits(op.z_bits, n)
    indices = np.arange(1 << n)
    parity = np.zeros(1 << n, dtype=np.int64)
    for k in range(n):
        if (zr >> k) & 1:
            parity ^= (indices >> k) & 1
    factors = (1j ** op.phase_exp) * np.where(parity, -1.0, 1.0)
    out = np.empty_like(amplitudes, dtype=complex)
    out[indices ^ xr] = factors * amplitudes
    return out


def state_vector(basis: PauliBasis) -> DenseState:
    """A unit vector stabilized by every generator (eigenvalue +1).

    Projects computational basis states through the group projector until one
    survives; the survivor is normalized with its first nonzero amplitude made
    real positive, so repeated calls give the identical vector.
    """
    import numpy as np

    n = basis.width
    if n > _DENSE_WIDTH_CAP:
        raise WidthTooLargeError(f"width {n} exceeds the dense cap of {_DENSE_WIDTH_CAP}")
    dim = 1 << n
    for seed in range(dim):
        vec = np.zeros(dim, dtype=complex)
        vec[seed] = 1.0
        for g in basis.generators:
            vec = (vec + apply_pauli(g, vec)) / 2.0
        norm = np.linalg.norm(vec)
        if norm > 1e-9:
            vec /= norm
            first = np.flatnonzero(np.abs(vec) > 1e-9)[0]
            vec *= np.conj(vec[first]) / np.abs(vec[first])
            return DenseState(amplitudes=vec, width=n)
    raise RuntimeError("projector annihilated every basis state; invalid group")


def expectation(state: DenseState, op: PauliOperator) -> float:
    """⟨ψ|P|ψ⟩ as a real number (operators here are Hermitian)."""
    import numpy as np

    if op.width != state.width:
        raise ValueError(f"width mismatch: {op.width} vs {state.width}")
    return float(np.vdot(state.amplitudes, apply_pauli(op, state.amplitudes)).real)
