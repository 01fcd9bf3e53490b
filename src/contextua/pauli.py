"""Exact arithmetic on n-qubit Pauli operators.

Operators are stored in symplectic form with a global phase: an operator is

    i^phase_exp * (X^x0 Z^z0) (x) (X^x1 Z^z1) (x) ... (x) (X^x(n-1) Z^z(n-1))

where the x and z exponent vectors are packed into Python integers (bit k is
qubit k, qubit 0 being the leftmost letter of a string like "XYZ") and
phase_exp lives in Z_4. A single-qubit Y is i*X*Z, so a Hermitian operator
always satisfies phase_exp = popcount(x & z) mod 2; its sign is +1 when
phase_exp - popcount(x & z) is 0 mod 4 and -1 when it is 2 mod 4.

:class:`PauliBasis` keeps a greedy independent set of operators on the one
streaming GF(2) basis of :mod:`contextua.gf2`, fed their packed symplectic
vectors. Every sign it reports comes from :meth:`PauliBasis.signed_circuit`,
one walk over a generator bit set that folds their product's sign on ints.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from . import gf2

_PAULI_RE = re.compile(r"^([+-]?)([IXYZ]+)$")

# letter -> (x bit, z bit, phase contribution in Z_4)
_LETTER_BITS = {"I": (0, 0, 0), "X": (1, 0, 0), "Y": (1, 1, 1), "Z": (0, 1, 0)}
_BITS_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


class PauliParseError(ValueError):
    """Raised for text that is not a signed Pauli string."""


class NonHermitianError(ValueError):
    """Raised when an operation requires a Hermitian operator (phase in {+1,-1})."""


@dataclass(frozen=True)
class PauliOperator:
    """A phase-tracked n-qubit Pauli operator in symplectic form.

    Attributes:
        width: number of qubits n.
        x_bits: X-exponent vector packed into an int (bit k = qubit k).
        z_bits: Z-exponent vector packed likewise.
        phase_exp: exponent of i in Z_4.

    Instances are immutable and hashable. Two operators are equal only if
    width, both bit vectors and the phase agree; the sign-free observable
    identity is exposed as :meth:`identity_key`.
    """

    width: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be positive, got {self.width}")
        mask = (1 << self.width) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bit vector wider than operator width")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @property
    def y_count(self) -> int:
        return (self.x_bits & self.z_bits).bit_count()

    @property
    def is_hermitian(self) -> bool:
        return (self.phase_exp - self.y_count) % 2 == 0

    @property
    def sign(self) -> int:
        """+1 or -1 for a Hermitian operator."""
        if not self.is_hermitian:
            raise NonHermitianError(f"phase exponent {self.phase_exp} is not a real sign")
        return 1 if (self.phase_exp - self.y_count) % 4 == 0 else -1

    @property
    def sign_bit(self) -> int:
        """0 for +, 1 for - (Hermitian operators only)."""
        return 0 if self.sign == 1 else 1

    @property
    def is_identity_class(self) -> bool:
        """True when the operator is a phase times the identity."""
        return self.x_bits == 0 and self.z_bits == 0

    def identity_key(self) -> tuple[int, int, int]:
        """Sign-free observable identity: (width, x_bits, z_bits)."""
        return (self.width, self.x_bits, self.z_bits)

    def canonical(self) -> "PauliOperator":
        """The positive-sign representative of {+P, -P}; self if already so."""
        phase = self.y_count % 4
        if phase == self.phase_exp:
            return self
        return _unchecked(self.width, self.x_bits, self.z_bits, phase)

    def negate(self) -> "PauliOperator":
        return _unchecked(self.width, self.x_bits, self.z_bits, (self.phase_exp + 2) % 4)

    def body(self) -> str:
        """The unsigned letter string, e.g. 'XYZ'."""
        return "".join(
            _BITS_LETTER[(self.x_bits >> k) & 1, (self.z_bits >> k) & 1]
            for k in range(self.width)
        )

    def support(self) -> tuple[int, ...]:
        """Qubits on which the operator acts nontrivially."""
        occupied = self.x_bits | self.z_bits
        return tuple(k for k in range(self.width) if (occupied >> k) & 1)

    def packed(self) -> int:
        """The symplectic vector as one int: x_k at bit k, z_k at bit n + k."""
        return self.x_bits | self.z_bits << self.width

    def symplectic(self) -> tuple[int, ...]:
        """The length-2n GF(2) vector (x_0..x_{n-1}, z_0..z_{n-1})."""
        packed = self.packed()
        return tuple((packed >> k) & 1 for k in range(2 * self.width))

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return multiply(self, other)

    def __str__(self) -> str:
        return format_pauli(self)

    def __repr__(self) -> str:
        if self.is_hermitian:
            return f"PauliOperator({format_pauli(self)!r})"
        return (
            f"PauliOperator(width={self.width}, x={self.x_bits:#x},"
            f" z={self.z_bits:#x}, phase_exp={self.phase_exp})"
        )


_new = object.__new__
_set = object.__setattr__


def _unchecked(width: int, x_bits: int, z_bits: int, phase_exp: int) -> PauliOperator:
    """An operator made by exact arithmetic on valid operators, built unchecked.

    Its width is its operands', its bits lie within it and the caller has
    reduced its phase mod 4, so the constructor's checks are skipped; direct
    ``PauliOperator(...)`` keeps them. Fields are set as the frozen
    constructor sets them: filling ``__dict__`` would give each its own dict.
    """
    op = _new(PauliOperator)
    _set(op, "width", width)
    _set(op, "x_bits", x_bits)
    _set(op, "z_bits", z_bits)
    _set(op, "phase_exp", phase_exp)
    return op


def identity(width: int) -> PauliOperator:
    return PauliOperator(width, 0, 0, 0)


def parse_pauli(text: str) -> PauliOperator:
    """Parse a signed Pauli string such as '-XYY' into a Hermitian operator.

    The sign prefix is optional and defaults to '+'. Each 'Y' contributes a
    factor i so that the single-qubit tensor factor equals the standard Y.
    """
    match = _PAULI_RE.match(text.strip())
    if match is None:
        raise PauliParseError(f"not a signed Pauli string: {text!r}")
    sign, letters = match.groups()
    x = z = 0
    phase = 2 if sign == "-" else 0
    for k, letter in enumerate(letters):
        xb, zb, t = _LETTER_BITS[letter]
        x |= xb << k
        z |= zb << k
        phase += t
    return _unchecked(len(letters), x, z, phase % 4)


def format_pauli(op: PauliOperator) -> str:
    """Render a Hermitian operator as an explicitly signed string, e.g. '+XZI'."""
    sign = "+" if op.sign == 1 else "-"
    return sign + op.body()


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Exact product of two Pauli operators of equal width.

    Commuting X^x2 past Z^z1 contributes (-1)^(z1.x2), hence the product is
    i^(t1 + t2 + 2*(z1.x2)) X^(x1 xor x2) Z^(z1 xor z2). The result need not
    be Hermitian (e.g. X*Y = iZ).
    """
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    phase = p.phase_exp + q.phase_exp + 2 * (p.z_bits & q.x_bits).bit_count()
    return _unchecked(p.width, p.x_bits ^ q.x_bits, p.z_bits ^ q.z_bits, phase % 4)


def multiply_all(ops, width: int | None = None) -> PauliOperator:
    """Product of a sequence of operators, left to right; identity if empty."""
    ops = list(ops)
    if not ops:
        if width is None:
            raise ValueError("empty product needs an explicit width")
        return identity(width)
    w, x, z, phase = ops[0].width, ops[0].x_bits, ops[0].z_bits, ops[0].phase_exp
    for op in ops[1:]:
        if op.width != w:
            raise ValueError(f"width mismatch: {w} vs {op.width}")
        phase += op.phase_exp + 2 * (z & op.x_bits).bit_count()
        x ^= op.x_bits
        z ^= op.z_bits
    return _unchecked(w, x, z, phase % 4)


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    """True iff the symplectic form x_p.z_q + z_p.x_q vanishes mod 2."""
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    form = (p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()
    return form % 2 == 0


class PauliBasis:
    """Independent Pauli operators, kept for sign-resolved membership.

    Operators are inserted in order into one :class:`~contextua.gf2.Basis`
    of packed symplectic vectors; one that is a product of the operators
    already kept, up to phase, is not kept, so ``generators`` is the greedy
    independent subset of the insertion order. Expressing an operator over
    the generators takes one XOR per pivot met, and one fold over the
    chosen generators, in generator order, gives the sign.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self.generators: tuple[PauliOperator, ...] = ()
        self._basis = gf2.Basis()

    @property
    def rank(self) -> int:
        return len(self.generators)

    def _vector(self, op: PauliOperator) -> int:
        if op.width != self.width:
            raise ValueError(f"width mismatch: {op.width} vs {self.width}")
        return op.packed()

    def add(self, op: PauliOperator) -> int | None:
        """Keep op if it is independent of the generators.

        Returns None when op is kept. Otherwise returns the bit set of the
        generators whose product is op up to phase: with op, its fundamental
        circuit.
        """
        remainder, combination = self._basis.add(self._vector(op))
        if remainder:
            self.generators = (*self.generators, op)
            return None
        return combination

    def signed_circuit(
        self, bits: int, op: PauliOperator
    ) -> tuple[tuple[PauliOperator, ...], int]:
        """The generators bits selects, lowest bit first, and a sign bit.

        The bit is that of their left-to-right product times op, as
        :func:`multiply_all` gives it: for a circuit, whether it is -I.
        """
        generators = self.generators
        chosen = []
        phase = z = 0
        while bits:
            low = bits & -bits
            g = generators[low.bit_length() - 1]
            chosen.append(g)
            phase += g.phase_exp + 2 * (z & g.x_bits).bit_count()
            z ^= g.z_bits
            bits ^= low
        phase += op.phase_exp + 2 * (z & op.x_bits).bit_count()
        return tuple(chosen), phase % 4 // 2

    def decompose(self, op: PauliOperator) -> tuple[tuple[PauliOperator, ...], int] | None:
        """Express a Hermitian op over the generators, with the realized sign.

        Returns (chosen, sign_bit), the generators whose product in generator
        order is (-1)^sign_bit times op, or None when op is not a product of
        generators up to phase.
        """
        remainder, combination = self._basis.reduce(self._vector(op))
        if remainder:
            return None
        return self.signed_circuit(combination, op)

    def __repr__(self) -> str:
        return f"PauliBasis(width={self.width}, generators={self.generators!r})"
