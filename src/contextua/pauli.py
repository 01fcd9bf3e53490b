"""Exact arithmetic on n-qubit Pauli operators.

Operators are stored in symplectic form with a global phase: an operator is

    i^phase_exp * (X^x0 Z^z0) (x) (X^x1 Z^z1) (x) ... (x) (X^x(n-1) Z^z(n-1))

where the x and z exponent vectors are packed into Python integers (bit k is
qubit k, qubit 0 being the leftmost letter of a string like "XYZ") and
phase_exp lives in Z_4. A single-qubit Y is i*X*Z, so a Hermitian operator
always satisfies phase_exp = popcount(x & z) mod 2. Its phase excess,
phase_exp - popcount(x & z) mod 4, is 0 for sign +1, 2 for sign -1 and odd
otherwise, so one Y count validates, signs and canonicalises an operator.
An operator is a slotted record, immutable by contract: no code assigns a
field once it is built, and ``_body``, its letters, is the one cache.

:class:`PauliBasis` keeps a greedy independent set of operators in one
signed pivot table, fed their packed symplectic vectors. Every sign it
reports, and every relation sign of a context, comes from
:func:`reduce_signed`, which keeps the phase of the running product while it
XORs the vectors (the ``rowsum`` of Aaronson and Gottesman,
quant-ph/0406196), so a sign costs no second walk.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

# ASCII letter -> its x bit, its z bit, as the digits int(..., 2) reads.
_X_DIGITS = bytes.maketrans(b"IXYZ", b"0110")
_Z_DIGITS = bytes.maketrans(b"IXYZ", b"0011")
# Byte 0x90 + x + 2z, an ASCII digit plus twice another, -> its letter.
_SUM_LETTER = bytes.maketrans(bytes(range(0x90, 0x94)), b"IXZY")


class PauliParseError(ValueError):
    """Raised for text that is not a signed Pauli string."""


class NonHermitianError(ValueError):
    """Raised when an operation requires a Hermitian operator (phase in {+1,-1})."""


class NonCommutingGeneratorsError(ValueError):
    """Observables that must pairwise commute, as a context's or a basis's, do not."""


@dataclass(slots=True, unsafe_hash=True)
class PauliOperator:
    """A phase-tracked n-qubit Pauli operator in symplectic form.

    Attributes:
        width: number of qubits n.
        x_bits: X-exponent vector packed into an int (bit k = qubit k).
        z_bits: Z-exponent vector packed likewise.
        phase_exp: exponent of i in Z_4.

    Instances are slotted records, immutable by contract (``_body`` is the
    one cache) and hashable. Two operators are equal only if width, both bit
    vectors and the phase agree. The one sign-free name of an observable is
    its :meth:`body`: its length is the width and its letters fix both bit
    vectors, so equal bodies mean equal observables up to phase.
    """

    width: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0
    # The letters, once built: outside __init__, equality, hash and repr.
    _body: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be positive, got {self.width}")
        mask = (1 << self.width) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bit vector wider than operator width")
        self.phase_exp %= 4

    @property
    def phase_excess(self) -> int:
        """(phase_exp - popcount(x & z)) mod 4: 0 for +P, 2 for -P, odd if not Hermitian."""
        return (self.phase_exp - (self.x_bits & self.z_bits).bit_count()) % 4

    @property
    def is_hermitian(self) -> bool:
        return not self.phase_excess & 1

    @property
    def sign(self) -> int:
        """+1 or -1 for a Hermitian operator."""
        excess = self.phase_excess
        if excess & 1:
            raise NonHermitianError(f"phase exponent {self.phase_exp} is not a real sign")
        return 1 - excess

    @property
    def sign_bit(self) -> int:
        """0 for +, 1 for - (Hermitian operators only)."""
        return 0 if self.sign == 1 else 1

    @property
    def is_identity_class(self) -> bool:
        """True when the operator is a phase times the identity."""
        return self.x_bits == 0 and self.z_bits == 0

    def canonical(self) -> "PauliOperator":
        """The positive-sign representative of {+P, -P}; self if already so."""
        excess = self.phase_excess
        return self._rephased(self.phase_exp - excess) if excess else self

    def negate(self) -> "PauliOperator":
        return self._rephased(self.phase_exp + 2)

    def _rephased(self, phase_exp: int) -> "PauliOperator":
        """The same letters at another phase, keeping the body if it is built."""
        op = _unchecked(self.width, self.x_bits, self.z_bits, phase_exp % 4)
        op._body = self._body
        return op

    def body(self) -> str:
        """The unsigned letter string, e.g. 'XYZ', built on the first call and kept.

        Strings compare in the order I < X < Y < Z, qubit 0 first, which is
        the order contexts sort their members in. As ints of ASCII digits, x + 2z
        holds a byte 0x90 + x_k + 2 z_k per qubit k; little-endian, qubit 0 is first.
        """
        if self._body is None:
            n = self.width
            x = int.from_bytes(format(self.x_bits, f"0{n}b").encode(), "big")
            z = int.from_bytes(format(self.z_bits, f"0{n}b").encode(), "big")
            self._body = (x + 2 * z).to_bytes(n, "little").translate(_SUM_LETTER).decode()
        return self._body

    def support(self) -> tuple[int, ...]:
        """Qubits on which the operator acts nontrivially."""
        occupied = self.x_bits | self.z_bits
        return tuple(k for k in range(self.width) if (occupied >> k) & 1)

    def packed(self) -> int:
        """The symplectic vector as one int: x_k at bit k, z_k at bit n + k."""
        return self.x_bits | self.z_bits << self.width

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return multiply(self, other)

    def __str__(self) -> str:
        return format_pauli(self) if self.is_hermitian else repr(self)

    def __repr__(self) -> str:
        if self.is_hermitian:
            return f"PauliOperator({format_pauli(self)!r})"
        return (
            f"PauliOperator(width={self.width}, x={self.x_bits:#x},"
            f" z={self.z_bits:#x}, phase_exp={self.phase_exp})"
        )


_new = object.__new__


def _unchecked(width: int, x_bits: int, z_bits: int, phase_exp: int) -> PauliOperator:
    """An operator made by exact arithmetic on valid operators, built unchecked.

    Its width is its operands', its bits lie within it and the caller has
    reduced its phase mod 4, so the constructor's checks are skipped; direct
    ``PauliOperator(...)`` keeps them.
    """
    op = _new(PauliOperator)
    op.width = width
    op.x_bits = x_bits
    op.z_bits = z_bits
    op.phase_exp = phase_exp
    op._body = None
    return op


def identity(width: int) -> PauliOperator:
    return PauliOperator(width, 0, 0, 0)


def parse_pauli(text: str) -> PauliOperator:
    """Parse a signed Pauli string such as '-XYY' into a Hermitian operator.

    After ``str.strip`` the text must be an optional sign, '+' by default,
    then one or more of I, X, Y and Z; each 'Y' adds a factor i, so that the
    tensor factor is the standard Y. One ``bytes.translate`` each of the
    reversed letters and ``int(..., 2)`` give the x and z bits. The
    operator keeps the letters as its :meth:`~PauliOperator.body`.
    """
    letters = text.strip()
    sign = letters[:1]
    if sign == "-" or sign == "+":
        letters = letters[1:]
    if not letters or letters.strip("IXYZ"):
        raise PauliParseError(f"not a signed Pauli string: {text!r}")
    digits = letters[::-1].encode()
    x, z = int(digits.translate(_X_DIGITS), 2), int(digits.translate(_Z_DIGITS), 2)
    op = _unchecked(len(letters), x, z, (letters.count("Y") + 2 * (sign == "-")) & 3)
    op._body = letters
    return op


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


def reduce_signed(
    table: dict, ops: Iterable[PauliOperator], names: Iterable[int], keep: bool = True
) -> Iterator[tuple[int, int]]:
    """Reduce commuting ops in turn against a signed pivot table, yielding each relation.

    The table maps a pivot, the bit length of a kept vector, to (vector,
    combination, x, z, phase) of a kept product: its packed vector, the
    names of the ops it multiplies, its bits and its phase exponent mod 4.
    Each op is named by its own bit from names, taken in step with ops.
    Each step clears the highest set bit left with the row stored there
    and multiplies the running product, of Z bits z, by the row's, adding
    its phase and 2 popcount(z & x) to the phase. An op with a remainder is
    kept as that product when keep is set. One without is a relation:
    commuting ops that each square to I multiply to i^phase I, so bit 1 of
    the phase is its sign. A generator: it yields (row, sign bit) as it
    finds each relation, the row its combination plus the op's own name,
    the sign meaningful once the ops commute, and reduces no op past the
    last relation read.
    """
    get = table.get
    for op, name in zip(ops, names):
        z, phase, combination = op.z_bits, op.phase_exp, 0
        vector = op.x_bits | z << op.width
        row = get(vector.bit_length())
        while row is not None:
            v, c, rx, rz, p = row
            phase += p + 2 * (z & rx).bit_count()
            vector ^= v
            combination ^= c
            z ^= rz
            row = get(vector.bit_length())
        if not vector:
            yield combination | name, phase >> 1 & 1
        elif keep:
            x = vector & (1 << op.width) - 1
            table[vector.bit_length()] = (vector, combination | name, x, z, phase & 3)


class PauliBasis:
    """Independent commuting Pauli operators, kept for sign-resolved membership.

    Operators are inserted in order through :func:`reduce_signed` into one
    signed pivot table, generator k named by bit k; one that is a product of
    those already kept, up to phase, is not kept, so ``generators`` is the
    greedy independent subset of the insertion order, which the constructor
    starts with the generators it is given. An operator that anticommutes
    with a kept generator is refused, so the generators always commute and
    every sign the basis reports is that of a signed copy of the query.
    """

    def __init__(self, width: int, generators: Iterable[PauliOperator] = ()) -> None:
        self.width = width
        self.generators: tuple[PauliOperator, ...] = ()
        self._table: dict[int, tuple[int, int, int, int, int]] = {}
        self._swapped: list[int] = []  # z | x << width of each generator
        for op in generators:
            self.add(op)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def _reduce(self, op: PauliOperator, keep: bool) -> tuple[int, int] | None:
        if op.width != self.width:
            raise ValueError(f"width mismatch: {op.width} vs {self.width}")
        if keep:
            vector = op.packed()
            for g, swapped in zip(self.generators, self._swapped):
                if (vector & swapped).bit_count() & 1:
                    message = f"{g.body()} and {op.body()} do not commute"
                    raise NonCommutingGeneratorsError(message)
        name = 1 << self.rank
        found = next(reduce_signed(self._table, (op,), (name,), keep), None)
        return None if found is None else (found[0] ^ name, found[1])

    def add(self, op: PauliOperator) -> tuple[int, int] | None:
        """Keep op if it is independent of the generators.

        Returns None when op is kept, as generator k, named by bit k.
        Otherwise returns (circuit, sign_bit): the bit set of the generators
        whose product is (-1)^sign_bit times op. An op that anticommutes
        with a generator raises NonCommutingGeneratorsError naming the
        first such generator and op; a product of generators commutes with
        them all, so the kept ones are the only ones checked.
        """
        found = self._reduce(op, True)
        if found is None:
            self.generators = (*self.generators, op)
            self._swapped.append(op.z_bits | op.x_bits << op.width)
        return found

    def signed_combination(self, op: PauliOperator) -> tuple[int, int] | None:
        """(bits, sign_bit): the generators whose product is (-1)^sign_bit op, or None."""
        if not op.is_hermitian:
            raise NonHermitianError(f"non-Hermitian query: {op!r}")
        return self._reduce(op, False)

    def decompose(self, op: PauliOperator) -> tuple[tuple[PauliOperator, ...], int] | None:
        """Express a Hermitian op over the generators, with the realized sign.

        Returns (chosen, sign_bit), the generators whose product in generator
        order is (-1)^sign_bit times op, or None when op is not a product of
        generators up to phase. A non-Hermitian op raises NonHermitianError.
        """
        found = self.signed_combination(op)
        if found is None:
            return None
        return tuple(g for i, g in enumerate(self.generators) if found[0] >> i & 1), found[1]

    def __repr__(self) -> str:
        return f"PauliBasis(width={self.width}, generators={self.generators!r})"
