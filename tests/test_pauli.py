"""Symplectic Pauli arithmetic against a dense-matrix oracle."""
import dataclasses
import pickle
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextua.pauli import (
    NonHermitianError,
    PauliOperator,
    PauliParseError,
    commutes,
    format_pauli,
    identity,
    multiply,
    multiply_all,
    parse_pauli,
)

from conftest import dense_from_string, dense_operator, random_pauli, reference_parse_pauli

# Letters, signs, their look-alikes (lower case, a no-break space, a
# full-width X), whitespace and the comment mark.
_PARSE_ALPHABET = "IXYZ+-xyz \t\n#\u00a0\uff38"
_parse_texts = st.one_of(
    st.just(""),
    st.text(alphabet=_PARSE_ALPHABET, max_size=10),
    st.text(alphabet=_PARSE_ALPHABET, min_size=70, max_size=72),
    # Near misses of valid texts: padding, a sign and letters, up to width 70.
    st.builds(
        lambda pad, sign, letters, tail: pad + sign + letters + tail,
        st.text(alphabet=" \t\n\u00a0", max_size=2),
        st.sampled_from(["", "+", "-", "+-", "--", "x"]),
        st.one_of(
            st.text(alphabet="IXYZ", max_size=8),
            st.text(alphabet="IXYZ", min_size=70, max_size=70),
        ),
        st.text(alphabet=" \t\n\u00a0#Z\uff38", max_size=2),
    ),
)


class TestParsing:
    def test_round_trip(self):
        for text in ("+X", "-Y", "+IZ", "-XYZ", "+IIII"):
            assert format_pauli(parse_pauli(text)) == text

    def test_unsigned_defaults_to_positive(self):
        assert format_pauli(parse_pauli("XY")) == "+XY"

    def test_rejects_garbage(self):
        for bad in ("", "+", "XA", "x", "X Y", "++X", "-"):
            with pytest.raises(PauliParseError):
                parse_pauli(bad)

    @settings(max_examples=600, deadline=None)
    @given(_parse_texts)
    def test_parse_matches_the_reference_parser(self, text):
        """Same acceptance, operator, body and error message as the regex parser."""
        try:
            expected = reference_parse_pauli(text)
        except PauliParseError as exc:
            with pytest.raises(PauliParseError) as caught:
                parse_pauli(text)
            assert str(caught.value) == str(exc) == f"not a signed Pauli string: {text!r}"
            return
        op = parse_pauli(text)
        assert op == expected
        assert op.body() == expected.body()

    def test_parse_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            op = random_pauli(rng, int(rng.integers(1, 4)))
            text = format_pauli(op)
            assert np.allclose(dense_operator(parse_pauli(text)), dense_from_string(text))


class TestStructure:
    def test_identity(self):
        op = identity(4)
        assert op.is_identity_class and op.sign == 1
        assert op.body() == "IIII"

    def test_hermitian_iff_phase_matches_y_count(self):
        assert parse_pauli("Y").is_hermitian
        y = parse_pauli("Y")
        assert not multiply(y, parse_pauli("X")).is_hermitian

    def test_sign_of_nonhermitian_raises(self):
        yx = multiply(parse_pauli("Y"), parse_pauli("X"))
        with pytest.raises(NonHermitianError):
            _ = yx.sign

    def test_str_of_nonhermitian_is_its_repr(self):
        """X Z is -iY: str prints its phase as repr does; format_pauli still refuses it."""
        xz = multiply_all([parse_pauli("X"), parse_pauli("Z")])
        assert str(xz) == repr(xz) == "PauliOperator(width=1, x=0x1, z=0x1, phase_exp=0)"
        assert str(parse_pauli("-XY")) == "-XY"
        with pytest.raises(NonHermitianError):
            format_pauli(xz)

    def test_canonical_strips_sign_only(self):
        op = parse_pauli("-XYY")
        canon = op.canonical()
        assert canon.sign == 1
        assert (canon.width, canon.x_bits, canon.z_bits) == (op.width, op.x_bits, op.z_bits)
        assert canon.body() == op.body()
        assert op.negate() == canon

    def test_validation(self):
        with pytest.raises(ValueError):
            PauliOperator(width=0, x_bits=0, z_bits=0)
        with pytest.raises(ValueError):
            PauliOperator(width=1, x_bits=2, z_bits=0)
        assert PauliOperator(width=1, x_bits=0, z_bits=0, phase_exp=7).phase_exp == 3


@st.composite
def operators(draw, width=None):
    """A valid operator of any phase, through the checked constructor."""
    width = width or draw(st.integers(1, 8))
    x, z = (draw(st.integers(0, (1 << width) - 1)) for _ in range(2))
    return PauliOperator(width, x, z, draw(st.integers(0, 3)))


@st.composite
def operator_lists(draw):
    width = draw(st.integers(1, 8))
    return draw(st.lists(operators(width), min_size=1, max_size=5))


class TestUncheckedConstruction:
    """Arithmetic results skip the constructor's checks but must pass them."""

    @staticmethod
    def assert_as_if_checked(op):
        checked = PauliOperator(op.width, op.x_bits, op.z_bits, op.phase_exp)
        assert op.phase_exp in range(4)
        assert op == checked and hash(op) == hash(checked)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(ops=operator_lists(), sign=st.sampled_from(["", "+", "-"]),
           body=st.text(alphabet="IXYZ", min_size=1, max_size=8))
    def test_results_equal_checked_construction(self, ops, sign, body):
        p, q = ops[0], ops[-1]
        for op in (multiply(p, q), multiply_all(ops), p.canonical(), p.negate(),
                   parse_pauli(sign + body)):
            self.assert_as_if_checked(op)

    @pytest.mark.parametrize(
        "width, x_bits, z_bits",
        [(0, 0, 0), (-1, 0, 0), (1, 2, 0), (1, 0, 2), (3, 8, 0), (3, 0, 1 << 5)],
    )
    def test_direct_construction_keeps_its_checks(self, width, x_bits, z_bits):
        with pytest.raises(ValueError):
            PauliOperator(width, x_bits, z_bits)


class TestKeptBody:
    """body() is built once and kept, and the kept string changes no identity."""

    @staticmethod
    def letters(op):
        return "".join("IXZY"[(op.x_bits >> k & 1) | (op.z_bits >> k & 1) << 1]
                       for k in range(op.width))

    @staticmethod
    def variants(op, other):
        yield op
        yield op.canonical()
        yield op.negate()
        yield multiply(op, other)
        yield op * op.negate()
        yield PauliOperator(op.width, op.x_bits, op.z_bits, op.phase_exp)
        yield dataclasses.replace(op, phase_exp=op.phase_exp + 2)
        yield pickle.loads(pickle.dumps(op))
        yield pickle.loads(pickle.dumps(PauliOperator(op.width, op.x_bits, op.z_bits)))

    def test_body_is_a_cache_field_of_a_slotted_record(self):
        """_body is a field outside init, equality, repr and hash; no __dict__."""
        (body,) = (f for f in dataclasses.fields(PauliOperator) if f.name == "_body")
        assert (body.default, body.init, body.compare, body.repr) == (None, False, False, False)
        assert body.hash is None  # follows compare: outside the hash
        op = parse_pauli("-XYZI")
        assert not hasattr(op, "__dict__")
        assert "_body" in PauliOperator.__slots__
        bare = PauliOperator(op.width, op.x_bits, op.z_bits, op.phase_exp)
        assert bare._body is None and op._body == "XYZI"
        assert op == bare and hash(op) == hash(bare) and repr(op) == repr(bare)
        assert hash(op) == hash((op.width, op.x_bits, op.z_bits, op.phase_exp))
        for copy in (dataclasses.replace(op), pickle.loads(pickle.dumps(op)),
                     pickle.loads(pickle.dumps(bare))):
            assert type(copy) is PauliOperator and not hasattr(copy, "__dict__")
            assert copy == op and hash(copy) == hash(op) and repr(copy) == repr(op)
            assert copy.body() == "XYZI"
        assert dataclasses.replace(op, phase_exp=op.phase_exp + 6) == op.canonical()
        with pytest.raises(ValueError):
            dataclasses.replace(op, _body="ZZZZ")

    def test_six_qubit_operators_take_at_most_96_bytes_each(self):
        texts = ["".join(p) for p in product("IXYZ", repeat=6)][1:]
        tracemalloc.start()
        try:
            ops = [parse_pauli(text) for text in texts]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ops) == 4095
        assert held / len(ops) <= 96

    @pytest.mark.parametrize("width", [*range(1, 71), 200, 5000])
    def test_body_matches_the_letter_loop(self, width):
        rng = random.Random(width)
        for x, z in ((0, 0), ((1 << width) - 1, 0), (0, (1 << width) - 1),
                     ((1 << width) - 1, (1 << width) - 1),
                     (rng.getrandbits(width), rng.getrandbits(width))):
            op = PauliOperator(width, x, z)
            assert op.body() == self.letters(op)
            assert parse_pauli(op.body()) == op.canonical()

    def test_every_four_qubit_variant(self):
        paulis = [parse_pauli("".join(b)) for b in product("IXYZ", repeat=4)][1:]
        assert len(paulis) == 255
        for op, other in zip(paulis, paulis[7:] + paulis[:7]):
            for variant in self.variants(op, other):
                fresh = PauliOperator(variant.width, variant.x_bits, variant.z_bits,
                                      variant.phase_exp)
                assert variant.body() == self.letters(variant)
                assert variant.body() is variant.body()
                assert fresh._body is None
                assert variant == fresh and hash(variant) == hash(fresh)
                assert repr(variant) == repr(fresh)

    @staticmethod
    def every_phase(max_width=3):
        """Every operator of width 1 to max_width, each x, z and phase."""
        for width in range(1, max_width + 1):
            for x, z, phase in product(range(1 << width), range(1 << width), range(4)):
                yield PauliOperator(width, x, z, phase)

    def test_body_names_exactly_the_sign_free_observable(self):
        """Equal bodies iff equal (width, x_bits, z_bits), whatever the phases."""
        triples = {}
        for op in self.every_phase():
            triples.setdefault(op.body(), set()).add((op.width, op.x_bits, op.z_bits))
        assert all(len(found) == 1 for found in triples.values())
        assert len(triples) == len(set().union(*triples.values())) == 4 + 16 + 64

    def test_sign_bit_is_zero_iff_canonical(self):
        hermitian = 0
        for op in self.every_phase():
            if not op.is_hermitian:
                assert op != op.canonical()
                continue
            hermitian += 1
            assert (op.sign_bit == 0) == (op == op.canonical())
        assert hermitian == 2 * (4 + 16 + 64)

    def test_parse_keeps_its_letters(self):
        op = parse_pauli("-XYZI")
        assert op._body == "XYZI" == self.letters(op)
        assert op.canonical().body() == "XYZI"


class TestProducts:
    def test_known_single_qubit_products(self):
        x, y, z = (parse_pauli(s) for s in "XYZ")
        xy = multiply(x, y)
        assert (xy.phase_exp, xy.x_bits, xy.z_bits) == (1, 0, 1)  # X*Y = iZ
        assert multiply(y, x).phase_exp == 3  # Y*X = -iZ
        assert multiply(x, x) == identity(1)
        assert np.allclose(dense_operator(xy), dense_operator(x) @ dense_operator(y))

    def test_composite_chain(self):
        product = multiply_all([parse_pauli(s) for s in ("XYY", "YXY", "YYX")])
        assert format_pauli(product) == "-XXX"

    def test_multiply_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            width = int(rng.integers(1, 4))
            p = random_pauli(rng, width)
            q = random_pauli(rng, width)
            expected = dense_operator(p) @ dense_operator(q)
            assert np.allclose(dense_operator(multiply(p, q)), expected)

    def test_multiply_all_against_dense_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            width = int(rng.integers(1, 4))
            ops = [random_pauli(rng, width) for _ in range(int(rng.integers(0, 5)))]
            expected = np.eye(1 << width, dtype=complex)
            for op in ops:
                expected = expected @ dense_operator(op)
            assert np.allclose(dense_operator(multiply_all(ops, width=width)), expected)

    def test_multiply_all_matches_the_pairwise_chain(self):
        """The int fold equals left-to-right multiply, phases of any kind included."""
        x, y, z = (parse_pauli(s) for s in "XYZ")
        assert multiply_all([x, y]) == PauliOperator(1, 0, 1, 1)  # X*Y = iZ
        assert multiply_all([x, y, z]) == PauliOperator(1, 0, 0, 1)  # XYZ = i
        rng = np.random.default_rng(9)
        for _ in range(500):
            width = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            bits = rng.integers(0, 1 << width, size=(n, 2))
            phases = rng.integers(0, 4, size=n)
            ops = [PauliOperator(width, int(x), int(z), int(p)) for (x, z), p in zip(bits, phases)]
            chain = ops[0]
            for op in ops[1:]:
                chain = multiply(chain, op)
            assert multiply_all(ops) == chain
            assert multiply_all(iter(ops), width=width) == chain
        assert multiply_all([], width=3) == identity(3)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            multiply(parse_pauli("X"), parse_pauli("XX"))
        with pytest.raises(ValueError):
            multiply_all([])
        for mixed in (["X", "XX"], ["XX", "ZZ", "Y"], ["Z", "Y", "X", "IZ"]):
            with pytest.raises(ValueError, match="width mismatch"):
                multiply_all([parse_pauli(t) for t in mixed])


class TestCommutation:
    def test_commutes_against_dense_commutator(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            width = int(rng.integers(1, 4))
            p = random_pauli(rng, width)
            q = random_pauli(rng, width)
            dense_p, dense_q = dense_operator(p), dense_operator(q)
            vanishes = np.allclose(dense_p @ dense_q - dense_q @ dense_p, 0)
            assert commutes(p, q) == vanishes

    def test_hermitian_products_of_commuting_pairs(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 100:
            p = random_pauli(rng, 3)
            q = random_pauli(rng, 3)
            if commutes(p, q):
                assert multiply(p, q).is_hermitian
                checked += 1
