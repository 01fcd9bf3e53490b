"""Instance validation, runs, truth tables and the affine-output statement."""
import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextua import gf2, mbqc
from contextua import report as report_module
from contextua.contexts import close_context
from contextua.fixtures import anders_browne_instance, z_product_instance
from contextua.mbqc import (
    IndeterminateInputsError,
    InvalidResourceError,
    MalformedFieldError,
    NonLocalObservableError,
    ShapeMismatchError,
    VerificationFailedError,
    contextuality_report,
    joint_observable,
    linear_output_map,
    run,
    truth_table,
    validate_instance,
)
from contextua.pauli import format_pauli, parse_pauli
from contextua.presheaf import (
    GlobalSection,
    StateConstraint,
    build_global_problem,
    solve_global,
)
from contextua.stabilizer import member_sign

from conftest import (
    LETTERS,
    brute_force_global,
    context_fields,
    ghz_raw,
    large_ghz_instance,
    random_stabilizer_group,
    random_valid_instance,
    random_valid_raw,
    reference_mbqc,
)


def xor_raw():
    """Two parties measure Z or -Z under an identity setting matrix."""
    return {
        "parties": 2,
        "input_bits": 2,
        "Q": [[1, 0], [0, 1]],
        "observables": [["Z", "Z"], ["-Z", "-Z"]],
        "resource": ["+ZI", "+IZ"],
    }


def undetermined_raw():
    """X measurements against a Z-stabilized resource: no output is fixed."""
    return {
        "parties": 2,
        "input_bits": 1,
        "Q": [[1], [1]],
        "observables": [["X", "X"], ["Y", "Y"]],
        "resource": ["+ZI", "+IZ"],
    }


def wide_raw(input_bits):
    """One party whose setting bit is the first of many input bits."""
    return {
        "parties": 1,
        "input_bits": input_bits,
        "Q": [[1] + [0] * (input_bits - 1)],
        "observables": [["Z"], ["-Z"]],
        "resource": ["+Z"],
    }


def random_raw_instance(rng, max_parties=3, max_input_bits=6):
    """Unconstrained letters, signs and Q over a random resource.

    Unlike random_valid_instance, many of these leave some input's output
    undetermined.
    """
    n = int(rng.integers(1, max_parties + 1))
    m = int(rng.integers(0, max_input_bits + 1))
    group = random_stabilizer_group(rng, n)
    observables = [
        [
            ("-" if rng.integers(0, 2) else "+")
            + "".join(LETTERS[int(rng.integers(0, 4))] if j == k else "I" for j in range(n))
            for k in range(n)
        ]
        for _ in (0, 1)
    ]
    return validate_instance(
        {
            "parties": n,
            "input_bits": m,
            "Q": rng.integers(0, 2, size=(n, m)).tolist(),
            "observables": observables,
            "resource": [format_pauli(g) for g in group.generators],
        }
    )


def algebraic_degree(outputs):
    """The degree of a truth table's GF(2) polynomial, read off its Moebius transform.

    Each butterfly pass folds one input bit; coefficient s is then the XOR
    of the table over the inputs inside s, and the degree is the largest
    weight of a set coefficient (0 for a constant table).
    """
    coefficients = list(outputs)
    step = 1
    while step < len(coefficients):
        for index in range(len(coefficients)):
            if index & step:
                coefficients[index] ^= coefficients[index ^ step]
        step <<= 1
    return max((i.bit_count() for i, c in enumerate(coefficients) if c), default=0)


def ghz_rank_one_instance():
    """Three GHZ parties, six input bits, 64 inputs sharing two settings."""
    column = [1, 0, 1, 1, 0, 1]
    return validate_instance(
        {
            "parties": 3,
            "input_bits": 6,
            "Q": [column, column, [0] * 6],
            "observables": [["X", "X", "X"], ["Y", "Y", "Y"]],
            "resource": ["+XXX", "+ZZI", "+IZZ"],
        }
    )


class TestValidateInstance:
    def test_or_gate_instance(self):
        inst = anders_browne_instance()
        assert inst.parties == 3
        assert inst.input_bits == 2
        assert inst.columns == (0b101, 0b110)  # Q = [[1, 0], [0, 1], [1, 1]]
        assert [op.body() for op in inst.observables[0]] == ["XII", "IXI", "IIX"]
        assert [op.body() for op in inst.observables[1]] == ["YII", "IYI", "IIY"]
        assert inst.resource.rank == 3

    def test_full_width_strings_and_signs(self):
        inst = validate_instance(
            {
                "parties": 2,
                "input_bits": 1,
                "Q": [[1], [0]],
                "observables": [["+ZI", "IZ"], ["-ZI", "IZ"]],
                "resource": ["+ZI", "+IZ"],
            }
        )
        assert inst.observables[1][0].sign == -1
        assert inst.observables[1][0].body() == "ZI"

    def test_missing_field(self):
        with pytest.raises(ShapeMismatchError):
            validate_instance({"parties": 2})

    def test_bad_setting_matrix_shape(self):
        raw = xor_raw()
        raw["Q"] = [[1, 0]]
        with pytest.raises(ShapeMismatchError):
            validate_instance(raw)

    def test_bad_observable_list_shape(self):
        raw = xor_raw()
        raw["observables"] = [["Z", "Z"]]
        with pytest.raises(ShapeMismatchError):
            validate_instance(raw)

    def test_observable_width_mismatch(self):
        raw = xor_raw()
        raw["observables"] = [["ZII", "Z"], ["Z", "Z"]]
        with pytest.raises(ShapeMismatchError):
            validate_instance(raw)

    def test_observable_outside_party_qubit(self):
        raw = xor_raw()
        raw["observables"] = [["ZZ", "Z"], ["Z", "Z"]]
        with pytest.raises(NonLocalObservableError):
            validate_instance(raw)

    def test_invalid_resource(self):
        raw = xor_raw()
        raw["resource"] = ["+XI", "+ZI"]
        with pytest.raises(InvalidResourceError):
            validate_instance(raw)
        raw["resource"] = ["not a pauli"]
        with pytest.raises(InvalidResourceError):
            validate_instance(raw)
        raw["resource"] = ["+ZI", "+ZI"]
        with pytest.raises(InvalidResourceError):
            validate_instance(raw)

    def test_nonpositive_parties(self):
        raw = xor_raw()
        raw["parties"] = 0
        with pytest.raises(ShapeMismatchError):
            validate_instance(raw)

    def test_sixteen_input_bits_validate(self):
        inst = validate_instance(wide_raw(16))
        assert inst.input_bits == 16
        assert inst.columns == (1,) + (0,) * 15

    def test_input_bits_over_the_limit(self):
        with pytest.raises(MalformedFieldError, match="input_bits.*16"):
            validate_instance(wide_raw(17))

    @pytest.mark.parametrize("first", [True, 2, 1.0, "1", None, [1]])
    def test_first_bad_q_entry_in_row_order(self, first):
        """The error names the first offender of a row-by-row scan.

        Other offenders sit earlier in column order, later in row order.
        """
        others = [bad for bad in (True, 2, 1.0, "1") if bad is not first][:2]
        raw = {
            "parties": 3,
            "input_bits": 3,
            "Q": [[1, 0, first], [others[0], 1, 0], [0, others[1], 1]],
            "observables": [["Z", "Z", "Z"], ["-Z", "-Z", "-Z"]],
            "resource": ["+ZII", "+IZI", "+IIZ"],
        }
        with pytest.raises(MalformedFieldError) as excinfo:
            validate_instance(raw)
        assert str(excinfo.value) == f"Q entries must be 0 or 1, got {first!r}"

    def test_repeated_observable_texts_embed_per_party(self):
        """Each party embeds the one parse of a repeated text on its own qubit."""
        raw = {
            "parties": 3,
            "input_bits": 1,
            "Q": [[1], [0], [1]],
            "observables": [["X", "-Y", "X"], ["Y", "IZI", "-Y"]],
            "resource": ["+XXX", "+ZZI", "+IZZ"],
        }
        inst = validate_instance(raw)
        for setting, texts in enumerate(raw["observables"]):
            for party, text in enumerate(texts):
                op = inst.observables[setting][party]
                padded = text if len(text.lstrip("+-")) == 3 else (
                    text[:-1] + "I" * party + text[-1] + "I" * (2 - party)
                )
                assert op == parse_pauli(padded)
                assert op.body() == parse_pauli(padded).body()

    def test_each_distinct_observable_text_is_parsed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mbqc, "parse_pauli", lambda text: calls.append(text) or parse_pauli(text))
        raw = ghz_raw(np.random.default_rng(5), 8, 8, 2)
        validate_instance(raw)
        assert sorted(calls) == sorted(["X", "Y", *raw["resource"]])

    def test_columns_pack_the_setting_matrix(self):
        """Bit k of columns[j] is Q[k, j], packed once at validation."""
        assert anders_browne_instance().columns == (0b101, 0b110)
        rng = np.random.default_rng(9)
        for _ in range(40):
            raw = random_valid_raw(rng, max_input_bits=6)
            q = raw["Q"]
            assert validate_instance(raw).columns == tuple(
                sum(q[k][j] << k for k in range(raw["parties"]))
                for j in range(raw["input_bits"])
            )


class TestJointObservable:
    def test_or_gate_settings(self):
        inst = anders_browne_instance()
        joint, context = joint_observable(inst, (0, 0))
        assert joint == parse_pauli("XXX")
        assert [m.body() for m in context.members] == ["IIX", "IXI", "XII", "XXX"]
        joint, _ = joint_observable(inst, (1, 0))
        assert joint == parse_pauli("YXY")
        joint, _ = joint_observable(inst, (0, 1))
        assert joint == parse_pauli("XYY")
        joint, _ = joint_observable(inst, (1, 1))
        assert joint == parse_pauli("YYX")

    def test_signed_locals_fold_into_the_joint(self):
        inst = validate_instance(xor_raw())
        joint, context = joint_observable(inst, (0, 1))
        assert joint == parse_pauli("-ZZ")
        assert [m.body() for m in context.members] == ["IZ", "ZI", "ZZ"]

    def test_identity_local_keeps_context_projective(self):
        """A pinned-off party measuring -I must not poison the context."""
        inst = validate_instance(
            {
                "parties": 1,
                "input_bits": 1,
                "Q": [[1]],
                "observables": [["Z"], ["-I"]],
                "resource": ["+Z"],
            }
        )
        joint, context = joint_observable(inst, (1,))
        assert joint.is_identity_class and joint.sign == -1
        assert context.rank == 0
        assert run(inst, (1,)) == 1
        assert run(inst, (0,)) == 0

    def test_wrong_input_length(self):
        with pytest.raises(ValueError):
            joint_observable(anders_browne_instance(), (0,))


class TestRunAndTable:
    @pytest.mark.parametrize("bad", [2, -1, 256, None, "1", [1]])
    def test_truth_table_refuses_non_bits(self, bad):
        for input_bits, outputs in ((0, (bad,)), (1, (0, bad)), (2, (bad, 0, 1, 1))):
            with pytest.raises(ValueError, match="^outputs must be bits$"):
                mbqc.TruthTable(input_bits, outputs)

    def test_or_gate_table(self):
        inst = anders_browne_instance()
        assert run(inst, (0, 0)) == 0
        assert run(inst, (0, 1)) == 1
        assert run(inst, (1, 0)) == 1
        assert run(inst, (1, 1)) == 1
        table = truth_table(inst)
        assert table.outputs == (0, 1, 1, 1)

    def test_xor_table(self):
        table = truth_table(validate_instance(xor_raw()))
        assert table.outputs == (0, 1, 1, 0)

    def test_constant_table(self):
        table = truth_table(z_product_instance())
        assert table.outputs == (0, 0)

    def test_zero_input_bits(self):
        inst = validate_instance(
            {
                "parties": 1,
                "input_bits": 0,
                "Q": [[]],
                "observables": [["X"], ["X"]],
                "resource": ["+X"],
            }
        )
        assert run(inst, ()) == 0
        assert truth_table(inst).outputs == (0,)

    def test_indeterminate_output_is_none(self):
        inst = validate_instance(undetermined_raw())
        assert run(inst, (0,)) is None
        with pytest.raises(IndeterminateInputsError) as excinfo:
            truth_table(inst)
        assert excinfo.value.inputs == ((0,), (1,))

    def test_table_ignores_resource_generator_order(self):
        reordered = {
            "parties": 3,
            "input_bits": 2,
            "Q": [[1, 0], [0, 1], [1, 1]],
            "observables": [["X", "X", "X"], ["Y", "Y", "Y"]],
            "resource": ["+IZZ", "+XXX", "+ZZI"],
        }
        first = truth_table(anders_browne_instance())
        second = truth_table(validate_instance(reordered))
        assert first.outputs == second.outputs


class TestMbqcContexts:
    def test_or_gate_contexts(self):
        contexts = contextuality_report(anders_browne_instance()).contexts
        assert len(contexts) == 5
        bodies = [tuple(m.body() for m in c.members) for c in contexts]
        assert bodies[0] == ("IIX", "IXI", "XII", "XXX")
        assert bodies[1] == ("IIY", "IYI", "XII", "XYY")
        assert bodies[2] == ("IIY", "IXI", "YII", "YXY")
        assert bodies[3] == ("IIX", "IYI", "YII", "YYX")
        assert bodies[4] == ("XXX", "XYY", "YXY", "YYX")

    def test_duplicate_settings_collapse(self):
        """A zero column of Q reaches only one setting vector."""
        inst = validate_instance(
            {
                "parties": 2,
                "input_bits": 1,
                "Q": [[0], [0]],
                "observables": [["Z", "Z"], ["X", "X"]],
                "resource": ["+ZI", "+IZ"],
            }
        )
        contexts = contextuality_report(inst).contexts
        assert len(contexts) == 2
        assert [m.body() for m in contexts[1].members] == ["ZZ"]
        assert contexts[1].is_subgroup_of(contexts[0])

    def test_unstabilized_joint_is_rejected(self):
        with pytest.raises(IndeterminateInputsError) as excinfo:
            contextuality_report(validate_instance(undetermined_raw()))
        assert excinfo.value.inputs == ((0,), (1,))


class TestContextualityReport:
    def test_or_gate_is_contextual(self):
        report = contextuality_report(anders_browne_instance())
        assert report.is_contextual
        assert isinstance(report.global_section, gf2.Certificate)
        assert report.truth_table.outputs == (0, 1, 1, 1)
        assert report.affine is None
        assert report.theorem_consistent
        assert len(report.contexts) == 5
        assert [p.observable.body() for p in report.pins] == [
            "XXX", "XYY", "YXY", "YYX",
        ]
        assert [p.value_bit for p in report.pins] == [0, 1, 1, 1]
        # The certificate ends at row 5; the whole system has 9 rows.
        assert report.problem.num_rows == 5
        assert report.problem.num_vars == 10
        assert gf2.verify_certificate(report.problem, report.global_section)
        whole = build_global_problem(report.contexts, report.pins)
        assert whole.num_rows == 9
        assert whole.matrix.rows[:5] == report.problem.matrix.rows
        assert gf2.verify_certificate(whole, report.global_section)

    def test_xor_instance_is_noncontextual(self):
        report = contextuality_report(validate_instance(xor_raw()))
        assert not report.is_contextual
        assert report.affine == gf2.AffineForm(coefficients=(1, 1), constant=0)
        assert report.theorem_consistent

    def test_constant_instance(self):
        report = contextuality_report(z_product_instance())
        assert not report.is_contextual
        assert report.affine == gf2.AffineForm(coefficients=(0,), constant=0)
        assert report.theorem_consistent

    def test_brute_force_agrees_on_fixtures(self):
        for inst in (
            anders_browne_instance(),
            z_product_instance(),
            validate_instance(xor_raw()),
        ):
            report = contextuality_report(inst)
            slow = brute_force_global(report.problem)
            assert report.is_contextual == (slow is None)


class TestLinearOutputMap:
    def test_xor_map(self):
        inst = validate_instance(xor_raw())
        mapped = linear_output_map(contextuality_report(inst), inst)
        assert mapped.affine == gf2.AffineForm(coefficients=(1, 1), constant=0)
        assert mapped.outcomes == ((0, 1), (0, 1))

    def test_constant_map(self):
        inst = z_product_instance()
        mapped = linear_output_map(contextuality_report(inst), inst)
        assert mapped.affine == gf2.AffineForm(coefficients=(0,), constant=0)
        assert mapped.outcomes == ((0, 0), (0, 0))

    def test_identity_local_contributes_its_sign(self):
        inst = validate_instance(
            {
                "parties": 1,
                "input_bits": 1,
                "Q": [[1]],
                "observables": [["Z"], ["-I"]],
                "resource": ["+Z"],
            }
        )
        mapped = linear_output_map(contextuality_report(inst), inst)
        assert mapped.outcomes == ((0, 1),)
        assert mapped.affine == gf2.AffineForm(coefficients=(1,), constant=0)

    def test_contextual_report_is_refused(self):
        inst = anders_browne_instance()
        with pytest.raises(ValueError, match="contextual report"):
            linear_output_map(contextuality_report(inst), inst)

    def test_planted_affine_form_is_caught(self):
        """The map read off the section is checked against report.affine."""
        inst = validate_instance(xor_raw())
        report = contextuality_report(inst)
        for planted in (
            gf2.AffineForm(coefficients=(1, 1), constant=1),
            gf2.AffineForm(coefficients=(1, 0), constant=0),
            None,
        ):
            with pytest.raises(VerificationFailedError):
                linear_output_map(dataclasses.replace(report, affine=planted), inst)

    def test_reads_the_report_without_evaluating(self, monkeypatch):
        inst = validate_instance(xor_raw())
        report = contextuality_report(inst)
        calls = TestOnePass.count_calls(
            monkeypatch, "truth_table", "member_sign", "joint_observable", "close_context"
        )
        linear_output_map(report, inst)
        assert calls == dict.fromkeys(calls, 0)


class TestTheoremProperty:
    def test_random_instances_never_contradict(self):
        """A section plus a non-affine table never happens; maps verify."""
        rng = np.random.default_rng(401)
        sections = certificates = 0
        for _ in range(50):
            inst = random_valid_instance(rng)
            report = contextuality_report(inst)
            assert report.theorem_consistent
            assert report.truth_table is not None
            assert len(report.truth_table.outputs) == 1 << inst.input_bits
            if report.is_contextual:
                certificates += 1
                assert gf2.verify_certificate(report.problem, report.global_section)
            else:
                sections += 1
                assert report.affine is not None
                mapped = linear_output_map(report, inst)
                assert mapped.affine == report.affine
        assert sections > 5


class TestOnePass:
    @staticmethod
    def assert_matches_reference(inst):
        """Outputs, undetermined inputs, joints and every context agree with the oracle.

        Each setting's joint equals the multiply_all product of its locals,
        phase included. Contexts are compared in full: members, generators
        and signed relations, each local one through joint_observable, and
        all of them through the report when every output is determined; each
        names its members by their bodies. A local context of two or more
        members has one relation, all of them with sign +1. Every truth
        table has algebraic degree at most 2.
        """
        outputs, local_contexts, special = reference_mbqc(inst)
        for index, expected in enumerate(outputs):
            assert run(inst, gf2.input_vector(index, inst.input_bits)) == expected
        for index, expected_joint, expected in local_contexts:
            joint, context = joint_observable(inst, gf2.input_vector(index, inst.input_bits))
            assert joint == expected_joint
            assert context_fields(context) == context_fields(expected)
            assert context.names == tuple(op.body() for op in expected.members)
            if len(context.members) > 1:
                everyone = (1 << len(context.members)) - 1
                assert (context.relations, context.signs) == ((everyone,), 0)
        if special is None:
            missing = tuple(
                gf2.input_vector(index, inst.input_bits)
                for index, out in enumerate(outputs)
                if out is None
            )
            with pytest.raises(IndeterminateInputsError) as excinfo:
                truth_table(inst)
            assert excinfo.value.inputs == missing
            with pytest.raises(IndeterminateInputsError) as excinfo:
                contextuality_report(inst)
            assert excinfo.value.inputs == missing
            return False
        assert truth_table(inst).outputs == outputs
        assert algebraic_degree(outputs) <= 2
        expected = [context for _, _, context in local_contexts] + [special]
        contexts = contextuality_report(inst).contexts
        assert [context_fields(c) for c in contexts] == [context_fields(c) for c in expected]
        assert all(c.names == tuple(op.body() for op in c.members) for c in contexts)
        return True

    def test_matches_the_per_input_reference(self):
        """Tables, undetermined inputs and contexts agree with the oracle."""
        rng = np.random.default_rng(403)
        instances = [random_valid_instance(rng, max_input_bits=6) for _ in range(120)]
        instances += [random_raw_instance(rng) for _ in range(120)]
        determined = sum(self.assert_matches_reference(inst) for inst in instances)
        assert determined > 100 and len(instances) - determined > 30

    @pytest.mark.parametrize(
        "parties, q, observables, resource",
        [
            # One party: the joint is the local up to sign.
            (1, [[1]], [["Z"], ["-Z"]], ["+Z"]),
            # Identity locals, signed and unsigned, beside non-identity ones.
            (3, [[1, 0], [0, 1], [1, 1]], [["I", "X", "-I"], ["-I", "-X", "Z"]],
             ["+IXI", "+IIZ", "+ZII"]),
            # Signed locals fold into the joint's sign.
            (2, [[1], [1]], [["-X", "-X"], ["Y", "-Y"]], ["+XX", "+ZZ"]),
            # Every setting has exactly one non-identity local.
            (3, [[1], [0], [1]], [["I", "-I", "Z"], ["X", "I", "I"]],
             ["+IIZ", "+XII", "+IZI"]),
            # Setting 0's joint is -II: the special context skips it, pinning only XX.
            (2, [[1], [1]], [["I", "-I"], ["X", "X"]], ["+XX", "+ZZ"]),
        ],
    )
    def test_edge_locals_match_the_reference(self, parties, q, observables, resource):
        raw = {
            "parties": parties,
            "input_bits": len(q[0]),
            "Q": q,
            "observables": observables,
            "resource": resource,
        }
        self.assert_matches_reference(validate_instance(raw))

    def test_identity_joint_is_not_pinned(self):
        """Setting 0's joint -II is in no context and carries no pin; XX = +1 is the one pin."""
        inst = validate_instance({
            "parties": 2, "input_bits": 1, "Q": [[1], [1]],
            "observables": [["I", "-I"], ["X", "X"]], "resource": ["+XX", "+ZZ"],
        })
        report = contextuality_report(inst)
        assert report.truth_table.outputs == (1, 0)
        assert [c.names for c in report.contexts] == [(), ("IX", "XI", "XX"), ("XX",)]
        assert [(pin.observable.body(), pin.value_bit) for pin in report.pins] == [("XX", 0)]

    def test_ghz_tables_have_degree_at_most_two(self):
        """Pauli measurements on a stabilizer state compute at most quadratic functions.

        This is the known limit of l2-MBQC with Pauli measurements (Hoban,
        Campbell, Loukopoulos and Browne, NJP 13, 023014, 2011), which the
        GHZ instances of up to 7 input bits reach but never pass.
        """
        assert algebraic_degree((0,) * 7 + (1,)) == 3  # the AND of three bits
        rng = np.random.default_rng(409)
        degrees = set()
        for parties in range(3, 8):
            for inputs in range(8):
                inner_rank = int(rng.integers(0, min(parties - 1, inputs) + 1))
                inst = validate_instance(ghz_raw(rng, parties, inputs, inner_rank))
                degrees.add(algebraic_degree(truth_table(inst).outputs))
        assert max(degrees) == 2

    @staticmethod
    def count_calls(monkeypatch, *names):
        """Count calls to mbqc's named functions wherever contextua binds them."""
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(mbqc, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "contextua" and (
                    getattr(module, name, None) is original
                ):
                    monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("rank", [1, 3])
    def test_report_looks_up_a_basis_of_settings(self, monkeypatch, rank):
        """member_sign runs r + 1 times and joint_observable not at all.

        Setting 0 and the r pivot columns are looked up; the other 2^r - r - 1
        settings' members are products. Each input's joint_observable, called
        afterwards, gives exactly the report's local context of its setting.
        """
        if rank == 1:
            inst = ghz_rank_one_instance()
        else:
            inst = validate_instance(ghz_raw(np.random.default_rng(411), 6, 6, 3))
        calls = self.count_calls(
            monkeypatch, "joint_observable", "close_context", "member_sign"
        )
        report = contextuality_report(inst)
        assert len(report.truth_table.outputs) == 64
        assert len(report.contexts) == (1 << rank) + 1
        # Local contexts are written down with their relation; the special
        # context is closed by close_context, as any given context is.
        assert calls == {"joint_observable": 0, "close_context": 1, "member_sign": rank + 1}
        reached, _ = mbqc._reached(inst)
        position = {q: k for k, q in enumerate(reached)}
        for index in range(64):
            bits = gf2.input_vector(index, 6)
            _, context = joint_observable(inst, bits)
            expected = report.contexts[position[mbqc._setting_of(inst, bits)]]
            assert context_fields(context) == context_fields(expected)
            assert context.names == expected.names

    def test_table_and_run_build_no_context(self, monkeypatch):
        inst = ghz_rank_one_instance()
        calls = self.count_calls(monkeypatch, "close_context")
        table = truth_table(inst)
        for index, expected in enumerate(table.outputs):
            assert run(inst, gf2.input_vector(index, 6)) == expected
        assert calls == {"close_context": 0}


def per_setting_report(inst):
    """contextuality_report evaluated setting by setting, as an oracle for the basis.

    Inputs are walked in binary order; each setting met for the first time
    gets joint_observable and member_sign at that input. The special context
    is close_context of the canonical joints. Returns the settings in
    first-reached order and the report, or raises IndeterminateInputsError
    naming every input whose setting has no member.
    """
    m = inst.input_bits
    inputs, first = [], {}
    for index in range(1 << m):
        q = 0
        for column, bit in zip(inst.columns, gf2.input_vector(index, m)):
            q ^= column * bit
        inputs.append(q)
        first.setdefault(q, index)
    outputs, contexts, pin_bits = {}, [], {}
    for q, index in first.items():
        joint, context = joint_observable(inst, gf2.input_vector(index, m))
        outputs[q] = member_sign(inst.resource, joint)
        contexts.append(context)
        if outputs[q] is not None:
            pin_bits[joint.canonical()] = outputs[q] ^ joint.sign_bit
    if None in outputs.values():
        raise IndeterminateInputsError(tuple(
            gf2.input_vector(index, m) for index, q in enumerate(inputs) if outputs[q] is None
        ))
    table = mbqc.TruthTable(m, tuple(outputs[q] for q in inputs))
    special = close_context(list(pin_bits), width=inst.parties)
    contexts.append(special)
    pins = tuple(StateConstraint(op, pin_bits[op]) for op in special.members)
    problem = build_global_problem(contexts, pins)
    outcome = solve_global(problem)
    affine = gf2.fit_affine(table.outputs)
    return list(first), mbqc.ContextualityReport(
        global_section=outcome,
        truth_table=table,
        affine=affine,
        theorem_consistent=not (isinstance(outcome, GlobalSection) and affine is None),
        contexts=tuple(contexts),
        pins=pins,
        problem=problem,
    )


def rendered(report):
    analysis = report_module.build_analysis(
        report.contexts, report.problem, report.global_section, report.pins,
        mbqc=report_module.mbqc_block(report),
    )
    document = report_module.Report(version="0", input_sha256="0", analyses={"mbqc": analysis})
    return report_module.render_json(document)


class TestSettingBasis:
    """The basis doubling gives what evaluating every setting gives, byte for byte."""

    @staticmethod
    def assert_matches_per_setting(inst):
        try:
            reached, expected = per_setting_report(inst)
        except IndeterminateInputsError as error:
            for evaluate in (truth_table, contextuality_report):
                with pytest.raises(IndeterminateInputsError) as excinfo:
                    evaluate(inst)
                assert str(excinfo.value) == str(error)
                assert excinfo.value.inputs == error.inputs
            return
        assert mbqc._reached(inst)[0] == reached
        report = contextuality_report(inst)
        assert report.truth_table == expected.truth_table == truth_table(inst)
        assert [c.names for c in report.contexts] == [c.names for c in expected.contexts]
        assert [context_fields(c) for c in report.contexts] == [
            context_fields(c) for c in expected.contexts
        ]
        # The report holds the rows decide_global read: a prefix of the
        # whole system, up to the certificate, or all of it.
        problem, whole = report.problem, expected.problem
        read = problem.num_rows
        assert problem.labels == whole.labels
        assert problem.matrix.rows == whole.matrix.rows[:read]
        assert problem.rhs == whole.rhs & (1 << read) - 1
        if report.is_contextual:
            for system in (problem, whole):
                assert gf2.verify_certificate(system, report.global_section)
        else:
            assert read == whole.num_rows
        assert rendered(report) == rendered(expected)

    @pytest.mark.parametrize("make", [
        anders_browne_instance,
        z_product_instance,
        lambda: validate_instance(xor_raw()),
        lambda: validate_instance(undetermined_raw()),
        ghz_rank_one_instance,
        large_ghz_instance,
    ], ids=["anders_browne", "z_product", "xor", "undetermined", "ghz_rank_one", "large_ghz"])
    def test_suite_instances(self, make):
        self.assert_matches_per_setting(make())

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_valid_instances(self, seed):
        rng = np.random.default_rng(seed)
        self.assert_matches_per_setting(
            validate_instance(random_valid_raw(rng, max_parties=6, max_input_bits=10))
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        parties=st.integers(2, 9),
        inputs=st.integers(0, 10),
        rank_share=st.floats(0, 1),
    )
    def test_ghz_instances(self, seed, parties, inputs, rank_share):
        inner_rank = round(rank_share * min(parties - 1, inputs))
        rng = np.random.default_rng(seed)
        self.assert_matches_per_setting(
            validate_instance(ghz_raw(rng, parties, inputs, inner_rank))
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unconstrained_instances(self, seed):
        """Random letters and resources leave many instances indeterminate."""
        self.assert_matches_per_setting(random_raw_instance(np.random.default_rng(seed)))

    def test_indeterminate_pivot_names_the_same_inputs(self):
        """Setting 0 and the first pivot have members, the second pivot none.

        Party 0 measures X at setting 1, which the Z-stabilized qubit leaves
        open; the error names every input whose setting sets party 0's bit.
        """
        inst = validate_instance(
            {
                "parties": 3,
                "input_bits": 4,
                "Q": [[0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 0]],
                "observables": [["Z", "Z", "X"], ["X", "-Z", "X"]],
                "resource": ["+ZII", "+IZI", "+IIX"],
            }
        )
        message = (
            "output is indeterminate for inputs: "
            "0010, 0011, 0100, 0101, 1010, 1011, 1100, 1101"
        )
        for evaluate in (truth_table, contextuality_report):
            with pytest.raises(IndeterminateInputsError) as excinfo:
                evaluate(inst)
            assert str(excinfo.value) == message
        self.assert_matches_per_setting(inst)
