"""Three parties on a GHZ state compute OR, and OR is not affine.

Each party holds one qubit and measures X or Y depending on one setting
bit; the settings are a GF(2)-linear function q = Q i of the two input
bits, and the computed output is the parity of the three outcomes. The
resource state fixes every reachable product observable, so the output is
deterministic, and the table comes out as OR. OR is not an affine
function of the inputs, and the analysis shows why that forces
contextuality: the instance's measurement contexts admit no global
section once the state's eigenvalues are pinned.

A two-party control instance with Z measurements on a product state shows
the noncontextual side: a global section exists and it reads off an
affine (here constant) output map directly.

Run:  python3 demos/anders_browne_or_gate.py
"""
from contextua import (
    AffineForm,
    contextuality_report,
    fit_affine,
    input_vector,
    joint_observable,
    linear_output_map,
    run,
    truth_table,
)
from contextua.fixtures import anders_browne_instance, z_product_instance
from contextua.report import equation_lines


def show_affine_search(outputs: tuple[int, ...], m: int) -> None:
    print(f"    exhaustive search over all {2 ** (m + 1)} affine forms on {m} bits:")
    for mask in range(1 << m):
        coefficients = tuple((mask >> (m - 1 - j)) & 1 for j in range(m))
        for constant in (0, 1):
            form = AffineForm(coefficients=coefficients, constant=constant)
            table = tuple(form.evaluate(input_vector(i, m)) for i in range(1 << m))
            marker = "matches!" if table == outputs else "differs"
            print(f"        coefficients={coefficients} constant={constant}: {table}  {marker}")


def main() -> None:
    inst = anders_browne_instance()

    print("Running the OR instance input by input")
    print("--------------------------------------")
    for index in range(4):
        bits = input_vector(index, 2)
        joint, _ = joint_observable(inst, bits)
        sign = "+" if joint.sign == 1 else "-"
        output = run(inst, bits)
        print(
            f"    i={bits[0]}{bits[1]}: joint observable {sign}{joint.body()}, "
            f"output {output}"
        )
    table = truth_table(inst)
    print(f"truth table (binary input order): {table.outputs}  <- OR")
    print()

    print("The table is not affine")
    print("-----------------------")
    if fit_affine(table.outputs) is None:
        print("    fit_affine finds no form a.i + c reproducing the table")
    show_affine_search(table.outputs, 2)
    print()

    print("And the instance is contextual")
    print("------------------------------")
    report = contextuality_report(inst)
    print(f"contexts: {len(report.contexts)} (four local, one for the products)")
    pins = ", ".join(
        f"{p.observable.body()}={'+1' if p.value_bit == 0 else '-1'}"
        for p in report.pins
    )
    print(f"state pins: {pins}")
    assert report.is_contextual
    print("certificate rows:")
    for line in equation_lines(report.problem, report.global_section.selected):
        print(f"    {line}")
    print(f"theorem consistent: {report.theorem_consistent}")
    print()

    print("Control: a noncontextual instance stays affine")
    print("----------------------------------------------")
    clean = z_product_instance()
    clean_report = contextuality_report(clean)
    assert not clean_report.is_contextual
    mapped = linear_output_map(clean_report, clean)
    print(f"truth table: {clean_report.truth_table.outputs}")
    print(f"per-party outcome bits (setting 0, setting 1): {mapped.outcomes}")
    print(
        f"affine output map: coefficients={mapped.affine.coefficients} "
        f"constant={mapped.affine.constant}"
    )


if __name__ == "__main__":
    main()
