"""Walk through the ten-observable parity argument step by step.

Ten three-qubit observables fit into five measurement contexts. Each
context is a small abelian group and carries one product relation; four
relations have sign +1 and one has sign -1. Any single +/-1 assignment to
the ten observables would have to satisfy all five relations at once, but
summing them over GF(2) cancels every observable and leaves 0 = 1. The
script builds that contradiction explicitly, then repeats the argument
with the GHZ eigenvalues pinned, where only the four product observables
are constrained by the state.

Run:  python3 demos/mermin_presheaf.py
"""
from contextua import (
    Certificate,
    build_global_problem,
    member_sign,
    solve_global,
    spectrum,
    verify_certificate,
)
from contextua.fixtures import ghz_group, ghz_pins, mermin_contexts
from contextua.report import equation_lines


def main() -> None:
    contexts = mermin_contexts()

    print("The five contexts and their product relations")
    print("---------------------------------------------")
    for k, ctx in enumerate(contexts, start=1):
        members = " ".join(op.body() for op in ctx.members)
        print(f"W{k}: {{{members}}}")
        for relation in ctx.relations:
            print(f"    relation: {relation}")
        print(f"    spectrum: {len(spectrum(ctx))} local valuations")
    print()

    print("Searching for a global section")
    print("------------------------------")
    problem = build_global_problem(contexts)
    print(
        f"linear system: {problem.num_rows} relation rows over "
        f"{problem.num_vars} observable variables"
    )
    outcome = solve_global(problem)
    assert isinstance(outcome, Certificate)
    print("no solution; the contradiction uses these rows:")
    for line in equation_lines(problem, outcome.selected):
        print(f"    {line}")
    print("    every observable appears twice, the signs multiply to -1,")
    print("    so the rows sum to 0 = 1 over GF(2).")
    assert verify_certificate(problem, outcome)
    print("verify_certificate confirms it on the system's int rows.")
    print()

    print("Pinning the GHZ eigenvalues")
    print("---------------------------")
    group = ghz_group()
    pins = ghz_pins()
    for pin in pins:
        # A member of the stabilizer group with sign bit b has <GHZ|P|GHZ> = (-1)^b.
        value = 1 - 2 * member_sign(group, pin.observable)
        eigen = "+1" if pin.value_bit == 0 else "-1"
        print(f"    <GHZ| {pin.observable.body()} |GHZ> = {value:+d} -> pin {eigen}")
    pinned_problem = build_global_problem(contexts, pins)
    pinned_outcome = solve_global(pinned_problem)
    assert isinstance(pinned_outcome, Certificate)
    print(
        "still no global section: even the four pinned values cannot be "
        "extended over the five contexts."
    )
    assert verify_certificate(pinned_problem, pinned_outcome)
    print(f"verify_certificate confirms the contradiction of rows {pinned_outcome.selected}.")


if __name__ == "__main__":
    main()
