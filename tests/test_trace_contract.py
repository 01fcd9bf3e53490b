"""The names and result attributes the benchmark's tracer depends on.

perfbench/tracing.py wraps library functions by module attribute and reads
attributes of their results. Loading it here and running three commands under
it makes a rename or a changed result type fail this test instead of only
the traced benchmark run. No command calls gf2.rref, build_global_problem
or solve_global, so the test calls them under the tracer, through their
module attributes: the names must still resolve and the hooks must still
read the results' sizes. Their inputs, the Mermin contexts and GHZ pins,
are built before the tracer is installed, so no span counts that work.
"""
import importlib.util
from pathlib import Path

from click.testing import CliRunner

from contextua import fixtures, gf2, presheaf
from contextua.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_it_reports():
    tracing = load_tracing()
    contexts, pins = fixtures.mermin_contexts(), fixtures.ghz_pins()
    tracer = tracing.new_tracer()
    try:
        runner = CliRunner()
        mermin = runner.invoke(main, ["mermin"])
        reports = [
            runner.invoke(main, ["mbqc", "--instance", str(ROOT / "fixtures" / name), "report"])
            for name in ("anders_browne.json", "z_product.json")
        ]
        gf2.rref(gf2.BitMatrix((0b011, 0b110, 0b101, 0b1000), 4))
        presheaf.solve_global(presheaf.build_global_problem(contexts, pins))
    finally:
        tracer.uninstall()
    assert mermin.exit_code == 0, mermin.output
    for report in reports:
        assert report.exit_code == 0, report.output
    assert tracer.calls["gf2.rref"] == 1
    assert tracer.sizes["gf2.rref.cells"] == 4 * 4
    # mermin closes its five blocks; each report closes its special context.
    assert tracer.calls["contexts.close_context"] == 5 + 1 + 1
    # mermin signs its four GHZ pins; each report looks up setting 0 and one
    # member per pivot column of Q: rank 2 for the OR gate, rank 1 for z_product.
    assert tracer.calls["stabilizer.member_sign"] == 4 + 3 + 2
    # The pinned Mermin system: five relations and four pins over ten
    # observables, contradicted by five rows.
    assert tracer.sizes["presheaf.rows"] == 9
    assert tracer.sizes["presheaf.vars"] == 10
    assert tracer.sizes["presheaf.certificate_rows"] == 5
    for size in (
        "mbqc.inputs",
        "mbqc.settings",
        "report.contexts",
    ):
        assert tracer.sizes[size] > 0, size
    metrics = tracing.layer_metrics(tracer, traced_wall=1.0, untraced_wall=1.0)
    assert metrics["gf2.rref.calls"] == (tracer.calls["gf2.rref"], "count")
