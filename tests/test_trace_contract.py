"""The names and result attributes the benchmark's tracer depends on.

perfbench/tracing.py wraps library functions by module attribute and reads
attributes of their results. Loading it here and running three commands under
it makes a rename or a changed result type fail this test instead of only
the traced benchmark run. No command calls gf2.rref, so the test calls it
on a fixed matrix under the tracer: the name must still resolve and the
hook must still read the result's reduced shape.
"""
import importlib.util
from pathlib import Path

from click.testing import CliRunner

from contextua import gf2
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
    tracer = tracing.new_tracer()
    try:
        runner = CliRunner()
        mermin = runner.invoke(main, ["mermin"])
        reports = [
            runner.invoke(main, ["mbqc", "--instance", str(ROOT / "fixtures" / name), "report"])
            for name in ("anders_browne.json", "z_product.json")
        ]
        gf2.rref(gf2.BitMatrix((0b011, 0b110, 0b101, 0b1000), 4))
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
    for size in (
        "presheaf.rows",
        "presheaf.vars",
        "presheaf.certificate_rows",
        "mbqc.inputs",
        "mbqc.settings",
        "report.contexts",
    ):
        assert tracer.sizes[size] > 0, size
    metrics = tracing.layer_metrics(tracer, traced_wall=1.0, untraced_wall=1.0)
    assert metrics["gf2.rref.calls"] == (tracer.calls["gf2.rref"], "count")
