"""The names and result attributes the benchmark's tracer depends on.

perfbench/tracing.py wraps library functions by module attribute and reads
attributes of their results. Loading it here and running three commands under
it makes a rename or a changed result type fail this test instead of only
the traced benchmark run. Two of the commands are contextual; the
noncontextual z_product report has a one-dimensional section space, so its
binary-lowest section still runs gf2.rref.
"""
import importlib.util
from pathlib import Path

from click.testing import CliRunner

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
    finally:
        tracer.uninstall()
    assert mermin.exit_code == 0, mermin.output
    for report in reports:
        assert report.exit_code == 0, report.output
    for name in (
        "gf2.rref",
        "contexts.close_context",
        "stabilizer.member_sign",
        "mbqc.joint_observable",
    ):
        assert tracer.calls[name] > 0, name
    for size in (
        "gf2.rref.cells",
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
