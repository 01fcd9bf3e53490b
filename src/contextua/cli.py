"""Command-line front end.

Exit codes: 0 for any completed analysis (a contextual verdict is a result,
not a failure), 2 for unreadable or malformed input, 3 when a requested
output is indeterminate.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import fixtures, io
from . import report as report_mod
from .contexts import close_context, maximal_contexts
from .mbqc import IndeterminateInputsError, contextuality_report, truth_table
from .mbqc import run as run_instance
from .pauli import PauliOperator
from .presheaf import decide_global
from .report import TOOL_VERSION, Report

_EXIT_INPUT_ERROR = 2
_EXIT_INDETERMINATE = 3


def _echo(message: str, *, err: bool = False, nl: bool = True) -> None:
    """click.echo to the current stdout (or stderr), looked up on each call.

    Plain click.echo caches a wrapper per sys.stdout object, and the cached
    entry keeps that object alive; every in-process invocation (CliRunner)
    would then keep all of its captured output in memory.
    """
    stream = click.get_text_stream("stderr" if err else "stdout")
    click.echo(message, file=stream, nl=nl)


def _emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        _echo(report_mod.render_json(report), nl=False)
    else:
        _echo(report_mod.render_text(report), nl=False)


def _input_error(message: str) -> None:
    _echo(f"error: {message}", err=True)
    sys.exit(_EXIT_INPUT_ERROR)


@click.group()
@click.version_option(version=TOOL_VERSION, prog_name="contextua")
def main() -> None:
    """Decide contextuality of Pauli observable sets and analyze instances
    of measurement-based mod-2 computation."""


@main.command("analyze")
@click.option(
    "--obs",
    "obs_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    help="Observable file: one signed Pauli per line.",
)
@click.option(
    "--contexts",
    "contexts_path",
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    help="Explicit context blocks (bypasses maximal-clique search).",
)
@click.option(
    "--pin",
    "pin_path",
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    help="Eigenvalue pins: lines of 'pin <signed-pauli> <+1|-1>'.",
)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_analyze(
    obs_path: Path, contexts_path: Path | None, pin_path: Path | None, fmt: str
) -> None:
    """Decide whether an observable set admits a global section."""
    # Each file is read once: the digest names exactly the bytes parsed. One
    # parse table serves all three, so each distinct Pauli text is parsed once.
    obs_data = obs_path.read_bytes()
    contexts_data = contexts_path.read_bytes() if contexts_path is not None else None
    pin_data = pin_path.read_bytes() if pin_path is not None else None
    digest = io.sha256_digest(
        *[data for data in (obs_data, contexts_data, pin_data) if data is not None]
    )
    parsed: dict[str, PauliOperator] = {}
    try:
        loose, blocks = io.parse_observable_file(obs_data.decode("utf-8"), parsed)
        if contexts_path is not None:
            if blocks:
                raise io.FileFormatError(
                    "observable file has context blocks; with --contexts, "
                    "give them in the context file only"
                )
            text = contexts_data.decode("utf-8")
            extra_loose, blocks = io.parse_observable_file(text, parsed)
            if extra_loose:
                raise io.FileFormatError(
                    "context file must contain only context blocks"
                )
            if not blocks:
                raise io.FileFormatError("context file has no context blocks")
        if blocks:
            contexts = [close_context(block) for block in blocks]
            # The identity lies in every context, though no context names it.
            covered = {"I" * contexts[0].width}
            for c in contexts:
                covered.update(c.names)
            uncovered = [op.body() for op in loose if op.body() not in covered]
            if uncovered:
                raise io.FileFormatError(
                    f"observables outside every context: {' '.join(uncovered)}"
                )
        else:
            if not loose:
                raise io.FileFormatError("no observables given")
            contexts = maximal_contexts(loose)
        pins = io.parse_pin_file(pin_data.decode("utf-8"), parsed) if pin_data else ()
        # Unknown pins are refused before the solver reads any row.
        problem, outcome = decide_global(contexts, pins)
    except ValueError as exc:
        _input_error(str(exc))
        return
    analysis = report_mod.build_analysis(contexts, problem, outcome, pins)
    _emit(
        Report(version=TOOL_VERSION, input_sha256=digest, analyses={"analysis": analysis}),
        fmt,
    )


@main.command("mermin")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_mermin(fmt: str) -> None:
    """Run the built-in ten-observable example, plain and state-pinned."""
    digest = io.sha256_digest(
        fixtures.mermin_file_text().encode("utf-8"),
        fixtures.mermin_contexts_file_text().encode("utf-8"),
    )
    contexts = fixtures.mermin_contexts()
    analyses = {}
    for name, pins in (("state_independent", ()), ("ghz_pinned", fixtures.ghz_pins())):
        problem, outcome = decide_global(contexts, pins)
        analyses[name] = report_mod.build_analysis(contexts, problem, outcome, pins)
    _emit(Report(version=TOOL_VERSION, input_sha256=digest, analyses=analyses), fmt)


@main.group("mbqc")
@click.option(
    "--instance",
    "instance_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    help="Instance file (JSON).",
)
@click.pass_context
def cmd_mbqc(ctx: click.Context, instance_path: Path) -> None:
    """Work with one measurement-based computation instance."""
    ctx.ensure_object(dict)
    data = instance_path.read_bytes()
    try:
        instance = io.load_instance(data)
    except ValueError as exc:
        _input_error(str(exc))
        return
    ctx.obj["instance"] = instance
    ctx.obj["digest"] = io.sha256_digest(data)


@cmd_mbqc.command("run")
@click.option("--input", "bits_text", required=True, help="Input bits, e.g. 10.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.pass_context
def mbqc_run(ctx: click.Context, bits_text: str, fmt: str) -> None:
    """Compute the output for one input."""
    instance = ctx.obj["instance"]
    if len(bits_text) != instance.input_bits or set(bits_text) - {"0", "1"}:
        _input_error(
            f"input must be {instance.input_bits} bits of 0/1, got {bits_text!r}"
        )
    output = run_instance(instance, [int(c) for c in bits_text])
    if fmt == "json":
        payload = {
            "tool": "contextua",
            "version": TOOL_VERSION,
            "input": bits_text,
            "output": output,
        }
        _echo(json.dumps(payload, indent=2))
    else:
        _echo("indeterminate" if output is None else str(output))
    if output is None:
        sys.exit(_EXIT_INDETERMINATE)


@cmd_mbqc.command("table")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.pass_context
def mbqc_table(ctx: click.Context, fmt: str) -> None:
    """Print the full truth table."""
    instance = ctx.obj["instance"]
    try:
        table = truth_table(instance)
    except IndeterminateInputsError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(_EXIT_INDETERMINATE)
    if fmt == "json":
        payload = {
            "tool": "contextua",
            "version": TOOL_VERSION,
            "input_bits": table.input_bits,
            "outputs": list(table.outputs),
        }
        _echo(json.dumps(payload, indent=2))
    else:
        for index, out in enumerate(table.outputs):
            key = format(index, f"0{table.input_bits}b") if table.input_bits else "()"
            _echo(f"{key}: {out}")


@cmd_mbqc.command("report")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.pass_context
def mbqc_report(ctx: click.Context, fmt: str) -> None:
    """Full analysis: contexts, contextuality verdict, table, affine fit."""
    instance = ctx.obj["instance"]
    try:
        result = contextuality_report(instance)
    except IndeterminateInputsError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(_EXIT_INDETERMINATE)
    analysis = report_mod.build_analysis(
        result.contexts,
        result.problem,
        result.global_section,
        result.pins,
        mbqc=report_mod.mbqc_block(result),
    )
    _emit(
        Report(
            version=TOOL_VERSION, input_sha256=ctx.obj["digest"], analyses={"mbqc": analysis}
        ),
        fmt,
    )


if __name__ == "__main__":
    main()
