"""Spans and call counts recorded from outside the program.

A :class:`Tracer` replaces chosen functions with wrappers at
every module attribute that binds them, so calls made through a
``from x import f`` binding (``mbqc.close_context``, ``contexts.commutes``)
and internal calls (``gf2.rank`` -> ``gf2.rref``) are all caught. A span
wrapper records (name, start, end, parent) in memory; a count wrapper only
counts calls, for leaf functions too hot to time one by one. Hooks run on
each span's arguments and result to collect sizes. :meth:`uninstall` puts
every original back. :func:`new_tracer` installs one on the layers of the
imported ``contextua`` package and :func:`layer_metrics` turns what it
recorded into the per-layer metrics.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

Hook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start, end, parent index]; -1 marks a root.
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.sizes: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[ModuleType, str, Any]] = []

    # ------------------------------------------------------------ recording

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        self.calls[name] += 1
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span_wrapper(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ patching

    def install(
        self,
        modules: list[ModuleType],
        spans: dict[str, list[tuple[Callable, Hook | None]]],
        counts: dict[str, Callable],
    ) -> None:
        """Wrap each function at every attribute of ``modules`` bound to it."""
        replacements: dict[int, Callable] = {}
        for name, targets in spans.items():
            for fn, hook in targets:
                replacements[id(fn)] = self.span_wrapper(name, fn, hook)
        for name, fn in counts.items():
            replacements[id(fn)] = self.count_wrapper(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] += end - start - children
        return dict(totals)

    def write_spans(self, path: Path) -> None:
        """Write spans as CSV rows: name, start, end, parent (times relative)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as out:
            out.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                out.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")


# ---------------------------------------------------------------- contextua


def new_tracer() -> Tracer:
    """A Tracer installed on the public functions of every contextua layer."""
    from contextua import contexts, gf2, io, mbqc, pauli, presheaf, report, stabilizer

    tracer = Tracer()
    sizes = tracer.sizes

    def rref_cells(_t, _args, _kwargs, result) -> None:
        rows, cols = result.reduced.shape
        sizes["gf2.rref.cells"] += rows * cols

    def problem_size(_t, _args, _kwargs, result) -> None:
        sizes["presheaf.rows"] += result.num_rows
        sizes["presheaf.vars"] += result.num_vars

    def certificate(_t, _args, _kwargs, result) -> None:
        if isinstance(result, gf2.Certificate):
            sizes["presheaf.certificates"] += 1
            sizes["presheaf.certificate_rows"] += len(result.selected)

    def analysis(_t, _args, _kwargs, result) -> None:
        sizes["report.contexts"] += len(result.contexts)

    def rendered(_t, _args, _kwargs, result) -> None:
        sizes["report.bytes"] += len(result.encode("utf-8"))

    def mbqc_settings(_t, args, _kwargs, result) -> None:
        sizes["mbqc.inputs"] += 1 << args[0].input_bits
        sizes["mbqc.settings"] += len(result.contexts) - 1  # minus the special context

    spans = {
        "io.parse": [(io.parse_observable_file, None), (io.parse_pin_file, None),
                     (io.load_instance, None)],
        "contexts.commutation_graph": [(contexts.commutation_graph, None)],
        "contexts.maximal_contexts": [(contexts.maximal_contexts, None)],
        "contexts.close_context": [(contexts.close_context, None)],
        "gf2.rref": [(gf2.rref, rref_cells)],
        "presheaf.build_global_problem": [(presheaf.build_global_problem, problem_size)],
        "presheaf.solve_global": [(presheaf.solve_global, certificate)],
        "stabilizer.member_sign": [(stabilizer.member_sign, None)],
        "mbqc.joint_observable": [(mbqc.joint_observable, None)],
        "mbqc.contextuality_report": [(mbqc.contextuality_report, mbqc_settings)],
        "report.build_analysis": [(report.build_analysis, analysis)],
        "report.render": [(report.render_text, rendered), (report.render_json, rendered)],
    }
    counts = {"pauli.multiply": pauli.multiply, "pauli.commutes": pauli.commutes}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "contextua"]
    tracer.install(modules, spans, counts)
    return tracer


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    self_s = tracer.self_times()
    calls, sizes = tracer.calls, tracer.sizes

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def seconds(name: str) -> tuple[float, str]:
        return self_s.get(name, 0.0), "s"

    def share(name: str) -> tuple[float, str]:
        # For layers some workloads never call: a bypassed layer then reads 0
        # as a share of the traced pass, not as a time equal on every run.
        return ratio(self_s.get(name, 0.0), traced_wall), "ratio"

    def count(value: int) -> tuple[int, str]:
        return value, "count"

    return {
        "cli.self_s": seconds("cli"),
        "io.parse.self_s": seconds("io.parse"),
        "pauli.multiply.calls": count(calls["pauli.multiply"]),
        "pauli.commutes.calls": count(calls["pauli.commutes"]),
        "contexts.commutation_graph.self_share": share("contexts.commutation_graph"),
        "contexts.maximal_contexts.self_share": share("contexts.maximal_contexts"),
        "contexts.close_context.calls": count(calls["contexts.close_context"]),
        "contexts.close_context.self_s": seconds("contexts.close_context"),
        "contexts.close_context.kept_ratio": (
            ratio(sizes["report.contexts"], calls["contexts.close_context"]), "ratio"),
        "gf2.rref.calls": count(calls["gf2.rref"]),
        "gf2.rref.self_s": seconds("gf2.rref"),
        "gf2.rref.cells": count(sizes["gf2.rref.cells"]),
        "presheaf.build_global_problem.self_s": seconds("presheaf.build_global_problem"),
        "presheaf.solve_global.self_s": seconds("presheaf.solve_global"),
        "presheaf.rows": count(sizes["presheaf.rows"]),
        "presheaf.vars": count(sizes["presheaf.vars"]),
        "presheaf.certificate_rows": count(sizes["presheaf.certificate_rows"]),
        "presheaf.contextual_ratio": (
            ratio(sizes["presheaf.certificates"], calls["presheaf.solve_global"]), "ratio"),
        "stabilizer.member_sign.calls": count(calls["stabilizer.member_sign"]),
        "stabilizer.member_sign.self_share": share("stabilizer.member_sign"),
        "mbqc.joint_observable.calls": count(calls["mbqc.joint_observable"]),
        "mbqc.joint_observable.self_share": share("mbqc.joint_observable"),
        "mbqc.evaluations_per_input": (
            ratio(calls["mbqc.joint_observable"], sizes["mbqc.inputs"]), "ratio"),
        "mbqc.inputs_per_setting": (ratio(sizes["mbqc.inputs"], sizes["mbqc.settings"]), "ratio"),
        "report.build_analysis.self_s": seconds("report.build_analysis"),
        "report.render.self_s": seconds("report.render"),
        "report.bytes": (sizes["report.bytes"], "bytes"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall - 1, "ratio"),
    }
