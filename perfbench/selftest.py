"""Self-test of the benchmark's checker and tracer.

    python3 perfbench/selftest.py

1. The checker accepts real reports and rejects tampered ones: a flipped
   certificate row, a flipped section value, a flipped truth-table entry
   and a clique report with one context left out, each in the text and
   the JSON format.
2. On every workload, two traced runs with the same seed give exactly
   equal counts (every per-layer metric whose unit is ``count`` or
   ``bytes``).

Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 1


def _flip_sign(text: str) -> str:
    return text.replace("+1", "@").replace("-1", "+1").replace("@", "-1")


def _flip_first_after(output: str, header: str, flip) -> str:
    lines = output.split("\n")
    start = next(k for k, line in enumerate(lines) if line.startswith(header))
    lines[start + 1] = flip(lines[start + 1])
    return "\n".join(lines)


def _flip_json(output: str, edit) -> str:
    data = json.loads(output)
    (analysis,) = data["analyses"].values()
    edit(analysis)
    return json.dumps(data, indent=2) + "\n"


def _flip_first_value(values: dict) -> None:
    first = next(iter(values))
    values[first] ^= 1


def _drop_first_after(output: str, header: str) -> str:
    lines = output.split("\n")
    del lines[lines.index(header) + 1]
    return "\n".join(lines)


def _drop_first_context(analysis: dict) -> None:
    del analysis["contexts"][0]
    del analysis["spectrum_sizes"][0]


TAMPERS = {
    ("certificate", "text"): lambda out: _flip_first_after(out, "certificate (", _flip_sign),
    ("certificate", "json"): lambda out: _flip_json(
        out, lambda a: a["certificate"]["equations"].__setitem__(
            0, _flip_sign(a["certificate"]["equations"][0]))),
    ("section", "text"): lambda out: _flip_first_after(out, "global section (", _flip_sign),
    ("section", "json"): lambda out: _flip_json(
        out, lambda a: _flip_first_value(a["section"]["values"])),
    ("truth table", "text"): lambda out: _flip_first_after(
        out, "truth table:", lambda line: line[:-1] + str(1 - int(line[-1]))),
    ("truth table", "json"): lambda out: _flip_json(
        out, lambda a: a["mbqc"]["truth_table"].__setitem__(0, 1 - a["mbqc"]["truth_table"][0])),
    ("context list", "text"): lambda out: _drop_first_after(out, "contexts:"),
    ("context list", "json"): lambda out: _flip_json(out, _drop_first_context),
}
# A report with a context left out must fail on the missing maximal clique
# itself, not only on a side effect such as a certificate row's context.
EXPECTED_MESSAGE = {"context list": "maximal commuting subsets are not listed"}


def _first_value_constrained(item, text: str) -> bool:
    """Whether the section's first value lies in some context relation.

    A value outside every relation may take either sign, so flipping it
    leaves a valid section that the checker rightly accepts.
    """
    import check

    parsed = check.parse_json_report(text) if item.fmt == "json" else check.parse_text_report(text)
    first = next(iter(parsed.section))
    return any(
        first in relation
        for members in parsed.contexts
        for relation in check.relation_basis(members)
    )


def tamper_checks() -> list[str]:
    import check
    import jsonschema

    schema = json.loads((run.SRC / "contextua" / "data" / "report.schema.json").read_text())
    validator = jsonschema.Draft7Validator(schema)
    failures = []
    found: set[tuple[str, str]] = set()
    for workload in ("ks_cliques", "ks_blocks", "mbqc_ghz"):
        prepared = run.Prepared(workload, SEED, run.work_dir(workload, SEED))
        try:
            for index in sorted(range(len(prepared.items)), key=lambda i: prepared.items[i].size):
                item = prepared.items[index]
                code, output, error = prepared.invoke(index)
                text = output.decode("utf-8")
                verdict, errors = check.check_report(item, text, validator)
                if code or error or errors:
                    failures.append(f"{item.name}: real report rejected: {errors or error}")
                    continue
                kinds = ["certificate"] if verdict == "contextual" else []
                if verdict == "noncontextual" and _first_value_constrained(item, text):
                    kinds.append("section")
                if item.q_rows is not None:
                    kinds.append("truth table")
                if workload == "ks_cliques":
                    kinds.append("context list")
                for kind in kinds:
                    key = (kind, item.fmt)
                    if key in found:
                        continue
                    found.add(key)
                    tampered = TAMPERS[key](text)
                    messages = check.check_report(item, tampered, validator)[1]
                    expected = EXPECTED_MESSAGE.get(kind, "")
                    if tampered == text:
                        failures.append(f"{item.name}: tampering the {kind} changed nothing")
                    elif not any(expected in message for message in messages):
                        failures.append(f"{item.name}: tampered {kind} ({item.fmt}) accepted"
                                        f" or rejected for another reason: {messages}")
                    else:
                        print(f"rejects a tampered {kind} ({item.fmt}) of {item.name}")
                if len(found) == len(TAMPERS):
                    break
        finally:
            run.shutil.rmtree(run.work_dir(workload, SEED), ignore_errors=True)
    missing = set(TAMPERS) - found
    if missing:
        failures.append(f"no item to tamper for {sorted(missing)}")
    return failures


def traced_counts(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {n: m["value"] for n, m in metrics.items() if m["unit"] in ("count", "bytes")}


def main() -> int:
    run.import_contextua()
    failures = tamper_checks()
    for workload in sorted(run.workloads.WORKLOADS):
        first, second = traced_counts(workload), traced_counts(workload)
        differ = sorted(n for n in first if first[n] != second[n])
        if differ:
            failures.append(f"{workload}: traced counts differ between runs: {differ}")
        else:
            print(f"{workload}: {len(first)} traced counts repeat exactly")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
