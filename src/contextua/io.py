"""Parsers and writers for the small text formats the tool consumes.

Observable files: one signed Pauli string per line, `#` starts a comment.
A line reading `context:` opens an explicit context block; every operator
line after it belongs to that block (or the next one). Loose observables
must appear before the first block.

Pin files: lines of `pin <signed-pauli> <+1|-1>` fixing eigenvalues.

Instance files: JSON with fields `parties`, `input_bits`, `Q`,
`observables` (two lists, settings 0 and 1), `resource`.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .mbqc import MBQCInstance, validate_instance
from .pauli import PauliOperator, parse_pauli
from .presheaf import StateConstraint


class FileFormatError(ValueError):
    """The file does not follow the documented grammar."""


def sha256_digest(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
        digest.update(b"\x00")
    return digest.hexdigest()


def _content_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((number, line))
    return lines


def parse_observable_file(
    text: str,
) -> tuple[tuple[PauliOperator, ...], tuple[tuple[PauliOperator, ...], ...]]:
    """Split a file into loose observables and explicit context blocks."""
    loose: list[PauliOperator] = []
    blocks: list[list[PauliOperator]] = []
    in_blocks = False
    for number, line in _content_lines(text):
        if line == "context:":
            in_blocks = True
            blocks.append([])
            continue
        try:
            op = parse_pauli(line)
        except ValueError as exc:
            raise FileFormatError(f"line {number}: {exc}") from exc
        if in_blocks:
            blocks[-1].append(op)
        else:
            loose.append(op)
    for block in blocks:
        if not block:
            raise FileFormatError("empty context block")
    widths = {op.width for op in loose} | {op.width for b in blocks for op in b}
    if len(widths) > 1:
        raise FileFormatError(f"mixed operator widths: {sorted(widths)}")
    return tuple(loose), tuple(tuple(b) for b in blocks)


def parse_pin_file(text: str) -> tuple[StateConstraint, ...]:
    """The pins in file order; none may give an observable both eigenvalues."""
    pins: list[StateConstraint] = []
    values: dict[tuple[int, int, int], int] = {}
    for number, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "pin":
            raise FileFormatError(
                f"line {number}: expected 'pin <signed-pauli> <+1|-1>', got {line!r}"
            )
        if parts[2] not in ("+1", "-1"):
            raise FileFormatError(f"line {number}: eigenvalue must be +1 or -1")
        try:
            op = parse_pauli(parts[1])
        except ValueError as exc:
            raise FileFormatError(f"line {number}: {exc}") from exc
        pin = StateConstraint.from_eigenvalue(op, 1 if parts[2] == "+1" else -1)
        if values.setdefault(pin.observable.identity_key(), pin.value_bit) != pin.value_bit:
            raise FileFormatError(
                f"line {number}: {pin.observable.body()} is pinned to both +1 and -1"
            )
        pins.append(pin)
    return tuple(pins)


def load_instance(source: str | Path | bytes) -> MBQCInstance:
    """Validate an instance file, given its path or the bytes read from it."""
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    text = data.decode("utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise FileFormatError("instance file must hold a JSON object")
    return validate_instance(raw)
