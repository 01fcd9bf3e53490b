"""Parsers and writers for the small text formats the tool consumes.

Observable files: one signed Pauli string per line. A line is read
without what follows `#` and without surrounding whitespace, and a line
left empty is skipped. A line reading `context:` opens an explicit context
block; every operator line after it belongs to that block (or the next
one). Loose observables must appear before the first block.

Pin files: lines of `pin <signed-pauli> <+1|-1>` fixing eigenvalues.

Both parsers walk the lines once and take an optional parse table, a dict
from Pauli text to its operator, read before anything else on a line. A
command passes one table to every file it parses, so each distinct text is
parsed once, by :func:`~contextua.pauli.parse_pauli`, and equal texts
share one operator.

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


# Instance files nest arrays and objects at most this deep. The parser
# recurses once per level and raises RecursionError at a depth that differs
# between Python versions, so a fixed bound makes the refusal the same on all.
MAX_JSON_DEPTH = 100


class FileFormatError(ValueError):
    """The file does not follow the documented grammar."""


def _too_deep(value: dict | list) -> bool:
    """True when the array or object value nests more than MAX_JSON_DEPTH levels deep."""
    level = [value]
    for _ in range(MAX_JSON_DEPTH):
        level = [
            inner
            for outer in level
            for inner in (outer.values() if type(outer) is dict else outer)
            if type(inner) in (list, dict)
        ]
        if not level:
            return False
    return True


def sha256_digest(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
        digest.update(b"\x00")
    return digest.hexdigest()


def _parse(text: str, number: int, parsed: dict[str, PauliOperator]) -> PauliOperator:
    """Parse one Pauli text on line number into the table, which does not hold it."""
    try:
        op = parsed[text] = parse_pauli(text)
    except ValueError as exc:
        raise FileFormatError(f"line {number}: {exc}") from exc
    return op


def parse_observable_file(
    text: str, parsed: dict[str, PauliOperator] | None = None
) -> tuple[tuple[PauliOperator, ...], tuple[tuple[PauliOperator, ...], ...]]:
    """Split a file into loose observables and explicit context blocks.

    parsed, the parse table, is read and extended; without one the file
    gets its own. Only a text the table lacks can be a `context:` line.
    """
    parsed = {} if parsed is None else parsed
    get = parsed.get
    loose: list[PauliOperator] = []
    blocks: list[list[PauliOperator]] = []
    current = loose
    for number, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line[: line.index("#")]
        line = line.strip()
        if not line:
            continue
        op = get(line)
        if op is None:
            if line == "context:":
                current = []
                blocks.append(current)
                continue
            op = _parse(line, number, parsed)
        current.append(op)
    widths = {op.width for op in loose}
    for block in blocks:
        if not block:
            raise FileFormatError("empty context block")
        widths.update([op.width for op in block])
    if len(widths) > 1:
        raise FileFormatError(f"mixed operator widths: {sorted(widths)}")
    return tuple(loose), tuple(map(tuple, blocks))


def parse_pin_file(
    text: str, parsed: dict[str, PauliOperator] | None = None
) -> tuple[StateConstraint, ...]:
    """The pins in file order; none may give an observable both eigenvalues.

    parsed is the parse table, as for :func:`parse_observable_file`.
    """
    parsed = {} if parsed is None else parsed
    pins: list[StateConstraint] = []
    values: dict[str, int] = {}
    for number, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line[: line.index("#")]
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3 or parts[0] != "pin":
            raise FileFormatError(
                f"line {number}: expected 'pin <signed-pauli> <+1|-1>', got {line.strip()!r}"
            )
        if parts[2] not in ("+1", "-1"):
            raise FileFormatError(f"line {number}: eigenvalue must be +1 or -1")
        op = parsed.get(parts[1]) or _parse(parts[1], number, parsed)
        pin = StateConstraint.from_eigenvalue(op, 1 if parts[2] == "+1" else -1)
        if values.setdefault(pin.observable.body(), pin.value_bit) != pin.value_bit:
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
    except ValueError as exc:  # a JSONDecodeError, or a number past the digit limit
        raise FileFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError("invalid JSON: nested too deeply") from exc
    if not isinstance(raw, dict):
        raise FileFormatError("instance file must hold a JSON object")
    if _too_deep(raw):
        raise FileFormatError("invalid JSON: nested too deeply")
    return validate_instance(raw)
