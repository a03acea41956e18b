"""Instance file I/O: JSON bodies with optional '#'-prefixed provenance headers.

Python converts integers of more than `sys.get_int_max_str_digits()` digits
(4300 by default) neither from nor to text.  A record holding one is refused
on load with `InstanceError`, and a result that would need one is refused on
write with `CapExceededError`.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import CapExceededError, InstanceError


def load_json(path: str | Path) -> dict:
    """Read a JSON instance file, skipping leading blank and '#' comment lines.

    Only a line feed ends a line (text mode reads CR LF and a lone CR as one).
    The body is the rest of the text from its first line, unsplit, so any
    other line separator in it, U+2028 included, is for `json.loads` to
    accept or refuse.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path}: not UTF-8 text ({exc})") from exc
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        line = text[start:end]
        if line.strip() and not line.lstrip().startswith("#"):
            break
        start = end
    else:
        raise InstanceError(f"{path}: no JSON body found")
    try:  # minus one final newline: an error at the end is placed on the last line
        data = json.loads(text[start : len(text) - text.endswith("\n")])
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise InstanceError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InstanceError(f"{path}: top-level JSON value must be an object")
    return data


def save_json(path: str | Path, data: dict, provenance: list[str] | None = None) -> None:
    """Write a JSON instance file with optional provenance header lines."""
    header = "".join(f"# {line}\n" for line in provenance or [])
    Path(path).write_text(header + dump_json(data) + "\n")


def dump_json(data: dict) -> str:
    try:
        return json.dumps(data, indent=2, sort_keys=True)
    except ValueError as exc:  # an integer over the digit limit
        raise CapExceededError(f"record cannot be written as JSON: {exc}") from exc
