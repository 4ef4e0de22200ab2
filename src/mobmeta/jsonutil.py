"""Canonical JSON writing so repeated runs produce byte-identical files."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any


def canonical_dumps(obj: Any) -> str:
    """Serialize with sorted keys, no whitespace padding variance, and a
    trailing newline.  NaN/Infinity are rejected: reports must stay valid
    JSON for non-Python consumers."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_canonical_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def read_json(path: str | Path) -> Any:
    """The JSON value in a UTF-8 file; a file that is not one raises
    ValueError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: {e}") from None


def is_number(value: Any) -> bool:
    """Whether a value read from JSON is a finite number; true and false
    are not, though Python counts bool as int, and neither are the NaN
    and Infinity that Python's json reads."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def curve(value: Any, name: str, x: str, y: str) -> list:
    """A curve read from JSON: a list of [x, y] pairs, x an integer and y
    a number.  ValueError names the first entry that is not one."""
    if not (isinstance(value, list)
            and all(isinstance(p, list) and len(p) == 2 for p in value)):
        raise ValueError(f"{name} must be a list of [{x}, {y}] pairs")
    for i, (a, b) in enumerate(value):
        if not (is_number(a) and isinstance(a, int)):
            wrong = f"{x} must be an integer"
        elif not is_number(b):
            wrong = f"{y} must be a number"
        else:
            continue
        raise ValueError(f"{name} entry {i} {json.dumps([a, b])}: {wrong}")
    return value


def record_dict(record: Any) -> dict:
    """A dataclass record's fields by name, each tuple a list, copying no
    value (unlike asdict).  Read from the instance dict, so the record may
    have no __slots__ and no attribute besides its fields."""
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in vars(record).items()}


def sha256_file(*paths: str | Path) -> str:
    """Hex sha256 of the files' bytes, read one after another."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()
