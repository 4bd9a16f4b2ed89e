"""The one canonical JSON form, its digest, and its strict reader.

Every document the program writes to be compared byte for byte is
:func:`dumps` — sorted keys, compact separators — and is identified by
:func:`digest`. Every reader goes through :func:`loads`,
:func:`check_tag` and :func:`check_keys`, so a key ``to_dict`` never
wrote is an error naming that key, not a silently ignored typo
(DESIGN.md §9, "Canonical documents").
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, fields

from repro.errors import ConfigurationError

__all__ = ["dumps", "digest", "loads", "check_tag", "check_keys", "dataclass_keys", "null_if_nan"]


def dumps(doc) -> str:
    """Canonical JSON text: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    """SHA-256 hex digest of :func:`dumps` — a document's identity."""
    return hashlib.sha256(dumps(doc).encode("utf-8")).hexdigest()


def loads(text: str, where: str) -> dict:
    """Parse one JSON *object*; anything else is a :class:`ConfigurationError`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid {where} JSON: {exc}") from exc
    check_keys(doc, where, (), doc)  # any keys: only "is it an object" applies
    return doc


def check_tag(doc: dict, key: str, tag: str, where: str) -> None:
    """``doc[key]``, when present, must equal ``tag`` (:func:`check_keys` requires it)."""
    if doc.get(key, tag) != tag:
        raise ConfigurationError(f"unsupported {where} {key} {doc[key]!r}; expected {tag!r}")


def check_keys(doc, where: str, required, optional=()) -> None:
    """``doc`` must be an object holding every ``required`` key and none
    outside ``required`` + ``optional``; the error names the first bad key."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {type(doc).__name__}")
    for problem, keys in (
        ("unknown", set(doc).difference(required, optional)),
        ("missing", set(required).difference(doc)),
    ):
        if keys:
            raise ConfigurationError(f"{problem} key {min(keys)!r} in {where}")


def dataclass_keys(cls) -> tuple[list[str], list[str]]:
    """``(required, optional)`` keys of a hand-written block: the fields of
    dataclass ``cls`` without and with a default."""
    required = [
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    ]
    return required, [f.name for f in fields(cls) if f.name not in required]


def null_if_nan(value: float) -> float | None:
    """NaN → ``None`` so canonical JSON serialises a real ``null``."""
    return None if math.isnan(value) else float(value)
