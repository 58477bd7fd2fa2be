"""The one reader and the one writer of the toolkit's JSON files."""

from __future__ import annotations

import json
from pathlib import Path


def read_json(path, error: type[Exception], kind: str, build):
    """``build(obj)`` of the JSON object in ``path``. A file that is not UTF-8
    JSON, not an object, or whose ``build`` meets a missing field (a
    ``KeyError``) or a malformed one is one ``error`` naming the file and
    ``kind``; errors ``build`` raises itself pass through."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise error(f"{path}: {kind} is not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise error(f"{path}: {kind} is not a JSON object")
    try:
        return build(obj)
    except KeyError as exc:
        raise error(f"{path}: {kind} missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise error(f"{path}: {kind} has a malformed field ({exc})") from exc


def write_json(path, obj, indent=None, sort_keys: bool = False) -> None:
    """Write ``obj`` as UTF-8 JSON, non-ASCII kept, in one ``write``
    (``json.dump`` would stream it through the pure-Python encoder)."""
    Path(path).write_text(json.dumps(obj, ensure_ascii=False, indent=indent,
                                     sort_keys=sort_keys), encoding="utf-8")
