"""The one reader of the toolkit's JSON files, and its one file writer:
``replacing`` puts every file slumix writes in place, whole or not at all."""

from __future__ import annotations

import contextlib
import filecmp
import json
import os
import stat

INDENT = 2


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


@contextlib.contextmanager
def replacing(path):
    """A UTF-8 text file open for writing, LF line ends, that replaces ``path``
    (a symlink's target) once the block ends without an error, unless ``path``
    holds the same bytes; else it is removed and ``path`` is left as it was. It
    gets the mode ``open(path, "w")`` would leave: the kernel applies the umask,
    never read or set here. A pipe or other non-regular file is written through."""
    try:
        mode = os.stat(path).st_mode  # a symlink's target's
    except FileNotFoundError:  # a new regular file
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as f:
            yield f
        return
    target = os.path.realpath(path) if os.path.islink(path) else path
    tmp = f"{target}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the user's path, not a random one
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as f:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            yield f
        with contextlib.suppress(OSError):  # a new or unreadable target is replaced
            if filecmp.cmp(target, tmp, shallow=False):  # no new file for the same bytes
                os.unlink(tmp)
                return
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    """Put ``text`` in place at ``path`` through ``replacing``."""
    with replacing(path) as f:
        f.write(text)


def write_json(path, obj, sort_keys: bool = False) -> None:
    """Write ``obj`` as UTF-8 JSON, indented by ``INDENT``, non-ASCII kept, in
    one ``write`` (``json.dump`` would stream it through the pure-Python encoder)."""
    write_text(path, json.dumps(obj, ensure_ascii=False, indent=INDENT, sort_keys=sort_keys))
