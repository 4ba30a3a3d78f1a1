"""Small file helpers shared across modules."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile

import orjson

from .errors import DuplicateIdError, EmptyInputError, FormatError

# mkstemp forces 0600; written files should honor the process umask instead
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write_bytes(path, data: bytes) -> None:
    """Write to a sibling temp file, then rename over the target.

    Readers never observe a half-written file; on failure the original is
    untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# orjson 3.8 has no depth limit and overflows the C stack past about 120,000
# levels; a text of at most this many characters (or bytes), or with at most
# 10,000 '[' and '{', cannot nest that deep
SHALLOW_TEXT = 20_000

# orjson reads an integer wider than 64 bits as a float where json keeps it
# exact. Mapping digits to "0", the characters that lead into a fraction or
# an exponent to "." and everything else to " " makes an integer token of 19
# or more digits show as " " followed by 19 zeros, or open the text. The
# same pass deletes '[' and '{', which in valid JSON follow only the start,
# a blank, ',', ':' or each other, so such an integer still shows.
_NUMBER_SHAPE = bytes(48 if 48 <= c <= 57 else 46 if c in b".eE+" else 32 for c in range(256))
_WIDE = b"0" * 19


def loads(data: str | bytes):
    """json.loads, at orjson's speed wherever orjson gives the same value.

    orjson rejects NaN/Infinity, numbers beyond float range and lone
    surrogates, and reads integers wider than 64 bits as floats; such texts
    go to the stdlib, as do texts that may nest too deep for orjson and bad
    JSON, which then fails with the stdlib's diagnostics. Nesting too deep
    for the stdlib is a JSONDecodeError.
    """
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    shape = raw.translate(_NUMBER_SHAPE, b"[{")
    deep = len(raw) > SHALLOW_TEXT and len(raw) - len(shape) > 10_000
    if not (deep or shape.startswith(_WIDE) or b" " + _WIDE in shape):
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    try:
        return json.loads(data)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", "", 0) from None


def jsonl_lines(fh):
    """Yield (lineno, line) for every non-blank line of a text file, stripped."""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def parse_line(path, lineno: int, line: str):
    """loads(line); malformed JSON raises FormatError naming the file and line."""
    try:
        return loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc


def utf8_error(path) -> FormatError:
    """A FormatError naming path and the line of its first byte that is not
    UTF-8. Readers call this only after a decode failed, so a valid file
    costs nothing per line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines as text mode splits them: at "\n", "\r\n" and a lone "\r"
        head = data[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        lineno = head.count("\n") + 1
        return FormatError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})")
    return FormatError(f"{path}: invalid UTF-8")


@contextlib.contextmanager
def open_text(path):
    """path opened as UTF-8 text; a byte that is not UTF-8, read anywhere in
    the block, raises FormatError naming its line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise utf8_error(path) from None


def read_jsonl(path):
    """Yield (lineno, object) for every non-blank line; malformed JSON or
    UTF-8 raises FormatError naming the file and line."""
    with open_text(path) as fh:
        for lineno, line in jsonl_lines(fh):
            yield lineno, parse_line(path, lineno, line)


def read_id(value, path, lineno: int, field: str = "id") -> str:
    """A JSONL record's id as text: a string as it is, an integer (not a
    bool) as its exact decimal digits; anything else raises FormatError
    naming the file and line."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise FormatError(f"{path}:{lineno}: {field!r} must be a string or an integer")


def load_texts_jsonl(path) -> dict[str, str]:
    """Load {"id": ..., "text": ...} lines into an ordered id -> text map; a
    file without records raises EmptyInputError."""
    out: dict[str, str] = {}
    for lineno, obj in read_jsonl(path):
        if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
            raise FormatError(f"{path}:{lineno}: expected an object with 'id' and 'text'")
        if not isinstance(obj["text"], str):
            raise FormatError(f"{path}:{lineno}: 'id' must be a string or an integer "
                              "and 'text' a string")
        doc_id = read_id(obj["id"], path, lineno)
        if doc_id in out:
            raise DuplicateIdError(f"{path}:{lineno}: duplicate id {doc_id!r}")
        out[doc_id] = obj["text"]
    if not out:
        raise EmptyInputError(f"{path}: no records")
    return out
