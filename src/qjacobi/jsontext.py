"""The package's JSON writer.

:func:`dumps` returns exactly ``json.dumps(doc, indent=2, sort_keys=True)
+ "\\n"`` for the values the package emits: ``dict`` with ``str`` keys,
``list``, ``str``, ``int``, ``bool`` and ``None``.  Anything else raises
``TypeError``.

With ``indent`` set, ``json.dumps`` leaves the C encoder for a chain of
Python generators that yields every cell of a dense matrix separately.
Here a list whose items are all ``str`` (a matrix row, a series
coefficient list) is written by one ``str.join``.  One encoder call on
the concatenated cells tells whether any cell needs escaping; when none
does, the raw cells are joined between quotes, and otherwise the
encoded cells are joined.  Such a list is written once per indent in a
call: its text is kept by the list's ``id`` and the indent, and a list
object met again at that indent (the one shared empty row of
:meth:`~qjacobi.matrices.SparseMatrix.to_json`) reuses it.  The ids are
stable because ``doc`` holds every list alive for the whole call.

:func:`loads` is the package's one JSON reader (coefficient tables,
algebra files): it raises :class:`DocumentError` for bytes that are not
UTF-8, malformed JSON, nesting too deep, a numeral :func:`integer`
refuses and, through :func:`unique_keys`, an object naming a key twice.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote

__all__ = ["DocumentError", "DuplicateKeyError", "dumps", "integer", "loads", "unique_keys"]

_INDENT = "  "


class DocumentError(ValueError):
    """A JSON document that cannot be read."""


class DuplicateKeyError(DocumentError):
    """A JSON object that names one key twice; ``key`` is that key, which
    a reader names in its own error as it names any input."""

    def __init__(self, key: str):
        super().__init__(f"duplicate key {key!r}")
        self.key = key


def integer(text: str) -> int:
    """``int(text)``, refusing a numeral past Python's default int/str
    digit limit before converting it: ``cli.main`` lifts the limit, so
    this reads a document there as a library call does."""
    # Python before 3.10.7 has no limit and no default to read.
    limit = getattr(sys.int_info, "default_max_str_digits", 4300)
    digits = len(text) - text.startswith("-")
    if digits > limit:
        raise DocumentError(f"numeral of {digits} digits, past the {limit}-digit limit")
    return int(text)


def loads(data: str | bytes, parse_int=integer):
    """The document in ``data``; ``bytes`` are read as UTF-8 text with
    its line ends as a text-mode file read gives them, and integer
    literals by ``parse_int``."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(data, object_pairs_hook=unique_keys, parse_int=parse_int)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DocumentError(str(exc)) from None
    except RecursionError:
        raise DocumentError("nesting too deep") from None


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object of ``pairs``, refusing a repeated key: ``json.loads``
    alone keeps the last of two equal keys, and a document must not
    depend on which one that is."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise DuplicateKeyError(key)
        doc[key] = value
    return doc


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``."""
    parts: list[str] = []
    _write(doc, "\n", parts, {})
    parts.append("\n")
    return "".join(parts)


def _write(value, newline: str, parts: list[str], written: dict[tuple[int, str], str]) -> None:
    """Append the text of ``value`` at the indent that ``newline`` (a
    line break followed by the current indent) carries; ``written``
    keeps the text of each list of ``str`` by (``id``, ``newline``)."""
    if isinstance(value, str):
        parts.append(_quote(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        inner = newline + _INDENT
        opener = "{"
        for key in sorted(value):
            parts.append(opener + inner + _quote(key) + ": ")
            _write(value[key], inner, parts, written)
            opener = ","
        parts.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            parts.append("[]")
            return
        key = (id(value), newline)
        text = written.get(key)
        if text is not None:
            parts.append(text)
            return
        inner = newline + _INDENT
        try:
            cells = "".join(value)  # raises TypeError unless every item is a str
        except TypeError:
            cells = None
        if cells is not None:
            if _quote(cells) == '"' + cells + '"':
                # Escaping is per character, so no cell needs it (eval sl3 o4 json: 19.7-21.8 ms, 41.8-43.4 quoted).
                text = "[" + inner + '"' + ('",' + inner + '"').join(value) + '"' + newline + "]"
            else:
                text = "[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]"
            parts.append(text)
            written[key] = text
            return
        opener = "["
        for item in value:
            parts.append(opener + inner)
            _write(item, inner, parts, written)
            opener = ","
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
