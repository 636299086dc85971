"""One JSON codec for trace record lines.

Encoding: the one jsonl stream writer
(:func:`repro.tracing.store.open_stream_writer`, behind
:class:`repro.store.ShardWriter` and :func:`repro.tracing.save_traces`)
and the columnar ``json`` columns encode one record at a time.  ``json.dumps``
builds a fresh C encoder on every call, which costs about as much as
encoding a small record; :func:`dumps` and :func:`dumps_sorted` build
that encoder once, with exactly ``json.dumps``'s default arguments, so
their output is ``json.dumps(obj)`` / ``json.dumps(obj, sort_keys=True)``
byte for byte.  Without the ``_json`` C accelerator they are
``json.dumps`` itself.

Decoding: :func:`parse_record_lines` parses a chunk of record lines
with one ``json.loads`` and answers ``None`` whenever it cannot prove
that row *i* is exactly line *i*; callers then decode those lines one
at a time (see :func:`repro.tracing.columnar.columns_from_jsonl`).
"""

from __future__ import annotations

import json
import re
import threading
from functools import partial
from json import encoder as _encoder
from typing import Any, Callable, Optional

__all__ = ["CHUNK_LINES", "dumps", "dumps_sorted", "parse_record_lines"]

#: Lines per :func:`parse_record_lines` call.  The ``json.loads`` call
#: overhead is already negligible at this size, while a chunk's text
#: and parsed rows set the decoder's transient memory: characterizing
#: a webapp store peaked at 8.0 MB of Python allocations with 4096-line
#: chunks and at 4.3 MB with 1024 (7.3 MB on the record path).
CHUNK_LINES = 1024


def _build_encoder(sort_keys: bool) -> Callable[[Any], str]:
    """``json.dumps(obj, sort_keys=sort_keys)`` with its encoder built once.

    Mirrors ``JSONEncoder.iterencode``'s one-shot C path.  The C encoder
    records the containers it is inside in ``markers`` to detect cycles
    and leaves them there when encoding raises, so they are cleared
    before the exception propagates.
    """
    proto = json.JSONEncoder(sort_keys=sort_keys)
    markers: dict = {}
    encode = _encoder.c_make_encoder(
        markers,
        proto.default,
        _encoder.encode_basestring_ascii,
        proto.indent,
        proto.key_separator,
        proto.item_separator,
        proto.sort_keys,
        proto.skipkeys,
        proto.allow_nan,
    )

    def dumps(obj: Any) -> str:
        try:
            return "".join(encode(obj, 0))
        except BaseException:
            markers.clear()
            raise

    return dumps


class _Encoders(threading.local):
    """One encoder pair per thread: the cycle markers are per-call state."""

    def __init__(self) -> None:
        self.plain = _build_encoder(sort_keys=False)
        self.sorted = _build_encoder(sort_keys=True)


if _encoder.c_make_encoder is None:  # pragma: no cover - pure-python json
    dumps = json.dumps
    dumps_sorted = partial(json.dumps, sort_keys=True)
else:
    _encoders = _Encoders()

    def dumps(obj: Any) -> str:
        """``json.dumps(obj)``, byte for byte."""
        return _encoders.plain(obj)

    def dumps_sorted(obj: Any) -> str:
        """``json.dumps(obj, sort_keys=True)``, byte for byte."""
        return _encoders.sorted(obj)


#: An object's closing brace followed by a comma on the same line.  In
#: ``"[" + ",".join(lines) + "]"`` every joined line ends in a newline,
#: so a comma that separates two rows *inside* one line (``{..}, {..}``)
#: matches, and the joining commas never do.
_ROW_BREAK_IN_LINE = re.compile(r"\}[ \t\r]*,")


def parse_record_lines(lines: list[str]) -> Optional[list]:
    """Parse non-blank record lines as one JSON array, row *i* = line *i*.

    Returns ``None`` (decode the lines one at a time instead) when the
    chunk does not parse, parses to a different number of rows, or has
    a closing brace followed by a comma within a line.  That last rule
    is what makes the row/line match exact: given every row is an
    object, a row boundary inside a line would need ``}`` then ``,``
    there, so with none, the n-1 row boundaries are the n-1 joining
    commas.  It also turns away nested values such as two annotations
    in one span; real traces carry none.
    """
    text = "[" + ",".join(lines) + "]"
    if _ROW_BREAK_IN_LINE.search(text) is not None:
        return None
    try:
        rows = json.loads(text)
    except ValueError:
        return None
    return rows if len(rows) == len(lines) else None
