"""Decoding schedule and color-map files as UTF-8 text."""

from __future__ import annotations

from pathlib import Path

from repro.errors import ParseError

__all__ = ["read_utf8"]


def read_utf8(path: Path) -> str:
    """The UTF-8 text of ``path``, line endings as stored.

    A byte sequence that is not UTF-8 raises :class:`ParseError` naming
    the file and the byte offset, never a bare ``UnicodeDecodeError``.
    Every loader that calls this parses CRLF, CR and LF line endings
    alike, so no newline translation is needed.
    """
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x} at "
                         f"byte offset {exc.start}", source=str(path)) from None
