"""Errors raised while reading source files."""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .ast import SourcePosition


class ParseError(Exception):
    def __init__(self, message: str, position: Optional[SourcePosition] = None):
        self.message = message
        self.position = position
        super().__init__(f"{position}: {message}" if position else message)


def not_utf8(path: Union[str, Path], exc: UnicodeDecodeError) -> str:
    """The one-line complaint about a file that is not valid UTF-8: the
    first byte that does not decode, and its offset."""
    return (f"{path}: not valid UTF-8: byte 0x{exc.object[exc.start]:02x} "
            f"at offset {exc.start}")
