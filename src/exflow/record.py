"""The base of exflow's records: plain classes that keep their fields in
__slots__ and write their own __init__.

A record class lists its fields in __slots__, in the order its __init__
takes them. Record gives it field-wise == (false against an instance of
any other class, a tuple included) and a repr that names each field. A
slot whose name starts with an underscore is not a field, and neither is
one the class names in _unequal: both are left out of == and repr.

A record is not hashable unless its class defines __hash__, from the
fields that == compares.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    # slots that == and repr leave out, though they are not private
    _unequal: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = fields(self)
        return (tuple(getattr(self, name) for name in names)
                == tuple(getattr(other, name) for name in names))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in fields(self))
        return f"{type(self).__qualname__}({shown})"


def fields(record: Record) -> list[str]:
    """The names of the fields that == compares, in __init__ order."""
    cls = type(record)
    return [name for name in cls.__slots__
            if name[0] != "_" and name not in cls._unequal]
