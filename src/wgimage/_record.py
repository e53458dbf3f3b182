"""Class-aware equality for the package's tuple records.

The records are `typing.NamedTuple` classes, which build no code at
import. A NamedTuple compares as a plain tuple, so `Tikhonov(0.5)` would
equal `HardThreshold(0.5)` and `HomogeneousDD(20)` would equal
`HomogeneousDN(20)`. A record class sets `__eq__, __ne__ = eq, ne`: a
record then equals only a record of its own class with equal fields.
Hashes stay tuple hashes.
"""


def eq(self, other):
    if type(self) is not type(other):
        return NotImplemented
    return tuple.__eq__(self, other)


def ne(self, other):
    if type(self) is not type(other):
        return NotImplemented
    return tuple.__ne__(self, other)
