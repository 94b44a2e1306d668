"""Signed n-qubit Pauli strings and their algebra.

A Pauli string is stored as two bitmasks plus a +/-1 sign.  Bit q of
``x``/``z`` gives the X/Z component on qubit q, so the letter at qubit q
is I, X, Y or Z for bit pairs (0,0), (1,0), (1,1), (0,1).  In text form
the leftmost character is qubit 0, and a negative string is rendered
with a leading ``-``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSize, LengthMismatch, SchemaError

# deletes the letters (what is left is invalid); maps them to x or z bits
_NOT_LETTERS = str.maketrans("", "", "IXYZ")
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
# indexed by x_bit + 2*z_bit
_BITS_LETTER = "IXZY"


def _letter_at(x: int, z: int, q: int) -> str:
    """Letter on qubit q of the raw masks (x, z)."""
    return _BITS_LETTER[((x >> q) & 1) + 2 * ((z >> q) & 1)]


def _support(mask: int) -> list[int]:
    """Set bits of ``mask`` in increasing order."""
    out = []
    while mask:
        q = (mask & -mask).bit_length() - 1
        out.append(q)
        mask &= mask - 1
    return out


@dataclass(frozen=True)
class PauliString:
    """Hermitian Pauli word with a +/-1 sign (no +/-i phases)."""

    n: int
    x: int = 0
    z: int = 0
    sign: int = 1

    def __post_init__(self):
        if type(self.n) is not int:
            raise InvalidSize(f"qubit count must be an int, got {self.n!r}")
        if self.n < 1:
            raise InvalidSize(f"qubit count must be positive, got {self.n}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if type(self.x) is not int or type(self.z) is not int:
            raise ValueError(f"bit masks must be ints, got {self.x!r} and {self.z!r}")
        full = (1 << self.n) - 1
        if not 0 <= self.x <= full or not 0 <= self.z <= full:
            raise ValueError("bit masks exceed the qubit count")

    def letter(self, q: int) -> str:
        return _letter_at(self.x, self.z, q)

    def letters(self) -> str:
        """Unsigned word, leftmost character is qubit 0."""
        return "".join(self.letter(q) for q in range(self.n))

    def label(self) -> str:
        """Canonical text form; negative strings carry a ``-`` prefix."""
        return ("-" if self.sign < 0 else "") + self.letters()

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def commutes(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise LengthMismatch(f"cannot compare {self.n}- and {other.n}-qubit strings")
        return (((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) & 1) == 0

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True)
class PauliTerm:
    """A Pauli string together with its real rotation coefficient."""

    pauli: PauliString
    coeff: float

    def __post_init__(self):
        if not math.isfinite(self.coeff):
            raise ValueError(f"coefficient must be finite, got {self.coeff}")


def parse_pauli(text: str) -> PauliString:
    """Parse a signed Pauli word such as ``XIZ`` or ``-ZZ``: an optional
    ``+``/``-`` followed by letters drawn from I/X/Y/Z."""
    sign = 1
    if text[:1] in ("+", "-", "−"):
        if text[0] != "+":
            sign = -1
        text = text[1:]
    if not text:
        raise SchemaError("empty Pauli word")
    bad = text.translate(_NOT_LETTERS)
    if bad:
        ch = bad[0]
        raise SchemaError(f"invalid Pauli letter {ch!r} at position {text.index(ch)}")
    word = text[::-1]  # qubit 0 is the lowest bit
    return PauliString(len(text), int(word.translate(_X_BITS), 2), int(word.translate(_Z_BITS), 2), sign)
