"""Exact ground fields: arbitrary-precision rationals and prime fields GF(p).

Scalars are plain Python values (``Fraction`` for the rationals, ``int`` in
``range(p)`` for GF(p)); a ``Field`` object supplies the arithmetic and the
canonical text form used by the interchange format.  No floating point
anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int]


class FieldError(ValueError):
    """Malformed scalar, non-canonical literal, or invalid field parameter."""


class CharacteristicError(FieldError):
    """A rational constant has no image in this field (p divides a denominator)."""


_RATIONAL_RE = re.compile(r"^(-?[0-9]+)/([1-9][0-9]*)$")
_INT_RE = re.compile(r"^(0|[1-9][0-9]*)$")


# Digits per chunk when ``_text`` writes an int too long for ``str``: fewer
# than the least limit ``sys.set_int_max_str_digits`` accepts (640).
_CHUNK = 600


def _text(x: Scalar) -> str:
    """``str(x)`` of a scalar of any size.  Python's ``str`` refuses an int of
    more than ``sys.get_int_max_str_digits()`` digits, and so a ``Fraction``
    with such a part; those are written in chunks of ``_CHUNK`` digits."""
    try:
        return str(x)
    except ValueError:
        pass
    if isinstance(x, Fraction):
        num = _text(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_text(x.denominator)}"
    n, chunks = abs(x), []
    while n >= 10**_CHUNK:
        n, low = divmod(n, 10**_CHUNK)
        chunks.append(str(low).zfill(_CHUNK))
    return "-" * (x < 0) + str(n) + "".join(reversed(chunks))


def _read_int(digits: str) -> int:
    """``int(digits)`` of a matched decimal literal of any length, the inverse of ``_text``:
    one longer than ``int`` reads (``sys.get_int_max_str_digits()``) is read in halves."""
    try:
        return int(digits)
    except ValueError:
        if len(digits) <= _CHUNK:  # malformed, not too long
            raise
    sign, body = (-1, digits[1:]) if digits[0] == "-" else (1, digits)
    low = len(body) // 2
    return sign * (_read_int(body[:-low]) * 10**low + _read_int(body[-low:]))


# Deterministic Miller-Rabin: the first thirteen prime bases are exact below
# psi_13 (Sorenson and Webster 2017); larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Rationals:
    """The field of rationals; scalars are ``Fraction`` in lowest terms."""

    characteristic: int = 0

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise FieldError("division by zero")
        return 1 / a

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def from_fraction(self, q: Fraction) -> Fraction:
        return Fraction(q)

    def check(self, a: Scalar) -> Fraction:
        """Validate that ``a`` is a scalar of this field; return it."""
        if isinstance(a, Fraction):
            return a
        if isinstance(a, int) and not isinstance(a, bool):
            return Fraction(a)
        raise FieldError(f"not a rational scalar: {a!r}")

    def parse(self, text: str) -> Fraction:
        m = _RATIONAL_RE.match(text)
        if not m:
            raise FieldError(f"malformed rational literal {text!r} (expected 'a/b')")
        num, den = _read_int(m.group(1)), _read_int(m.group(2))
        if m.group(1) != _text(num):  # the numerator is 0 or -?[1-9][0-9]*
            raise FieldError(f"non-canonical rational literal {text!r} (leading zero or signed zero)")
        from math import gcd

        if gcd(abs(num), den) != 1 or (num == 0 and den != 1):
            raise FieldError(f"non-canonical rational literal {text!r} (not in lowest terms)")
        return Fraction(num, den)

    def format(self, a: Fraction) -> str:
        a = self.check(a)
        return f"{_text(a.numerator)}/{_text(a.denominator)}"

    def describe(self) -> str:
        return "rationals"


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p; scalars are ``int`` reduced into ``range(p)``."""

    p: int

    def __post_init__(self) -> None:
        if self.p >= _MR_BOUND:
            raise FieldError(
                f"prime field modulus {self.p} is too large to certify (must be < {_MR_BOUND})"
            )
        if not _is_prime(self.p):
            raise FieldError(f"prime field modulus must be prime, got {self.p}")

    @property
    def characteristic(self) -> int:
        return self.p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1 % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, -1, self.p)

    def from_int(self, n: int) -> int:
        return n % self.p

    def from_fraction(self, q: Fraction) -> int:
        if q.denominator % self.p == 0:
            raise CharacteristicError(
                f"denominator {q.denominator} vanishes in characteristic {self.p}; "
                f"the constant {q} does not exist in GF({self.p})"
            )
        return (q.numerator % self.p) * self.inv(q.denominator % self.p) % self.p

    def check(self, a: Scalar) -> int:
        if isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.p:
            return a
        raise FieldError(f"not a canonical GF({self.p}) scalar: {a!r}")

    def parse(self, text: str) -> int:
        if not _INT_RE.match(text):
            raise FieldError(f"malformed GF({self.p}) literal {text!r} (expected bare integer)")
        value = _read_int(text)
        if value >= self.p:
            raise FieldError(f"non-canonical GF({self.p}) literal {text!r} (must be < {self.p})")
        return value

    def format(self, a: int) -> str:
        return str(self.check(a))

    def describe(self) -> str:
        return f"gf({self.p})"


Field = Union[Rationals, PrimeField]


def parse_field_spec(text: str) -> Field:
    """The field named by ``rationals`` or ``gf:<p>``."""
    if text == "rationals":
        return Rationals()
    if text.startswith("gf:"):
        try:
            return PrimeField(int(text[3:]))
        except ValueError as exc:
            raise FieldError(f"bad field spec {text!r}: {exc}") from None
    raise FieldError(f"bad field spec {text!r} (use rationals or gf:<p>)")
