"""Rational subintervals of [0, 1] and finite unions with exact measures."""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[int, str, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)

#: decimal digits per integer that exact results may carry as text; a
#: denominator p**LEVEL_CAP (the construction's deepest level) has
#: LEVEL_CAP * log10(p) digits, so this covers every level for p <= 10
DECIMAL_DIGITS_CAP = 1 << 20


_lift_lock = threading.Lock()
_lift_users = 0
_lift_saved = 0


@contextmanager
def long_decimals():
    """Lift CPython's int <-> decimal str digit limit to DECIMAL_DIGITS_CAP
    for the duration.

    The limit is process-wide, so overlapping uses on several threads share
    one lift: the first to enter saves the previous limit and the last to
    leave restores it.
    """
    global _lift_users, _lift_saved
    if not hasattr(sys, "get_int_max_str_digits"):  # an interpreter without the limit
        yield
        return
    with _lift_lock:
        if _lift_users == 0:
            _lift_saved = sys.get_int_max_str_digits()
            if 0 < _lift_saved < DECIMAL_DIGITS_CAP:
                sys.set_int_max_str_digits(DECIMAL_DIGITS_CAP)
        _lift_users += 1
    try:
        yield
    finally:
        with _lift_lock:
            _lift_users -= 1
            if _lift_users == 0:
                sys.set_int_max_str_digits(_lift_saved)


def frac(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact Fraction; a
    string is parsed under `long_decimals`."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        with long_decimals():
            return Fraction(x)
    if isinstance(x, float):
        # floats are exact binary rationals; accept them verbatim
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi] in [0, 1] with positive length."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", frac(self.lo))
        object.__setattr__(self, "hi", frac(self.hi))
        if not (ZERO <= self.lo < self.hi <= ONE):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


class MeasurableUnion:
    """Finite union of disjoint closed rational intervals.

    Pieces may be degenerate points [c, c]; those carry zero measure. Used
    for declared limit sets V and for the sets C_n, E_n produced by the
    construction driver. Measures are exact rationals.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[tuple[RationalLike, RationalLike]]):
        norm: list[tuple[Fraction, Fraction]] = []
        for lo, hi in pieces:
            lo, hi = frac(lo), frac(hi)
            if lo > hi:
                raise ValueError(f"piece [{lo}, {hi}] reversed")
            norm.append((lo, hi))
        norm.sort()
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in norm:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self.pieces: tuple[tuple[Fraction, Fraction], ...] = tuple(merged)

    @classmethod
    def full(cls) -> "MeasurableUnion":
        return cls([(ZERO, ONE)])

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.pieces), ZERO)

    def intersect_interval(self, iv: Interval) -> "MeasurableUnion":
        out = []
        for lo, hi in self.pieces:
            a, b = max(lo, iv.lo), min(hi, iv.hi)
            if a <= b:
                out.append((a, b))
        return MeasurableUnion(out)

    def measure_in(self, iv: Interval) -> Fraction:
        """Exact Lebesgue measure of (self ∩ iv)."""
        total = ZERO
        for lo, hi in self.pieces:
            a, b = max(lo, iv.lo), min(hi, iv.hi)
            if a < b:
                total += b - a
        return total

    def components_in(self, iv: Interval) -> list[tuple[Fraction, Fraction]]:
        return list(self.intersect_interval(iv).pieces)

    def __eq__(self, other):
        return isinstance(other, MeasurableUnion) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self):
        inner = ", ".join(f"[{lo}, {hi}]" for lo, hi in self.pieces)
        return f"MeasurableUnion({inner})"


def measure_in(iv: Interval, v: MeasurableUnion) -> Fraction:
    """|iv ∩ v| as an exact rational."""
    return v.measure_in(iv)
