"""Exact rational data for the cardinal B-spline of order k.

The cardinal B-spline B_k lives on [0, k] with integer knots; every
interior basis function of a uniform spline space is a scaled translate
of it, so its per-span polynomials, moments and refinement masks give
exact rational arithmetic for uniform-grid splines at any depth.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

Poly = tuple[Fraction, ...]  # coefficients, ascending powers

_ZERO_POLY: Poly = ()


def over_common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators n_i and the lcm d of the denominators, with
    values[i] = n_i / d."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    )


def _pmul_linear(a: Poly, c0: Fraction, c1: Fraction) -> Poly:
    """a(u) * (c0 + c1*u)."""
    out = [Fraction(0)] * (len(a) + 1)
    for i, x in enumerate(a):
        out[i] += x * c0
        out[i + 1] += x * c1
    return tuple(out)


def _pshift(a: Poly, s: Fraction) -> Poly:
    """a(u + s) expanded in powers of u."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j in range(i + 1):
            out[j] += x * comb(i, j) * s ** (i - j)
    return tuple(out)


def _peval(a: Poly, u: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * u + c
    return acc


def _pint(a: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    anti = tuple(Fraction(0) for _ in range(1)) + tuple(
        c / (i + 1) for i, c in enumerate(a)
    )
    return _peval(anti, hi) - _peval(anti, lo)


@lru_cache(maxsize=None)
def spans(k: int) -> tuple[Poly, ...]:
    """Per-span polynomials of B_k: entry i is valid on [i, i+1)."""
    if k < 1:
        raise ValueError("order must be >= 1")
    if k == 1:
        return ((Fraction(1),),)
    prev = spans(k - 1)
    inv = Fraction(1, k - 1)
    out = []
    for i in range(k):
        left = prev[i] if i < len(prev) else _ZERO_POLY
        # B_{k-1}(u-1) on span i equals span i-1 of B_{k-1} shifted
        rightsrc = prev[i - 1] if 0 <= i - 1 < len(prev) else _ZERO_POLY
        right = _pshift(rightsrc, Fraction(-1)) if rightsrc else _ZERO_POLY
        term1 = _pmul_linear(left, Fraction(0), inv) if left else _ZERO_POLY
        term2 = _pmul_linear(right, k * inv, -inv) if right else _ZERO_POLY
        out.append(_padd(term1, term2))
    return tuple(out)


@lru_cache(maxsize=None)
def _local_spans(k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Span i of B_k in its local coordinate, x -> B_k(i + x) on [0, 1), as
    integer coefficients (highest power first) over one common denominator."""
    local = [_pshift(poly, Fraction(i)) for i, poly in enumerate(spans(k))]
    den = lcm(*(c.denominator for poly in local for c in poly))
    return tuple(tuple(int(c * den) for c in reversed(poly)) for poly in local), den


def span_numerators(k: int, num: int, xden: int) -> tuple[tuple[int, ...], int]:
    """B_k(i + x) for i = 0 .. k-1 and x = num / xden in [0, 1), as integer
    numerators over their shared denominator den * xden**(k-1).

    xden**(k-1) * poly_i(x) = Σ_s c_is num**(k-1-s) xden**s for the integer
    coefficients c_is of span i over den, so the k products num**(k-1-s)
    xden**s are formed once and each span costs k small-by-big
    multiplications; the cost grows with the size of num and xden alone,
    so callers pass x in lowest terms.
    """
    coeffs, den = _local_spans(k)
    terms = [1] * k  # terms[s] = num**(k-1-s) * xden**s
    for s in range(k - 2, -1, -1):
        terms[s] = terms[s + 1] * num
    dpow = 1
    for s in range(1, k):
        dpow *= xden
        terms[s] *= dpow
    return tuple(sum(c * v for c, v in zip(poly, terms)) for poly in coeffs), den * dpow


@lru_cache(maxsize=None)
def cardinal_moment(k: int, r: int) -> Fraction:
    """∫ u^r B_k(u) du over the full support."""
    total = Fraction(0)
    for i, poly in enumerate(spans(k)):
        prod = poly
        for _ in range(r):
            prod = _pmul_linear(prod, Fraction(0), Fraction(1))
        total += _pint(prod, Fraction(i), Fraction(i + 1))
    return total


@lru_cache(maxsize=None)
def moment_weights(k: int, r: int) -> tuple[tuple[int, ...], int]:
    """C(r, q) * cardinal_moment(k, q) for q = 0 .. r, as integer numerators
    over one common denominator."""
    weights = [comb(r, q) * cardinal_moment(k, q) for q in range(r + 1)]
    nums, den = over_common_denominator(weights)
    return tuple(nums), den


@lru_cache(maxsize=None)
def refinement_mask(k: int, p: int) -> tuple[Fraction, ...]:
    """Coefficients m_i with B_k(u) = sum_i m_i B_k(p*u - i).

    Equals p**(1-k) times the coefficients of (1 + x + ... + x**(p-1))**k;
    the sum over any residue class mod p is exactly 1.
    """
    coeffs = [1]
    base = [1] * p
    for _ in range(k):
        new = [0] * (len(coeffs) + p - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(base):
                new[i + j] += a * b
        coeffs = new
    scale = Fraction(1, p ** (k - 1))
    return tuple(scale * c for c in coeffs)


def power_sum(a: int, b: int, r: int) -> int:
    """Σ_{i=a}^{b} i**r, exact, valid for any integers a <= b (0 if a > b)."""
    if a > b:
        return 0
    coeffs, den = _faulhaber(r)
    hi = lo = 0
    for c in coeffs:  # Horner at b and at a - 1
        hi, lo = hi * b + c, lo * (a - 1) + c
    return (hi - lo) // den


@lru_cache(maxsize=None)
def _faulhaber(r: int) -> tuple[tuple[int, ...], int]:
    """Σ_{i=1}^{n} i**r as (integer coefficients, highest power first) / den.

    Faulhaber's formula with B_1 = +1/2 is a polynomial in n, so it holds
    for every integer n, negative ones included, and the numerators at
    two integers differ by a multiple of den.
    """
    b = _bernoulli_plus(r)
    poly = [comb(r + 1, j) * b[j] / (r + 1) for j in range(r + 1)] + [Fraction(0)]
    den = lcm(*(c.denominator for c in poly))
    return tuple(int(c * den) for c in poly), den


@lru_cache(maxsize=None)
def _bernoulli_plus(r: int) -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_r with B_1 = +1/2."""
    b: list[Fraction] = []
    for m in range(r + 1):
        b.append(1 - sum((comb(m, j) * b[j] / (m - j + 1) for j in range(m)), Fraction(0)))
    return tuple(b)
