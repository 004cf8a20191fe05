"""Exact rational data for the cardinal B-spline of order k.

The cardinal B-spline B_k lives on [0, k] with integer knots; every
interior basis function of a uniform spline space is a scaled translate
of it, so its per-span polynomials, moments and refinement masks give
exact rational arithmetic for uniform-grid splines at any depth. The
span polynomials are one integer table (`_local_spans`); point values
and moments both read it. The module also holds the exact engine's number
kernel: rationals as integer numerators over one denominator, one
`Fraction` per result, as the gcd of every `Fraction` operation dominates
at deep levels. `over_common_denominator` makes that format and
`add_numerators` adds two numerator maps in it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm


def over_common_denominator(values) -> tuple[list[int], int]:
    """Numerators n_i over the lcm d of the denominators, values[i] = n_i / d, of
    ints, Fractions or (integer, positive integer) pairs in any terms."""
    pairs = [v if type(v) is tuple else v.as_integer_ratio() for v in values]
    den = lcm(*{d for _, d in pairs})  # each distinct denominator once
    return [n * (den // d) for n, d in pairs], den


def add_numerators(a: tuple[dict, int], b: tuple[dict, int]) -> tuple[dict, int]:
    """a + b, key by key, for (numerator map, den) pairs, over the lcm of the
    denominators; a side with no entry adds nothing, not even its denominator."""
    (anums, aden), (bnums, bden) = a, b
    if not (anums and bnums):
        return a if anums else b
    den = lcm(aden, bden)
    out, up = {key: n * (den // aden) for key, n in anums.items()}, den // bden
    for key, n in bnums.items():
        out[key] = out.get(key, 0) + n * up
    return out, den


@lru_cache(maxsize=None)
def _local_spans(k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Span i of B_k in its local coordinate, x -> B_k(i + x) on [0, 1), as
    integer coefficients (highest power first) over one common denominator.

    With P_i(x) = (k-1)! B_k(i + x), the recurrence B_k(u) = (u B_{k-1}(u)
    + (k - u) B_{k-1}(u - 1)) / (k - 1) reads P_i = (x + i) P'_i +
    (k - i - x) P'_{i-1} for the spans P' of B_{k-1} scaled by (k-2)!, so
    every coefficient stays an integer over (k-1)!. That denominator is
    already reduced: span 0 is x**(k-1) / (k-1)!.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    table = [[1]]  # B_1, ascending powers of x
    for j in range(2, k + 1):
        new = []
        for i in range(j):
            poly = [0] * j
            if i < j - 1:  # (x + i) P'_i
                for s, c in enumerate(table[i]):
                    poly[s] += i * c
                    poly[s + 1] += c
            if i > 0:  # (j - i - x) P'_{i-1}
                for s, c in enumerate(table[i - 1]):
                    poly[s] += (j - i) * c
                    poly[s + 1] -= c
            new.append(poly)
        table = new
    return tuple(tuple(reversed(poly)) for poly in table), factorial(k - 1)


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
    """∫ u^r B_k(u) du over the full support: span i adds
    ∫₀¹ (x + i)^r P_i(x) dx / (k-1)! for the integer spans P_i of
    `_local_spans`, summed over the lcm of the integrals' denominators."""
    coeffs, den = _local_spans(k)
    top = lcm(*range(1, r + k + 1))  # x**e integrates to 1 / (e + 1), e < r + k
    total = 0
    for i, poly in enumerate(coeffs):
        shift = [comb(r, q) * i ** (r - q) for q in range(r + 1)]  # (x + i)**r
        for s, c in enumerate(reversed(poly)):
            for q, b in enumerate(shift):
                total += c * b * (top // (s + q + 1))
    return Fraction(total, top * den)


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
    nums, den = over_common_denominator(poly)
    return tuple(nums), den


@lru_cache(maxsize=None)
def _bernoulli_plus(r: int) -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_r with B_1 = +1/2."""
    b: list[Fraction] = []
    for m in range(r + 1):
        b.append(1 - sum((comb(m, j) * b[j] / (m - j + 1) for j in range(m)), Fraction(0)))
    return tuple(b)
