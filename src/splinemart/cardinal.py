"""Exact rational data for the cardinal B-spline of order k.

The cardinal B-spline B_k lives on [0, k] with integer knots; every
interior basis function of a uniform spline space is a scaled translate
of it, so its per-span polynomials, moments and refinement masks give
exact rational arithmetic for uniform-grid splines at any depth.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

Poly = tuple[Fraction, ...]  # coefficients, ascending powers

_ZERO_POLY: Poly = ()


def _padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    )


def _pscale(a: Poly, c: Fraction) -> Poly:
    return tuple(x * c for x in a)


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


def eval_cardinal(k: int, u: Fraction) -> Fraction:
    """B_k(u) exactly; zero outside [0, k)."""
    if u < 0 or u >= k:
        return Fraction(0)
    i = int(u) if u == int(u) else int(u.__floor__())
    return _peval(spans(k)[i], u)


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


@lru_cache(maxsize=None)
def mask_residue_prefix(k: int, p: int) -> dict[int, list[Fraction]]:
    """For each residue r mod p, prefix sums of mask entries i ≡ r (mod p)."""
    mask = refinement_mask(k, p)
    out: dict[int, list[Fraction]] = {}
    for r in range(p):
        acc, sums = Fraction(0), []
        for i in range(r, len(mask), p):
            acc += mask[i]
            sums.append(acc)
        out[r] = sums
    return out


def power_sum(a: int, b: int, r: int) -> Fraction:
    """Σ_{i=a}^{b} i**r, exact, valid for any integers a <= b (0 if a > b)."""
    if a > b:
        return Fraction(0)
    return _faulhaber(b, r) - _faulhaber(a - 1, r)


def _faulhaber(n: int, r: int) -> Fraction:
    # polynomial identities valid for every integer n
    if r == 0:
        return Fraction(n)
    if r == 1:
        return Fraction(n * (n + 1), 2)
    if r == 2:
        return Fraction(n * (n + 1) * (2 * n + 1), 6)
    if r == 3:
        return Fraction(n * n * (n + 1) * (n + 1), 4)
    if r == 4:
        return Fraction(n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1), 30)
    if r == 5:
        return Fraction(n * n * (n + 1) * (n + 1) * (2 * n * n + 2 * n - 1), 12)
    # Faulhaber's formula with B_1 = +1/2: a polynomial in n, so it holds
    # for every integer n, negative ones included
    b = _bernoulli_plus(r)
    return sum(comb(r + 1, j) * b[j] * n ** (r + 1 - j) for j in range(r + 1)) / (r + 1)


@lru_cache(maxsize=None)
def _bernoulli_plus(r: int) -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_r with B_1 = +1/2."""
    b: list[Fraction] = []
    for m in range(r + 1):
        b.append(1 - sum((comb(m, j) * b[j] / (m - j + 1) for j in range(m)), Fraction(0)))
    return tuple(b)
