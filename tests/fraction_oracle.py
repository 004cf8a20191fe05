"""Exact Fraction oracles for the uniform-grid spline kernels, one Fraction
operation per term.

Patterns evaluate through their run table, which sums integer numerators
over one denominator per basis group (`cardinal.span_numerators`); the
functions here evaluate the span polynomials of `cardinal.spans` directly,
so they share no arithmetic with that kernel and a fault in it shows up as
a disagreement. They also hold the single-spline helpers that only tests
use: cardinal values, periodic instances and support bounds.

`moment_slotwise` takes a pattern's slot moments term by term, through
the build's own `RleSpline.moment` and `PeriodicSpline.moment`; the
verification suite's check (1) reads the run table instead and shares no
moment code with it, so each checks the other.

`node_vector` materialises one bush node x_s; summing w_s * x_s with
`XVec.add` and `XVec.scale` is the reference for `BushRep.value`, which
sums integers up the path trie instead. `with_pert` adds a witness
vector to a rep's perturbation, and `slot_xvecs` reads the integer slot
vectors of `slot_vectors` as one XVec per slot.
"""

import math
from fractions import Fraction
from math import floor

from splinemart.cardinal import spans
from splinemart.rle import PeriodicSpline, RleSpline, UniformSpace
from splinemart.witness import BushRep, XVec


def node_coordinate(path: str) -> int:
    """Fresh coordinate a(s) allocated by node s: heap numbering, root = 1."""
    return (1 << len(path)) + (int(path, 2) if path else 0)


def node_vector(path: str) -> XVec:
    """Bush node x_s: root is 0; child s0 = x_s + e_a(s), child s1 = x_s - e_a(s)."""
    entries: dict[int, Fraction] = {}
    for depth, bit in enumerate(path):
        coord = node_coordinate(path[:depth])
        entries[coord] = Fraction(1) if bit == "0" else Fraction(-1)
    return XVec(entries)


def node_sum(rep) -> XVec:
    """A BushRep's value as pert + sum of w_s * x_s, node vector by node vector."""
    acc = rep.pert
    for path, w in rep.weights:
        acc = acc.add(node_vector(path).scale(w))
    return acc


def with_pert(rep: BushRep, extra: XVec) -> BushRep:
    """rep with extra added to its perturbation."""
    return BushRep(rep.weights, rep.pert.add(extra))


def slot_xvecs(slots: tuple[dict, int]) -> dict:
    """The ({slot key: {coordinate: numerator}}, den) pair of
    `slot_vectors` as {slot key: XVec}."""
    nums, den = slots
    return {key: XVec({c: Fraction(n, den) for c, n in vec.items()}) for key, vec in nums.items()}


def span_value(k: int, i: int, x: Fraction) -> Fraction:
    """B_k(i + x) for an integer i and 0 <= x < 1: span i of B_k, a
    polynomial in u, evaluated at u = i + x."""
    if not 0 <= i < k:
        return Fraction(0)
    u = i + x
    return sum((c * u**e for e, c in enumerate(spans(k)[i])), Fraction(0))


def eval_cardinal(k: int, u: Fraction) -> Fraction:
    """B_k(u) exactly; zero outside [0, k)."""
    if u < 0 or u >= k:
        return Fraction(0)
    i = floor(u)
    return span_value(k, i, u - i)


def instance(per: PeriodicSpline, ell: int) -> RleSpline:
    """Instance ell of a periodic spline: its base moved by ell periods."""
    d = ell * per.index_shift
    return RleSpline(per.space, [(j0 + d, j1 + d, c) for j0, j1, c in per.base.runs])


def support_bounds(scal) -> tuple[Fraction, Fraction] | None:
    """[lo, hi] covering the supports of an RleSpline's or a
    PeriodicSpline's basis functions; None for the zero spline. N_j is
    supported on [(j - k + 1) h, (j + 1) h]."""
    base = scal.base if isinstance(scal, PeriodicSpline) else scal
    b = base.index_bounds()
    if b is None:
        return None
    sp = scal.space
    lo, hi = (b[0] - sp.k + 1) * sp.h, (b[1] + 1) * sp.h
    if isinstance(scal, PeriodicSpline):
        hi += (scal.count - 1) * scal.shift
    return lo, hi


def basis_at(space: UniformSpace, t: Fraction) -> tuple[int, tuple[Fraction, ...]]:
    """Atom index a and the values N_a(t) .. N_{a+k-1}(t).

    With U = t / h and a = floor(U), N_{a+i}(t) = B_k(U - a + k - 1 - i),
    so only the fractional part of U meets the span polynomials; no other
    translate is non-zero at t. a is not clamped to the atoms of [0, 1]: a
    periodic instance may reach past the last interior index, and its
    translates there must read as they do at the shifted point.
    """
    a, x = space.atom_at(t)
    return a, tuple(span_value(space.k, space.k - 1 - i, x) for i in range(space.k))


def rle_combine(f: RleSpline, a: int, values) -> Fraction:
    """Σ_i c_{a+i} values[i]: the value at t from basis_at(space, t)."""
    total = Fraction(0)
    for j, v in enumerate(values, a):
        if v:
            c = f.coeff(j)
            if c:
                total += c * v
    return total


def periodic_combine(per: PeriodicSpline, a: int, values) -> Fraction:
    """Σ_i c_{a+i} values[i] over all instances, from basis_at(space, t).

    Index j lies in instance ell at base index b0 + q, where
    (ell, q) = divmod(j - b0, index_shift); one division places a and the
    rest of the window steps on from there.
    """
    if per.count == 1:
        return rle_combine(per.base, a, values)
    b = per.base.index_bounds()
    if b is None:
        return Fraction(0)
    ell, q = divmod(a - b[0], per.index_shift)
    total = Fraction(0)
    for v in values:
        if v and 0 <= ell < per.count:
            c = per.base.coeff(b[0] + q)
            if c:
                total += c * v
        q += 1
        if q == per.index_shift:
            ell, q = ell + 1, 0
    return total


def evaluate(scal, t: Fraction) -> Fraction:
    """The value at t of an RleSpline or a PeriodicSpline."""
    combine = periodic_combine if isinstance(scal, PeriodicSpline) else rle_combine
    return combine(scal, *basis_at(scal.space, t))


def moment_slotwise(pat, r: int, origin: Fraction | None = None) -> dict:
    """∫ (t - origin)**r g(t) dt per slot of a pattern, term by term; origin
    defaults to the interval start and must sit on the grid of every term.

    Each slot collects its terms' moments (times their w_data coefficients)
    as unreduced numerator, denominator pairs and sums them over the lcm of
    the denominators: one Fraction per slot.
    """
    origin = pat.interval.lo if origin is None else origin
    parts: dict = {}
    for scal, key in pat.terms:
        v = scal.moment(r, origin)
        if v:
            parts.setdefault(key, []).append((v.numerator, v.denominator))
    for scal, (_, i) in pat.r_terms:
        v = scal.moment(r, origin)
        if v:
            for coef, key in pat.w_data[i]:
                parts.setdefault(key, []).append(
                    (v.numerator * coef.numerator, v.denominator * coef.denominator)
                )
    out: dict = {}
    for key, pairs in parts.items():
        den = math.lcm(*(d for _, d in pairs))
        out[key] = Fraction(sum(n * (den // d) for n, d in pairs), den)
    return out
