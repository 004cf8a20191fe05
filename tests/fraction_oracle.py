"""Point evaluation of single RLE and periodic splines in plain Fraction
arithmetic, one Fraction operation per term.

Patterns evaluate through their run table, which sums integer numerators
over one denominator per basis group; these functions keep the direct
formula as the oracle it is checked against.
"""

from fractions import Fraction

from splinemart.cardinal import span_value
from splinemart.rle import PeriodicSpline, RleSpline, UniformSpace


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
