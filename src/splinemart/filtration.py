"""Interval filtrations of [0, 1]: generators, atoms, exact measure logic.

A filtration oracle produces, for each level n, a partition of [0, 1] into
rational-endpoint intervals, each level refining the previous one. The
oracle also declares its limit set V (the accumulation points of all level
endpoints) as a finite union of closed rational intervals; V cannot be
inferred from finitely many levels, so it is part of the generator
contract.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .errors import CapacityError, DegenerateInputError, SearchCapError
from .intervals import ONE, ZERO, Interval, MeasurableUnion, frac

#: deepest non-uniform level a generator materializes
MATERIALIZE_CAP = 64
#: most pieces gamma_partition tries
GAMMA_CAP = 2**16
#: most atoms a uniform level may materialize
MATERIALIZE_ATOMS = 2**16


class FiltrationOracle:
    """Base class for filtration generators.

    Subclasses implement ``breakpoints(level)``; uniform generators (whose
    level-n partition is the uniform p-ary grid) additionally advertise
    ``uniform_base`` so that exact index arithmetic can replace
    materialization at depths far beyond it. A non-uniform level is
    materialized up to ``MATERIALIZE_CAP``, a uniform one while it holds at
    most ``MATERIALIZE_ATOMS`` atoms.
    """

    kind = "abstract"
    #: p for uniform p-ary refinement, or None
    uniform_base: int | None = None

    def __init__(self, limit_set: MeasurableUnion):
        self.limit_set = limit_set

    # -- core contract -----------------------------------------------------

    def breakpoints(self, level: int) -> list[Fraction]:
        raise NotImplementedError

    @property
    def max_level(self) -> int | None:
        """Deepest level with defined data (None = unbounded, lazy)."""
        return None

    def check_level(self, level: int) -> None:
        if level < 0:
            raise ValueError("level must be non-negative")
        top = self.max_level
        if top is not None and level > top:
            raise CapacityError(f"level {level} beyond generator capacity {top}")
        p = self.uniform_base
        if p is None and level > MATERIALIZE_CAP:
            raise CapacityError(f"level {level} beyond materialization cap {MATERIALIZE_CAP}")
        # with p >= 2 every level past the cap's bit length holds too many
        # atoms, so the min keeps the power small at any level
        if p is not None and p ** min(level, MATERIALIZE_ATOMS.bit_length()) > MATERIALIZE_ATOMS:
            raise CapacityError(
                f"refusing to materialize {p}**{level} atoms "
                f"(cap {MATERIALIZE_ATOMS}); use index arithmetic"
            )

    def atoms(self, level: int) -> list[Interval]:
        """The level-n partition of [0, 1] as an ordered list of intervals."""
        self.check_level(level)
        bps = self.breakpoints(level)
        return [Interval(a, b) for a, b in zip(bps, bps[1:])]

    # -- uniform-grid arithmetic (no materialization) ----------------------

    def is_uniform(self) -> bool:
        return self.uniform_base is not None

    def is_uniform_full(self) -> bool:
        """Uniform refinement with V = [0, 1]: the lazy fast path."""
        return self.is_uniform() and self.limit_set == MeasurableUnion.full()

    def grid_step(self, level: int) -> Fraction:
        if self.uniform_base is None:
            raise ValueError("grid_step is defined for uniform generators only")
        return Fraction(1, self.uniform_base**level)

    def atom_count_in(self, iv: Interval, level: int) -> int:
        """Number of level-`level` atoms A with A ⊆ iv (closed containment)."""
        if self.uniform_base is not None:
            h = self.grid_step(level)
            first = math.ceil(iv.lo / h)
            last = math.floor(iv.hi / h)
            return max(0, last - first)
        bps = self.breakpoints(level)
        lo_idx = bisect.bisect_left(bps, iv.lo)
        hi_idx = bisect.bisect_right(bps, iv.hi) - 1
        return max(0, hi_idx - lo_idx)


class UniformFiltration(FiltrationOracle):
    """p-ary uniform refinement; level n is the grid of step p**-n.

    Every point of [0, 1] is an accumulation point of the grids, so the
    declared limit set is all of [0, 1].
    """

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("uniform base must be >= 2")
        super().__init__(MeasurableUnion.full())
        self.uniform_base = p
        self.kind = "dyadic" if p == 2 else f"padic:{p}"

    def breakpoints(self, level: int) -> list[Fraction]:
        self.check_level(level)
        n = self.uniform_base**level
        return [Fraction(i, n) for i in range(n + 1)]


def dyadic() -> UniformFiltration:
    return UniformFiltration(2)


class AccumulatingFiltration(FiltrationOracle):
    """Breakpoints c ± 2**-j accumulating at a single interior point c.

    The accumulation set is the single point {c}, which has measure zero;
    this generator exists to exercise the |V| = 0 dichotomy.
    """

    def __init__(self, point):
        c = frac(point)
        if not (ZERO < c < ONE):
            raise ValueError("accumulation point must lie in (0, 1)")
        super().__init__(MeasurableUnion([(c, c)]))
        self.point = c
        self.kind = f"accum:{c}"

    def breakpoints(self, level: int) -> list[Fraction]:
        self.check_level(level)
        pts = {ZERO, ONE}
        for j in range(1, level + 1):
            step = Fraction(1, 2**j)
            for t in (self.point - step, self.point + step):
                if ZERO < t < ONE:
                    pts.add(t)
        return sorted(pts)


class FileFiltration(FiltrationOracle):
    """Filtration defined by explicit per-level breakpoint lists.

    Finitely many levels are known, so any refinement search beyond the
    last defined level fails with a capacity error.
    """

    def __init__(self, limit_set: MeasurableUnion, levels: Sequence[Sequence[Fraction]]):
        for lo, hi in limit_set.pieces:
            if not ZERO <= lo <= hi <= ONE:
                raise ValueError(f"limit set piece [{lo}, {hi}] outside [0, 1]")
        super().__init__(limit_set)
        self.kind = "file"
        self._levels: list[list[Fraction]] = []
        prev: set[Fraction] = set()
        for idx, raw in enumerate(levels):
            bps = sorted({frac(x) for x in raw} | {ZERO, ONE})
            if bps[0] < ZERO or bps[-1] > ONE:
                raise ValueError(f"level {idx} has a breakpoint outside [0, 1]")
            if not prev.issubset(bps):
                raise ValueError(f"level {idx} does not refine level {idx - 1}")
            prev = set(bps)
            self._levels.append(bps)
        if not self._levels:
            raise ValueError("file filtration needs at least one level")

    @property
    def max_level(self) -> int | None:
        return len(self._levels) - 1

    def breakpoints(self, level: int) -> list[Fraction]:
        self.check_level(level)
        return list(self._levels[level])


def load_filtration_file(path: str | Path) -> FileFiltration:
    """Parse the text format: line 0 ``V: a1 b1 a2 b2 ...``, then one
    breakpoint line per level, each a superset of the previous."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("V:"):
        raise ValueError("first line must declare the limit set: 'V: a1 b1 ...'")
    vals = lines[0][2:].split()
    if len(vals) % 2:
        raise ValueError("limit set line needs an even number of rationals")
    pieces = [(frac(vals[i]), frac(vals[i + 1])) for i in range(0, len(vals), 2)]
    levels = [[frac(tok) for tok in ln.split()] for ln in lines[1:]]
    return FileFiltration(MeasurableUnion(pieces), levels)


def parse_filtration_spec(spec: str) -> FiltrationOracle:
    """Parse CLI syntax ``dyadic | padic:<p> | accum:<point> | file:<path>``."""
    if spec == "dyadic":
        return dyadic()
    if spec.startswith("padic:"):
        return UniformFiltration(int(spec[6:]))
    if spec.startswith("accum:"):
        return AccumulatingFiltration(frac(spec[6:]))
    if spec.startswith("file:"):
        return load_filtration_file(spec[5:])
    raise ValueError(f"unknown filtration spec {spec!r}")


# ---------------------------------------------------------------------------
# operations


def refine_until(filt: FiltrationOracle, iv: Interval, count: int) -> int:
    """Smallest level K whose partition has >= count atoms inside iv.

    Termination is guaranteed when int(iv) meets the limit set; otherwise
    the search runs into the generator capacity and raises.
    """
    if count < 1:
        raise ValueError("count must be positive")
    level = 0
    while True:
        try:
            filt.check_level(level)
            if filt.atom_count_in(iv, level) >= count:
                return level
        except CapacityError:
            raise CapacityError(
                f"refine_until exhausted capacity at level {level} "
                f"({count} atoms in {iv} not reached)"
            )
        level += 1


def equal_measure_split(iv: Interval, v: MeasurableUnion, n: int) -> list[Interval]:
    """Split iv into n consecutive intervals of equal |. ∩ v| mass.

    Split points are the leftmost preimages under t -> |[iv.lo, t] ∩ v|,
    which makes the output unique and the piece masses exactly equal.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = v.measure_in(iv)
    if total == 0:
        raise DegenerateInputError(f"|{iv} ∩ V| = 0")
    if n == 1:
        return [iv]
    quantum = total / n
    pieces = v.components_in(iv)
    cuts: list[Fraction] = []
    acc = ZERO
    target = quantum
    for lo, hi in pieces:
        seg = hi - lo
        while target <= acc + seg and len(cuts) < n - 1:
            cuts.append(lo + (target - acc))
            target += quantum
        acc += seg
        if len(cuts) == n - 1:
            break
    if len(cuts) != n - 1:
        raise AssertionError(f"found {len(cuts)} cuts, not {n - 1}")
    bounds = [iv.lo] + cuts + [iv.hi]
    return [Interval(a, b) for a, b in zip(bounds, bounds[1:])]


def gamma_partition(
    iv: Interval,
    v: MeasurableUnion,
    eps1: Fraction,
    eps2: Fraction,
) -> tuple[int, list[Interval], list[int]]:
    """Find n and the equal-mass split of iv whose small-neighbor index set
    Γ = {2 <= l <= n-1 : max(|A_{l-1}|, |A_l|, |A_{l+1}|) <= eps1} carries
    at least (1 - eps2)|iv ∩ v| of the mass.

    Ascending search over n <= GAMMA_CAP; existence is a lemma, the cap
    guards the search. Indices in Γ are 1-based like the pieces.
    """
    eps1, eps2 = frac(eps1), frac(eps2)
    if eps1 <= 0 or eps2 <= 0:
        raise ValueError("eps1, eps2 must be positive")
    total = v.measure_in(iv)
    if total == 0:
        raise DegenerateInputError(f"|{iv} ∩ V| = 0")
    bound = (1 - eps2) * total
    for n in range(1, GAMMA_CAP + 1):
        parts = equal_measure_split(iv, v, n)
        lengths = [p.length for p in parts]
        gamma = [
            ell
            for ell in range(2, n)
            if max(lengths[ell - 2], lengths[ell - 1], lengths[ell]) <= eps1
        ]
        mass = Fraction(len(gamma), n) * total
        if mass >= bound:
            return n, parts, gamma
    raise SearchCapError(f"gamma_partition found no n <= {GAMMA_CAP}")
