"""The non-RNP witness space: finitely supported sup-norm vectors, the
dyadic bush, and bush values (`BushRep`): a node and an expansion depth.

The bush assigns to every binary word s a vector x_s with entries in
{-1, 0, +1}: the root is 0 and the children of s are x_s ± e_{a(s)} for a
fresh coordinate a(s) (heap numbering of the binary tree, so allocation
is deterministic and reproducible). Every x_s is the average of its two
children and lies at sup-distance exactly 1 from each of them, which is
what makes every point of the bush non-extremal at scale delta = 1.

Every constant value of the construction is one node x_s, held as the
equal-weight average of the 2^i descendants of s at some depth i: the
root, a decomposition part (i = 0), a keep child (its parent's rep) and a
mix child (the parts recombined, one level deeper). So a rep is the path s
and the depth i, and its value is x_s whatever i is; the depth says how
the value was reached, and `bush_decompose` expands it one level further.

A bush value's entries are integers: `BushRep.numerators` reads the ±1
map off the path's proper prefixes, never building the node vectors of
the descendants; `BushRep.value` is its XVec view, and the driver's slot
vectors are read off it too. Memo rule: the numerators and value of a
rep are kept on the frozen rep itself, never in a module-level cache, so
no memo outlives the objects of the build that made the rep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .cardinal import over_common_denominator
from .errors import UnachievableSeparationError
from .intervals import frac

__all__ = ["XVec", "BushRep", "bush_decompose", "mix_reps"]


class XVec:
    """Immutable finitely supported coordinate -> value mapping, sup norm."""

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[int, object] | None = None):
        self._data = {int(c): v for c, v in (data or {}).items() if v != 0}

    @classmethod
    def _of(cls, data: dict) -> "XVec":
        """An XVec that holds data itself: int keys, no zero value."""
        out = object.__new__(cls)
        out._data = data
        return out

    @classmethod
    def over(cls, nums: Mapping[int, int], den: int) -> "XVec":
        """The XVec of integer numerators over den: one Fraction per non-zero
        coordinate."""
        return cls._of({c: Fraction(n, den) for c, n in nums.items() if n})

    @classmethod
    def zero(cls) -> "XVec":
        return cls()

    def items(self):
        return self._data.items()

    def __getitem__(self, coord: int):
        return self._data.get(coord, 0)

    def __len__(self):
        return len(self._data)

    def __eq__(self, other):
        return isinstance(other, XVec) and self._data == other._data

    def __hash__(self):
        return hash(frozenset(self._data.items()))

    @property
    def sup_norm(self) -> Fraction:
        nums, den = over_common_denominator(self._data.values())
        return Fraction(max(map(abs, nums), default=0), den)

    def add(self, other: "XVec") -> "XVec":
        out = dict(self._data)
        for c, v in other._data.items():
            w = out.get(c, 0) + v
            if w == 0:
                out.pop(c, None)
            else:
                out[c] = w
        return XVec._of(out)

    def sub(self, other: "XVec") -> "XVec":
        return self.add(other.scale(-1))

    def scale(self, c) -> "XVec":
        if c == 0:
            return XVec()
        if c == 1:
            return self  # immutable, so the same vector serves
        # a product of non-zero rationals is non-zero
        return XVec._of({k: v * c for k, v in self._data.items()})

    def __repr__(self):
        inner = ", ".join(f"{c}: {v}" for c, v in sorted(self._data.items()))
        return f"XVec({{{inner}}})"


@dataclass(frozen=True)
class BushRep:
    """The equal-weight average of the 2^depth descendants of node `path`,
    whose value is x_path: every constant value of the driver, which is what
    lets it be split again with unit separation. The constructor refuses a
    path that is not a binary word or a depth that is not an int >= 0 with
    explicit raises, which hold under python -O."""

    path: str
    depth: int = 0
    # not a field, always zero: only bench/workloads.construction_stats reads
    # it; ROADMAP item 5 deletes this constant together with that read
    pert = XVec.zero()

    def __post_init__(self):
        if type(self.path) is not str or self.path.strip("01"):
            raise ValueError(f"node path must be a binary word, not {self.path!r}")
        if type(self.depth) is not int or self.depth < 0:
            raise ValueError(f"expansion depth must be an int >= 0, not {self.depth!r}")

    def numerators(self) -> dict:
        """x_path as {coordinate: ±1}, memoized on the rep: +1 on a(q)
        for each proper prefix q that the path continues with 0, -1 for each
        it continues with 1. Node q's heap index a(q) = (1 << len(q)) +
        int(q, 2) gives its children 2 a(q) and 2 a(q) + 1."""
        memo = self.__dict__.get("_numerators")
        if memo is None:
            nums, node = {}, 1
            for bit in self.path:
                nums[node] = 1 if bit == "0" else -1
                node = 2 * node + (bit == "1")
            memo = self.__dict__["_numerators"] = nums
        return memo

    def value(self) -> XVec:
        """The XVec of `numerators`, memoized on the rep."""
        memo = self.__dict__.get("_value")
        if memo is None:
            memo = self.__dict__["_value"] = XVec.over(self.numerators(), 1)
        return memo

    def shape(self) -> tuple:
        """(path is empty, depth): the rep up to the relabelling q + s -> q' + s
        of the bush below its node, which keeps sup norms and `bush_decompose`
        profiles in step. x_q adds ±1 entries on coordinates no later step
        touches; they are absent exactly when q is empty, hence the flag."""
        return (self.path == "", self.depth)


def bush_decompose(rep: BushRep, delta, target_count: int = 2) -> list[tuple[Fraction, BushRep]]:
    """Split a bush value into deep-node points at sup-distance >= delta.

    Expands node `rep.path` to its 2^j descendants, in path order, with j
    the least depth past `rep.depth` that gives at least `target_count` of
    them, all with the one share 2^-j. The mixture reproduces x_path
    exactly, and each point differs from it by exactly 1 in the point's own
    deepest coordinate (the sibling contributions cancel there).
    """
    delta = frac(delta)
    if delta > 1:
        raise UnachievableSeparationError(f"bush separation is 1, requested {delta}")
    j = rep.depth + 1
    while 1 << j < target_count:
        j += 1
    share, spec = Fraction(1, 1 << j), f"0{j}b"
    return [(share, BushRep(rep.path + format(i, spec))) for i in range(1 << j)]


def mix_reps(parts: list[tuple[Fraction, BushRep]]) -> BushRep:
    """The rep that a decomposition recombines to: `BushRep(s, j)` for the
    2^j parts, j >= 1, that `bush_decompose` gives for a rep of node s and
    depth j - 1. Anything else (unequal, negative or affine coefficients, a
    part that is not a point, a missing, repeated or misplaced descendant)
    is refused with a ValueError, an explicit raise that holds under
    python -O."""
    j = len(parts).bit_length() - 1
    cut = len(parts[0][1].path) - j if parts and isinstance(parts[0][1], BushRep) else -1
    if j < 1 or cut < 0 or parts != bush_decompose(BushRep(parts[0][1].path[:cut], j - 1), 1):
        raise ValueError(f"the {len(parts)} parts are not the decomposition of one node")
    return BushRep(parts[0][1].path[:cut], j)
