"""The non-RNP witness space: finitely supported sup-norm vectors, the
dyadic bush, and bush values (`BushRep`): node weights and nothing else.

The bush assigns to every binary word s a vector x_s with entries in
{-1, 0, +1}: the root is 0 and the children of s are x_s ± e_{a(s)} for a
fresh coordinate a(s) (heap numbering of the binary tree, so allocation
is deterministic and reproducible). Every x_s is the average of its two
children and lies at sup-distance exactly 1 from each of them, which is
what makes every point of the bush non-extremal at scale delta = 1.
Every constant value of the construction is a convex combination of nodes.

Bush values take the number format of `cardinal`'s kernel:
`BushRep.numerators` sums each coordinate as an integer numerator over the
weights' common denominator in one pass up the path trie, never building
the node vectors x_s, and `BushRep.value` is their XVec view. Memo rule:
the numerators, value, shape and hash of a rep are kept on the frozen rep
itself, never in a module-level cache, so no memo outlives the objects of
the build that made the rep.
"""

from __future__ import annotations

import os.path
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .cardinal import over_common_denominator
from .errors import UnachievableSeparationError
from .intervals import frac

__all__ = ["XVec", "BushRep", "bush_decompose"]


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
    """Convex combination of bush nodes.

    Represents the value sum(w_s * x_s) with non-negative rational weights
    summing to one. This is the working currency of the driver: every
    constant value it produces has this shape, which is exactly what lets
    it be split again with unit separation.
    """

    weights: tuple[tuple[str, Fraction], ...]
    # not a field, always zero: only bench/workloads.construction_stats reads
    # it; ROADMAP item 5 deletes this constant together with that read
    pert = XVec.zero()

    def __post_init__(self):
        weights = []
        for path, w in self.weights:
            w = frac(w)
            if w.numerator < 0:
                raise ValueError(f"negative weight {w} on node {path!r}")
            weights.append(w)
        nums, den = over_common_denominator(weights)
        if sum(nums) != den:
            raise ValueError(f"weights sum to {Fraction(sum(nums), den)}, not 1")

    @classmethod
    def point(cls, path: str) -> "BushRep":
        return cls(((path, Fraction(1)),))

    def __hash__(self):
        memo = self.__dict__.get("_hash")
        if memo is None:
            memo = self.__dict__["_hash"] = hash(self.weights)
        return memo

    def numerators(self) -> tuple[dict, int]:
        """sum(w_s * x_s) as ({coordinate: non-zero numerator}, den); memoized on the rep.

        Node s = b_1 .. b_n has heap index (1 << n) + int(s, 2), the
        coordinate a(s) it allocates; its children s0, s1 have 2c and
        2c + 1. x_s is +1 on a(q) for each proper prefix q that s continues
        with 0 and -1 for each it continues with 1, so coordinate c takes
        (weight at or below 2c) - (weight at or below 2c + 1). One pass from
        the deepest nodes up sums those weights as integer numerators.
        """
        memo = self.__dict__.get("_numerators")
        if memo is not None:
            return memo
        wnums, den = over_common_denominator([w for _, w in self.weights])
        below: list[dict] = [{} for _ in range(self.max_node_depth() + 1)]
        for (path, _), n in zip(self.weights, wnums):
            level = below[len(path)]
            node = (1 << len(path)) + int(path or "0", 2)
            level[node] = level.get(node, 0) + n
        sums: dict = {}
        for depth in range(len(below) - 1, 0, -1):
            up = below[depth - 1]
            for node, n in below[depth].items():
                c = node >> 1
                up[c] = up.get(c, 0) + n
                sums[c] = sums.get(c, 0) + (-n if node & 1 else n)
        memo = self.__dict__["_numerators"] = ({c: n for c, n in sums.items() if n}, den)
        return memo

    def value(self) -> XVec:
        """The XVec of `numerators`, memoized on the rep."""
        memo = self.__dict__.get("_value")
        if memo is None:
            memo = self.__dict__["_value"] = XVec.over(*self.numerators())
        return memo

    def max_node_depth(self) -> int:
        return max((len(p) for p, _ in self.weights), default=0)

    def shape(self) -> tuple:
        """This value up to relabelling the bush below a common node prefix.

        Returns (prefix is empty, node weights), with node paths rewritten
        relative to the longest common prefix q of all of them. Two reps of
        equal shape under prefixes q and q' differ by the relabelling
        q + s -> q' + s, which keeps sup norms and `bush_decompose`
        profiles in step. The prefix node's own vector x_q adds only +-1
        entries on coordinates no later step touches; it is absent exactly
        when q is empty, hence the flag. Memoized on the rep.
        """
        memo = self.__dict__.get("_shape")
        if memo is None and len(self.weights) == 1:  # a node is its own prefix
            path, w = self.weights[0]
            memo = self.__dict__["_shape"] = (not path, (("", w),))
        elif memo is None:
            cut = len(os.path.commonprefix([p for p, _ in self.weights]))
            rel = tuple((p[cut:], w) for p, w in self.weights)
            memo = self.__dict__["_shape"] = (cut == 0, rel)
        return memo


def mix_reps(parts: list[tuple[Fraction, BushRep]]) -> BushRep:
    """Affine combination of reps.

    Coefficients must sum to 1; the node weights of the result must come
    out non-negative (the construction keeps its correction coefficients
    far smaller than the bush weights, so this holds with a large margin).
    Each node weight sums integer numerators over the product of the
    coefficients' and the weights' common denominators: one Fraction per
    node.
    """
    cnums, cden = over_common_denominator([c for c, _ in parts])
    if sum(cnums) != cden:
        raise ValueError(f"coefficients sum to {Fraction(sum(cnums), cden)}, not 1")
    wnums, wden = over_common_denominator([w for _, rep in parts for _, w in rep.weights])
    weights = iter(wnums)
    acc: dict[str, int] = {}
    for cn, (_, rep) in zip(cnums, parts):
        for path, _ in rep.weights:
            acc[path] = acc.get(path, 0) + cn * next(weights)
    den = cden * wden
    return BushRep(tuple((p, Fraction(n, den)) for p, n in sorted(acc.items()) if n))


def bush_decompose(rep: BushRep, delta, target_count: int = 2) -> list[tuple[Fraction, BushRep]]:
    """Split a bush value into deep-node points at sup-distance >= delta.

    Expands every node of `rep` to its descendants at a common depth D
    past every node depth, with dyadically split weights. The mixture
    reproduces the value exactly and each output point differs from it by
    exactly 1 in the output's own deepest coordinate (the sibling
    contributions cancel there).
    """
    delta = frac(delta)
    if delta > 1:
        raise UnachievableSeparationError(f"bush separation is 1, requested {delta}")
    d = rep.max_node_depth() + 1
    while sum(1 << (d - len(p)) for p, _ in rep.weights) < target_count:
        d += 1
    acc: dict[str, Fraction] = {}
    for path, w in rep.weights:
        share = w / (1 << (d - len(path)))
        for suffix in range(1 << (d - len(path))):
            desc = path + format(suffix, f"0{d - len(path)}b")
            acc[desc] = acc.get(desc, Fraction(0)) + share
    return [(acc[desc], BushRep.point(desc)) for desc in sorted(acc)]
