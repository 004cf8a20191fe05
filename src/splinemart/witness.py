"""The non-RNP witness space: finitely supported sup-norm vectors and the
dyadic bush.

The bush assigns to every binary word s a vector x_s with entries in
{-1, 0, +1}: the root is 0 and the children of s are x_s ± e_{a(s)} for a
fresh coordinate a(s) (heap numbering of the binary tree, so allocation
is deterministic and reproducible). Every x_s is the average of its two
children and lies at sup-distance exactly 1 from each of them, which is
what makes every point of the bush non-extremal at scale delta = 1.
"""

from __future__ import annotations

import os.path
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import UnachievableSeparationError
from .intervals import frac

__all__ = ["XVec", "node_vector", "node_coordinate", "BushRep", "bush_decompose"]


class XVec:
    """Immutable finitely supported coordinate -> value mapping, sup norm."""

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[int, object] | Iterable[tuple[int, object]] = ()):
        items = data.items() if isinstance(data, Mapping) else data
        self._data = {int(c): v for c, v in items if v != 0}

    @classmethod
    def _of(cls, data: dict) -> "XVec":
        """An XVec that holds data itself: int keys, no zero value."""
        out = object.__new__(cls)
        out._data = data
        return out

    @classmethod
    def zero(cls) -> "XVec":
        return cls()

    @classmethod
    def unit(cls, coord: int, value=Fraction(1)) -> "XVec":
        return cls({coord: value})

    def items(self):
        return self._data.items()

    def coords(self):
        return self._data.keys()

    def __getitem__(self, coord: int):
        return self._data.get(coord, 0)

    def __len__(self):
        return len(self._data)

    def __eq__(self, other):
        return isinstance(other, XVec) and self._data == other._data

    def __hash__(self):
        return hash(frozenset(self._data.items()))

    @property
    def sup_norm(self):
        return max((abs(v) for v in self._data.values()), default=Fraction(0))

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
        # a product of non-zero rationals is non-zero
        return XVec._of({k: v * c for k, v in self._data.items()})

    def to_json(self) -> dict[str, float]:
        return {str(c): float(v) for c, v in sorted(self._data.items())}

    def __repr__(self):
        inner = ", ".join(f"{c}: {v}" for c, v in sorted(self._data.items()))
        return f"XVec({{{inner}}})"


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


def _coord_depth(coord: int) -> int:
    """Depth at which a coordinate first appears in node vectors."""
    return coord.bit_length()  # floor(log2(c)) + 1


@dataclass(frozen=True)
class BushRep:
    """Convex combination of bush nodes plus a shared perturbation.

    Represents the value sum(w_s * x_s) + pert with non-negative rational
    weights summing to one. This is the working currency of the driver:
    every constant value it produces has this shape, which is exactly what
    lets it be split again with unit separation.
    """

    weights: tuple[tuple[str, Fraction], ...]
    pert: XVec = XVec.zero()

    def __post_init__(self):
        total = Fraction(0)
        for path, w in self.weights:
            w = frac(w)
            if w < 0:
                raise ValueError(f"negative weight {w} on node {path!r}")
            total += w
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")

    @classmethod
    def point(cls, path: str, pert: XVec = XVec.zero()) -> "BushRep":
        return cls(((path, Fraction(1)),), pert)

    def value(self) -> XVec:
        acc = self.pert
        for path, w in self.weights:
            acc = acc.add(node_vector(path).scale(w))
        return acc

    def max_node_depth(self) -> int:
        return max((len(p) for p, _ in self.weights), default=0)

    def max_pert_depth(self) -> int:
        return max((_coord_depth(c) for c in self.pert.coords()), default=0)

    def with_pert(self, extra: XVec) -> "BushRep":
        return BushRep(self.weights, self.pert.add(extra))

    def shape(self) -> tuple:
        """This value up to relabelling the bush below a common node prefix.

        Returns (prefix is empty, node weights, perturbation entries), with
        node paths and perturbation coordinates (each as the path of the
        node that allocated it) rewritten relative to the longest common
        prefix q of all of them. Two reps of equal shape under prefixes q
        and q' differ by the relabelling q + s -> q' + s, which keeps sup
        norms, `bush_decompose` profiles and every later perturbation in
        step. The prefix node's own vector x_q adds only +-1 entries on
        coordinates no later step touches; it is absent exactly when q is
        empty, hence the flag.
        """
        coords = {format(c, "b")[1:]: v for c, v in self.pert.items()}
        cut = len(os.path.commonprefix([p for p, _ in self.weights] + list(coords)))
        return (
            cut == 0,
            tuple((p[cut:], w) for p, w in self.weights),
            tuple(sorted((path[cut:], v) for path, v in coords.items())),
        )

    def to_json(self) -> dict:
        return {
            "nodes": {path or '""': str(w) for path, w in self.weights},
            "pert": self.pert.to_json(),
        }


def mix_reps(parts: list[tuple[Fraction, BushRep]]) -> BushRep:
    """Affine combination of reps sharing one perturbation.

    Coefficients must sum to 1; the node weights of the result must come
    out non-negative (the construction keeps its correction coefficients
    far smaller than the bush weights, so this holds with a large margin).
    """
    total = sum((c for c, _ in parts), Fraction(0))
    if total != 1:
        raise ValueError(f"coefficients sum to {total}, not 1")
    pert = parts[0][1].pert
    acc: dict[str, Fraction] = {}
    for c, rep in parts:
        if rep.pert != pert:
            raise ValueError("mixed reps must share their perturbation")
        for path, w in rep.weights:
            acc[path] = acc.get(path, Fraction(0)) + c * w
    weights = tuple((p, w) for p, w in sorted(acc.items()) if w != 0)
    return BushRep(weights, pert)


def bush_decompose(rep: BushRep, delta, target_count: int = 2) -> list[tuple[Fraction, BushRep]]:
    """Split a bush value into deep-node points at sup-distance >= delta.

    Expands every node of `rep` to its descendants at a common depth D
    chosen past every node depth and every perturbation coordinate, with
    dyadically split weights. The mixture reproduces the value exactly and
    each output point differs from it by exactly 1 in the output's own
    deepest coordinate (the sibling contributions cancel there).
    """
    delta = frac(delta)
    if delta > 1:
        raise UnachievableSeparationError(f"bush separation is 1, requested {delta}")
    d = max(rep.max_node_depth(), rep.max_pert_depth()) + 1
    while sum(1 << (d - len(p)) for p, _ in rep.weights) < target_count:
        d += 1
    out: list[tuple[Fraction, BushRep]] = []
    acc: dict[str, Fraction] = {}
    for path, w in rep.weights:
        share = w / (1 << (d - len(path)))
        for suffix in range(1 << (d - len(path))):
            desc = path + format(suffix, f"0{d - len(path)}b") if d > len(path) else path
            acc[desc] = acc.get(desc, Fraction(0)) + share
    for desc in sorted(acc):
        out.append((acc[desc], BushRep.point(desc, rep.pert)))
    return out
