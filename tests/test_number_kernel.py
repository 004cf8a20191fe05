"""The exact engine's number kernel (`cardinal.over_common_denominator` and
`cardinal.add_numerators`) against plain Fraction sums, and the guard that
keeps every other common denominator of `src/` behind it."""

import ast
import math
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from splinemart.cardinal import add_numerators, over_common_denominator

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src" / "splinemart"

#: bases of the grids the engine runs on: prime, composite and a large one
BASES = (2, 3, 5, 6, 1000)


@st.composite
def grid_denominators(draw, p):
    """c p**e for a small cofactor c: the shape of the engine's denominators,
    up to about 3,000 bits."""
    e = draw(st.integers(0, 3000 // p.bit_length()))
    return draw(st.integers(1, 60)) * p**e


@st.composite
def pairs(draw, p):
    """An (integer numerator, denominator) pair over a grid denominator, in
    lowest terms or times a common factor."""
    d = draw(grid_denominators(p))
    n = draw(st.integers(-4 * d, 4 * d))
    g = draw(st.sampled_from([1, 1, 2, p, 7 * p]))
    return n * g, d * g


@st.composite
def rationals(draw, p):
    """A Fraction, an int or an unreduced pair, as the kernel takes them."""
    n, d = draw(pairs(p))
    return draw(st.sampled_from([F(n, d), n // d, (n, d)]))


@st.composite
def numerator_maps(draw, p):
    """A ({key: integer numerator}, den) pair over a grid denominator."""
    den = draw(grid_denominators(p))
    keys = draw(st.lists(st.integers(0, 9), max_size=6, unique=True))
    return {key: draw(st.integers(-4 * den, 4 * den)) for key in keys}, den


def as_fraction(v) -> Fraction:
    return F(*v) if isinstance(v, tuple) else F(v)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from(BASES))
def test_over_common_denominator_matches_fraction_values(data, p):
    values = data.draw(st.lists(rationals(p), max_size=8))
    nums, den = over_common_denominator(values)
    assert len(nums) == len(values)
    assert [F(n, den) for n in nums] == [as_fraction(v) for v in values]
    # the lcm of the denominators as given: a pair keeps its own terms
    dens = [v[1] if isinstance(v, tuple) else as_fraction(v).denominator for v in values]
    assert den == math.lcm(*dens)
    assert sum(F(n, den) for n in nums) == sum((as_fraction(v) for v in values), F(0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from(BASES))
def test_add_numerators_matches_fraction_sums(data, p):
    maps = data.draw(st.lists(numerator_maps(p), min_size=1, max_size=5))
    frozen = [(dict(nums), den) for nums, den in maps]
    acc = ({}, 1)
    want: dict = {}
    for nums, den in maps:
        step = add_numerators(acc, (nums, den))
        if acc[0] and nums:
            assert step[1] == math.lcm(acc[1], den)
        else:  # a side with no entry adds nothing, not even its denominator
            assert step == (acc if acc[0] else (nums, den))
        acc = step
        for key, n in nums.items():
            want[key] = want.get(key, F(0)) + F(n, den)
    assert maps == frozen  # the inputs are left as they were
    assert set(acc[0]) == set(want)
    assert {key: F(n, acc[1]) for key, n in acc[0].items()} == want


# ---------------------------------------------------------------------------
# the guard: one place re-derives a common denominator

#: (file under src/splinemart, function) pairs that may call lcm
LCM_ALLOWED = {
    ("cardinal.py", "over_common_denominator"),
    ("cardinal.py", "add_numerators"),
    ("cardinal.py", "cardinal_moment"),  # lcm(1..r+k) of the cardinal moments
}
#: check (1)'s closed-form oracle shares no code with the build, by design
LCM_EXEMPT_FILES = {"harness/verify.py"}
#: modules that may import lcm by name
LCM_IMPORTERS = {"cardinal.py"}


def lcm_uses(source: str, name: str) -> list:
    """(enclosing function or None, line) of every use of lcm in a module
    that the rules do not allow: a name or attribute `lcm` read outside an
    allowed function, and an import of lcm outside `LCM_IMPORTERS`."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ImportFrom) and any(a.name == "lcm" for a in node.names):
            if name not in LCM_IMPORTERS:
                found.append((func, node.lineno))
        elif isinstance(node, ast.Name) and node.id == "lcm" or (
            isinstance(node, ast.Attribute) and node.attr == "lcm"
        ):
            if (name, func) not in LCM_ALLOWED:
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_no_module_but_the_kernel_takes_an_lcm():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    offenders = {}
    for path in modules:
        name = path.relative_to(SRC).as_posix()
        if name in LCM_EXEMPT_FILES:
            continue
        uses = lcm_uses(path.read_text(), name)
        if uses:
            offenders[name] = uses
    assert not offenders, f"lcm outside cardinal's kernel helpers: {offenders}"


def test_the_lcm_guard_sees_calls_aliases_and_imports():
    kernel = (SRC / "cardinal.py").read_text()
    assert lcm_uses(kernel, "cardinal.py") == []
    spread = [
        "import math\ndef f(a, b):\n    return math.lcm(a, b)\n",
        "from math import lcm\ndef f(a, b):\n    return lcm(a, b)\n",
        "from math import lcm as merge\n",
        "import math\nbig = math.lcm\n",
    ]
    for source in spread:
        assert lcm_uses(source, "rle.py"), source
    # in cardinal.py, but outside the kernel helpers
    assert lcm_uses(kernel + "\ndef other(a, b):\n    return lcm(a, b)\n", "cardinal.py")
