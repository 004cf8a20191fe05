"""Every exact-output pin of the tests, in one table, and the sha256s of
two kernel tables. `GOLDEN` holds one row per (spec, k, N, eta): the class
census's row count per step and the `fingerprint` of the sequence. CI's
result files are pinned in `result_files.sha256`, next to this file."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction as F
from typing import NamedTuple

from splinemart.construction.core import PeriodicFamily
from splinemart.construction.driver import build_sequence
from splinemart.filtration import parse_filtration_spec
from splinemart.intervals import long_decimals

from fraction_oracle import cell_ends


class Pin(NamedTuple):
    spec: str
    k: int
    steps: int
    eta: str
    rows: tuple          # len(rows_after) per step
    digest: str          # `fingerprint` of the sequence


def case_id(case) -> str:
    """The test id of a (spec, k, N, eta) case or a `Pin`."""
    spec, k, steps, eta = case[:4]
    return f"{spec}-k{k}-N{steps}-eta{eta.replace('/', '_')}"


def build(case):
    spec, k, steps, eta = case[:4]
    return build_sequence(parse_filtration_spec(spec), k, F(eta), steps)


GOLDEN = (
    # dyadic k = 1..3 and padic:3 k = 2, at N = 2 and 4 and both etas
    Pin("dyadic", 1, 2, "1/2", (3, 8), "da7048e3faf48a7a3254f4a306e01d0c350d33ed66abd7db8a57e4a3e2fa06bd"),
    Pin("dyadic", 1, 2, "2/5", (3, 8), "57f06f81f25544b9d99ccdac12dd674a1285ea52e7bd1c8914db61db7584e986"),
    Pin("dyadic", 1, 4, "1/2", (3, 8, 12, 16), "d47bc504e445152eb257f094172b27362c28c6e1f5a72b5bae1aaf23c7d2ba1b"),
    Pin("dyadic", 1, 4, "2/5", (3, 8, 12, 16), "81d5049c24d072dc78924f7210c95179f0d4543d98d91e13038f38cc021d34ca"),
    Pin("dyadic", 2, 2, "1/2", (5, 13), "595df50f0e02f182cd467b7a12eb949b69d2b992555bae9532840c4c9fa932ed"),
    Pin("dyadic", 2, 2, "2/5", (5, 13), "9a55d20f1526de059dba1d25bb878b3cfafff5c5bfa70db1311d30ae3e343f8d"),
    Pin("dyadic", 2, 4, "1/2", (5, 13, 22, 33), "b019c15b079a0afdb8d310bebd486cb508126ac33846493d4d5c500f91e2a7c3"),
    Pin("dyadic", 2, 4, "2/5", (5, 13, 22, 33), "57e407b8a2d2da0661c3f824bd32b95cfe60ccf72886ebbd5eb382e62a4f53b9"),
    Pin("dyadic", 3, 2, "1/2", (5, 13), "0f0775d1dc2ba91d709d99845d3a6eb82566085b920ba50a773f13879119de3e"),
    Pin("dyadic", 3, 2, "2/5", (5, 13), "7d10191f2deffbdc2dde158d76507d67d2757a4d2ac1303e0c5458c0515e11b6"),
    Pin("dyadic", 3, 4, "1/2", (5, 13, 22, 33), "b4097b6d1b0839adf553d882d348a717ef12aa831c18406b449d8bb1527b3b4d"),
    Pin("dyadic", 3, 4, "2/5", (5, 13, 22, 33), "fd4ca77e641523f8ab6005849f0de3aefccac869c8bbff4cb2d7c31a94b06c26"),
    Pin("padic:3", 2, 2, "1/2", (5, 13), "e10c63f6531948540f11ef0575f80905f57b15fcae2d85e6e219b9a730824d89"),
    Pin("padic:3", 2, 2, "2/5", (5, 13), "7f70af4b808851315f88a8ac473a9d12a179381ae8adc3981e3a43590a83ce7a"),
    Pin("padic:3", 2, 4, "1/2", (5, 13, 22, 33), "bdde404e98e1c5e18430018f346eb8fb56d2d06bf264bd9e4c8a7a8fc85e7454"),
    Pin("padic:3", 2, 4, "2/5", (5, 13, 22, 33), "f884c125cd51d5a44257568543d42a0c2e0299da4f15289bd586eb6a0a8fd1c4"),
    # depth: bush reps of up to 2**8 nodes, which N <= 4 does not reach
    Pin("dyadic", 1, 8, "1/2", (3, 8, 12, 16, 20, 24, 28, 32), "0e54d0c3d126d150e13264d233d6f646aa41d34aa9c9aabe535d52cb8439885b"),
    Pin("dyadic", 2, 7, "1/2", (5, 13, 22, 33, 46, 61, 78), "4e83acd9a1cc17cd3e62a2c107085ba5b585e11fae1d461ddc4dc1a49a923d26"),
    Pin("dyadic", 3, 5, "1/2", (5, 13, 22, 33, 46), "f4246875ac558abd6220b30f25a7838162bf43560eb64f2ca9ba3ab014ccef44"),
    # the walk in cells whose g has denominators of thousands of bits
    Pin("dyadic", 3, 6, "1/2", (5, 13, 22, 33, 46, 61), "e4e56a2781271f92e7e57194bc37359b2fe628b05cac8707331f3daac32462e7"),
    Pin("padic:5", 4, 4, "1/2", (5, 13, 22, 33), "ea4514ff9f325877f32cff09519e534e5176792c90e3537a912816f9173b6a2e"),
    # the census at width, and at order 1, whose bump atoms join the keep classes
    Pin("dyadic", 2, 5, "1/2", (5, 13, 22, 33, 46), "17d0bb5ab4ab675074fbf388ed39d64fb9066fd6c5bbeccec76414c6071952b5"),
    Pin("dyadic", 1, 6, "1/2", (3, 8, 12, 16, 20, 24), "cce4c83ecfa20c5e870285c6d83ee174b3e68a52a5c0057954d8464b012455b8"),
)

# every step's walk reads these: zone values, both ends, denominators prime to p
FIXED_POINTS = tuple(map(F, "0 1/7 1/3 2/5 5/9 31/32 7/11 13/625 1000/1001 1".split()))
CELL_QUOTA = {"ramp": 2, "rbump": 2, "zone": 2, "mix": 1, "keep": 1}


def pin_points(seq, n: int) -> list:
    """`FIXED_POINTS`, then lo + 3/7 (hi - lo) of the first cells of each
    kind (`CELL_QUOTA`), scanning the cells (a family's base instance) of
    the first pattern of step n - 1: the walk inside ramp, rbump, zone and
    mix cells, where g has denominators of thousands of bits at depth."""
    pat = next(iter(seq.steps[n - 1].patterns.values()))
    quota = dict(CELL_QUOTA)
    points = list(FIXED_POINTS)
    for entry in pat.cells:
        for cell in entry.cells if isinstance(entry, PeriodicFamily) else (entry,):
            if quota.get(cell.kind, 0):
                quota[cell.kind] -= 1
                lo, hi = cell_ends(pat, cell)
                points.append(lo + (hi - lo) * F(3, 7))
    return points


def fingerprint(seq) -> str:
    """sha256 of the full result record (seed 0), the per-step masses, the
    largest chain sup and f_n at `pin_points` for every step n."""
    with long_decimals():
        payload = {
            "record": seq.to_json(trace="full", seed=0),
            "masses": [[str(sd.e_mass), str(sd.c_mass), str(sd.const_mass)] for sd in seq.steps],
            "chain_sup": str(max(r.chain_sup for r in seq.final_rows)),
            "values": [
                [[[c, str(v)] for c, v in sorted(seq.value_at(t, n).items())] for t in pin_points(seq, n)]
                for n in range(1, seq.num_steps + 1)
            ],
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: sha256 of basis_values' (first, vals) bytes and of repr(eval_basis) over
#: `pin_knot_vectors` x `pin_points` of `test_bspline`, as two separate
#: kernels gave them
KERNEL_PIN = (
    "076bf4e91333205ade62571f311f228e92f4af0cbb8b4321d7b2f82e7a0e6dab",
    "a5b45c708b59bcdcf6b3e96931c1573b93bf3b0fbe153773e4f93a68748e98ec",
)

#: sha256 of the reprs of _local_spans(k), cardinal_moment(k, r) and
#: moment_weights(k, r), r = 0..8, k = 1..16, as the Fraction recurrence gave them
SPAN_TABLE_DIGEST = "3dbfb8c24b1b667272f2b8c8782fb29f7c4314a5c91107a1ce875ed1ad9f43b1"
