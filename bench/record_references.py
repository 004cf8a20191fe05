"""Record the default-seed references of the correctness gate.

    python3 bench/record_references.py

Runs every op id that a run with the default seed can reach
(``workloads.OPS_PER_SLOT`` ops in each of ``run.WORKERS`` slots) and
writes their digests (exact workloads) or values (float) to
references.json. Exact outputs must never change, so
rerun this only when a workload's definition changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORKERS  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    refs: dict = {"seed": seed}
    no_refs = {"seed": None}
    for name, params in workloads.WORKLOADS.items():
        entry = refs[name] = {}
        for slot in range(WORKERS):
            for i in range(workloads.OPS_PER_SLOT):
                op = slot * workloads.OPS_PER_SLOT + i
                result = workloads.run_op(name, seed, op, no_refs)
                if not result.ok:
                    print(f"{name} op {op}: {result.problems}", file=sys.stderr)
                    return 1
                if params["engine"] == "exact":
                    entry[str(op)] = {"digest": result.digest}
                else:
                    values = dict(result.values)
                    entry.setdefault("shadrin_profile", values.pop("shadrin_profile"))
                    entry[str(op)] = values
                print(f"{name} op {op}: {result.op_s:.2f} s", file=sys.stderr)
    with open(workloads.REFERENCES_FILE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
