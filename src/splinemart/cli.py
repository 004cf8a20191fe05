"""Command-line interface.

Subcommands:
  construct         build the divergent sequence, emit JSON, optionally verify
  verify            re-check a construction result file (or build-and-verify)
  constants         projection L1-norm table as CSV
  uncond            unconditionality ratio experiment
  demo-convergence  scalar (RNP-valued) convergence contrast

Exit codes: 0 pass, 1 check failed, 2 refused input, 3 internal invariant
broken.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InfeasibleStoppingError, SplineMartError
from .filtration import parse_filtration_spec
from .intervals import frac, long_decimals


class UsageError(SplineMartError):
    """The command line, or a file it names, was refused."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


#: the largest order --k accepts (shared 2-core host): construct --k 16 --steps 2 takes
#: about 6 s, --k 24 about 84 s; constants --k 28 passes, --k 32 fails the Gram Cholesky;
#: at k = 1100 Gram assembly needs 10 GiB
MAX_ORDER = 16


def spline_order(text: str) -> int:
    value = positive_int(text)
    if value > MAX_ORDER:
        raise argparse.ArgumentTypeError(f"must lie in 1..{MAX_ORDER}, got {text}")
    return value


#: the most trials `uncond --trials` accepts: about 205 bytes per trial at k=2, depth 8,
#: so 272 MB peak RSS (7 s) at this cap and about 20 GB at 10**8 (2-core host)
MAX_TRIALS = 10**6


def trial_count(text: str) -> int:
    value = positive_int(text)
    if value > MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"must lie in 1..{MAX_TRIALS}, got {text}")
    return value


def seed_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def fraction(text: str):
    try:
        return frac(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text}")


def exponent(text: str) -> float:
    value = float(text)
    if not 1 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must lie in (1, inf), got {text}")
    return value


def filtration_spec(spec: str):
    try:
        return parse_filtration_spec(spec)
    except ZeroDivisionError:  # Fraction("1/0"), in the spec or the file it names
        raise argparse.ArgumentTypeError(f"zero denominator in filtration {spec!r}")
    except (SplineMartError, OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def result_file(path: str) -> dict:
    try:
        with open(path) as fh, long_decimals():
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read result file: {exc}")


def _write_output(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write the {what}: {exc}")


def _add_filtration_arg(p):
    p.add_argument(
        "--filtration",
        type=filtration_spec,
        default="dyadic",
        help="dyadic | padic:<p> | accum:<point> | file:<path>",
    )


def cmd_construct(args) -> int:
    from .construction import build_sequence
    from .harness import verify_sequence

    seq = build_sequence(args.filtration, args.k, args.eta, args.steps)
    out = seq.dumps(trace=args.trace, indent=2)
    if args.out:
        _write_output(args.out, out, "result file")
    else:
        print(out)
    if args.verify:
        report = verify_sequence(seq)
        print(report.render(), file=sys.stderr)
        return 0 if report.all_passed else 1
    return 0


def _recorded_measures(blob) -> tuple[list, list]:
    """|E_n| for n >= 1 and |C_n ∩ V| for n >= 0 from a result file of
    N >= 1 steps, which holds N entries in E and N + 1 in C; a file of any
    other shape, a JSON boolean or a value outside [0, 1], or |C_0 ∩ V|
    other than |V| = 1 is refused."""
    for key in ("E", "C"):
        if not isinstance(blob[key], list):
            raise UsageError(f"result file entry {key} is not a list")
    if not blob["E"]:
        raise UsageError("result file entry E is empty")
    e_raw = [entry["measure"] for entry in blob["E"]]
    c_raw = blob["C"]
    named = [(f"E[{i}] (|E_{i + 1}|)", raw) for i, raw in enumerate(e_raw)]
    named += [(f"C[{i}] (|C_{i} ∩ V|)", raw) for i, raw in enumerate(c_raw)]
    for name, raw in named:
        if isinstance(raw, bool):  # frac would read true as 1
            raise UsageError(f"result file entry {name} = {json.dumps(raw)} is not a rational")
    measures = [frac(raw) for _, raw in named]
    for (name, raw), m in zip(named, measures):
        if not 0 <= m <= 1:
            raise UsageError(f"result file entry {name} = {raw} is not in [0, 1]")
    if not c_raw or measures[len(e_raw)] != 1:
        got = c_raw[0] if c_raw else "absent"
        raise UsageError(f"result file entry C[0] (|C_0 ∩ V|) is {got}, not 1")
    if len(c_raw) != len(e_raw) + 1:
        raise UsageError(
            f"result file holds {len(e_raw)} E entries and {len(c_raw)} C entries; "
            f"a file of N steps holds N and N + 1"
        )
    return measures[: len(e_raw)], measures[len(e_raw) :]


def _recorded_report(blob):
    """The (3c), (3d) and trace checks of a result file; a file of any other
    shape, or a trace row whose failed entry is not a list of check names,
    is refused."""
    from .harness.verify import VerificationReport, measure_checks, trace_check

    try:
        eta = frac(blob["eta"])
        if not 0 < eta < 1:
            raise ValueError(f"eta = {eta} is not in (0, 1)")
        e_measures, c_measures = _recorded_measures(blob)
        entries = measure_checks(eta, e_measures, c_measures[1:])
        rows = blob.get("trace_summary", [])
        for row in rows:
            failed = row["failed"]
            if not (isinstance(failed, list) and all(isinstance(x, str) for x in failed)):
                raise UsageError(
                    f"result file trace row {row['step']}: failed = {json.dumps(failed)} "
                    f"is not a list of check names"
                )
        failures = [(row["step"], name) for row in rows for name in row["failed"]]
        entries.append(trace_check(failures))
        return VerificationReport(entries)
    except (KeyError, TypeError, ValueError, ArithmeticError, AttributeError) as exc:
        raise UsageError(f"malformed result file: {type(exc).__name__}: {exc}")


def cmd_verify(args) -> int:
    from .construction import build_sequence
    from .harness import verify_sequence

    if args.result is not None:
        with long_decimals():
            report = _recorded_report(args.result)
    else:
        report = verify_sequence(build_sequence(args.filtration, args.k, args.eta, args.steps))
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    elif args.result is None:
        print(report.render())
    elif report.all_passed:
        print("PASS  recorded measures and trace inequalities hold")
    else:
        print("\n".join(e.line() for e in report.failed()))
    return 0 if report.all_passed else 1


def cmd_constants(args) -> int:
    from .harness import shadrin_profile

    args.filtration.check_level(args.levels)
    lines = ["level,dimension,l1_norm"]
    for level, dim, norm in shadrin_profile(args.filtration, args.k, args.levels):
        lines.append(f"{level},{dim},{norm!r}")
    out = "\n".join(lines)
    if args.csv:
        _write_output(args.csv, out + "\n", "CSV file")
    else:
        print(out)
    return 0


def cmd_uncond(args) -> int:
    from .bspline import ScalarSpline
    from .harness import unconditionality_ratio
    from .projection import ProjectionContext

    import numpy as np

    ctx = ProjectionContext(args.filtration, args.k)
    kv = ctx.knot_vector(args.depth)
    rng = np.random.default_rng(args.seed)
    f = ScalarSpline(kv, rng.uniform(-1.0, 1.0, kv.dim))
    ratio = unconditionality_ratio(ctx, f, args.p, args.trials, seed=args.seed)
    result = {
        "k": args.k,
        "p": args.p,
        "depth": args.depth,
        "trials": args.trials,
        "seed": args.seed,
        "max_ratio": ratio,
    }
    if args.json:
        print(json.dumps(result))
    else:
        print(f"max unconditionality ratio (k={args.k}, p={args.p}): {ratio:.6f}")
    return 0


def cmd_demo_convergence(args) -> int:
    from .harness import scalar_convergence_demo

    result = scalar_convergence_demo(args.filtration, args.k, args.depth, seed=args.seed)
    if args.json:
        print(json.dumps(result))
    else:
        print(
            f"depth {result['depth']}: final increments < {result['tolerance']} on "
            f"{100 * result['final_small_mass_fraction']:.2f}% of [0,1]"
        )
        print("per-level increment sups:", ["%.2e" % s for s in result["increment_sups"]])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splinemart",
        description="martingale spline sequences over interval filtrations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the divergent sequence")
    p.add_argument("--k", type=spline_order, default=1)
    p.add_argument("--eta", type=fraction, default="1/2")
    p.add_argument("--steps", type=positive_int, default=2)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", choices=["summary", "full"], default="summary")
    p.add_argument("--verify", action="store_true")
    _add_filtration_arg(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a result file or a fresh build")
    p.add_argument("--in", dest="result", type=result_file, default=None)
    p.add_argument("--k", type=spline_order, default=1)
    p.add_argument("--eta", type=fraction, default="1/2")
    p.add_argument("--steps", type=positive_int, default=2)
    p.add_argument("--json", action="store_true")
    _add_filtration_arg(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constants", help="projection norm table")
    p.add_argument("--k", type=spline_order, default=2)
    p.add_argument("--levels", type=positive_int, default=8)
    p.add_argument("--csv", default=None)
    _add_filtration_arg(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("uncond", help="unconditionality ratio experiment")
    p.add_argument("--k", type=spline_order, default=2)
    p.add_argument("--p", type=exponent, default=2.0)
    p.add_argument("--depth", type=positive_int, default=8)
    p.add_argument("--trials", type=trial_count, default=100)
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--json", action="store_true")
    _add_filtration_arg(p)
    p.set_defaults(func=cmd_uncond)

    p = sub.add_parser("demo-convergence", help="scalar convergence contrast")
    p.add_argument("--k", type=spline_order, default=1)
    p.add_argument("--depth", type=positive_int, default=12)
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--json", action="store_true")
    _add_filtration_arg(p)
    p.set_defaults(func=cmd_demo_convergence)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InfeasibleStoppingError, AssertionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except SplineMartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
