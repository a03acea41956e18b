"""Command-line front end: solve, reduce, gen, verify, bench.

Exit codes are a stable contract: for `solve`, 0 means yes, 1 means no, and
2 means error; the other subcommands use 0 for success, 1 for a verification
failure, and 2 for error.  Machine-readable output always prints exact
rationals (num/den), never decimals.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import sys
import time
import traceback

from . import generators, jsonio, verify
from .core import instance_from_dict, instance_to_dict
from .cup import cup_from_dict, cup_to_dict, solve_cup_bruteforce
from .errors import ChampBribeError
from .knapsack import (
    ksum_from_dict,
    ksum_to_dict,
    mpk_from_dict,
    mpk_to_dict,
    pkp_from_dict,
    pkp_to_dict,
)
from .rational import check_field, format_rational, parse_rational
from .reductions import cbcct_to_cup, ksum_to_pkp, mpk_to_cbcct, pkp_to_mpk, shift_ksum
from .solvers import (
    bribe_value_set,
    probability_profile,
    solve_bruteforce,
    solve_dp,
    solve_fpt_bribe_values,
    solve_fpt_prob_values,
)

_CBCCT_ALGOS = {
    "brute": solve_bruteforce,
    "dp": solve_dp,
    "fpt-bribes": solve_fpt_bribe_values,
    "fpt-probs": solve_fpt_prob_values,
}


def _cmd_solve(args) -> int:
    data = jsonio.load_json(args.file)
    start = time.perf_counter()
    if args.algo == "cup-brute":
        inst = cup_from_dict(data)
        result = solve_cup_bruteforce(inst)
        witness = (
            "none"
            if result.witness is None
            else " ".join(f"{i},{j}={c}" for (i, j), c in sorted(result.witness.items()))
        )
    else:
        inst = instance_from_dict(data)
        result = _CBCCT_ALGOS[args.algo](inst)
        witness = (
            "none"
            if result.witness is None
            else " ".join(str(j) for j in result.witness.choices)
        )
    elapsed_ms = (time.perf_counter() - start) * 1000
    best = "none" if result.best_probability is None else format_rational(result.best_probability)
    print(f"{'yes' if result.decision else 'no'} {best}")
    print(f"witness {witness}")
    print(f"wall_ms {elapsed_ms:.3f}")
    return 0 if result.decision else 1


_CHAIN = ["ksum", "pkp", "mpk", "cbcct", "cup"]

_LOADERS = {
    "ksum": ksum_from_dict,
    "pkp": pkp_from_dict,
    "mpk": mpk_from_dict,
    "cbcct": instance_from_dict,
    "cup": cup_from_dict,
}

_DUMPERS = {
    "ksum": ksum_to_dict,
    "pkp": pkp_to_dict,
    "mpk": mpk_to_dict,
    "cbcct": instance_to_dict,
    "cup": cup_to_dict,
}


def _cmd_reduce(args) -> int:
    src_kind, dst_kind = args.source_kind, args.target_kind
    if src_kind not in _CHAIN or dst_kind not in _CHAIN:
        raise ChampBribeError(f"unknown instance kind: {src_kind} or {dst_kind}")
    si, di = _CHAIN.index(src_kind), _CHAIN.index(dst_kind)
    if si >= di:
        raise ChampBribeError(f"no reduction from {src_kind} to {dst_kind}")
    inst = _LOADERS[src_kind](jsonio.load_json(args.file))
    provenance = [f"reduced from {src_kind} via champbribe"]
    kind = src_kind
    while kind != dst_kind:
        if kind == "ksum":
            if not inst.shifted:
                inst = shift_ksum(inst)
                provenance.append("shift: s'_i = s_i + 2n^2k + n^(k^2), target T = k*shift")
            inst = ksum_to_pkp(inst)
            provenance.append("ksum->pkp: weight s'_i, profit (1 - s'_i/T^2)^-1, C=T")
            kind = "pkp"
        elif kind == "pkp":
            inst = pkp_to_mpk(inst)
            provenance.append(
                "pkp->mpk: singleton classes, each padded with a (0, 1) skip item"
            )
            kind = "mpk"
        elif kind == "mpk":
            inst = mpk_to_cbcct(inst)
            provenance.append("mpk->cbcct: entries (w_j, v_j) per class, B=C, t=V")
            kind = "cbcct"
        elif kind == "cbcct":
            inst = cbcct_to_cup(inst)
            provenance.append(
                "cbcct->cup: favorite at position 1, main player i at 2^(i-1)+1"
            )
            kind = "cup"
    payload = _DUMPERS[dst_kind](inst)
    if args.output:
        jsonio.save_json(args.output, payload, provenance)
    else:
        for line in provenance:
            print(f"# {line}")
        print(jsonio.dump_json(payload))
    return 0


def _parse_pool(text: str):
    return tuple(parse_rational(part) for part in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    """A comma-separated list of integers (an argparse type: bad text is a usage error)."""
    return tuple(int(part) for part in text.split(","))


def _algo_list(text: str) -> tuple[str, ...]:
    """A comma-separated list of CBCCT solver names (an argparse type)."""
    algos = tuple(text.split(","))
    unknown = [a for a in algos if a not in _CBCCT_ALGOS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown algorithm {', '.join(unknown)} (choose from {', '.join(_CBCCT_ALGOS)})"
        )
    return algos


def _cmd_gen(args) -> int:
    if args.family == "cbcct":
        inst = generators.gen_cbcct(
            args.seed,
            args.n,
            args.lmax,
            args.budget,
            args.value_pool,
            _parse_pool(args.prob_pool),
            index=args.index,
        )
        payload = instance_to_dict(inst)
    elif args.family == "ksum":
        inst = generators.gen_ksum(
            args.seed, args.n, args.k, args.magnitude, planted=args.planted, index=args.index
        )
        payload = ksum_to_dict(inst)
    elif args.family == "mpk":
        inst = generators.gen_mpk(
            args.seed, args.class_sizes, planted=args.planted, index=args.index
        )
        payload = mpk_to_dict(inst)
    elif args.family == "pkp":
        inst = generators.gen_pkp(args.seed, args.n, index=args.index)
        payload = pkp_to_dict(inst)
    else:
        inst = generators.gen_cup(args.seed, args.rounds, args.lmax, index=args.index)
        payload = cup_to_dict(inst)
    provenance = [f"generated family={args.family} seed={args.seed} index={args.index}"]
    if args.output:
        jsonio.save_json(args.output, payload, provenance)
    else:
        print(jsonio.dump_json(payload))
    return 0


def _cmd_verify(args) -> int:
    if args.count is not None:
        check_field(args.count, "--count")
    names = args.suite.split(",") if args.suite != "all" else list(verify.SUITES)
    all_passed = True
    for name in names:
        if name not in verify.SUITES:
            raise ChampBribeError(
                f"unknown suite {name!r}; available: {', '.join(verify.SUITES)}"
            )
        suite = verify.SUITES[name]
        params = inspect.signature(suite).parameters
        flags = {"count": args.count, "seed": args.seed}
        report = suite(**{k: v for k, v in flags.items() if v is not None and k in params})
        print(report.summary())
        for failure in report.failures[:10]:
            print(f"  {failure}")
        if len(report.failures) > 10:
            print(f"  ... and {len(report.failures) - 10} more")
        all_passed &= report.passed
    return 0 if all_passed else 1


def _distinct_counts(inst) -> tuple[int, int]:
    values = set()
    probs = set()
    for v in inst.bribe_vectors:
        values.update(bribe_value_set(v))
        probs.update(probability_profile(v))
    return len(values), len(probs)


def _cmd_bench(args) -> int:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["algo", "n", "B", "v_#", "p_#", "wall_ms", "decision"])
    for n in args.n:
        for budget in args.budget:
            inst = generators.gen_cbcct(
                args.seed,
                n,
                args.lmax,
                budget,
                verify.SCALE_VALUE_POOL,
                verify.SCALE_PROB_POOL,
                canonical=True,
            )
            v_count, p_count = _distinct_counts(inst)
            for algo in args.algo:
                start = time.perf_counter()
                result = _CBCCT_ALGOS[algo](inst)
                wall_ms = (time.perf_counter() - start) * 1000
                writer.writerow(
                    [
                        algo,
                        n,
                        budget,
                        v_count,
                        p_count,
                        f"{wall_ms:.3f}",
                        "yes" if result.decision else "no",
                    ]
                )
    text = out.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="champbribe",
        description="Exact solvers and reductions for tournament bribery problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("file")
    p_solve.add_argument(
        "--algo",
        default="dp",
        choices=["brute", "dp", "fpt-bribes", "fpt-probs", "cup-brute"],
    )
    p_solve.set_defaults(fn=_cmd_solve)

    p_reduce = sub.add_parser("reduce", help="transform an instance along the chain")
    p_reduce.add_argument("file")
    p_reduce.add_argument("--from", dest="source_kind", required=True)
    p_reduce.add_argument("--to", dest="target_kind", required=True)
    p_reduce.add_argument("-o", "--output")
    p_reduce.set_defaults(fn=_cmd_reduce)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("family", choices=["cbcct", "ksum", "mpk", "pkp", "cup"])
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--index", type=int, default=0)
    p_gen.add_argument("--n", type=int, default=4)
    p_gen.add_argument("--lmax", type=int, default=3)
    p_gen.add_argument("--budget", type=int, default=10)
    p_gen.add_argument("--value-pool", type=_int_list, default="0,1,2,3,5")
    p_gen.add_argument("--prob-pool", default="1/4,1/2,3/4,1")
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--magnitude", type=int, default=None)
    p_gen.add_argument("--class-sizes", type=_int_list, default="2,2")
    p_gen.add_argument("--rounds", type=int, default=2)
    p_gen.add_argument("--planted", action="store_true")
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(fn=_cmd_gen)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all")
    p_verify.add_argument("--count", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(fn=_cmd_verify)

    p_bench = sub.add_parser("bench", help="benchmark solvers, CSV output")
    p_bench.add_argument("--algo", type=_algo_list, default="dp")
    p_bench.add_argument("--n", type=_int_list, default="100,1000")
    p_bench.add_argument("--budget", type=_int_list, default="1000,100000")
    p_bench.add_argument("--lmax", type=int, default=4)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("-o", "--output")
    p_bench.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ChampBribeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an unexpected failure is still an error, never a "no"
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
