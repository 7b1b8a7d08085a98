"""Command-line front end; every subcommand prints JSON on stdout.

Exit codes: 0 on success, 1 when a verification subcommand found a
counterexample (or the methods disagreed), 2 for usage errors, rejected
input (such as a sum mismatch in stretch, ktt or generic) and an -o path
that cannot be written.  All randomized subcommands take a seed and
default to DEFAULT_SEED, so identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import lru_cache

from . import kostant, lr3, steinberg, stretch, typea
from .hive import build_system

DEFAULT_SEED = lr3.DEFAULT_SEED

_JSON_INT_LIMIT = 2**53  # larger integers go out as decimal strings


def _json_int(x: int):
    return x if abs(x) < _JSON_INT_LIMIT else str(x)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(payload: dict, path) -> None:
    text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _triple(args) -> tuple:
    return tuple(map(typea.parse_partition, (args.lam, args.mu, args.nu)))


def _triple_meta(lam, mu, nu) -> dict:
    return {
        "lambda": typea.format_partition(lam),
        "mu": typea.format_partition(mu),
        "nu": typea.format_partition(nu),
    }


def _cmd_lr(args) -> int:
    lam, mu, nu = _triple(args)
    payload = _triple_meta(lam, mu, nu)
    if sum(lam) + sum(mu) != sum(nu):
        payload["coefficient"] = 0
        payload["reason"] = "sum mismatch"
        _emit(payload, args.output)
        return 0
    if args.method == "all":
        values = {}
        for m in stretch.COUNTING_METHODS:
            values[m] = stretch.count_by(m, lam, mu, nu)
        payload.update({m: _json_int(v) for m, v in values.items()})
        agree = len(set(values.values())) == 1
        payload["agree"] = agree
        _emit(payload, args.output)
        return 0 if agree else 1
    payload["method"] = args.method
    payload["coefficient"] = _json_int(
        stretch.count_by(args.method, lam, mu, nu)
    )
    _emit(payload, args.output)
    return 0


def _cmd_stretch(args) -> int:
    lam, mu, nu = _triple(args)
    result = stretch.stretch_poly(lam, mu, nu, args.method)
    payload = _triple_meta(lam, mu, nu)
    payload["method"] = args.method
    payload.update(result.to_json_dict())
    _emit(payload, args.output)
    return 0


def _cmd_kostant(args) -> int:
    coords = typea.weight(args.weight.split(","))
    count = kostant.kostant_count(args.k, coords)
    payload = {
        "k": args.k,
        "weight": [str(x) for x in coords],
        "count": _json_int(count),
    }
    _emit(payload, args.output)
    return 0


def _cmd_chambers(args) -> int:
    chambers = kostant.kostant_chambers(args.n)
    names = [f"v{i+1}" for i in range(args.n)]
    payload = {
        "n": args.n,
        "variables": names,
        "regions": [
            {
                "generators": [list(r) for r in ch.generators],
                "polynomial": ch.polynomial.to_json_dict(names),
                "display": ch.polynomial.format(names),
            }
            for ch in chambers
        ],
    }
    _emit(payload, args.output)
    return 0


def _cmd_matrix(args) -> int:
    _emit(build_system(args.k).to_json_dict(), args.output)
    return 0


def _cmd_verify_k3(args) -> int:
    cones, _ = lr3.load_k3()
    rows = []
    all_pass = True
    for cone in cones:
        v = lr3.verify_cone(
            cone, samples=args.samples, seed=args.seed, check_steinberg=False
        )
        row = {
            "cone": v.cone,
            "points": v.points_checked,
            "pass": v.passed,
        }
        if not v.passed:
            all_pass = False
            row["counterexamples"] = [
                {
                    "point": list(p),
                    "polynomial": str(val),
                    "count": _json_int(cnt),
                }
                for p, val, cnt in v.counterexamples
            ]
        rows.append(row)
    payload = {
        "samples": args.samples,
        "seed": args.seed,
        "cones": rows,
        "all_pass": all_pass,
    }
    _emit(payload, args.output)
    return 0 if all_pass else 1


def _cmd_generic(args) -> int:
    lam, mu, nu = _triple(args)
    *_, k = typea.padded_triple(lam, mu, nu)
    payload = _triple_meta(lam, mu, nu)
    payload["k"] = k
    try:
        sig = steinberg.type_signature(lam, mu, nu, k)
    except steinberg.NotGenericError:  # a shifted point lies on a wall
        payload["generic"] = False
    else:
        digest = hashlib.sha256(sig.digest().encode()).hexdigest()
        payload["generic"] = True
        payload["signature_entries"] = len(sig.signs)
        payload["signature_sha256"] = digest
    _emit(payload, args.output)
    return 0


def _cmd_ktt(args) -> int:
    lam, mu, nu = _triple(args)
    report = stretch.check_ktt(lam, mu, nu, args.method)
    payload = _triple_meta(lam, mu, nu)
    payload.update(report.to_json_dict())
    _emit(payload, args.output)
    return 0


def _add_triple(parser) -> None:
    parser.add_argument("lam", metavar="lambda", help="e.g. 2,1,0")
    parser.add_argument("mu", help="e.g. 2,1,0")
    parser.add_argument("nu", help="e.g. 3,2,1")


def _add_method(parser, with_all: bool) -> None:
    choices = list(stretch.COUNTING_METHODS) + (["all"] if with_all else [])
    parser.add_argument("--method", choices=choices, default="hive")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrpoly",
        description="Exact Littlewood-Richardson coefficients, "
        "stretching polynomials, and chamber data.",
    )
    parser.add_argument(
        "-o", "--output", default=None, help="write JSON to a file"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lr", help="one coefficient, any or all methods")
    _add_triple(p)
    _add_method(p, with_all=True)
    p.set_defaults(func=_cmd_lr)

    p = sub.add_parser("stretch", help="stretching polynomial in N")
    _add_triple(p)
    _add_method(p, with_all=False)
    p.set_defaults(func=_cmd_stretch)

    p = sub.add_parser("kostant", help="Kostant partition count")
    p.add_argument("k", type=int)
    p.add_argument("weight", help="comma-separated, sum 0, e.g. 1,0,-1")
    p.set_defaults(func=_cmd_kostant)

    p = sub.add_parser("chambers", help="Kostant chamber decomposition")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_chambers)

    p = sub.add_parser("matrix", help="hive system matrices E and B")
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("verify-k3", help="check the 18-cone table")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify_k3)

    p = sub.add_parser("generic", help="genericity and type signature")
    _add_triple(p)
    p.set_defaults(func=_cmd_generic)

    p = sub.add_parser("ktt", help="stretching conjecture report")
    _add_triple(p)
    _add_method(p, with_all=False)
    p.set_defaults(func=_cmd_ktt)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first run."""
    return build_parser()


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError: an unwritable -o path
        return _usage_error(str(exc))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
