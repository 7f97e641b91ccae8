"""Command-line entry point: verification pipelines, JSON I/O, benchmark.

All exact values serialize as decimal-free "p/q" strings.  The RNG seed
defaults to 0, can be set with --rng, and is overridden by the ZASTAVA_RNG
environment variable.  Exit status is 0 when no check failed, 1 when one
did, and 2 on bad input: flags that do not combine, or an error raised while
the input is read (reported as a JSON object with a "reason" on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import bench as bench_mod
from .cluster import initial_seed_sl2, log_canonicity_check, mutate
from .minors import crosscheck_three_routes
from .points import ZastavaPoint, coordinate_assignment, from_coords, recover_coords
from .poisson import BracketTable, jacobi_report, symplectic_check_trig, verify_descent
from .rational import parse_scalar
from .rootdata import datum
from .superpotential import SuperData, eval_gw, verify_gw_w
from .unipoly import UniPoly
from .verify import random_point_assignment, run_profile


@contextmanager
def _reading():
    """An error raised while user input is read ends the run with exit
    status 2 and one JSON object with its reason on stderr."""
    try:
        yield
    except (OSError, ValueError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        sys.stderr.write(json.dumps({"error": "bad input", "reason": reason}) + "\n")
        raise SystemExit(2) from None


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(data, path: str | None) -> None:
    text = json.dumps(_jsonable(data), indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _scalar_list(text: str) -> list[Fraction]:
    return [parse_scalar(t) for t in text.split(",") if t != ""]


# one term with an optional minus sign: "3", "-1/2", "z", "2*z^3", "-z^2"
_TERM = re.compile(r"(-?)(?:([0-9]+(?:/[0-9]+)?)(?:\*(?=z))?)?(z(?:\^([0-9]+))?)?")
_MAX_DEGREE = 10_000


def parse_poly(text: str) -> UniPoly:
    """Parse expressions like "z^2+1", "3z-1/2", "z^3-2*z" or the rendering
    "z^2 + -3*z + 1"; raises ValueError on anything else."""
    s = text.replace(" ", "")
    # split at each + or - that ends a term; a term may carry its own minus
    parts = re.split(r"(?<=[0-9z])([+-])", s[1:] if s.startswith("+") else s)
    coeffs: dict[int, Fraction] = {}
    for op, term in zip(["+"] + parts[1::2], parts[::2]):
        m = _TERM.fullmatch(term)
        if not m or not (m[2] or m[3]):
            raise ValueError(f"cannot parse term {term!r} of {text!r}")
        minus, cstr, zpart, power = m.groups()
        c = parse_scalar(cstr or "1")
        if (minus == "-") != (op == "-"):
            c = -c
        k = 0 if not zpart else (int(power) if power else 1)
        if k > _MAX_DEGREE:
            raise ValueError(f"degree {k} above {_MAX_DEGREE} in {text!r}")
        coeffs[k] = coeffs.get(k, Fraction(0)) + c
    deg = max(coeffs, default=0)
    return UniPoly([coeffs.get(k, Fraction(0)) for k in range(deg + 1)])


def _seed_from(args) -> int:
    env = os.environ.get("ZASTAVA_RNG")
    if env is not None:
        with _reading():
            return int(env)
    return args.rng


def _parse_sizes(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


# -- subcommands --------------------------------------------------------------


# verify profiles and poisson checks that take --trials; only the
# sl2hank profile takes --point
_TRIALS_PROFILES = ("sl2hank", "kronecker", "symplectic", "gw", "logcanon")
_TRIALS_CHECKS = ("symplectic",)


def _check_flags(parser: argparse.ArgumentParser, args) -> None:
    """Reject flags the chosen verify profile or poisson check would
    ignore, and a poisson check the chosen kind does not define (exit
    status 2)."""
    if args.command == "verify":
        what, name, takes_trials = "profile", args.profile, _TRIALS_PROFILES
        if args.point and name != "sl2hank":
            parser.error(f"--point applies only to profile 'sl2hank', not {name!r}")
    elif args.command == "poisson":
        what, name, takes_trials = "check", args.check, _TRIALS_CHECKS
        if name == "symplectic" and args.kind == "rational":
            parser.error("symplectic check is defined for the trigonometric kind")
    else:
        return
    if args.trials is not None and name not in takes_trials:
        parser.error(f"--trials does not apply to {what} {name!r}")


def cmd_verify(args) -> int:
    seed = _seed_from(args)
    kwargs = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.point:
        with _reading():
            kwargs["points"] = [ZastavaPoint.load(args.point)]
    rep = run_profile(args.profile, seed, **kwargs)
    _emit(rep.to_json(include_timing=not args.no_timing), args.output)
    return 0 if rep.ok else 1


def cmd_minors(args) -> int:
    with _reading():
        pt = ZastavaPoint.load(args.point)
    res = crosscheck_three_routes(pt)
    _emit(res, args.report)
    return 0 if res["agree"] else 1


def cmd_poisson(args) -> int:
    kind = {"trig": "trigonometric", "rational": "rational"}.get(args.kind, args.kind)
    with _reading():
        dat = datum(args.type)
        degrees = tuple(int(t) for t in args.degrees.split(","))
        table = BracketTable(dat, degrees, kind)
    if args.check == "jacobi":
        res = jacobi_report(table)
    elif args.check == "descent":
        res = verify_descent(dat, degrees, kind)
    else:  # symplectic
        rng = random.Random(_seed_from(args))
        res = {"ok": True, "points": []}
        for _ in range(args.trials or 5):
            pt = random_point_assignment(degrees, rng)
            one = symplectic_check_trig(dat, degrees, pt)
            res["points"].append({"point": pt, "ok": one["ok"]})
            res["ok"] &= one["ok"]
    _emit(res, args.output)
    return 0 if res["ok"] else 1


def cmd_cluster(args) -> int:
    with _reading():
        pt = recover_coords(ZastavaPoint.load(args.point)) if args.point else None
        seed = initial_seed_sl2(pt, args.a)
        trace = {
            "a": args.a,
            "labels": list(seed.labels),
            "exchangeable": list(seed.exchangeable),
            "frozen": list(seed.frozen),
            "matrix": [list(row) for row in seed.matrix.data],
            "mutations": [],
        }
        current = seed
        if args.mutations:
            for k in (int(t) for t in args.mutations.split(",")):
                current = mutate(current, k)
                trace["mutations"].append(
                    {"at": k, "matrix": [list(row) for row in current.matrix.data]}
                )
    ok = True
    if args.check == "log-canonical":
        table = BracketTable(datum("A1"), (args.a,), "trigonometric")
        rng = random.Random(_seed_from(args))
        res = log_canonicity_check(current, table, trials=args.trials or 5, rng=rng)
        trace["log_canonical"] = {
            "ok": res["ok"],
            "pairs": [
                {"pair": list(p["pair"]), "values": p["values"], "constant": p["constant"]}
                for p in res["pairs"]
            ],
        }
        ok = res["ok"]
    if pt is not None:
        assign = coordinate_assignment(pt)
        trace["values_at_point"] = {
            lab: x.value for lab, x in zip(current.labels, current.jets(assign, ()))
        }
    _emit(trace, args.output)
    return 0 if ok else 1


def cmd_super(args) -> int:
    with _reading():
        pt = ZastavaPoint.load(args.point)
        data = SuperData(tuple(parse_poly(t) for t in args.K.split(";")))
    val = eval_gw(pt, data)
    out = {
        "exact_part": val.exact_part,
        "boundary": val.boundary,
        "log_terms": [list(t) for t in val.log_terms],
    }
    ok = True
    if args.verify:
        res = verify_gw_w(pt, data)
        out["identity"] = {"ok": res["ok"], "lhs": res["lhs"], "rhs": res["rhs"]}
        ok = res["ok"]
    _emit(out, args.output)
    return 0 if ok else 1


def cmd_bench(args) -> int:
    with _reading():
        sizes = _parse_sizes(args.sizes)
        strategies = tuple(args.strategies.split(","))
        for s in strategies:
            if s not in bench_mod.STRATEGIES:
                raise ValueError(
                    f"unknown determinant strategy {s!r}; "
                    f"choose from {', '.join(bench_mod.STRATEGIES)}"
                )
    pre = bench_mod.preflight(seed=_seed_from(args))
    if not pre["ok"]:
        sys.stderr.write(f"preflight failed: {json.dumps(_jsonable(pre))}\n")
        return 1
    rows = bench_mod.bench(
        args.family,
        sizes,
        strategies=strategies,
        seed=_seed_from(args),
        repeats=args.repeats,
    )
    text = bench_mod.format_csv(rows)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_point(args) -> int:
    if args.validate:
        with _reading():
            pt = ZastavaPoint.load(args.validate)
        _emit({"ok": True, "tier": pt.tier.value, "point": pt.to_json()}, args.output)
        return 0
    with _reading():
        if args.w is None or args.y is None:
            raise ValueError("--w and --y are required without --validate")
        dat = datum(args.type)
        w = [_scalar_list(t) for t in args.w.split(";")]
        y = [_scalar_list(t) for t in args.y.split(";")]
        pt = from_coords(dat, w, y, require_trigonometric=args.trigonometric)
    if args.out:
        pt.save(args.out)
    _emit(pt.to_json(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zastava",
        description="Exact verification toolkit for rank-one and small-rank "
        "trigonometric zastava: minors, brackets, clusters, superpotential.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--rng", type=int, default=0,
                        help="RNG seed (default 0; env ZASTAVA_RNG overrides)")
        sp.add_argument("--output", help="write JSON/CSV here instead of stdout")

    sp = sub.add_parser("verify", help="run a named verification profile")
    sp.add_argument("--profile", required=True,
                    choices=["sl2hank", "kronecker", "jacobi", "descent",
                             "symplectic", "gw", "logcanon", "all"])
    sp.add_argument("--trials", type=int)
    sp.add_argument("--point", help="extra point file for sl2hank")
    sp.add_argument("--no-timing", action="store_true",
                    help="omit timing fields (byte-deterministic output)")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("minors", help="three-route minor table for a point")
    sp.add_argument("--point", required=True)
    sp.add_argument("--report", help="write the JSON table here")
    common(sp)
    sp.set_defaults(fn=cmd_minors)

    sp = sub.add_parser("poisson", help="bracket checks for one configuration")
    sp.add_argument("--kind", required=True, choices=["trig", "trigonometric", "rational"])
    sp.add_argument("--type", required=True, help="root datum tag, e.g. A2")
    sp.add_argument("--degrees", required=True, help="comma list, e.g. 1,1")
    sp.add_argument("--check", required=True, choices=["jacobi", "descent", "symplectic"])
    sp.add_argument("--trials", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_poisson)

    sp = sub.add_parser("cluster", help="rank-one seed construction and mutation")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--point", help="point file for value reporting")
    sp.add_argument("--mutations", help="comma list of positions, e.g. 1,2,1")
    sp.add_argument("--check", choices=["log-canonical"])
    sp.add_argument("--trials", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_cluster)

    sp = sub.add_parser("super", help="superpotential evaluation at a point")
    sp.add_argument("--point", required=True)
    sp.add_argument("--K", required=True, help='monic polynomial(s), ";"-separated, e.g. "z^2+1"')
    sp.add_argument("--verify", action="store_true",
                    help="also check the series-coefficient identity")
    common(sp)
    sp.set_defaults(fn=cmd_super)

    sp = sub.add_parser("bench", help="determinant strategy benchmark (CSV)")
    sp.add_argument("--family", required=True, choices=["hankel", "sylvester"])
    sp.add_argument("--sizes", required=True, help='e.g. "2..10" or "2,4,8"')
    sp.add_argument("--strategies", default=",".join(bench_mod.STRATEGIES))
    sp.add_argument("--repeats", type=int, default=5)
    common(sp)
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("point", help="construct or validate point files")
    sp.add_argument("--type", default="A1")
    sp.add_argument("--w", help='roots per color, e.g. "1,3" or "2;5"')
    sp.add_argument("--y", help="values per color, same shape as --w")
    sp.add_argument("--out", help="write the point JSON here")
    sp.add_argument("--trigonometric", action="store_true")
    sp.add_argument("--validate", help="validate an existing point file")
    common(sp)
    sp.set_defaults(fn=cmd_point)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_flags(parser, args)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
