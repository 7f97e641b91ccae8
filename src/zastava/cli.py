"""Command-line entry point: verification pipelines, JSON I/O, benchmark.

All exact values serialize as decimal-free "p/q" strings.  The RNG seed
defaults to 0, can be set with --rng, and is overridden by the ZASTAVA_RNG
environment variable.  Exit status is 0 when no check failed, 1 when one
did, and 2 on bad input: flags that do not combine, a size past a cap, or an
error raised while the input is read, each reported as a JSON object with a
"reason" on stderr.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import random
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import bench as bench_mod
from .cluster import initial_seed_sl2, log_canonicity_check, mutate, sample_chart_point
from .minors import _point_qr, crosscheck_three_routes
from .points import ZastavaPoint, coordinate_assignment, from_coords, recover_coords
from .poisson import BracketTable, jacobi_report, symplectic_check_trig, verify_descent
from .rational import parse_scalar
from .rootdata import datum
from .superpotential import SuperData, eval_gw, verify_gw_w
from .unipoly import UniPoly
from .verify import _PROFILES, run_profile


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
    # an exact value may have more digits than int -> str converts by
    # default (4300); the size caps on the input bound them instead
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(_jsonable(data), indent=2) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
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


# largest matrix `bench` runs the memoized cofactor strategy on: with
# --repeats 1 (Python 3.11, 2 vCPUs), 13 x 13 (hankel 13, sylvester 7) took
# 0.5 s and 21 MB peak, 15 x 15 (sylvester 8) 2.2 s and 31 MB; each added
# dimension about doubles the time
_COFACTOR_MAX_DIM = 13


def _parse_sizes(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


# -- subcommands --------------------------------------------------------------


# longest --mutations list `cluster` takes.  At --a 2, alternating 1,2
# (Python 3.11, 2 vCPUs), 1000 mutations took 4.7 s with --check
# log-canonical --trials 1 (2000: 26 s), and 0.35 s with --point at w = 1,3,
# y = 2,4 (11 s at w = 1/7,3, y = 1000003,-999); each exchange adds bits to
# the values, so the cost grows faster than the length and with the point
_MAX_MUTATIONS = 1000
# largest --a that `cluster --check log-canonical` takes (Python 3.11, 2
# vCPUs): one trial took 7.0-7.7 s and 30 MB at a = 24 (0.56-0.61 s and
# 21 MB at a = 16, 1.7-2.0 s and 25 MB at a = 20), nearly all of it in the
# Bareiss passes of the seed jets (the series coefficients take 9 ms at a = 24)
_LOGCANON_MAX_A = 24
# largest --a that `cluster` takes at all.  The trace prints the 2a x (2a - 2)
# matrix once for the seed and once per mutation, about 105 bytes of peak
# memory per entry (Python 3.11, 2 vCPUs): with the longest --mutations list,
# alternating 1,2, a = 25 took 3.2-4.4 s and 266 MB (a = 32: 4.8 s and 422 MB,
# a = 50: 12 s and 1.0 GB); with a --point at w = 1..25 as well, 33 s and
# 266 MB, nearly all of it in the exchanges of the growing values.  The
# seed alone is cheap (a = 500: 1.3 s and 118 MB), but takes the same cap
_CLUSTER_MAX_A = 25

# largest --trials each command takes, for runs of at most about three
# minutes at the largest size the command allows (Python 3.11, 2 vCPUs):
# `verify --profile logcanon --trials 5000` took 89 s and 39 MB peak,
# `poisson --type A25 --degrees 2,...,2 --check symplectic --trials 500`
# 74 s and 37 MB, `cluster --a 24 --check log-canonical --trials 10` 92 s
# and 34 MB
_MAX_TRIALS = {"verify": 5000, "poisson": 500, "cluster": 10}

# largest chart `poisson --check jacobi` takes, by its degree sum (Python
# 3.11, 2 vCPUs): A2 degrees 30,30, the densest chart at that sum, took
# 3.8-4.8 s and 24 MB peak (40,40: 9.5 s and 29 MB)
_JACOBI_MAX_DEGREE_SUM = 60
# largest chart `poisson --check descent` takes (Python 3.11, 2 vCPUs, both
# kinds in one process): the cost grows with the 2^a terms of Q_i, A1
# degree 14 taking 1.0-1.5 s and 62 MB; at the caps, A3 degrees 14,14,4
# took 3.3-5.1 s and 129 MB peak (15,15,2: 6.3-11.3 s and 251 MB), and
# three colors of degree 14 (sum 42) 8.5-9.8 s and 192 MB, at the bound
# of about 10 s and 200 MB; many small colors are cheap in memory (A32
# degrees 6,...,6: 23-32 s and 30 MB)
_DESCENT_MAX_DEGREE = 14
_DESCENT_MAX_DEGREE_SUM = 32

# poisson checks that take --trials
_TRIALS_CHECKS = ("symplectic",)


def _check_flags(args) -> None:
    """Raise ValueError on flags the chosen verify profile or poisson check
    would ignore (a profile takes --trials and --point when its function has
    ``trials`` and ``points`` parameters; cluster takes --trials with
    --check log-canonical), on a poisson check the chosen kind does not
    define, and on --trials outside 1.._MAX_TRIALS."""
    takes_trials = True
    if args.command == "verify":
        what, name = "profile", args.profile
        params = inspect.signature(_PROFILES[name]).parameters if name in _PROFILES else {}
        takes_trials = "trials" in params
        if args.point and "points" not in params:
            raise ValueError(f"--point does not apply to profile {name!r}")
    elif args.command == "poisson":
        what, name, takes_trials = "check", args.check, args.check in _TRIALS_CHECKS
        if name == "symplectic" and args.kind == "rational":
            raise ValueError("symplectic check is defined for the trigonometric kind")
    elif args.command == "cluster" and args.trials is not None and args.check != "log-canonical":
        raise ValueError("--trials applies to cluster only with --check log-canonical")
    trials = getattr(args, "trials", None)
    if trials is None:
        return
    if not takes_trials:
        raise ValueError(f"--trials does not apply to {what} {name!r}")
    if trials < 1:  # a run of no trials would pass having checked nothing
        raise ValueError(f"--trials must be at least 1, not {trials}")
    if trials > _MAX_TRIALS[args.command]:
        raise ValueError(f"{args.command} takes --trials up to "
                         f"{_MAX_TRIALS[args.command]}, not {trials}")


def _load_rank_one(path: str) -> ZastavaPoint:
    """A point file for the three minor routes, which are stated for rank
    one; raises ValueError on a point of higher rank."""
    pt = ZastavaPoint.load(path)
    _point_qr(pt)
    return pt


def cmd_verify(args) -> int:
    seed = _seed_from(args)
    kwargs = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.point:
        with _reading():
            kwargs["points"] = [_load_rank_one(args.point)]
    rep = run_profile(args.profile, seed, **kwargs)
    _emit(rep.to_json(include_timing=not args.no_timing), args.output)
    return 0 if rep.ok else 1


def cmd_minors(args) -> int:
    with _reading():
        pt = _load_rank_one(args.point)
    res = crosscheck_three_routes(pt)
    _emit(res, args.output)
    return 0 if res["agree"] else 1


def cmd_poisson(args) -> int:
    kind = {"trig": "trigonometric", "rational": "rational"}.get(args.kind, args.kind)
    with _reading():
        dat = datum(args.type)
        degrees = tuple(int(t) for t in args.degrees.split(","))
        if args.check == "jacobi" and sum(degrees) > _JACOBI_MAX_DEGREE_SUM:
            raise ValueError(f"--check jacobi takes a degree sum up to "
                             f"{_JACOBI_MAX_DEGREE_SUM}, not {sum(degrees)}")
        if args.check == "descent" and (max(degrees) > _DESCENT_MAX_DEGREE
                                        or sum(degrees) > _DESCENT_MAX_DEGREE_SUM):
            raise ValueError(f"--check descent takes degrees up to {_DESCENT_MAX_DEGREE} "
                             f"summing to at most {_DESCENT_MAX_DEGREE_SUM}, not {args.degrees}")
        table = BracketTable(dat, degrees, kind)
    if args.check == "jacobi":
        res = jacobi_report(table)
    elif args.check == "descent":
        res = verify_descent(dat, degrees, kind)
    else:  # symplectic
        rng = random.Random(_seed_from(args))
        res = {"ok": True, "points": []}
        for _ in range(args.trials or 5):
            with _reading():  # a degree sum past the values the sampler draws from
                pt = sample_chart_point(degrees, rng)
            one = symplectic_check_trig(dat, degrees, pt)
            res["points"].append({"point": pt, "ok": one["ok"]})
            res["ok"] &= one["ok"]
    _emit(res, args.output)
    return 0 if res["ok"] else 1


def cmd_cluster(args) -> int:
    with _reading():
        steps = [int(t) for t in args.mutations.split(",")] if args.mutations else []
        if len(steps) > _MAX_MUTATIONS:
            raise ValueError(f"--mutations lists {len(steps)} positions, above the "
                             f"{_MAX_MUTATIONS} that cluster takes")
        if args.check == "log-canonical" and args.a > _LOGCANON_MAX_A:
            raise ValueError(f"--check log-canonical takes --a up to {_LOGCANON_MAX_A}, "
                             f"not {args.a}")
        if args.a > _CLUSTER_MAX_A:
            raise ValueError(f"cluster takes --a up to {_CLUSTER_MAX_A}, not {args.a}")
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
        for k in steps:
            current = mutate(current, k)
            trace["mutations"].append(
                {"at": k, "matrix": [list(row) for row in current.matrix.data]}
            )
        if pt is not None:
            try:
                values = current.jets(coordinate_assignment(pt), ())
            except ZeroDivisionError:
                raise ValueError("a mutated variable is undefined at the point: an exchange "
                                 "divides by a variable that is 0 there") from None
    ok = True
    if args.check == "log-canonical":
        table = BracketTable(datum("A1"), (args.a,), "trigonometric")
        rng = random.Random(_seed_from(args))
        with _reading():  # a degree sum past the sampler's values, or a seed no point suits
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
        trace["values_at_point"] = {lab: x.value for lab, x in zip(current.labels, values)}
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
        if not sizes or min(sizes) < 1:  # no instance below size 1; an empty list measures nothing
            raise ValueError(f"--sizes must name sizes of at least 1, not {args.sizes!r}")
        if args.repeats < 1:  # the median of no samples is undefined
            raise ValueError(f"--repeats must be at least 1, not {args.repeats}")
        strategies = tuple(args.strategies.split(","))
        for s in strategies:
            if s not in bench_mod.STRATEGIES:
                raise ValueError(
                    f"unknown determinant strategy {s!r}; "
                    f"choose from {', '.join(bench_mod.STRATEGIES)}"
                )
        # a sylvester matrix of size a is (2a-1) x (2a-1)
        top = 2 * max(sizes) - 1 if args.family == "sylvester" else max(sizes)
        if "cofactor" in strategies and top > _COFACTOR_MAX_DIM:
            raise ValueError(
                f"the cofactor strategy runs on at most {_COFACTOR_MAX_DIM} x "
                f"{_COFACTOR_MAX_DIM} matrices; {args.family} size {max(sizes)} is {top} x {top}"
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

    def common(sp, *output_aliases):
        sp.add_argument("--rng", type=int, default=0,
                        help="RNG seed (default 0; env ZASTAVA_RNG overrides)")
        sp.add_argument("--output", *output_aliases, help="write JSON/CSV here instead of stdout")

    sp = sub.add_parser("verify", help="run a named verification profile")
    sp.add_argument("--profile", required=True,
                    choices=[*_PROFILES, "all"])
    sp.add_argument("--trials", type=int)
    sp.add_argument("--point", help="extra point file, for a profile that takes one (sl2hank)")
    sp.add_argument("--no-timing", action="store_true",
                    help="omit timing fields (byte-deterministic output)")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("minors", help="three-route minor table for a point")
    sp.add_argument("--point", required=True)
    common(sp, "--report")
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
    args = build_parser().parse_args(argv)
    with _reading():
        _check_flags(args)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
