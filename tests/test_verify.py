"""The verify runner: the recorded report of every profile, and the exact
witness a failing check leaves behind."""

import json
from fractions import Fraction
from pathlib import Path

from zastava import verify
from zastava.cli import main
from zastava.verify import run_profile

DATA = Path(__file__).parent / "data"


def _checks(rep) -> list:
    # a witness holds tuples until it is written out: compare its JSON form
    return json.loads(json.dumps(rep.to_json(include_timing=False)))["checks"]


def _fail_on_second_call(monkeypatch, name, failing, passing=None):
    """Replace ``verify.<name>``: its second call returns ``failing(*args)``,
    every other call ``passing`` or, without it, the real result.  The
    positional arguments of every call are kept in the returned list."""
    original = getattr(verify, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            return failing(*args, **kwargs)
        return passing if passing is not None else original(*args, **kwargs)

    monkeypatch.setattr(verify, name, patched)
    return calls


def _count_draws(monkeypatch, name):
    """Spy on the sampler ``verify.<name>``; returns the drawn values."""
    original = getattr(verify, name)
    drawn = []

    def spy(*args):
        drawn.append(original(*args))
        return drawn[-1]

    monkeypatch.setattr(verify, name, spy)
    return drawn


def _only_first_fails(checks, identifier, witness, draws, trials):
    """The first check failed with ``witness`` at its second input, the
    draws of that check stopped there, and every later check passed."""
    first, *rest = checks
    assert first == {"id": identifier, "status": "fail", "witness": witness}
    assert all(c["status"] == "pass" for c in rest)
    assert len(draws) == 2 + trials * len(rest)


def test_verify_all_matches_recorded_report():
    recorded = json.loads((DATA / "verify_all_rng0.json").read_text())
    assert json.loads(json.dumps(run_profile("all", 0).to_json(include_timing=False))) == recorded


_RECORDS = [{"family": "C", "index": 1, "hankel": Fraction(1, 2), "wedge": 3}]


def test_sl2hank_witness_is_the_failing_point(monkeypatch):
    points = _count_draws(monkeypatch, "random_sl2_point")
    calls = _fail_on_second_call(monkeypatch, "crosscheck_three_routes",
                                 lambda pt: {"agree": False, "records": _RECORDS})
    checks = _checks(run_profile("sl2hank", 0, trials=3))
    assert calls[0] == (points[0],) and calls[1] == (points[1],)
    witness = {"point": points[1].to_json(),
               "records": [{"family": "C", "index": 1, "hankel": "1/2", "wedge": 3}]}
    _only_first_fails(checks, "three-route-a1-x3", witness, points, 3)


def test_sl2hank_point_file_witness(tmp_path, monkeypatch, capsys):
    pfile = str(tmp_path / "pt.json")
    main(["point", "--w", "1,3", "--y", "2,4", "--out", pfile])
    capsys.readouterr()
    monkeypatch.setattr(verify, "crosscheck_three_routes",
                        lambda pt: {"agree": False, "records": _RECORDS})
    code = main(["verify", "--profile", "sl2hank", "--trials", "1", "--point", pfile,
                 "--no-timing"])
    assert code == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[-1] == {
        "id": "three-route-point-0",
        "status": "fail",
        "witness": {"records": [{"family": "C", "index": 1, "hankel": "1/2", "wedge": 3}]},
    }


def test_symplectic_witness_is_the_failing_point(monkeypatch):
    points = _count_draws(monkeypatch, "sample_chart_point")
    calls = _fail_on_second_call(monkeypatch, "symplectic_check_trig",
                                 lambda dat, degs, pt: {"ok": False})
    checks = _checks(run_profile("symplectic", 0, trials=2))
    assert calls[1][2] is points[1]
    witness = {"point": {k: str(v) for k, v in points[1].items()}}
    _only_first_fails(checks, "symplectic-A1-1-x2", witness, points, 2)


def test_gw_witness_is_the_failing_point(monkeypatch):
    points = _count_draws(monkeypatch, "random_sl2_point")
    calls = _fail_on_second_call(
        monkeypatch, "verify_gw_w",
        lambda pt, data: {"ok": False, "lhs": Fraction(1, 2), "rhs": Fraction(-3)},
    )
    checks = _checks(run_profile("gw", 0, trials=2))
    pt, data = calls[1]
    assert pt is points[1]
    witness = {"point": pt.to_json(), "K": data.K[0].to_json(), "lhs": "1/2", "rhs": "-3"}
    _only_first_fails(checks, "gw-eq-w-a1-x2", witness, points, 2)


def test_jacobi_witness_lists_the_failures(monkeypatch):
    calls = _fail_on_second_call(
        monkeypatch, "jacobi_report",
        lambda table: {"ok": False, "checked": 1, "failures": [("w1_1", "w1_2", "y1_1")]},
    )
    checks = _checks(run_profile("jacobi", 0))
    assert (calls[1][0].degrees, calls[1][0].kind) == ((1,), "trigonometric")
    assert checks[1] == {"id": "jacobi-A1-1-trigonometric", "status": "fail",
                         "witness": [["w1_1", "w1_2", "y1_1"]]}
    assert all(c["status"] == "pass" for c in checks[:1] + checks[2:])


def test_descent_witness_is_the_checks_dict(monkeypatch):
    by_name = {"QR": True, "RRx": False}
    calls = _fail_on_second_call(monkeypatch, "verify_descent",
                                 lambda dat, degs, kind: {"ok": False, "checks": by_name},
                                 passing={"ok": True, "checks": {}})
    checks = _checks(run_profile("descent", 0))
    assert [args[1:] for args in calls[:2]] == [((1,), "rational"), ((1,), "trigonometric")]
    assert checks[1] == {"id": "descent-A1-1-trigonometric", "status": "fail",
                         "witness": by_name}
    assert all(c["status"] == "pass" for c in checks[:1] + checks[2:])


def test_logcanon_witness_lists_the_varying_pairs(monkeypatch):
    pairs = [
        {"pair": ("D_1", "C_1"), "values": [1], "constant": True},
        {"pair": ("D_1", "D_2"), "values": [1, 2], "constant": False},
    ]
    calls = _fail_on_second_call(monkeypatch, "log_canonicity_check",
                                 lambda seed, table, **kw: {"ok": False, "pairs": pairs},
                                 passing={"ok": True, "pairs": []})
    checks = _checks(run_profile("logcanon", 0, trials=1))
    assert [table.degrees for _, table in calls] == [(2,), (3,), (4,), (5,), (6,)]
    assert checks[1] == {"id": "log-canonical-a3-x1", "status": "fail",
                         "witness": [["D_1", "D_2"]]}
    assert all(c["status"] == "pass" for c in checks[:1] + checks[2:])
