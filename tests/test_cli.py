import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from zastava.cli import main, parse_poly
from zastava.unipoly import UniPoly
from zastava.verify import random_point_assignment, run_profile


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_parse_poly():
    assert parse_poly("z^2+1") == UniPoly([1, 0, 1])
    assert parse_poly("3z-1/2") == UniPoly(["-1/2", 3])
    assert parse_poly("z^3-2*z") == UniPoly([0, -2, 0, 1])
    assert parse_poly("-z+z") == UniPoly.zero()
    assert parse_poly("7") == UniPoly([7])
    with pytest.raises(ValueError):
        parse_poly("z**2")
    with pytest.raises(ValueError):
        parse_poly("q+1")


@pytest.mark.parametrize("text", ["z^2+", "z^2++1", "+", "", "1/0"])
def test_parse_poly_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_poly(text)


@given(st.lists(st.fractions(max_denominator=50), max_size=6))
def test_parse_poly_reads_its_rendering(coeffs):
    p = UniPoly(coeffs)
    assert parse_poly(str(p)) == p


@settings(max_examples=300)
@given(st.text(alphabet="z^+-*/0123456789 ", max_size=20))
def test_parse_poly_round_trips_or_rejects(text):
    try:
        p = parse_poly(text)
    except ValueError:
        return
    assert parse_poly(str(p)) == p


def test_run_profile_smoke():
    rep = run_profile("jacobi", seed=0)
    assert rep.ok and rep.suite == "jacobi"
    data = rep.to_json(include_timing=False)
    assert data["ok"] and data["rng_seed"] == 0
    assert all("elapsed_s" not in c for c in data["checks"])


def test_run_profile_deterministic():
    a = run_profile("sl2hank", seed=3, trials=3).to_json(include_timing=False)
    b = run_profile("sl2hank", seed=3, trials=3).to_json(include_timing=False)
    assert json.dumps(a) == json.dumps(b)
    c = run_profile("sl2hank", seed=4, trials=3).to_json(include_timing=False)
    assert c["rng_seed"] == 4


def test_verify_command(capsys):
    code, out = _run(
        ["verify", "--profile", "jacobi", "--no-timing", "--rng", "1"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["suite"] == "jacobi"


def test_verify_deterministic_bytes(capsys, monkeypatch):
    monkeypatch.delenv("ZASTAVA_RNG", raising=False)
    argv = ["verify", "--profile", "sl2hank", "--trials", "3", "--no-timing", "--rng", "5"]
    _, out1 = _run(argv, capsys)
    _, out2 = _run(argv, capsys)
    assert out1 == out2


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("ZASTAVA_RNG", "9")
    code, out = _run(
        ["verify", "--profile", "jacobi", "--no-timing", "--rng", "1"], capsys
    )
    assert json.loads(out)["rng_seed"] == 9


def test_point_roundtrip_and_minors(tmp_path, capsys):
    pfile = str(tmp_path / "pt.json")
    code, out = _run(
        ["point", "--type", "A1", "--w", "1,3", "--y", "2,4", "--out", pfile], capsys
    )
    assert code == 0
    assert json.loads(out)["degrees"] == [2]

    code, out = _run(["point", "--validate", pfile], capsys)
    assert code == 0
    assert json.loads(out)["tier"] == "trigonometric"

    code, out = _run(["minors", "--point", pfile], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["agree"]
    byidx = {(r["family"], r["index"]): r["hankel"] for r in data["records"]}
    assert byidx[("C", 2)] == "-8" and byidx[("D", 1)] == "5"


def test_corrupted_point_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"degrees": [1]}')
    with pytest.raises(SystemExit) as exc:
        main(["point", "--validate", str(bad)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "type" in json.loads(captured.err)["reason"]


_POINT_DOCS = {
    "bad-scalar": {"type": "A1", "Q": [["3", "-4", "1"]], "R": ["x"]},
    "no-type": {"Q": [["3", "-4", "1"]], "R": [["1", "1"]]},
    "wide": {"type": "A1", "Q": [[str(2**60 + 3), "0", "1"]], "R": [["1"]]},
}


@pytest.mark.parametrize("argv", [
    ["point", "--type", "A9x", "--w", "1", "--y", "2"],
    ["minors", "--point", "bad-scalar.json"],
    ["minors", "--point", "no-type.json"],
    ["minors", "--point", "missing.json"],
    ["poisson", "--kind", "trig", "--type", "A2", "--degrees", "1", "--check", "jacobi"],
    ["cluster", "--a", "0"],
    ["cluster", "--a", "2", "--point", "wide.json"],
    ["bench", "--family", "hankel", "--sizes", "2", "--strategies", "bareiss,foo"],
], ids=["type-tag", "bad-scalar", "no-type", "missing-file", "degree-count", "cluster-a0",
        "root-search-bound", "bench-strategy"])
def test_bad_input_reports_json_with_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, doc in _POINT_DOCS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["reason"]


def test_poisson_command(capsys):
    code, out = _run(
        ["poisson", "--kind", "trig", "--type", "A1", "--degrees", "1",
         "--check", "descent"], capsys
    )
    assert code == 0 and json.loads(out)["ok"]

    code, out = _run(
        ["poisson", "--kind", "trig", "--type", "A2", "--degrees", "1,1",
         "--check", "symplectic", "--trials", "2"], capsys
    )
    assert code == 0 and json.loads(out)["ok"]


def test_cluster_command(tmp_path, capsys):
    pfile = str(tmp_path / "pt.json")
    main(["point", "--w", "1,3", "--y", "2,4", "--out", pfile])
    capsys.readouterr()
    code, out = _run(
        ["cluster", "--a", "2", "--point", pfile, "--mutations", "2"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == ["D_1", "C_1", "D_2", "C_2"]
    assert data["values_at_point"]["mu_2(C_1)"] == "376"

    # the log-canonicity check applies to the seed as built; the initial
    # seed passes, the mutated one does not (the bracket is not
    # mutation-compatible)
    code, out = _run(
        ["cluster", "--a", "2", "--check", "log-canonical", "--trials", "3"],
        capsys,
    )
    assert code == 0 and json.loads(out)["log_canonical"]["ok"]
    code, out = _run(
        ["cluster", "--a", "2", "--mutations", "2", "--check", "log-canonical",
         "--trials", "3"], capsys
    )
    assert code == 1 and not json.loads(out)["log_canonical"]["ok"]


def test_cluster_log_canonical_beyond_symbolic_cap(capsys):
    code, out = _run(
        ["cluster", "--a", "7", "--check", "log-canonical", "--trials", "3"], capsys
    )
    data = json.loads(out)
    assert code == 0 and data["log_canonical"]["ok"]
    assert data["labels"][-2:] == ["D_7", "C_7"]


@pytest.mark.parametrize("argv, flag", [
    (["--profile", "jacobi", "--trials", "3"], "--trials"),
    (["--profile", "gw", "--point", "pt.json"], "--point"),
])
def test_verify_rejects_ignored_flags(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["--kind", "rational", "--check", "symplectic"], "trigonometric"),
    (["--kind", "trig", "--check", "jacobi", "--trials", "3"], "--trials"),
    (["--kind", "trig", "--check", "descent", "--trials", "3"], "--trials"),
])
def test_poisson_rejects_bad_flags(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poisson", "--type", "A1", "--degrees", "1", *argv])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_point_assignment_sampler_exhaustion():
    # 41 roots cannot be distinct: the sampler draws from 40 nonzero w values
    with pytest.raises(RuntimeError, match="sampling exhaustion"):
        random_point_assignment((41,), random.Random(0))


def test_super_command(tmp_path, capsys):
    pfile = str(tmp_path / "pt.json")
    main(["point", "--w", "1,3", "--y", "2,4", "--out", pfile])
    capsys.readouterr()
    code, out = _run(
        ["super", "--point", pfile, "--K", "z^2+z+1", "--verify"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["exact_part"] == "23" and data["boundary"] == "-8"
    assert data["identity"]["ok"]


def test_cluster_point_without_coordinates(tmp_path, capsys):
    # a point file with Q and R only: the chart comes from the roots of Q
    bare, full = tmp_path / "bare.json", tmp_path / "full.json"
    bare.write_text(json.dumps({"type": "A1", "Q": [["3", "-4", "1"]], "R": [["1", "1"]]}))
    main(["point", "--w", "1,3", "--y", "2,4", "--out", str(full)])
    capsys.readouterr()
    runs = [_run(["cluster", "--a", "2", "--point", str(f), "--mutations", "2"], capsys)
            for f in (bare, full)]
    assert runs[0][0] == 0 and runs[0] == runs[1]


def test_bench_command(capsys):
    code, out = _run(
        ["bench", "--family", "hankel", "--sizes", "2,3", "--repeats", "1"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "strategy,family,size,bit_length,median_ns"
    assert len(lines) > 1
    for line in lines[1:]:
        strat, fam, size, bits, med = line.split(",")
        assert fam == "hankel" and int(size) in (2, 3)
        assert int(bits) >= 0 and int(med) > 0


def test_output_file(tmp_path, capsys):
    outfile = tmp_path / "rep.json"
    code = main(["verify", "--profile", "jacobi", "--no-timing",
                 "--output", str(outfile)])
    assert code == 0
    assert json.loads(outfile.read_text())["ok"]
