import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from zastava import cli
from zastava.cli import main, parse_poly
from zastava.unipoly import UniPoly
from zastava.cluster import sample_chart_point
from zastava.verify import run_profile


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def _refused(argv, capsys) -> str:
    """The JSON reason of a run refused with exit status 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    return json.loads(line)["reason"]


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


@pytest.mark.parametrize("flag", ["--output", "--report"])
def test_minors_writes_its_output_file(flag, tmp_path, capsys):
    pfile, outfile = str(tmp_path / "pt.json"), tmp_path / "minors.json"
    main(["point", "--w", "1,3", "--y", "2,4", "--out", pfile])
    capsys.readouterr()
    code, out = _run(["minors", "--point", pfile, flag, str(outfile)], capsys)
    assert code == 0 and out == ""
    assert json.loads(outfile.read_text())["agree"]


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
    # a coefficient list given as a string or an object
    "string-coeffs": {"type": "A1", "Q": ["31"], "R": [["2"]]},
    "object-coeffs": {"type": "A1", "Q": [{"-1": 0, "1": 0}], "R": [[]]},
    # a well-formed point of rank two, for the rank-one minor routes
    "rank-two": {"type": "A2", "Q": [["-1", "1"], ["-2", "1"]], "R": [["3"], ["4"]]},
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
    ["point", "--validate", "string-coeffs.json"],
    ["point", "--validate", "object-coeffs.json"],
    ["poisson", "--kind", "trig", "--type", "A1", "--degrees", "51", "--check", "symplectic"],
    ["verify", "--profile", "sl2hank", "--trials", "-1"],
    ["poisson", "--kind", "trig", "--type", "A1", "--degrees", "-1", "--check", "jacobi"],
    ["cluster", "--a", "51", "--check", "log-canonical"],
    ["poisson", "--kind", "trig", "--type", "A1", "--degrees", "0", "--check", "jacobi"],
    ["poisson", "--kind", "trig", "--type", "A1", "--degrees", "0", "--check", "descent"],
    ["poisson", "--kind", "trig", "--type", "A1", "--degrees", "0", "--check", "symplectic"],
    ["poisson", "--kind", "trig", "--type", "A2", "--degrees", "0,0", "--check", "jacobi"],
    ["minors", "--point", "rank-two.json"],
    ["verify", "--profile", "sl2hank", "--point", "rank-two.json"],
    ["bench", "--family", "sylvester", "--sizes", "2", "--repeats", "0"],
    ["bench", "--family", "sylvester", "--sizes", "2", "--repeats", "-3"],
    ["bench", "--family", "sylvester", "--sizes", "0"],
    ["bench", "--family", "hankel", "--sizes", "-1"],
    ["bench", "--family", "hankel", "--sizes", "10..2"],
    ["bench", "--family", "sylvester", "--sizes", "8"],
    ["bench", "--family", "hankel", "--sizes", "2..14", "--strategies", "bareiss,cofactor"],
    ["verify", "--profile", "jacobi", "--trials", "3"],
    ["verify", "--profile", "gw", "--point", "pt.json"],
    ["poisson", "--kind", "rational", "--type", "A1", "--degrees", "1", "--check", "symplectic"],
    ["poisson", "--kind", "trig", "--type", "A1", "--degrees", "1", "--check", "jacobi",
     "--trials", "3"],
    ["poisson", "--kind", "trig", "--type", "A1", "--degrees", "1", "--check", "descent",
     "--trials", "3"],
    ["cluster", "--a", "2", "--trials", "3"],
], ids=["type-tag", "bad-scalar", "no-type", "missing-file", "degree-count", "cluster-a0",
        "root-search-bound", "bench-strategy", "string-coeffs", "object-coeffs",
        "sampler-bound", "no-trials", "negative-degree", "logcanon-sampler-bound",
        "zero-degree-jacobi", "zero-degree-descent", "zero-degree-symplectic",
        "zero-degrees-a2", "minors-rank-two", "verify-rank-two", "bench-no-repeats",
        "bench-negative-repeats", "bench-size-0", "bench-negative-size", "bench-empty-sizes",
        "bench-cofactor-sylvester-8", "bench-cofactor-hankel-14", "verify-trials-ignored",
        "verify-point-ignored", "symplectic-rational", "jacobi-trials", "descent-trials",
        "cluster-trials-without-check"])
def test_bad_input_reports_json_with_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, doc in _POINT_DOCS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    assert _refused(argv, capsys)


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
    assert data["matrix"] == [[0, 2], [-2, 0], [-1, 0], [2, -1]]
    # C_1 C_1' = D_1^2 + C_2 and D_1 D_1' = C_2^2 + C_1^2 D_2 at D_1, C_1, D_2, C_2 = 5, 1, -24, -8
    assert data["values_at_point"]["mu_2(C_1)"] == "17"
    code, out = _run(["cluster", "--a", "2", "--point", pfile, "--mutations", "1"], capsys)
    assert code == 0 and json.loads(out)["values_at_point"]["mu_1(D_1)"] == "8"

    # the log-canonicity check applies to the seed as built; the initial
    # seed and the mutated one both pass (the matrix is compatible with
    # the bracket)
    code, out = _run(
        ["cluster", "--a", "2", "--check", "log-canonical", "--trials", "3"],
        capsys,
    )
    assert code == 0 and json.loads(out)["log_canonical"]["ok"]
    code, out = _run(
        ["cluster", "--a", "2", "--mutations", "2", "--check", "log-canonical",
         "--trials", "3"], capsys
    )
    assert code == 0 and json.loads(out)["log_canonical"]["ok"]


def test_cluster_long_mutation_sequence(tmp_path, capsys):
    # 600 alternating mutations are evaluated at the point without a RecursionError
    pfile = str(tmp_path / "pt.json")
    main(["point", "--w", "1,3", "--y", "2,4", "--out", pfile])
    capsys.readouterr()
    code, out = _run(["cluster", "--a", "2", "--point", pfile,
                      "--mutations", ",".join(["1", "2"] * 300)], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["mutations"]) == 600
    assert all(v != "0" for v in data["values_at_point"].values())


def test_cluster_caps_the_mutation_list(capsys):
    cap = cli._MAX_MUTATIONS
    code, out = _run(["cluster", "--a", "2", "--mutations", ",".join(["1", "2"] * (cap // 2))],
                     capsys)
    assert code == 0 and len(json.loads(out)["mutations"]) == cap
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--a", "2", "--mutations", ",".join(["1"] * (cap + 1))])
    assert exc.value.code == 2
    assert f"above the {cap}" in json.loads(capsys.readouterr().err)["reason"]


def test_cluster_refuses_a_mutation_outside_the_positions(capsys):
    reason = _refused(["cluster", "--a", "2", "--mutations", "9"], capsys)
    assert reason == "ValueError: position 9 is outside the seed's positions 1..4"
    assert "frozen" in _refused(["cluster", "--a", "2", "--mutations", "3"], capsys)


def test_cluster_prints_values_past_the_default_digit_limit(tmp_path, capsys):
    # int -> str converts at most 4300 digits by default; an exact value is
    # printed whole
    pfile = str(tmp_path / "pt.json")
    main(["point", "--w", "1/7,3", "--y", "1000003,-999", "--out", pfile])
    capsys.readouterr()
    code, out = _run(["cluster", "--a", "2", "--point", pfile,
                      "--mutations", ",".join(["1", "2"] * 300)], capsys)
    assert code == 0
    assert max(map(len, json.loads(out)["values_at_point"].values())) > 4300


def test_cluster_caps_the_log_canonical_degree(capsys):
    # the seed alone is built past the cap; the check refuses before it samples
    cap = cli._LOGCANON_MAX_A
    code, out = _run(["cluster", "--a", str(cap + 1)], capsys)
    assert code == 0 and len(json.loads(out)["labels"]) == 2 * (cap + 1)
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--a", str(cap + 1), "--check", "log-canonical"])
    assert exc.value.code == 2
    assert f"up to {cap}" in json.loads(capsys.readouterr().err)["reason"]


def test_cluster_caps_the_degree(capsys):
    # the cap holds with or without --check, and past it nothing is printed
    cap = cli._CLUSTER_MAX_A
    assert cap > cli._LOGCANON_MAX_A
    code, out = _run(["cluster", "--a", str(cap)], capsys)
    assert code == 0 and len(json.loads(out)["labels"]) == 2 * cap
    reason = _refused(["cluster", "--a", str(cap + 1)], capsys)
    assert reason == f"ValueError: cluster takes --a up to {cap}, not {cap + 1}"
    assert "log-canonical" in _refused(["cluster", "--a", "1000", "--check", "log-canonical"],
                                       capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "--profile", "logcanon"],
    ["poisson", "--kind", "trig", "--type", "A1", "--degrees", "1", "--check", "symplectic"],
    ["cluster", "--a", "2", "--check", "log-canonical"],
], ids=["verify", "poisson", "cluster"])
def test_trials_cap(argv, capsys):
    command = argv[0]
    cap = cli._MAX_TRIALS[command]
    cli._check_flags(cli.build_parser().parse_args([*argv, "--trials", str(cap)]))
    reason = _refused([*argv, "--trials", str(cap + 1)], capsys)
    assert f"{command} takes --trials up to {cap}, not {cap + 1}" in reason


def test_poisson_caps_the_jacobi_and_descent_charts(capsys):
    def poisson(check, dat, degrees):
        return ["poisson", "--kind", "trig", "--type", dat, "--check", check,
                "--degrees", ",".join(map(str, degrees))]

    top = cli._JACOBI_MAX_DEGREE_SUM
    reason = _refused(poisson("jacobi", "A2", (top // 2, top - top // 2 + 1)), capsys)
    assert f"degree sum up to {top}, not {top + 1}" in reason
    assert "up to" in _refused(poisson("jacobi", "A1", (99999,)), capsys)
    # one color past the largest degree, and colors within it past the sum
    deg, total = cli._DESCENT_MAX_DEGREE, cli._DESCENT_MAX_DEGREE_SUM
    for degrees in [(deg + 1,), (1, deg + 1), (deg,) * (total // deg) + (total % deg + 1,)]:
        reason = _refused(poisson("descent", f"A{len(degrees)}", degrees), capsys)
        assert f"degrees up to {deg} summing to at most {total}" in reason
    code, out = _run(poisson("descent", "A2", (2, 1)), capsys)
    assert code == 0 and json.loads(out)["ok"]


def test_bench_cofactor_bound_allows_criterion_sizes(capsys):
    # the cap is on the cofactor matrix: other strategies run past it, and
    # hankel 2..10 (acceptance criterion 12) stays allowed
    code, out = _run(["bench", "--family", "hankel", "--sizes", "2..10", "--repeats", "1"], capsys)
    assert code == 0 and len(out.splitlines()) == 1 + 9 * 3
    code, _ = _run(["bench", "--family", "sylvester", "--sizes", "8", "--repeats", "1",
                    "--strategies", "bareiss"], capsys)
    assert code == 0


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
    # 51 roots cannot be distinct: the sampler draws from 50 nonzero w values,
    # and says so before it draws anything
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="above the 50 nonzero values"):
        sample_chart_point((51,), rng)
    assert rng.getstate() == state


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


def test_cluster_refuses_a_mutation_undefined_at_the_point(tmp_path, capsys):
    # all y equal: c_0 = c_1 = 0, so D_1 = 0 and mu_1 divides by it; the
    # unmutated seed is still defined there
    pfile = str(tmp_path / "flat3.json")
    main(["point", "--w", "1,2,3", "--y", "2,2,2", "--trigonometric", "--out", pfile])
    capsys.readouterr()
    reason = _refused(["cluster", "--a", "3", "--point", pfile, "--mutations", "1"], capsys)
    assert "mutated variable is undefined at the point" in reason
    code, out = _run(["cluster", "--a", "3", "--point", pfile], capsys)
    assert code == 0 and json.loads(out)["values_at_point"]["D_1"] == "0"


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


def test_verify_records_a_raising_check(capsys, monkeypatch):
    from zastava import verify

    original = verify.jacobi_report

    def broken(table):
        if (table.datum.label, table.degrees, table.kind) == ("A2", (2, 1), "rational"):
            raise RuntimeError("broken check")
        return original(table)

    monkeypatch.setattr(verify, "jacobi_report", broken)
    argv = ["verify", "--profile", "jacobi", "--no-timing", "--rng", "1"]
    code, out = _run(argv, capsys)
    assert code == 1
    data = json.loads(out)
    assert not data["ok"]
    by_id = {c["id"]: c for c in data["checks"]}
    assert by_id.pop("jacobi-A2-2-1-rational") == {
        "id": "jacobi-A2-2-1-rational",
        "status": "fail",
        "witness": {"reason": "RuntimeError: broken check"},
    }
    assert by_id and all(c["status"] == "pass" for c in by_id.values())
    assert len(data["checks"]) == 2 * len(verify._BRACKET_CONFIGS)
    assert _run(argv, capsys) == (code, out)
