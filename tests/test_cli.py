import json

import pytest

from painleve_calogero.cli import main

I0 = {"coords": [[0.2, 0.1]], "momenta": [[0.3, 0.0]], "time": [0.1, 0.0]}


@pytest.fixture
def i0(tmp_path):
    path = tmp_path / "i0.json"
    path.write_text(json.dumps(I0))
    return str(path)


def test_integrate_csv_header_contract(tmp_path, i0):
    out = tmp_path / "tr.csv"
    code = main(["integrate", "--equation", "p1", "--side", "painleve",
                 "--initial", i0, "--t-end", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_t,im_t,re_l1,im_l1,re_m1,im_m1"
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.1, 0.0, 0.2, 0.1, 0.3, 0.0]


def test_missing_equation_is_usage_error(capsys, i0):
    code = main(["integrate", "--initial", i0, "--t-end", "1"])
    assert code == 1


def test_pole_hit_gives_partial_file_and_exit_2(tmp_path):
    init = tmp_path / "blow.json"
    init.write_text(json.dumps({"coords": [[1, 0]], "momenta": [[1, 0]], "time": [0, 0]}))
    out = tmp_path / "tr.json"
    code = main(["integrate", "--equation", "p1", "--side", "painleve",
                 "--initial", str(init), "--t-end", "6", "--out", str(out),
                 "--format", "json"])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["termination"] == "pole_detected"
    assert len(doc["samples"]) > 10
    assert abs(doc["samples"][-1]["time"][0] - 1.078) < 0.05


def test_csv_round_trip_full_precision(tmp_path, i0):
    out = tmp_path / "tr.csv"
    main(["integrate", "--equation", "p1", "--side", "painleve",
          "--initial", i0, "--t-end", "0.8", "--out", str(out)])
    lines = out.read_text().splitlines()
    # repr round-trip: parsing the printed decimals recovers the doubles
    for line in lines[1:3]:
        for tok in line.split(","):
            assert repr(float(tok)) == tok


def test_json_round_trip(tmp_path, i0):
    out = tmp_path / "tr.json"
    main(["integrate", "--equation", "p1", "--side", "painleve",
          "--initial", i0, "--t-end", "0.8", "--out", str(out), "--format", "json"])
    doc = json.loads(out.read_text())
    assert doc["equation"] == "I" and doc["termination"] == "completed"
    assert doc["samples"][0]["coords"] == [[0.2, 0.1]]


def test_params_p6(capsys):
    code = main(["params", "--equation", "p6", "--aux",
                 "kappa0=1", "kappa1=1", "theta=1", "kappa=0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"alpha": [2.0, 0.0], "beta": [-0.5, 0.0],
                   "gamma": [0.5, 0.0], "delta": [0.0, 0.0]}


def test_params_p2_passthrough(capsys):
    code = main(["params", "--equation", "p2", "--aux", "alpha=0.25"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"alpha": [0.25, 0.0]}


def test_params_p3(capsys):
    code = main(["params", "--equation", "p3", "--aux",
                 "eta_inf=1", "theta_inf=1", "eta0=1", "theta0=1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"alpha": [-4.0, 0.0], "beta": [8.0, 0.0],
                   "gamma": [4.0, 0.0], "delta": [-4.0, 0.0]}


def test_params_missing_keys(capsys):
    code = main(["params", "--equation", "p6", "--aux", "kappa0=1"])
    assert code == 1
    assert "kappa" in capsys.readouterr().err


def test_unknown_suite_exit_1(capsys):
    assert main(["verify", "--suite", "bogus"]) == 1


def test_missing_params_for_parametrized_equation(capsys, i0):
    code = main(["integrate", "--equation", "p5", "--side", "painleve",
                 "--initial", i0, "--t-end", "2"])
    assert code == 1
    assert "kappa0" in capsys.readouterr().err


def test_integrate_p6_without_params_names_the_missing_keys(capsys, i0):
    code = main(["integrate", "--equation", "p6", "--side", "calogero",
                 "--initial", i0, "--t-end", "2"])
    assert code == 1
    assert "missing ['kappa0', 'kappa1', 'theta', 'kappa']" in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", (
    (["p6", "kappa0=1", "kappa1=2", "theta=3", "kappa=0.5"],
     {"alpha": [11.5, 0.0], "beta": [-0.5, 0.0], "delta": [-4.0, 0.0], "gamma": [2.0, 0.0]}),
    (["p5", "kappa0=1", "theta1=2", "eta1=3", "kappa=0.5"],
     {"alpha": [3.5, 0.0], "beta": [-0.5, 0.0], "delta": [-4.5, 0.0], "gamma": [9.0, 0.0]}),
    (["p4", "theta_inf=1", "kappa0=2"],  # IV prints its unread gamma and delta as zeros
     {"alpha": [1.0, 0.0], "beta": [-8.0, 0.0], "delta": [0.0, 0.0], "gamma": [0.0, 0.0]}),
    (["p3", "eta_inf=1", "theta_inf=2", "eta0=3", "theta0=4"],
     {"alpha": [-8.0, 0.0], "beta": [60.0, 0.0], "delta": [-36.0, 0.0], "gamma": [4.0, 0.0]}),
    (["p2", "alpha=0.5+1i"], {"alpha": [0.5, 1.0]}),
    (["p1"], {}),
), ids=("p6", "p5", "p4", "p3", "p2", "p1"))
def test_params_output_text(capsys, argv, expected):
    code = main(["params", "--equation", argv[0]] + (["--aux", *argv[1:]] if argv[1:] else []))
    assert code == 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_json_to_stdout(capsys, i0):
    code = main(["integrate", "--equation", "p1", "--side", "painleve",
                 "--initial", i0, "--t-end", "0.5", "--format", "json", "--out", "-"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["termination"] == "completed"


def test_aux_from_file(tmp_path, capsys):
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps({"kappa0": 1, "kappa1": [1, 0], "theta": "1", "kappa": 0}))
    code = main(["params", "--equation", "p6", "--aux", str(aux)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == [2.0, 0.0]


def test_verify_identities_runs(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["verify", "--suite", "identities", "--seed", "7", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert all(r["passed"] for r in reports)
    assert [r["check_id"] for r in reports] == sorted(r["check_id"] for r in reports)
    assert "PASS" in capsys.readouterr().out


def test_verify_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--suite", "degeneration", "--seed", "7", "--out", str(out1)])
    main(["verify", "--suite", "degeneration", "--seed", "7", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_rank2_csv_columns(tmp_path):
    init = tmp_path / "r2.json"
    init.write_text(json.dumps({
        "coords": [[0.3, 0.1], [-0.4, 0.2]],
        "momenta": [[0.4, -0.1], [0.3, 0.1]],
        "time": [0.54, 0.13]}))
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"alpha": [0.37, 0.21], "g4sq": [0.5, 0.0]}))
    out = tmp_path / "tr.csv"
    code = main(["integrate", "--equation", "p2", "--side", "calogero",
                 "--params", str(params), "--initial", str(init),
                 "--t-end", "1+0.3j", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "re_t,im_t,re_l1,im_l1,re_l2,im_l2,re_m1,im_m1,re_m2,im_m2"


def test_calogero_side_integration(tmp_path):
    init = tmp_path / "cal.json"
    init.write_text(json.dumps(
        {"coords": [[0.3, 0.2]], "momenta": [[0.4, -0.1]], "time": [0.54, 0.13]}))
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"alpha": [0.37, 0.21]}))
    out = tmp_path / "tr.csv"
    code = main(["integrate", "--equation", "p2", "--side", "calogero",
                 "--params", str(params), "--initial", str(init),
                 "--t-end", "1+0.3j", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("re_t,im_t,re_l1,im_l1,re_m1,im_m1")


def test_pvi_calogero_segment_leaving_upper_half_plane_exits_1(tmp_path, capsys):
    init = tmp_path / "cal.json"
    init.write_text(json.dumps(
        {"coords": [[0.12, 0.05]], "momenta": [[0.4, -0.1]], "time": [0.1, 0.2]}))
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"kappa0": [0.31, 0.12], "kappa1": [0.27, -0.08], "theta": [0.43, 0.05],
         "kappa": [0.17, 0.09]}))
    code = main(["integrate", "--equation", "p6", "--side", "calogero",
                 "--params", str(params), "--initial", str(init),
                 "--t-end", "0.1-0.2j", "--out", str(tmp_path / "tr.json")])
    assert code == 1
    assert "Im tau" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--rel-tol=0", "--rel-tol=nan", "--rel-tol=-1e-8",
                                  "--abs-tol=-1e-10", "--abs-tol=inf"])
def test_bad_tolerance_exits_1(tmp_path, capsys, i0, flag):
    out = tmp_path / "tr.csv"
    code = main(["integrate", "--equation", "p1", "--side", "painleve",
                 "--initial", i0, "--t-end", "1", flag, "--out", str(out)])
    assert code == 1
    assert "tol" in capsys.readouterr().err
    assert not out.exists()


def test_stats_line_leaves_output_unchanged(tmp_path, capsys, i0):
    base = ["integrate", "--equation", "p1", "--side", "painleve", "--initial", i0,
            "--t-end", "0.8"]
    plain, with_stats = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(base + ["--out", str(plain)]) == 0
    assert capsys.readouterr().err == ""
    assert main(base + ["--out", str(with_stats), "--stats"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert plain.read_bytes() == with_stats.read_bytes()
    assert len(err) == 1 and err[0].startswith("stats: ")
    fields = dict(tok.split("=") for tok in err[0].split()[1:])
    assert set(fields) == {"n_rhs", "n_accepted", "n_rejected", "n_rejected_singular",
                           "termination"}
    assert fields["termination"] == "completed"


def test_stats_to_stderr_keeps_stdout_json(capsys, i0):
    argv = ["integrate", "--equation", "p1", "--side", "painleve", "--initial", i0,
            "--t-end", "0.5", "--format", "json"]
    main(argv)
    plain = capsys.readouterr().out
    main(argv + ["--stats"])
    captured = capsys.readouterr()
    assert captured.out == plain
    assert json.loads(plain)["n_rejected_singular"] == 0
    assert captured.err.startswith("stats: ")


@pytest.mark.parametrize("t_end", ["nan", "1e400", "1+1e400j"])
def test_non_finite_t_end_exits_1(tmp_path, capsys, i0, t_end):
    out = tmp_path / "tr.csv"
    code = main(["integrate", "--equation", "p1", "--side", "painleve",
                 "--initial", i0, "--t-end", t_end, "--out", str(out)])
    assert code == 1
    assert "t_end must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_initial_state_exits_1(tmp_path, capsys):
    init = tmp_path / "nan.json"
    init.write_text(json.dumps({"coords": [[0.2, 0.1]], "momenta": [[0.3, 0.0]],
                                "time": [float("nan"), 0.0]}))
    code = main(["integrate", "--equation", "p1", "--initial", str(init), "--t-end", "1"])
    assert code == 1
    assert "initial state must be finite" in capsys.readouterr().err


def test_unknown_aux_key_exits_1(capsys):
    code = main(["params", "--equation", "p2", "--aux", "alpha=1", "bogus=2"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_aux_key_of_another_equation_exits_1(capsys):
    # theta_inf is a PIV/PIII symbol: PVI must not drop it silently
    code = main(["params", "--equation", "p6", "--aux",
                 "kappa0=1", "kappa1=1", "theta=1", "kappa=0", "theta_inf=5"])
    assert code == 1
    assert "theta_inf" in capsys.readouterr().err


def test_params_file_that_is_not_an_object_exits_1(tmp_path, capsys):
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps([{"alpha": 1}]))
    code = main(["params", "--equation", "p2", "--aux", str(aux)])
    assert code == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("raw, key", [({"alpha": True}, "alpha"),
                                      ({"alpha": 1, "g4sq": True}, "g4sq")])
def test_json_boolean_in_params_file_exits_1(tmp_path, capsys, raw, key):
    # bool is an int in Python; true must not be read as 1
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps(raw))
    code = main(["params", "--equation", "p2", "--aux", str(aux)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {key}")


@pytest.mark.parametrize("key, value", [("time", ["a", 0]), ("coords", 5),
                                        ("momenta", [["0.3", 0]]), ("time", True),
                                        ("coords", [[True, 0]])])
def test_malformed_initial_state_exits_1(tmp_path, capsys, key, value):
    init = tmp_path / "bad.json"
    init.write_text(json.dumps({**I0, key: value}))
    code = main(["integrate", "--equation", "p1", "--initial", str(init), "--t-end", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {key}")
