import json
import tracemalloc

import numpy as np
import pytest

from skewflow import cli
from skewflow.cli import canonical_json, main, parse_operator_descriptor
from skewflow.evolution import evolve_cayley
from skewflow.transport import Grid2D, write_stream_file


def write_descriptor(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def minimal_desc(tmp_path):
    return write_descriptor(tmp_path / "minimal.json",
                      {"operator": {"kind": "minimal_derivative", "n": 32}})


@pytest.fixture
def rotation_desc(tmp_path):
    return write_descriptor(tmp_path / "rot.json", {
        "label": "quarter-turn",
        "operator": {"kind": "matrix",
                     "data": [[0.0, -1.0], [1.0, 0.0]]},
    })


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def test_canonical_json_sorts_and_pins_floats():
    text = canonical_json({"b": 1.0 / 3.0, "a": 1})
    assert text.index('"a"') < text.index('"b"')
    assert "0.33333333333333331" in text


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_canonical_json_handles_numpy_scalars_and_arrays():
    text = canonical_json({"v": np.float64(0.5), "a": np.arange(3)})
    parsed = json.loads(text)
    assert parsed["v"] == 0.5
    assert parsed["a"] == [0, 1, 2]


# ---------------------------------------------------------------------------
# descriptor parsing
# ---------------------------------------------------------------------------

def test_parse_matrix_descriptor_with_weights(tmp_path):
    p = write_descriptor(tmp_path / "m.json", {
        "operator": {"kind": "matrix", "data": [[0.0, -4.0], [1.0, 0.0]]},
        "space": {"weights": [1.0, 4.0]},
    })
    op = parse_operator_descriptor(p)
    assert op.dim == 2
    assert op.space.weights[1] == 4.0


def test_parse_restricted_matrix_descriptor(tmp_path):
    p = write_descriptor(tmp_path / "m.json", {
        "operator": {"kind": "matrix",
                     "data": [[0.0, -1.0], [1.0, 0.0]]},
        "domain": {"mode": "columns", "columns": [[1.0, 0.0]]},
    })
    op = parse_operator_descriptor(p)
    assert op.domain_dim == 1


def test_parse_transport_descriptor_resolves_stream_path(tmp_path):
    g = Grid2D(nx=8, ny=8)
    write_stream_file(tmp_path / "psi.csv",
                      lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
                      g)
    p = write_descriptor(tmp_path / "t.json", {
        "operator": {"kind": "transport", "stream": "psi.csv"},
    })
    op = parse_operator_descriptor(p)
    assert op.dim == 64
    assert op.meta["kind"] == "transport"


@pytest.mark.parametrize("payload", [
    {"operator": {"kind": "warp"}},
    {"operator": {"kind": "matrix", "data": [[1.0, 2.0]]}},
    {"operator": {"kind": "minimal_derivative", "n": 2}},
    {"nothing": True},
    {"operator": [1, 2]},
    {"operator": {"kind": "matrix", "data": [[0.0, 1.0], [-1.0, 0.0]]},
     "space": [1.0, 1.0]},
    {"operator": {"kind": "matrix", "data": [[0.0, 1.0], [-1.0, 0.0]]},
     "domain": "full"},
    {"operator": {"kind": "matrix", "data": [[0.0, float("nan")],
                                             [-1.0, 0.0]]}},
    {"operator": {"kind": "matrix", "data": [[0.0, 1.0], [-1.0, 0.0]]},
     "space": {"weights": [1.0, float("inf")]}},
    {"operator": {"kind": "matrix", "data": [[0.0, 1.0], [-1.0, 0.0]]},
     "space": {"weights": [1.0, -1.0]}},
    {"operator": {"kind": "matrix", "data": [[0.0, 1.0], [-1.0, 0.0]]},
     "domain": {"mode": "columns", "columns": [[1.0, float("nan")]]}},
    *({"operator": {"kind": "matrix", "data": [[0.0, 1.0], [-1.0, 0.0]]},
       "label": label} for label in (5, [1], {"a": 1}, None)),
])
def test_parse_rejects_malformed_descriptors(tmp_path, payload):
    from skewflow.cli import CliError
    p = write_descriptor(tmp_path / "bad.json", payload)
    with pytest.raises(CliError):
        parse_operator_descriptor(p)


# ---------------------------------------------------------------------------
# commands, exit codes, determinism
# ---------------------------------------------------------------------------

def test_analyze_reports_defect_counts(tmp_path, minimal_desc, capsys):
    out = tmp_path / "out"
    code = main(["analyze", "--input", minimal_desc, "--out", str(out)])
    assert code == 0
    rep = read_report(out)
    assert (rep["d_plus"], rep["d_minus"]) == (2, 2)
    assert rep["skew"]["pass"] is True
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize("diagonal", [0.3, 1e-11])
def test_analyze_keeps_its_verdict_on_a_non_skew_action(tmp_path, capsys,
                                                        diagonal):
    # a diagonal entry makes the action non-skew, so it has no defect
    # counts; the skew verdict and the isometry probe are still reported.
    # 2e-11 passes the skew check's 1e-10 but not deficiency's relative
    # test, whose refusal becomes the report's message
    desc = write_descriptor(tmp_path / "m.json", {"operator": {
        "kind": "matrix",
        "data": [[diagonal, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]}})
    out = tmp_path / "out"
    assert main(["analyze", "--input", desc, "--out", str(out)]) == 2
    rep = read_report(out)
    assert "error" not in rep and rep["pass"] is False
    assert rep["skew"]["pass"] is (diagonal < 1e-10)
    assert rep["skew"]["max_defect"] == pytest.approx(2 * diagonal)
    assert rep["d_plus"] is None and rep["d_minus"] is None
    assert rep["cayley_isometry_defect"] >= 0.0
    assert rep["ill_conditioned"] is False and rep["rank_tol"] == 1e-8
    line = capsys.readouterr().out.strip()
    if diagonal < 1e-10:
        assert line == ("analyze: fail — the action is not skew on its "
                        "domain (max|S + S^T| = 2.000e-11)")
        assert rep["message"] in line
    else:
        assert line == "analyze: fail" and "message" not in rep


def test_witness_refuses_a_non_skew_action_instead_of_calling_it_unique(
        tmp_path, capsys):
    desc = write_descriptor(tmp_path / "m.json", {
        "operator": {"kind": "matrix", "data": [[0.3, -1.0, 0.0],
                                                [1.0, 0.0, -1.0],
                                                [0.0, 1.0, 0.0]]},
        "domain": {"mode": "columns", "columns": [[1.0, 0.0, 0.0],
                                                  [0.0, 1.0, 0.0]]}})
    out = tmp_path / "out"
    assert main(["witness", "--input", desc, "--out", str(out)]) == 2
    rep = read_report(out)
    assert "unique" not in rep and rep["pass"] is False
    assert rep["error"] == ("the action is not skew on its domain "
                            "(max|S + S^T| = 6.000e-01)")
    assert capsys.readouterr().err.startswith("witness: fail — the action")


def test_an_arithmetic_error_is_a_failed_verdict(tmp_path, capsys,
                                                 monkeypatch, rotation_desc):
    # extend refuses a bad defect basis with ArithmeticError: exit 2, one
    # stderr line and an error report, as for a ValueError
    def refuse(*args, **kwargs):
        raise ArithmeticError("extension leaves the pinned block (1e-06)")
    monkeypatch.setattr(cli, "extend", refuse)
    out = tmp_path / "out"
    assert main(["extend", "--input", rotation_desc, "--out", str(out),
                 "--theta", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "extend: fail — extension leaves the pinned block (1e-06)"]
    assert read_report(out) == {
        "command": "extend", "pass": False,
        "error": "extension leaves the pinned block (1e-06)"}


def test_reports_are_byte_identical_across_runs(tmp_path, minimal_desc):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--input", minimal_desc, "--out", str(out1)]) == 0
    assert main(["verify", "--input", minimal_desc, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    assert (out1 / "residuals.csv").read_bytes() == \
        (out2 / "residuals.csv").read_bytes()


def test_extend_seam_theta_one(tmp_path, minimal_desc):
    out = tmp_path / "out"
    code = main(["extend", "--input", minimal_desc, "--out", str(out),
                 "--theta", "1.0"])
    assert code == 0
    rep = read_report(out)
    assert rep["route"] == "seam"
    assert rep["skew"]["pass"] is True
    assert rep["restriction_defect"] <= 1e-10
    V = np.array(rep["coupling_matrix"])
    assert np.max(np.abs(V.T @ V - np.eye(2))) < 1e-10


def test_extend_rejects_theta_outside_range(tmp_path, minimal_desc):
    out = tmp_path / "out"
    code = main(["extend", "--input", minimal_desc, "--out", str(out),
                 "--theta", "42.0"])
    assert code == 2  # caught as a verification-level refusal


def test_evolve_quarter_turn_matches_trig(tmp_path, rotation_desc):
    out = tmp_path / "out"
    horizon = np.pi / 2
    code = main(["evolve", "--input", rotation_desc, "--out", str(out),
                 "--dt", str(horizon / 1571), "--horizon", str(horizon)])
    assert code == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    last = [float(v) for v in rows[-1].split(",")]
    # a quarter turn sends the seeded vector to its rotation; norms hold
    assert last[1] == pytest.approx(1.0, abs=1e-10)
    rep = read_report(out)
    assert rep["contractive"] is True


def test_evolve_refuses_restricted_operators(tmp_path, minimal_desc, capsys):
    out = tmp_path / "out"
    code = main(["evolve", "--input", minimal_desc, "--out", str(out)])
    assert code == 1
    assert "extend the operator first" in capsys.readouterr().err


def test_verify_passes_on_the_wrapped_model(tmp_path, minimal_desc):
    out = tmp_path / "out"
    code = main(["verify", "--input", minimal_desc, "--out", str(out)])
    assert code == 0
    rep = read_report(out)
    assert rep["max_residual"] <= rep["tol"] + rep["quadrature_error_estimate"]
    assert (out / "residuals.csv").exists()


def test_witness_flags_unique_forward_problems(tmp_path, rotation_desc):
    out = tmp_path / "out"
    code = main(["witness", "--input", rotation_desc, "--out", str(out)])
    assert code == 2
    rep = read_report(out)
    assert rep["unique"] is True
    assert "unique" in rep["message"]


def test_witness_separates_solutions(tmp_path, minimal_desc):
    out = tmp_path / "out"
    code = main(["witness", "--input", minimal_desc, "--out", str(out),
                 "--t0", "0.5"])
    assert code == 0
    rep = read_report(out)
    assert rep["distance_at_t1"] > 1.5
    assert rep["witness_residual"] <= rep["tol"] + 1e-6


def test_multiplicity_command(tmp_path, minimal_desc):
    out = tmp_path / "out"
    code = main(["multiplicity", "--input", minimal_desc, "--out", str(out)])
    assert code == 0
    rep = read_report(out)
    assert rep["separation"] >= 0.1
    assert rep["branches"] == ["theta=+1", "theta=-1"]


def test_witness_steps_the_semigroup_once(tmp_path, minimal_desc,
                                          monkeypatch):
    # the splice reads the semigroup run the command already made
    import skewflow.cli as cli
    import skewflow.weak as weak
    calls = []

    def counting(*args):
        calls.append(args[2:])
        return evolve_cayley(*args)

    monkeypatch.setattr(cli, "evolve_cayley", counting)
    monkeypatch.setattr(weak, "evolve_cayley", counting)
    assert main(["witness", "--input", minimal_desc, "--out",
                 str(tmp_path / "out"), "--horizon", "0.5",
                 "--t0", "0.25"]) == 0
    assert calls == [(0.5 / 500, 500)]


# perfbench's cli-verify workload times these through the cli globals
@pytest.mark.parametrize("name, command", [
    ("gs_residual", "verify"),
    ("witness_nonuniqueness", "witness"),
    ("splice", "witness"),
    ("semigroup_multiplicity_demo", "multiplicity"),
])
def test_patching_a_weak_call_in_cli_intercepts_the_command(
        tmp_path, minimal_desc, monkeypatch, name, command):
    import skewflow.cli as cli
    orig = getattr(cli, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    assert main([command, "--input", minimal_desc, "--out",
                 str(tmp_path / "out"), "--horizon", "0.5"]) == 0
    assert calls


def test_transport_run_command(tmp_path):
    g = Grid2D(nx=16, ny=16)
    write_stream_file(tmp_path / "psi.csv",
                      lambda x, y: -((x - 0.5) ** 2 + (y - 0.5) ** 2) / 2, g)
    desc = write_descriptor(tmp_path / "t.json", {
        "operator": {"kind": "transport", "stream": "psi.csv"},
    })
    out = tmp_path / "out"
    code = main(["transport-run", "--input", desc, "--out", str(out),
                 "--dt", "0.01", "--horizon", "0.5"])
    assert code == 0
    rep = read_report(out)
    assert rep["energy_drift"] < 1e-10
    assert rep["mass_drift"] < 1e-12


def test_oracle_check_passes(tmp_path):
    out = tmp_path / "out"
    code = main(["oracle-check", "--out", str(out)])
    assert code == 0
    rep = read_report(out)
    assert rep["checks"]["halfline_left_pair"] == [0, 1]


def test_missing_descriptor_is_a_usage_error(tmp_path, capsys):
    code = main(["analyze", "--input", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_bad_json_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    code = main(["analyze", "--input", str(p),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"operator": [1, 2]},
    {"operator": {"kind": "matrix", "data": [[0.0, float("nan")],
                                             [-1.0, 0.0]]}},
    # finite, but the isometry probe overflows: the report cannot be
    # rendered
    {"operator": {"kind": "matrix", "data": [[0.0, 1e300, 0.0],
                                             [-1e300, 0.0, 1.0],
                                             [0.0, -1.0, 0.0]]}},
])
def test_bad_descriptor_is_a_usage_error_without_report(tmp_path, capsys,
                                                        payload):
    p = write_descriptor(tmp_path / "bad.json", payload)
    out = tmp_path / "out"
    assert main(["analyze", "--input", p, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["analyze", "verify", "transport-run"])
@pytest.mark.parametrize("flaw", ["nan psi", "infinite lx", "fractional nx"])
def test_malformed_stream_files_are_usage_errors(tmp_path, capsys, command,
                                                 flaw):
    write_stream_file(tmp_path / "psi.csv",
                      lambda x, y: np.sin(2 * np.pi * x)
                      * np.sin(2 * np.pi * y), Grid2D(8, 8))
    header, *rows = (tmp_path / "psi.csv").read_text().splitlines()
    head = json.loads(header)
    if flaw == "nan psi":
        rows[3] = "nan," + rows[3].split(",", 1)[1]
    else:
        head.update({"lx": float("inf")} if flaw == "infinite lx"
                    else {"nx": 8.7})
    (tmp_path / "psi.csv").write_text(
        "\n".join([json.dumps(head), *rows]) + "\n")
    desc = write_descriptor(tmp_path / "t.json", {
        "operator": {"kind": "transport", "stream": "psi.csv"}})
    out = tmp_path / "out"
    assert main([command, "--input", desc, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: bad transport descriptor: ")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["verify", "witness", "multiplicity"])
def test_too_few_steps_for_the_weak_residual_are_a_usage_error(
        tmp_path, minimal_desc, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--input", minimal_desc, "--out", str(out),
                 "--horizon", "0.002", "--dt", "0.001"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "at least 3" in lines[0]
    assert not (out / "report.json").exists()


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_negative_dt_is_a_usage_error(tmp_path, minimal_desc):
    code = main(["verify", "--input", minimal_desc,
                 "--out", str(tmp_path / "out"), "--dt", "-1.0"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--horizon", "inf"],
    ["verify", "--gs-tol", "nan"],
    ["verify", "--dt", "nan"],
    ["analyze", "--rank-tol", "nan"],
    ["witness", "--t0", "nan"],
    ["extend", "--theta", "nan"],
    ["evolve", "--horizon", "two"],
    # flags a command does not read are not accepted
    ["analyze", "--method", "exact"],
    ["multiplicity", "--rank-tol", "0.5"],
    ["verify", "--method", "exact"],
], ids=" ".join)
def test_bad_flag_values_are_usage_errors(tmp_path, minimal_desc, capsys,
                                          argv):
    out = tmp_path / "out"
    code = main([*argv, "--input", minimal_desc, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("horizon, dt", [("1e308", "1e-10"), ("1e9", "1e-3")],
                         ids=["ratio-overflows", "ratio-finite"])
@pytest.mark.parametrize("command", ["evolve", "verify", "witness",
                                     "multiplicity", "transport-run"])
def test_huge_step_counts_are_usage_errors(tmp_path, minimal_desc,
                                           rotation_desc, capsys, command,
                                           horizon, dt):
    # 1e12 steps of even a 2-vector would not fit in memory; the guard must
    # refuse before any trajectory is allocated
    if command == "evolve":
        desc = rotation_desc
    elif command == "transport-run":
        cells = lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        write_stream_file(tmp_path / "psi.csv", cells, Grid2D(nx=8, ny=8))
        desc = write_descriptor(tmp_path / "t.json", {
            "operator": {"kind": "transport", "stream": "psi.csv"}})
    else:
        desc = minimal_desc
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main([command, "--input", desc, "--out", str(out),
                     "--horizon", horizon, "--dt", dt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "stored floats" in lines[0]
    assert captured.out == ""
    assert not (out / "report.json").exists()
    assert peak < 16 * 2**20


def test_multiplicity_writes_the_separation_series(tmp_path, minimal_desc):
    out = tmp_path / "out"
    main(["multiplicity", "--input", minimal_desc, "--out", str(out),
          "--horizon", "1.0", "--dt", "0.3"])
    header, *rows = (out / "separation.csv").read_text().splitlines()
    assert header == "t,separation"
    series = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert series.shape == (round(1.0 / 0.3) + 1, 2)
    assert series[0, 0] == 0.0
    assert series[-1, 0] == pytest.approx(1.0, rel=1e-15)
    assert series[:, 1].max() == read_report(out)["separation"]


def test_evolve_exact_samples_on_the_dt_grid(tmp_path, rotation_desc):
    out = tmp_path / "out"
    assert main(["evolve", "--input", rotation_desc, "--out", str(out),
                 "--method", "exact", "--dt", "0.5", "--horizon", "1"]) == 0
    rep = read_report(out)
    assert (rep["dt"], rep["nsteps"], rep["horizon"]) == (0.5, 2, 1.0)
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.5, 1.0]
