import json
import tracemalloc

import numpy as np
import pytest

from skewflow.cli import canonical_json, main, parse_operator_descriptor
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
