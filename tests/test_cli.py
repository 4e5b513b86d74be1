import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from skewflow import cli, weak
from skewflow.cli import canonical_json, main, parse_operator_descriptor
from skewflow.evolution import evolve_cayley
from skewflow.operators import check_skew_symmetry, deficiency
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
    # 2e-11 fails the skew check's 1e-12 relative to max(1, max|G|), the
    # rule deficiency applies, so the verdict agrees with the counts
    desc = write_descriptor(tmp_path / "m.json", {"operator": {
        "kind": "matrix",
        "data": [[diagonal, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]}})
    out = tmp_path / "out"
    assert main(["analyze", "--input", desc, "--out", str(out)]) == 2
    rep = read_report(out)
    assert "error" not in rep and rep["pass"] is False
    assert rep["skew"]["pass"] is False
    assert rep["skew"]["max_defect"] == pytest.approx(2 * diagonal)
    assert rep["d_plus"] is None and rep["d_minus"] is None
    assert rep["cayley_isometry_defect"] >= 0.0
    assert "ill_conditioned" not in rep and "rank_tol" not in rep
    assert capsys.readouterr().out.strip() == "analyze: fail"
    assert "message" not in rep


# a defect of 2e-11 on a unit-scale action, one of 5e-9 on a 1e4-scale
# action restricted to span(e0, e1), and one of 2e-10 on span(e0, e1) of
# an action that is unit-scale there and 1e4-scale off it, skew to 2e-14
# of its whole scale: the skew check passes the second and fails the
# others, as deficiency does, since both scale the defect by the domain's
# own max|S|
SKEW_SCALE_CASES = {
    "mixed": ({"operator": {"kind": "matrix", "data": [
        [1e-10, -1.0, 0.0], [1.0, 0.0, -1e4], [0.0, 1e4, 0.0]]},
        "domain": {"mode": "columns",
                   "columns": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}},
        None, 2e-10),
    "unit": ({"operator": {"kind": "matrix", "data": [
        [1e-11, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]}},
        None, 2e-11),
    "scaled": ({"operator": {"kind": "matrix", "data": [
        [2.5e-9, -1e4, 0.0], [1e4, 0.0, -1e4], [0.0, 1e4, 0.0]]},
        "domain": {"mode": "columns",
                   "columns": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}},
        (1, 1), 5e-9),
}


@pytest.mark.parametrize("case", sorted(SKEW_SCALE_CASES))
def test_analyze_skew_verdict_agrees_with_its_defect_counts(tmp_path, case):
    raw, counts, defect = SKEW_SCALE_CASES[case]
    desc = write_descriptor(tmp_path / "m.json", raw)
    op = parse_operator_descriptor(Path(desc))
    skew = check_skew_symmetry(op)
    assert skew.max_defect == pytest.approx(defect)
    assert skew.passed is (counts is not None)
    if counts is None:
        with pytest.raises(ValueError, match="not skew"):
            deficiency(op)
    else:
        assert (deficiency(op).d_plus, deficiency(op).d_minus) == counts
    out = tmp_path / "out"
    assert main(["analyze", "--input", desc, "--out", str(out)]) == (
        2 if counts is None else 0)
    rep = read_report(out)
    assert rep["skew"]["pass"] is skew.passed
    assert (rep["d_plus"], rep["d_minus"]) == (counts or (None, None))
    assert rep["pass"] is skew.passed and "message" not in rep


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
    monkeypatch.setattr(weak, "extend", refuse)
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


@pytest.mark.parametrize("theta", ["1", "-1"])
def test_extend_unit_scalar_couplings_of_restricted_operators(tmp_path,
                                                              theta):
    # at |theta| = 1 the skew verdict decides the exit code: the codim-2
    # explicit-column ring extends to a skew operator, while the pinned
    # interior stencil has no dense unit scalar extension
    golden = Path(__file__).parent / "golden"
    out = tmp_path / "ring"
    assert main(["extend", "--input", str(golden / "weighted.json"),
                 "--out", str(out), "--theta", theta]) == 0
    rep = read_report(out)
    assert rep["route"] == "scalar-coupling" and rep["full_domain"]
    assert rep["skew"]["pass"] is True and rep["skew"]["max_defect"] < 1e-11
    assert rep["restriction_defect"] <= 1e-10
    stream = golden / "stream.csv"
    (tmp_path / "stream.csv").write_bytes(stream.read_bytes())
    desc = write_descriptor(tmp_path / "interior.json", {"operator": {
        "kind": "transport", "stream": "stream.csv",
        "mode": "interior_domain"}})
    out = tmp_path / "interior"
    assert main(["extend", "--input", desc, "--out", str(out),
                 "--theta", theta]) == 2
    assert read_report(out) == {"command": "extend", "pass": False,
                                "error": "extension domain not dense"}


@pytest.mark.parametrize("command", ["verify", "witness"])
def test_interior_through_flow_runs_on_the_skew_completion(tmp_path,
                                                           command):
    # psi = y on a 12^2 interior domain: the unit scalar couplings leave
    # the extension domain not dense, the default generator -M_s does not
    write_stream_file(tmp_path / "psi.csv", lambda x, y: y + 0.0 * x,
                      Grid2D(nx=12, ny=12))
    desc = write_descriptor(tmp_path / "through.json", {"operator": {
        "kind": "transport", "stream": "psi.csv",
        "mode": "interior_domain"}})
    out = tmp_path / "out"
    assert main([command, "--input", desc, "--out", str(out)]) == 0
    assert read_report(out)["pass"] is True


def test_extend_rejects_theta_outside_range(tmp_path, minimal_desc, capsys):
    # a usage error, refused by the parser before anything is built
    out = tmp_path / "out"
    code = main(["extend", "--input", minimal_desc, "--out", str(out),
                 "--theta", "42.0"])
    assert code == 1
    err = capsys.readouterr().err
    assert "'42.0' is not in [-1, 1]" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


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


def _unusable_run(tmp_path, case):
    """(argv, out) of an analyze run whose input or --out cannot be used:
    each case of test_unusable_files_are_usage_errors_without_report."""
    out = tmp_path / "out"
    minimal = {"operator": {"kind": "minimal_derivative", "n": 16}}
    if case == "input-directory":
        (tmp_path / "d").mkdir()
        desc = str(tmp_path / "d")
    elif case == "stream-directory":
        (tmp_path / "d").mkdir()
        desc = write_descriptor(tmp_path / "t.json", {
            "operator": {"kind": "transport", "stream": "d"}})
    elif case == "out-is-a-file":
        desc = write_descriptor(tmp_path / "m.json", minimal)
        out = tmp_path / "taken"
        out.write_text("")
    elif case == "not-utf8":
        desc = tmp_path / "latin1.json"
        desc.write_bytes(b'{"label": "\xe9", "operator": '
                         b'{"kind": "minimal_derivative", "n": 16}}')
    else:  # huge-minimal-n
        desc = write_descriptor(tmp_path / "m.json", {
            "operator": {"kind": "minimal_derivative", "n": 10 ** 12}})
    return ["analyze", "--input", str(desc), "--out", str(out)], out


@pytest.mark.parametrize("case", ["input-directory", "stream-directory",
                                  "out-is-a-file", "not-utf8",
                                  "huge-minimal-n"])
def test_unusable_files_are_usage_errors_without_report(tmp_path, capsys,
                                                         case):
    argv, out = _unusable_run(tmp_path, case)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (out / "report.json").exists()
    # the huge minimal model is refused before anything is allocated
    assert peak < 16 * 2**20


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
    ["witness", "--t0", "-1"],
    ["extend", "--theta", "nan"],
    ["extend", "--theta", "1.5"],
    ["extend", "--theta", "-1.5"],
    ["evolve", "--horizon", "two"],
    ["analyze", "--seed", "-1"],
    ["verify", "--seed", "-1"],
    ["analyze", "--seed", "1.5"],
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


def test_evolve_exact_above_the_dense_limit_is_a_usage_error(
        tmp_path, capsys, monkeypatch):
    # 66^2 = 4356 cells is past evolution._DENSE_EXP_LIMIT = 4096: the
    # exact flow would form a dense exponential, so it is refused before
    # any state or exponential is built, with exit 1 and no report
    def never(*args, **kwargs):
        raise AssertionError("evolve_exact ran")
    monkeypatch.setattr(cli, "evolve_exact", never)
    closed = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) / np.pi
    write_stream_file(tmp_path / "psi.csv", closed, Grid2D(nx=66, ny=66))
    desc = write_descriptor(tmp_path / "t.json", {
        "operator": {"kind": "transport", "stream": "psi.csv",
                     "mode": "periodic_full"}})
    out = tmp_path / "out"
    assert main(["evolve", "--input", desc, "--out", str(out),
                 "--method", "exact", "--horizon", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: evolve --method exact forms a dense 4356 x 4356 "
        "exponential; the limit is 4096"]
    assert not (out / "report.json").exists()


def test_numpy_warnings_do_not_reach_stderr(tmp_path):
    # the isometry probe of analyze overflows on this matrix; the report
    # refuses the non-finite value, and that refusal is the one stderr
    # line. A fresh process, since pytest would capture the warning
    desc = write_descriptor(tmp_path / "huge.json", {
        "operator": {"kind": "matrix", "data": [[0.0, -1e308],
                                                [1e308, 0.0]]}})
    src = Path(__file__).parents[1] / "src"
    run = subprocess.run([sys.executable, "-m", "skewflow.cli", "analyze",
                          "--input", desc, "--out", str(tmp_path / "out")],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr.splitlines() == [
        "error: cannot write the report: non-finite value in report payload"]
    assert run.stdout == ""
