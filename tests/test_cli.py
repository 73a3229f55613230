import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from curvedqgt.cli import main
from curvedqgt.core import NormalizationWarning


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def test_compute_anharmonic_qmt(runner):
    result = _invoke(runner, [
        "compute", "--model", "anharmonic-1d", "--lambda", "1", "--omega", "1",
        "--n", "0", "--quantities", "qmt",
    ])
    assert result.exit_code == 0
    rec = json.loads(result.stdout.strip())
    assert np.max(np.abs(np.array(rec["qmt"]) - 0.125)) < 1e-6
    assert rec["params"] == {"lambda": 1.0, "omega": 1.0}
    assert rec["diag"]["quad_error"] < 1e-9


def test_compute_generalized_curvature(runner):
    """Engine curvature is the exterior derivative of the connection."""
    result = _invoke(runner, [
        "compute", "--model", "generalized-anharmonic", "--lambda", "1",
        "--b", "0", "--c", "1", "--n", "0", "--quantities", "berry_curvature",
    ])
    assert result.exit_code == 0
    rec = json.loads(result.stdout.strip())
    expected = 0.125 * np.array([[0, 2, 0], [-2, 0, -1], [0, 1, 0]])
    assert np.max(np.abs(np.array(rec["berry_curvature"]) - expected)) < 1e-6


def test_compute_unknown_model_exits_2(runner):
    result = runner.invoke(main, ["compute", "--model", "not-a-model"])
    assert result.exit_code == 2
    assert "unknown model" in result.output


def test_compute_numerical_failure_exits_3(runner):
    # the susceptibility stencil cannot fit between lambda = 0.005 and the
    # domain boundary, which surfaces as a numerical failure
    result = runner.invoke(main, [
        "compute", "--model", "anharmonic-1d", "--lambda", "0.005",
        "--omega", "1", "--quantities", "fidelity_chi",
    ])
    assert result.exit_code == 3
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert "error" in err


def test_compute_missing_parameter_exits_2(runner):
    result = runner.invoke(main, ["compute", "--model", "anharmonic-1d",
                                  "--lambda", "1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args,ground", [
    (["compute", "--model", "coupled-anharmonic-2d", "--k1", "1", "--k2", "0.1",
      "--a", "1.5", "--b", "1.5", "--quantities", "qmt"], "0,0"),
    (["compute", "--model", "anharmonic-1d", "--lambda", "1", "--omega", "1"], "0"),
    (["sweep", "--model", "anharmonic-1d", "--omega", "1",
      "--grid", "lambda=0.9:1.1:2", "--quantities", "qmt"], "0"),
])
def test_unset_n_is_the_ground_state(runner, args, ground):
    """Without --n, compute and sweep take the ground state of any dimension."""
    unset = _invoke(runner, args)
    assert unset.exit_code == 0
    assert unset.stdout_bytes == _invoke(runner, args + ["--n", ground]).stdout_bytes


def test_compute_csv_round_trip(runner):
    result = _invoke(runner, [
        "compute", "--model", "anharmonic-1d", "--lambda", "1.25",
        "--omega", "0.8", "--n", "1",
        "--quantities", "qmt,det,subdet:omega,fidelity_chi,berry_curvature",
        "--format", "csv",
    ])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    assert len(rows) == 1
    for key, text in rows[0].items():
        if key in ("error",) or text == "":
            continue
        value = float(text)
        assert f"{value:.17g}" == text


def test_compute_jsonl_bit_for_bit(runner):
    args = ["compute", "--model", "morse-like", "--lambda", "1", "--omega", "1",
            "--quantities", "qmt,berry_connection"]
    out1 = _invoke(runner, args).stdout
    out2 = _invoke(runner, args).stdout
    assert out1 == out2
    rec = json.loads(out1)
    assert json.loads(json.dumps(rec)) == rec


@pytest.mark.parametrize("args", [
    ["--model", "anharmonic-1d", "--lambda", "1.25", "--omega", "0.8", "--n", "1"],
    ["--model", "morse-like", "--lambda", "0.5", "--omega", "1"],
    ["--model", "flat-oscillator-1d", "--omega", "1.3", "--n", "2"],
    ["--model", "coupled-anharmonic-2d", "--k1", "1", "--k2", "0.1", "--a", "1.5", "--b", "1.5"],
], ids=lambda args: args[1])
def test_real_family_zeros_serialize_without_sign(runner, args):
    """A real family's QGTim, F and beta cells read "0" in CSV, and its
    "im", curvature and connection entries 0.0 in JSONL: never -0."""
    quantities = ["--quantities", "qgt,berry_curvature,berry_connection"]
    out = _invoke(runner, ["compute", *args, *quantities, "--format", "csv"]).stdout
    row = next(csv.DictReader(io.StringIO(out)))
    cells = [v for k, v in row.items() if k.startswith(("QGTim_", "F_", "beta_"))]
    assert cells and set(cells) == {"0"}
    out = _invoke(runner, ["compute", *args, *quantities]).stdout
    rec = json.loads(out, parse_float=str)
    texts = [*np.ravel(rec["qgt"]["im"]), *np.ravel(rec["berry_curvature"]),
             *rec["berry_connection"]]
    assert set(texts) == {"0.0"}


def test_sweep_single_point_matches_compute(runner):
    sweep = _invoke(runner, [
        "sweep", "--model", "anharmonic-1d", "--lambda", "1",
        "--grid", "omega=1.5:1.5:1", "--quantities", "qmt", "--format", "jsonl",
    ])
    assert sweep.exit_code == 0
    compute = _invoke(runner, [
        "compute", "--model", "anharmonic-1d", "--lambda", "1", "--omega", "1.5",
        "--quantities", "qmt",
    ])
    srec = json.loads(sweep.stdout.strip().splitlines()[0])
    crec = json.loads(compute.stdout.strip())
    assert srec["qmt"] == crec["qmt"]


def test_sweep_morse_sign_change_brackets_critical_point(runner):
    result = _invoke(runner, [
        "sweep", "--model", "morse-like", "--lambda", "0.05",
        "--grid", "omega=0.9:1.2:50", "--quantities", "qmt",
        "--format", "csv",
    ])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    om = np.array([float(r["omega"]) for r in rows])
    glw = np.array([float(r["G_12"]) for r in rows])
    flips = np.where(np.diff(np.sign(glw)))[0]
    assert len(flips) == 1
    i = flips[0]
    w0 = om[i] - glw[i] * (om[i + 1] - om[i]) / (glw[i + 1] - glw[i])
    assert abs(w0 - 1.037) < 1e-3


def test_sweep_coupled_gab_decays(runner):
    result = _invoke(runner, [
        "sweep", "--model", "coupled-anharmonic-2d", "--k1", "1", "--a", "1",
        "--b", "1", "--grid", "k2=1e-4:1:4:log", "--n", "0,0",
        "--quantities", "qmt", "--format", "jsonl",
    ])
    assert result.exit_code == 0
    recs = [json.loads(line) for line in result.stdout.strip().splitlines()]
    gab = [abs(r["qmt"][2][3]) for r in recs]
    assert gab[0] < 1e-4
    assert gab == sorted(gab)


@pytest.mark.parametrize("grid", ["lambda=0:1:3:log", "lambda=-1:1:3:log"])
def test_sweep_log_grid_through_zero_exits_2(runner, grid):
    """A log grid needs two nonzero ends of one sign."""
    result = runner.invoke(main, ["sweep", "--model", "anharmonic-1d", "--omega", "1",
                                  "--grid", grid])
    assert result.exit_code == 2
    assert "log grid" in result.output


def test_sweep_deterministic_across_jobs(runner, tmp_path):
    # 40 points form 3 batches (16, 16, 8), which the pool maps in any order
    args = ["sweep", "--model", "anharmonic-1d", "--lambda", "1",
            "--grid", "omega=0.5:2:40", "--n", "1", "--quantities", "qmt,qgt,det"]
    outputs = []
    for jobs in ("1", "2", "4"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert _invoke(runner, args + ["--jobs", jobs, "--out", str(out)]).exit_code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b"\n") == 41


def test_sweep_pool_bounded_by_points(runner, tmp_path, monkeypatch):
    import concurrent.futures

    asked = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            asked.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # 40 points sharing one domain form 3 batches (16, 16, 8)
    args = ["sweep", "--model", "anharmonic-1d", "--lambda", "1",
            "--grid", "omega=0.5:2:40", "--quantities", "qmt"]
    out1 = tmp_path / "serial.csv"
    out8 = tmp_path / "parallel.csv"
    _invoke(runner, args + ["--jobs", "1", "--out", str(out1)])
    assert asked == []
    _invoke(runner, args + ["--jobs", "8", "--out", str(out8)])
    assert asked == [3]
    assert out1.read_bytes() == out8.read_bytes()
    # a sweep that is one batch runs in-process
    _invoke(runner, ["sweep", "--model", "anharmonic-1d", "--lambda", "1",
                     "--grid", "omega=0.5:2:16", "--quantities", "qmt", "--jobs", "8"])
    assert asked == [3]


def test_sweep_records_per_point_failures(runner):
    # omega = 0 sits outside the parameter domain; the row carries the error
    result = _invoke(runner, [
        "sweep", "--model", "anharmonic-1d", "--lambda", "1",
        "--grid", "omega=0:1:2", "--quantities", "qmt", "--format", "jsonl",
    ])
    assert result.exit_code == 0
    recs = [json.loads(line) for line in result.stdout.strip().splitlines()]
    assert any(r.get("error") for r in recs)
    assert any(not r.get("error") for r in recs)
    # RFC 8259 JSON has no NaN: an error row's quad_error is null
    assert "NaN" not in result.stdout
    assert [r["diag"]["quad_error"] for r in recs if r.get("error")] == [None]


def _sweep_records(runner, args):
    result = _invoke(runner, ["sweep", *args, "--format", "jsonl"])
    assert result.exit_code == 0
    return [json.loads(line) for line in result.stdout.strip().splitlines()]


def _compute_record(runner, model, params, n, quantities):
    flags = [arg for name, v in params.items() for arg in (f"--{name}", repr(v))]
    result = _invoke(runner, ["compute", "--model", model, *flags, "--n", n,
                              "--quantities", quantities])
    assert result.exit_code == 0
    return json.loads(result.stdout)


def _tensor_entries(rec):
    return np.concatenate([np.ravel(rec["qgt"]["re"]), np.ravel(rec["qgt"]["im"]),
                           rec["berry_connection"]])


@pytest.mark.parametrize("model,fixed,grid,n", [
    ("anharmonic-1d", ["--omega", "1"], "lambda=0.5:1.8:16", "1"),
    ("morse-like", ["--lambda", "1"], "omega=0.6:1.7:16", "0"),
    ("generalized-anharmonic", ["--lambda", "1", "--b", "0.2"], "c=0.8:1.6:16", "1"),
    ("flat-oscillator-1d", [], "omega=0.5:1.8:16", "2"),
])
def test_sweep_batch_rows_match_compute(runner, model, fixed, grid, n):
    """A batch is one Gram stack; each of its rows equals compute at that point
    to rounding, and its error stays within compute's.  A stack may stop a
    DE level deeper than a point alone, so its error can be far smaller;
    where both stop at the same level the two estimates differ by rounding
    (up to 6e-16 seen), hence the 1e-14 allowance."""
    quantities = "qgt,berry_connection"
    for rec in _sweep_records(runner, ["--model", model, *fixed, "--grid", grid,
                                       "--n", n, "--quantities", quantities]):
        solo = _compute_record(runner, model, rec["params"], n, quantities)
        ref = _tensor_entries(solo)
        assert np.max(np.abs(_tensor_entries(rec) - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert rec["diag"]["quad_error"] <= max(solo["diag"]["quad_error"], 1e-14) + 1e-14


def test_sweep_failing_points_leave_their_batch_intact(runner, monkeypatch):
    """An out-of-domain point splits a batch, and a batch with a raising point
    falls back to its points one at a time: only the failing rows carry
    errors, the fallback rows equal compute bit for bit, and no warning of
    the abandoned stack is emitted a second time.

    The family is scaled by 1.001, so every Gram warns that it is not
    normalized.  The planted point raises whenever it is evaluated alone, and
    a stack holding its stencil point [0.5, 0.76] raises too: in its batch
    that is its stacked fidelity overlap, after the Gram stack has warned."""
    import dataclasses

    import curvedqgt.models as mdl
    from curvedqgt.core import EngineError

    real_get_model = mdl.get_model
    base = real_get_model("anharmonic-1d")

    def psi_eval(lamv, n, x):
        points = np.reshape(lamv, (len(lamv), -1)).T
        alone = np.ndim(lamv[0]) == 0 and np.allclose(lamv, [0.5, 0.75])
        if alone or np.any(np.all(np.isclose(points, [0.5, 0.76]), axis=1)):
            raise EngineError("planted failure")
        return 1.001 * base.psi.eval(lamv, n, x)

    def psi_grad(lamv, n, x):
        return 1.001 * base.psi.analytic_param_grad(lamv, n, x)

    planted = dataclasses.replace(base, psi=dataclasses.replace(
        base.psi, eval=psi_eval, analytic_param_grad=psi_grad))

    def get_model(name, hbar=1.0):
        return planted if name == "anharmonic-1d" else real_get_model(name, hbar)

    monkeypatch.setattr(mdl, "get_model", get_model)
    # omega <= 0 lies outside the domain: rows 0-1 and 8-9 of the 16
    quantities = "qgt,berry_connection,fidelity_chi"
    args = ["--model", "anharmonic-1d", "--grid", "lambda=0.5:1:2",
            "--grid", "omega=-0.25:1.5:8", "--quantities", quantities]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recs = _sweep_records(runner, args)
    messages = [str(w.message) for w in caught if w.category is NormalizationWarning]
    assert len(messages) == len(set(messages)) == 11  # 12 points, 1 raising

    errors = [i for i, rec in enumerate(recs) if rec.get("error")]
    assert errors == [0, 1, 4, 8, 9]
    assert "planted failure" in recs[4]["error"]
    assert all("outside the domain" in recs[i]["error"] for i in (0, 1, 8, 9))
    for i, rec in enumerate(recs):
        if rec.get("error"):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NormalizationWarning)
            solo = _compute_record(runner, "anharmonic-1d", rec["params"], "0", quantities)
        if i < 8:  # the fallback batch: the single-point path itself
            assert rec == solo
        else:
            ref = _tensor_entries(solo)
            assert np.max(np.abs(_tensor_entries(rec) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("args,shapes", [
    # Morse domains depend on lambda only, so an omega sweep shares one
    (["--model", "morse-like", "--lambda", "1", "--grid", "omega=0.6:1.7:20"],
     [(16, 2), (4, 2)]),
    # ... and a lambda sweep does not: each point is a stack of one
    (["--model", "morse-like", "--omega", "1", "--grid", "lambda=0.6:1.7:2"],
     [(1, 2), (1, 2)]),
    # 2-D sweeps batch like 1-D ones
    (["--model", "coupled-anharmonic-2d", "--k1", "1", "--a", "1", "--b", "1",
      "--grid", "k2=0.1:0.3:2"], [(2, 4)]),
])
def test_sweep_bracket_call_per_batch(runner, monkeypatch, args, shapes):
    from curvedqgt.geometry import GeometryEngine

    seen = []
    real_bracket = GeometryEngine.bracket

    def bracket(self, lamv, columns):
        seen.append(lamv.shape)
        return real_bracket(self, lamv, columns)

    monkeypatch.setattr(GeometryEngine, "bracket", bracket)
    recs = _sweep_records(runner, [*args, "--quantities", "qmt"])
    assert seen == shapes
    assert not any(rec.get("error") for rec in recs)


def test_sweep_repeated_grid_parameter_exits_2(runner):
    result = runner.invoke(main, ["sweep", *ANHARMONIC, "--grid", "omega=1:2:2",
                                  "--grid", "omega=1:3:2"])
    assert result.exit_code == 2
    assert "more than once" in result.output
    # a parameter flag next to a grid of that parameter stays allowed
    assert _invoke(runner, ["sweep", *ANHARMONIC, "--grid", "omega=1:2:2"]).exit_code == 0


def test_hbar_flag_reaches_the_model(runner):
    result = _invoke(runner, [
        "compute", "--model", "anharmonic-1d", "--lambda", "1", "--omega", "1",
        "--hbar", "2", "--quantities", "qmt",
    ])
    rec = json.loads(result.stdout.strip())
    assert rec["config"]["hbar"] == 2.0
    # this family's metric components carry no hbar dependence
    assert np.max(np.abs(np.array(rec["qmt"]) - 0.125)) < 1e-8


def test_config_file_mirrors_flags(runner, tmp_path):
    cfg = {"model": "anharmonic-1d", "params": {"lambda": 1.0, "omega": 1.0},
           "quantities": ["qmt"], "format": "jsonl"}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    result = _invoke(runner, ["compute", "--config", str(path)])
    assert result.exit_code == 0
    rec = json.loads(result.stdout.strip())
    assert np.max(np.abs(np.array(rec["qmt"]) - 0.125)) < 1e-6
    # flags override the file
    result = _invoke(runner, ["compute", "--config", str(path), "--omega", "2"])
    rec = json.loads(result.stdout.strip())
    assert rec["params"]["omega"] == 2.0



def _with_config(runner, tmp_path, args, config):
    """Run ``args`` plus a config file holding ``config``."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return runner.invoke(main, args + ["--config", str(path)])


def _assert_config_matches_flags(runner, tmp_path, args, config, flags):
    by_flag = runner.invoke(main, args + flags)
    by_file = _with_config(runner, tmp_path, args, config)
    assert by_file.exit_code == by_flag.exit_code
    assert by_file.stdout == by_flag.stdout
    return by_file


ANHARMONIC = ["--model", "anharmonic-1d", "--lambda", "1", "--omega", "1"]


def test_config_n_matches_flag_in_compute(runner, tmp_path):
    result = _assert_config_matches_flags(
        runner, tmp_path, ["compute", *ANHARMONIC, "--quantities", "qmt"],
        {"n": "1"}, ["--n", "1"])
    assert json.loads(result.stdout)["n"] == [1]


def test_config_n_matches_flag_in_sweep(runner, tmp_path):
    args = ["sweep", "--model", "coupled-anharmonic-2d", "--k1", "1", "--a", "1",
            "--b", "1", "--grid", "k2=0.5:1:2", "--quantities", "qmt",
            "--format", "jsonl"]
    result = _assert_config_matches_flags(runner, tmp_path, args,
                                          {"n": [0, 1]}, ["--n", "0,1"])
    assert [json.loads(line)["n"] for line in result.stdout.splitlines()] \
        == [[0, 1], [0, 1]]


def test_config_k_and_grid_size_match_flags_in_spectrum(runner, tmp_path):
    result = _assert_config_matches_flags(
        runner, tmp_path, ["spectrum", *ANHARMONIC],
        {"k": 2, "grid-size": 400}, ["--k", "2", "--grid-size", "400"])
    assert len(list(csv.DictReader(io.StringIO(result.stdout)))) == 2


def test_config_route_tol_matches_flag_in_validate(runner, tmp_path):
    result = _assert_config_matches_flags(
        runner, tmp_path, ["validate", *ANHARMONIC],
        {"route-tol": 1e-30}, ["--route-tol", "1e-30"])
    assert result.exit_code == 1
    assert json.loads(result.stdout)["checks"]["route_equivalence"]["tolerance"] == 1e-30


def test_config_samples_and_energy_match_flags_in_phase_portrait(runner, tmp_path):
    result = _assert_config_matches_flags(
        runner, tmp_path, ["phase-portrait", "--format", "jsonl"],
        {"samples": 10, "energy": [0.5, 1.0]},
        ["--samples", "10", "--energy", "0.5", "--energy", "1.0"])
    recs = [json.loads(line) for line in result.stdout.splitlines()]
    assert [r["energy"] for r in recs] == [0.5, 1.0]
    assert all(len(r["points"]) == 20 for r in recs)


def test_flag_beats_config_for_options(runner, tmp_path):
    # --k and --format come from the flags, --grid-size from the file
    args = ["spectrum", *ANHARMONIC, "--k", "3", "--format", "jsonl"]
    result = _with_config(runner, tmp_path, args,
                          {"k": 2, "grid-size": 400, "format": "csv"})
    assert result.exit_code == 0
    assert result.stdout == runner.invoke(main, args + ["--grid-size", "400"]).stdout
    assert [json.loads(line)["n"] for line in result.stdout.splitlines()] == [0, 1, 2]


def test_config_non_numeric_parameter_exits_2(runner, tmp_path):
    result = _with_config(runner, tmp_path, ["compute", "--model", "anharmonic-1d"],
                          {"params": {"lambda": "one", "omega": 1.0}})
    assert result.exit_code == 2
    assert "--lambda" in result.output


def test_config_malformed_json_exits_2(runner, tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{\"model\": ")
    result = runner.invoke(main, ["compute", "--config", str(path)])
    assert result.exit_code == 2


def test_validate_quantum_number_components_exit_2(runner):
    result = runner.invoke(main, ["validate", *ANHARMONIC, "--n", "0,0"])
    assert result.exit_code == 2
    assert "1-component quantum number" in result.output


def test_validate_passes_on_anharmonic(runner):
    result = _invoke(runner, [
        "validate", "--model", "anharmonic-1d", "--lambda", "1", "--omega", "1",
    ])
    assert result.exit_code == 0
    report = json.loads(result.stdout.strip())
    assert report["pass"]
    assert report["checks"]["route_equivalence"]["max_deviation"] <= 1e-4


def test_validate_morse_route_deviation(runner):
    result = _invoke(runner, [
        "validate", "--model", "morse-like", "--lambda", "1", "--omega", "1",
    ])
    assert result.exit_code == 0
    report = json.loads(result.stdout.strip())
    assert report["checks"]["route_equivalence"]["max_deviation"] <= 1e-4


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_validate_without_samples_exits_2(runner, samples):
    """Zero sampled points would pass every check vacuously."""
    result = runner.invoke(main, ["validate", "--model", "anharmonic-1d",
                                  "--samples", samples])
    assert result.exit_code == 2
    assert "--samples" in result.output


def test_spectrum_command(runner):
    result = _invoke(runner, [
        "spectrum", "--model", "anharmonic-1d", "--lambda", "1", "--omega", "1",
        "--k", "4",
    ])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    energies = [float(r["energy"]) for r in rows]
    assert np.max(np.abs(np.array(energies) - np.array([0.5, 1.5, 2.5, 3.5]))) < 1e-4


@pytest.mark.parametrize("k", ["0", "-1"])
def test_spectrum_fewer_than_one_level_exits_2(runner, k):
    result = runner.invoke(main, ["spectrum", *ANHARMONIC, "--k", k])
    assert result.exit_code == 2
    assert "x>=1" in result.output


@pytest.mark.parametrize("model,params,k,cap", [
    ("flat-oscillator-1d", ["--omega", "1"], "11", 10),
    ("morse-like", ["--lambda", "1", "--omega", "1"], "12", 10),
    ("anharmonic-1d", ["--lambda", "1", "--omega", "1"], "21", 20),
])
def test_spectrum_beyond_level_cap_exits_2(runner, model, params, k, cap):
    result = runner.invoke(main, ["spectrum", "--model", model, *params, "--k", k])
    assert result.exit_code == 2
    assert f"0 to {cap} levels" in result.output


def test_spectrum_at_level_cap_gives_every_level(runner):
    result = _invoke(runner, ["spectrum", *ANHARMONIC, "--k", "20"])
    assert result.exit_code == 0
    assert len(list(csv.DictReader(io.StringIO(result.stdout)))) == 20


def test_phase_portrait_turning_point(runner):
    result = _invoke(runner, [
        "phase-portrait", "--omega", "1", "--lambda", "1", "--energy", "1",
        "--samples", "50", "--format", "jsonl",
    ])
    assert result.exit_code == 0
    rec = json.loads(result.stdout.strip())
    x0, p0 = rec["points"][0]
    assert abs(x0 - (-math.log(2.0))) < 1e-9
    assert p0 == 0.0
    # the polyline closes: the mirrored branch ends back at the turning point
    assert rec["points"][-1][0] == pytest.approx(x0)


def test_phase_portrait_mirrored_under_lambda_sign(runner):
    out_pos = json.loads(_invoke(runner, [
        "phase-portrait", "--omega", "1", "--lambda", "0.8", "--energy", "1",
        "--samples", "40", "--format", "jsonl",
    ]).stdout.strip())
    out_neg = json.loads(_invoke(runner, [
        "phase-portrait", "--omega", "1", "--lambda", "-0.8", "--energy", "1",
        "--samples", "40", "--format", "jsonl",
    ]).stdout.strip())
    xs_pos = np.array([p[0] for p in out_pos["points"]])
    xs_neg = np.array([p[0] for p in out_neg["points"]])
    ps_pos = np.array([p[1] for p in out_pos["points"]])
    ps_neg = np.array([p[1] for p in out_neg["points"]])
    assert np.allclose(xs_pos, -xs_neg, atol=1e-12)
    assert np.allclose(ps_pos, ps_neg, atol=1e-12)


def test_phase_portrait_energy_below_minimum(runner):
    result = _invoke(runner, [
        "phase-portrait", "--omega", "1", "--lambda", "1", "--energy", "0",
        "--format", "jsonl",
    ])
    assert result.exit_code == 0
    rec = json.loads(result.stdout.strip())
    assert rec["points"] == []
    assert "note" in rec


_UNREAD_OPTIONS = [
    ("compute", "--jobs"),
    ("validate", "--format"), ("validate", "--jobs"),
    ("spectrum", "--jobs"), ("spectrum", "--quad-rel-tol"), ("spectrum", "--fd-step"),
    *(("phase-portrait", flag) for flag in (
        "--model", "--hbar", "--jobs", "--quad-rel-tol", "--fd-step",
        "--k1", "--k2", "--a", "--b", "--c")),
]


@pytest.mark.parametrize("command,flag", _UNREAD_OPTIONS)
def test_option_a_command_does_not_read_exits_2(runner, command, flag):
    value = {"--format": "csv", "--model": "anharmonic-1d"}.get(flag, "1")
    result = runner.invoke(main, [command, flag, value])
    assert result.exit_code == 2
    assert "No such option" in result.output


_BAD_NUMERIC_OPTIONS = [
    ["compute", *ANHARMONIC, "--quad-rel-tol", "0"],
    ["compute", *ANHARMONIC, "--fd-step", "-1"],
    ["compute", *ANHARMONIC, "--n", "-1"],
    ["phase-portrait", "--samples", "-1"],
    ["spectrum", *ANHARMONIC, "--grid-size", "0"],
    ["spectrum", *ANHARMONIC, "--grid-size", "3", "--k", "4"],
    ["compute", *ANHARMONIC, "--quad-rel-tol", "nan"],
    ["sweep", *ANHARMONIC, "--grid", "omega=1:2:2", "--jobs", "0"],
    ["sweep", *ANHARMONIC, "--grid", "omega=1:2:2", "--jobs", "-3"],
    ["validate", *ANHARMONIC, "--route-tol", "-1"],
    ["validate", *ANHARMONIC, "--route-tol", "nan"],
    ["validate", *ANHARMONIC, "--seed", "-1"],
    ["compute", *ANHARMONIC, "--quad-rel-tol", "inf"],
    ["compute", *ANHARMONIC, "--fd-step", "inf"],
    ["validate", *ANHARMONIC, "--route-tol", "inf"],
    *(["compute", *ANHARMONIC, "--hbar", v] for v in ("0", "-1", "nan", "inf")),
    *(["spectrum", *ANHARMONIC, "--hbar", v] for v in ("0", "-1")),
    *(["phase-portrait", flag, v] for flag, v in (
        ("--omega", "0"), ("--omega", "nan"), ("--lambda", "nan"), ("--lambda", "0"),
        ("--energy", "nan"), ("--levels", "-1"))),
]


@pytest.mark.parametrize("args", _BAD_NUMERIC_OPTIONS, ids=" ".join)
def test_bad_numeric_option_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Error:" in result.output
