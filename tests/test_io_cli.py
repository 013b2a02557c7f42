import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mechmorph as mm
from mechmorph import bifurcation, cli, figures, stability
from mechmorph.cli import main
from mechmorph.errors import ConvergenceError
from mechmorph.io import dump_json, fmt


def test_fmt_round_trips_doubles():
    rng = np.random.Generator(np.random.PCG64(61))
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        assert float(fmt(x)) == x


def test_dump_json_is_valid_and_exact():
    obj = {
        "a": 0.1 + 0.2,
        "list": [1, 2.5, -1e-300],
        "flag": True,
        "none": None,
        "name": 'quo"te',
    }
    parsed = json.loads(dump_json(obj))
    assert parsed["a"] == 0.1 + 0.2
    assert parsed["list"][2] == -1e-300
    assert parsed["flag"] is True
    assert parsed["none"] is None
    assert parsed["name"] == 'quo"te'


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_dump_json_round_trips_finite_floats(x):
    # every double, -0.0 and subnormals included, survives in at most 17
    # significant digits; integral values print without a point, so JSON
    # integers are read back as floats
    text = dump_json({"x": x, "xs": [np.float64(x), -x]})
    parsed = json.loads(text, parse_int=float)
    for got, want in ((parsed["x"], x), (parsed["xs"][0], x), (parsed["xs"][1], -x)):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    digits = fmt(x).lstrip("-").partition("e")[0].replace(".", "").lstrip("0")
    assert len(digits) <= 17


def run_cli(args):
    return main(args)


def test_cli_bounds_writes_artifacts(tmp_path):
    out = tmp_path / "bounds"
    assert run_cli(["bounds", "--kappa", "2", "--out", str(out)]) == 0
    record = json.loads((out / "bounds.json").read_text())
    assert record["d2"] == pytest.approx(1.0 / (4.0 * np.pi**2), rel=1e-12)
    assert record["d_max"] == pytest.approx(30.0 / (4.0 * np.pi**2), rel=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "bounds"
    assert manifest["config"]["kappa"] == 2.0
    # bounds reads kappa and out of the common options, and records only those
    assert set(manifest["config"]) == {"kappa", "out"}


def test_cli_simulate_and_determinism(tmp_path):
    args = ["simulate", "--D", "0.01", "--kappa", "1.5", "--t-end", "2",
            "--grid", "64", "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    traj1 = (out1 / "trajectory.csv").read_bytes()
    traj2 = (out2 / "trajectory.csv").read_bytes()
    assert traj1 == traj2
    state1 = (out1 / "final_state.csv").read_text().splitlines()
    assert state1[0] == "u"
    assert len(state1) == 65
    header = traj1.decode().splitlines()[0]
    assert header == "t,mass,energy,max_u,min_u"


@pytest.mark.parametrize(
    "args",
    [["steady"], ["spectrum", "--kappa", "1.6"], ["branch", "--D", "0.02"], ["sweep"],
     ["bounds", "--kappa", "2"]],
    ids=lambda args: args[0],
)
def test_cli_artifacts_are_byte_identical(tmp_path, monkeypatch, capsys, args):
    # manifest.json records --out, so both runs use the same relative path
    runs = []
    for name in ("first", "second"):
        cwd = tmp_path / name
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert run_cli(args + ["--out", "out"]) == 0
        files = {p.relative_to(cwd): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
        runs.append((files, capsys.readouterr().out))
    assert os.path.join("out", "manifest.json") in {str(p) for p in runs[0][0]}
    assert runs[0] == runs[1]


def test_cli_random_init_reproducible(tmp_path):
    args = ["simulate", "--D", "0.02", "--kappa", "1.2", "--t-end", "1",
            "--grid", "64", "--seed", "11", "--init", "random"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_cli_steady_json_schema(tmp_path):
    out = tmp_path / "steady"
    code = run_cli(["steady", "--D", "0.01", "--kappa", "1.5", "--grid", "128",
                    "--out", str(out)])
    assert code == 0
    record = json.loads((out / "steady.json").read_text())
    assert set(record) == {"D", "kappa", "modality", "energy", "residual_norm",
                           "n_points", "values"}
    assert record["modality"] == 1
    assert record["n_points"] == 128
    assert len(record["values"]) == 128
    assert record["residual_norm"] < 1e-8


def test_cli_spectrum_json_schema(tmp_path):
    out = tmp_path / "spectrum_out"
    code = run_cli(["spectrum", "--D", "0.01", "--kappa", "1.5", "--grid", "128",
                    "--out", str(out)])
    assert code == 0
    record = json.loads((out / "spectrum.json").read_text())
    assert set(record) == {"lambdas", "betas", "M", "nonlocal", "verdict",
                           "leading_nu", "translation_nu", "crosscheck_error"}
    assert record["verdict"] in {"stable", "unstable", "marginal"}
    # the verdict of a stable pattern is "marginal"; leading_nu decides
    assert record["leading_nu"] < 0
    assert abs(record["translation_nu"]) < 1e-7
    assert record["crosscheck_error"] < 1e-6
    assert record["M"] > 0


def test_cli_branch_csv(tmp_path, capsys):
    out = tmp_path / "branch"
    code = run_cli(["branch", "--D", "0.02", "--n", "1", "--step", "0.05",
                    "--max-points", "6", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["terminated_by"], summary["reason"]) == ("step_limit", None)
    lines = (out / "branch.csv").read_text().splitlines()
    assert lines[0] == "s,kappa,amplitude,energy,leading_nu,stable,is_fold"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[1]) > 1.78  # kappa near onset
    assert first[5] == "1"  # stable near onset in the supercritical regime
    assert all(line.split(",")[6] == "0" for line in lines[1:])


def test_cli_branch_refuses_a_coarse_grid_before_building_lower_modes(tmp_path, capsys,
                                                                     monkeypatch):
    built = []
    point = bifurcation.BifPoint
    monkeypatch.setattr(bifurcation, "BifPoint", lambda **kw: built.append(kw["n"]) or point(**kw))
    out = tmp_path / "branch"
    assert run_cli(["branch", "--n", "100000", "--out", str(out)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message == "mode 100000 needs at least 800002 grid points, got 256"
    assert built == [100000] and not out.exists()


def test_cli_branch_kappa_min_alone_bounds_the_branch(tmp_path, capsys):
    # kappa_1 = 1.790 at D = 0.02 lies below --kappa-min: the first point
    # is outside the range and ends the branch
    out = tmp_path / "branch"
    assert run_cli(["branch", "--D", "0.02", "--kappa-min", "2.0", "--max-points", "5",
                    "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["points"], summary["terminated_by"]) == (1, "kappa_bound")
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    assert (cfg["kappa_min"], cfg["kappa_max"]) == (2.0, 0.0)


def test_cli_sweep_csv(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--D-values", "0.02", "--kappa-values", "2.2",
                    "--trials", "1", "--t-end", "250", "--workers", "1",
                    "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "D,kappa,class,n_outcomes,n_failed"
    assert len(lines) == 2
    assert lines[1].split(",")[2:] == ["pattern-only", "1", "0"]
    overlays = (out / "overlays.csv").read_text().splitlines()
    assert overlays[0] == "D,kappa_c"


def test_cli_sweep_takes_the_library_range_of_trials(tmp_path, capsys):
    # trials = 0 classifies each cell from the bump seed alone, as mm.sweep does
    args = ["sweep", "--D-values", "0.02", "--kappa-values", "2.2", "--t-end", "250"]
    assert run_cli(args + ["--trials", "0", "--out", str(tmp_path / "zero")]) == 0
    lines = (tmp_path / "zero" / "sweep.csv").read_text().splitlines()
    assert lines[1].split(",")[2:] == ["pattern-only", "1", "0"]
    capsys.readouterr()
    assert run_cli(args + ["--trials", "-1", "--out", str(tmp_path / "negative")]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "option trials must be >= 0, got -1"
    assert not (tmp_path / "negative" / "manifest.json").exists()


# (preset, {file: (header, data rows)})
FIGURE_FILES = [
    ("fig1-middle", {"fig1_middle_profiles.csv": (
        "x,kappa_1,kappa_1.5,kappa_2,kappa_2.5,kappa_3", 512)}),
    ("fig1-right", {"fig1_right_profiles.csv": ("x,D_0.0001,D_0.0003,D_0.001", 1024)}),
    # the overlays: 6 D rows, the second header, 8 kappa rows
    ("fig2-top", {"fig2_top_sweep.csv": ("D,kappa,class,n_outcomes,n_failed", 48),
                  "fig2_top_overlays.csv": ("D,kappa_c", 15)}),
]


@pytest.mark.parametrize("kind, files", FIGURE_FILES, ids=[kind for kind, _ in FIGURE_FILES])
def test_figure_presets_write_their_csv_sets(tmp_path, kind, files):
    paths = figures.emit_figure_data(kind, str(tmp_path))
    assert [os.path.basename(path) for path in paths] == list(files)
    csv = {name: (tmp_path / name).read_text().splitlines() for name in files}
    for name, (header, rows) in files.items():
        assert (csv[name][0], len(csv[name]) - 1) == (header, rows)
    if kind == "fig2-top":
        assert csv["fig2_top_overlays.csv"][7] == "kappa,d_min,d_max"
        classes = {line.split(",")[2] for line in csv["fig2_top_sweep.csv"][1:]}
        assert classes <= {"constant-only", "pattern-only", "bistable", "unknown"}


def test_fig1_left_stitches_its_pieces_once_per_boundary(tmp_path, monkeypatch):
    monkeypatch.setattr(figures, "SNAPSHOT_TIMES", (0.25, 0.5, 1.0))
    trajectory, profiles = figures.emit_figure_data("fig1-left", str(tmp_path))
    times = np.loadtxt(trajectory, delimiter=",", skiprows=1)[:, 0]
    assert np.all(np.diff(times) > 0.0)
    # pieces of 250, 250 and 500 steps, recorded every 100 steps and at their ends
    assert times.size == 4 + 3 + 5
    for boundary in (0.0, 0.25, 0.5, 1.0):
        assert np.count_nonzero(np.isclose(times, boundary, rtol=0.0, atol=1e-12)) == 1
    with open(profiles) as csv:
        assert csv.readline().strip() == "x,t_0,t_0.25,t_0.5,t_1"


def test_suggest_grid_at_its_thresholds():
    for threshold, at, below in ((5e-3, 256, 512), (5e-4, 512, 1024), (5e-5, 1024, 2048)):
        assert figures.suggest_grid(threshold) == at
        assert figures.suggest_grid(np.nextafter(threshold, 0.0)) == below
    assert (figures.suggest_grid(1.0), figures.suggest_grid(1e-9)) == (256, 2048)


def test_cli_steady_from_the_bump(tmp_path, capsys):
    assert run_cli(["steady", "--init", "bump", "--out", str(tmp_path / "bump")]) == 0
    assert json.loads(capsys.readouterr().out)["modality"] == 1


def test_cli_config_rejects_an_unknown_init_profile(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[steady]\ninit = spiral\n")
    out = tmp_path / "spiral"
    assert run_cli(["steady", "--config", str(config), "--out", str(out)]) == 2
    assert "unknown init profile" in json.loads(capsys.readouterr().err)["message"]
    assert not (out / "manifest.json").exists()


def test_cli_figure_branch_preset(tmp_path):
    out = tmp_path / "fig"
    code = run_cli(["figure", "--kind", "fig2-bottom-right", "--out", str(out)])
    assert code == 0
    path = out / "fig2_bottom_right_branch.csv"
    assert path.exists()
    assert len(path.read_text().splitlines()) > 10


def test_cli_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[common]\nkappa = 2.0\nout = %s\n" % (tmp_path / "cfg_out"))
    assert run_cli(["bounds", "--config", str(config)]) == 0
    record = json.loads((tmp_path / "cfg_out" / "bounds.json").read_text())
    assert record["kappa"] == 2.0
    # a flag overrides the file
    assert run_cli(["bounds", "--config", str(config), "--kappa", "3.0"]) == 0
    record = json.loads((tmp_path / "cfg_out" / "bounds.json").read_text())
    assert record["kappa"] == 3.0


def test_cli_config_sets_mixed_case_keys(tmp_path):
    # configparser lowercases option names; D and D_values keep their case,
    # and keys match without regard to case
    config = tmp_path / "run.ini"
    config.write_text("[common]\nD = 0.02\n\n[sweep]\nD_values = 0.02\nKAPPA_VALUES = 2.2\n"
                      "trials = 1\nt_end = 250\n")
    out = tmp_path / "cfg_sweep"
    assert run_cli(["sweep", "--config", str(config), "--out", str(out)]) == 0
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    # sweep does not read the [common] D, so the manifest does not record it
    assert "D" not in cfg
    assert (cfg["D_values"], cfg["kappa_values"]) == ("0.02", "2.2")
    assert cfg["trials"] == 1
    assert (out / "sweep.csv").read_text().splitlines()[1].startswith("0.02,")
    # branch reads the [common] D: it is recorded and the branch starts at
    # its onset 1 + 4 pi^2 D = 1.79 (1.39 at the default D = 0.01)
    config.write_text("[common]\nD = 0.02\n\n[branch]\nMAX_POINTS = 2\n")
    out = tmp_path / "cfg_branch"
    assert run_cli(["branch", "--config", str(config), "--out", str(out)]) == 0
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    assert (cfg["D"], cfg["max_points"]) == (0.02, 2)
    first = (out / "branch.csv").read_text().splitlines()[1].split(",")
    assert float(first[1]) > 1.78


@pytest.mark.parametrize("args", [
    ["steady", "--t-end", "inf"],
    ["branch", "--kappa-max", "inf"],
    ["simulate", "--steady-tol", "nan"],
    ["branch", "--kappa-min=-inf"],
])
def test_cli_rejects_non_finite_options(tmp_path, capsys, args):
    assert run_cli(args + ["--out", str(tmp_path / "x")]) == 2
    assert "must be finite" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "x" / "manifest.json").exists()


def test_cli_exit_codes(tmp_path, capsys):
    assert run_cli(["simulate", "--D", "-1", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "configuration"
    assert run_cli(["bounds", "--kappa", "2", "--config",
                    str(tmp_path / "missing.ini")]) == 2
    assert run_cli(["simulate", "--grid", "100", "--out", str(tmp_path / "y")]) == 2
    # a config value that does not parse as its option's type (simulate
    # reads grid; bounds does not, and skips the key)
    config = tmp_path / "run.ini"
    config.write_text("[common]\ngrid = 1.5\n")
    capsys.readouterr()
    assert run_cli(["simulate", "--config", str(config), "--out", str(tmp_path / "z")]) == 2
    assert "'grid'" in json.loads(capsys.readouterr().err)["message"]
    # a negative worker count; 0 means one per CPU
    assert run_cli(["sweep", "--workers", "-1", "--D-values", "0.02", "--kappa-values", "2.2",
                    "--trials", "1", "--out", str(tmp_path / "w")]) == 2
    assert "workers" in json.loads(capsys.readouterr().err)["message"]
    assert run_cli(["figure", "--kind", "fig2-top", "--workers", "-2",
                    "--out", str(tmp_path / "w")]) == 2
    assert "workers" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("args, flag", [
    (["sweep", "--D", "0.02"], "--D"),
    (["simulate", "--grid", "x"], "--grid"),
    (["simulate", "--t-e", "20"], "--t-e"),
    (["nosuch"], "nosuch"),
    ([], "command"),
])
def test_cli_rejected_command_line_is_a_configuration_error(tmp_path, capsys, args, flag):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(args + (["--out", str(tmp_path / "x")] if args else []))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    error = json.loads(captured.err)
    assert error["error"] == "configuration"
    assert flag in error["message"]
    assert "usage" not in captured.err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("args", [["--help"], ["--version"], ["simulate", "--help"]])
def test_cli_help_and_version_exit_zero(capsys, args):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(args)
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def test_cli_workers_zero_means_one_per_cpu(tmp_path, monkeypatch):
    # one per CPU of the affinity mask where the platform has one (under
    # taskset -c 0 it holds one CPU, while os.cpu_count() counts them all),
    # else os.cpu_count()
    seen = []

    def stop(*args, workers, **kwargs):
        seen.append(workers)
        raise ConvergenceError("stop after recording the worker count")

    monkeypatch.setattr(cli, "sweep", stop)
    monkeypatch.setattr(figures, "sweep", stop)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_cli(["sweep", "--workers", "0", "--out", str(tmp_path / "s")]) == 3
    assert run_cli(["figure", "--kind", "fig2-top", "--workers", "0",
                    "--out", str(tmp_path / "f")]) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert run_cli(["sweep", "--workers", "0", "--out", str(tmp_path / "s")]) == 3
    assert seen == [1, 1, 2]


@pytest.mark.parametrize("args, message", [
    # the command refuses the init profile, the stepper the step length
    (["steady", "--config", "run.ini"], "unknown init profile"),
    (["simulate", "--dt", "0.6"], "stability guard"),
    (["bounds", "--kappa", "1e-14"], "kappa must be finite and >= 1e-09"),
], ids=["unknown-init", "dt-beyond-guard", "kappa-below-floor"])
def test_cli_refused_run_leaves_no_output_directory(tmp_path, monkeypatch, capsys, args,
                                                    message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text("[steady]\ninit = spiral\n")
    assert run_cli(args + ["--out", "o"]) == 2
    assert message in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "o").exists()


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    # relaxation cannot reach a steady state in so short a horizon
    code = run_cli(["steady", "--D", "0.01", "--kappa", "1.5", "--grid", "64",
                    "--t-end", "0.01", "--out", str(tmp_path / "fail")])
    assert code == 3
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "ConvergenceError"


def test_profiles_csv_writer(tmp_path, grid256):
    from mechmorph.io import write_profiles_csv

    path = tmp_path / "profiles.csv"
    write_profiles_csv(path, grid256, {"a": np.zeros(256), "b": np.ones(256)})
    lines = path.read_text().splitlines()
    assert lines[0] == "x,a,b"
    assert len(lines) == 257


def test_cli_spectrum_computes_one_spectrum(tmp_path, monkeypatch):
    stacks = []
    spectra = stability._spectra

    def counting(states, *args, **kwargs):
        stacks.append(len(states))
        return spectra(states, *args, **kwargs)

    monkeypatch.setattr(stability, "_spectra", counting)
    out = tmp_path / "spec"
    assert run_cli(["spectrum", "--D", "0.01", "--kappa", "1.6", "--grid", "128",
                    "--out", str(out)]) == 0
    assert stacks == [1]  # one stack, of one state
    record = json.loads((out / "spectrum.json").read_text())
    assert record["leading_nu"] < 0.0
    assert record["crosscheck_error"] < 1e-6


# (command, common option it does not read)
IGNORED_COMMON = [
    ("branch", "kappa"), ("branch", "seed"),
    ("sweep", "D"), ("sweep", "kappa"), ("sweep", "grid"),
    ("bounds", "D"), ("bounds", "grid"), ("bounds", "seed"),
    ("figure", "D"), ("figure", "kappa"), ("figure", "grid"),
]


@pytest.mark.parametrize("command, key", IGNORED_COMMON)
def test_cli_rejects_a_common_flag_the_command_ignores(tmp_path, capsys, command, key):
    # sweep --D must not be taken as an abbreviation of --D-values either
    with pytest.raises(SystemExit) as exit_info:
        run_cli([command, f"--{key}", "2", "--out", str(tmp_path / "x")])
    assert exit_info.value.code == 2
    assert f"--{key}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_skips_common_config_keys_the_command_ignores(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[common]\nD = 0.02\nkappa = 2.0\ngrid = 512\nseed = 3\n")
    out = tmp_path / "cfg_bounds"
    assert run_cli(["bounds", "--config", str(config), "--out", str(out)]) == 0
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    assert cfg == {"kappa": 2.0, "out": str(out)}
    # in the command's own section such a key is an error
    config.write_text("[bounds]\ngrid = 512\n")
    capsys.readouterr()
    assert run_cli(["bounds", "--config", str(config), "--out", str(tmp_path / "y")]) == 2
    assert "'grid'" in json.loads(capsys.readouterr().err)["message"]
