import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cornerflow
from cornerflow import GridFunction, symmetric_grid
from cornerflow import cli, diagnostics, kernel, mild, oracle
from cornerflow.errors import PicardDivergence


def run_cli(*argv):
    return cli.main(list(argv))


def _manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_kernel_command(tmp_path, capsys):
    out = tmp_path / "k"
    code = run_cli("kernel", "--eta-max", "20", "--nodes", "2048",
                   "--out-dir", str(out))
    assert code == 0
    text = capsys.readouterr().out
    assert "Gamma(5/4)/pi" in text
    man = _manifest(out)
    assert set(man["artifacts"]) == {"kernel.csv", "kernel_summary.json"}
    with open(out / "kernel_summary.json") as fh:
        summary = json.load(fh)
    assert abs(summary["g0"] - summary["g0_reference"]) < 1e-10
    assert abs(summary["exponents"]["1"]["exponent"] + 0.25) < 0.02


def test_kernel_rejects_bad_grid(tmp_path, capsys):
    code = run_cli("kernel", "--nodes", "100", "--out-dir",
                   str(tmp_path / "k"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", (
    ("--t-lo", "0"), ("--t-lo", "-1"), ("--t-hi", "inf"),
    ("--t-lo", "1", "--t-hi", "10"),
), ids=("zero", "negative", "inf", "one-decade"))
def test_kernel_rejects_bad_fit_times(tmp_path, capsys, flags):
    # refused with one error line before any output is written
    out = tmp_path / "k"
    code = run_cli("kernel", "--eta-max", "20", "--nodes", "2048", *flags,
                   "--out-dir", str(out))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_solve_command_and_determinism(tmp_path, capsys):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = run_cli("solve", "--a", "0.1", "--b", "0.1", "--intervals",
                       "1024", "--times", "1", "--out-dir", str(out))
        assert code == 0
        outs.append(_manifest(out)["artifacts"])
    assert outs[0] == outs[1]  # bit-identical artifacts on repeated runs
    assert "U_t1.csv" in outs[0]
    text = capsys.readouterr().out
    assert "converged=True" in text
    with open(tmp_path / "s1" / "solve_summary.json") as fh:
        summary = json.load(fh)
    assert summary["iterations"] <= 50
    assert abs(summary["phi0"] - 0.0779566) < 1e-5
    # 1024 cells is a smoke grid; the strict 1e-4 bound is checked at 8192
    assert summary["self_similarity"]["2.0"] < 1e-3


@pytest.mark.parametrize("times", ("0.1,-1", "0.1,nan", "0.1,0.1", "x"))
@pytest.mark.parametrize("sweep", ((), ("--sweep", "a=0.05:0.05:0.1")),
                         ids=("one", "sweep"))
def test_solve_checks_times_first(tmp_path, capsys, monkeypatch, times,
                                  sweep):
    # refused with one error line before any output or solve, once for a
    # whole sweep
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the times were checked")

    monkeypatch.setattr(cli, "build_kernel_table", no_solve)
    monkeypatch.setattr(cli, "solve_similarity_profile", no_solve)
    out = tmp_path / "s"
    code = run_cli("solve", "--a", "0.1", "--b", "0.1", "--intervals",
                   "1024", "--times", times, *sweep, "--out-dir", str(out))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_solve_fills_phi0_without_time_1(tmp_path):
    # phi0 = U(0, 1) is read from the phi that solve always writes
    phi0 = []
    for times in ("1", "0.1,10"):
        out = tmp_path / times
        assert run_cli("solve", "--a", "0.2", "--b", "0.03", "--intervals",
                       "1024", "--times", times, "--out-dir", str(out)) == 0
        with open(out / "solve_summary.json") as fh:
            phi0.append(json.load(fh)["phi0"])
    assert isinstance(phi0[1], float) and phi0[1] == phi0[0]


def test_solve_reconstructs_each_time_once(tmp_path, monkeypatch, ktable):
    # the written times 0.1, 1, 10 and the self-similarity pairs (1, 0.5)
    # and (1, 2) share U(., 1): five reconstructions, each t once, and the
    # residuals of self_similarity_residual
    seen, recon = [], cli.reconstruct_U

    def counted(profile, t, table):
        seen.append(t)
        return recon(profile, t, table)

    monkeypatch.setattr(cli, "reconstruct_U", counted)
    out = tmp_path / "s"
    assert run_cli("solve", "--a", "0.2", "--b", "0.03", "--intervals",
                   "1024", "--out-dir", str(out)) == 0
    assert sorted(seen) == [0.1, 0.5, 1.0, 2.0, 10.0]
    with open(out / "solve_summary.json") as fh:
        got = json.load(fh)["self_similarity"]
    profile = mild.load_profile(out / "profile.csv", ktable)
    assert got == {str(s): mild.self_similarity_residual(profile, s, 1.0,
                                                         ktable)
                   for s in (0.5, 2.0)}


def test_solve_linear_note(tmp_path, capsys):
    code = run_cli("solve", "--a", "0.1", "--b", "-0.1", "--intervals",
                   "1024", "--times", "1", "--out-dir", str(tmp_path / "s"))
    assert code == 0
    assert "A == -B" in capsys.readouterr().out


def test_solve_slope_cap_exit(tmp_path, capsys):
    code = run_cli("solve", "--a", "5", "--b", "0.1", "--out-dir",
                   str(tmp_path / "s"))
    assert code == 2
    assert "slope_cap" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_solve_no_convergence_exit(tmp_path, monkeypatch):
    monkeypatch.setattr(mild, "MAX_ITER", 1)
    out = tmp_path / "s"
    code = run_cli("solve", "--a", "0.1", "--b", "0.1", "--intervals",
                   "1024", "--out-dir", str(out))
    assert code == 3
    with open(out / "history.json") as fh:
        assert len(json.load(fh)["residual_history"]) == 1


def test_solve_divergence_writes_history(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise PicardDivergence("updates grew", [1.0, 2.0, 4.0])
    monkeypatch.setattr(cli, "build_kernel_table", lambda *a, **k: None)
    monkeypatch.setattr(cli, "solve_similarity_profile", boom)
    out = tmp_path / "s"
    code = run_cli("solve", "--a", "0.1", "--b", "0.1", "--out-dir",
                   str(out))
    assert code == 3
    with open(out / "history.json") as fh:
        assert json.load(fh)["residual_history"] == [1.0, 2.0, 4.0]


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# settings\nintervals = 512\na = 0.05\n")
    out = tmp_path / "s"
    code = run_cli("solve", "--a", "0.1", "--b", "0.05", "--intervals",
                   "2048", "--times", "1", "--config", str(cfg),
                   "--out-dir", str(out))
    assert code == 0
    man = _manifest(out)
    assert man["config"]["a"] == 0.05
    assert man["config"]["intervals"] == 512
    arr = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    assert arr.shape[0] == 513


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("granularity = 9\n")
    code = run_cli("solve", "--a", "0.1", "--b", "0.1", "--config",
                   str(cfg), "--out-dir", str(tmp_path / "s"))
    assert code == 2
    assert "unknown option" in capsys.readouterr().err


@pytest.mark.parametrize("key", ("slope_cap", "max_iter", "tol"))
def test_config_file_solver_constants_are_unknown(tmp_path, capsys, key):
    # the slope cap, the iteration limit and the tolerance belong to the
    # solver (mild.SLOPE_CAP, mild.MAX_ITER, the default tol 1e-10); a
    # config file cannot set them
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {0.2 if key == 'slope_cap' else 5}\n")
    code = run_cli("solve", "--a", "0.1", "--b", "0.1", "--config",
                   str(cfg), "--out-dir", str(tmp_path / "s"))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cfg}:1: unknown option {key!r}"]
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("text, match", (
    (None, "cannot read config"),
    ("intervals = abc\n", "bad value 'abc' for intervals"),
    ("a = 0.1\nintervals = 512.5\n", "run.cfg:2: bad value"),
    ("half_width = 1e-x\n", "bad value '1e-x' for half_width"),
), ids=("missing", "int", "not-whole", "float"))
def test_config_file_errors_exit_2(tmp_path, capsys, text, match):
    # a missing file or a value its flag's type refuses is one error line
    # and exit 2, before any solve
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    code = run_cli("solve", "--a", "0.1", "--b", "0.1", "--config",
                   str(cfg), "--out-dir", str(tmp_path / "s"))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and match in err[0]
    assert not (tmp_path / "s" / "manifest.json").exists()


@pytest.mark.parametrize("value, flag, expect", (
    ("1", (), True), ("TRUE", (), True), ("yes", (), True), ("On", (), True),
    ("0", ("--mollified",), False), ("False", ("--mollified",), False),
    ("no", ("--mollified",), False), ("OFF", ("--mollified",), False),
))
def test_config_file_switch_values(tmp_path, value, flag, expect):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mollified = {value}\n")
    out = tmp_path / "d"
    code = run_cli("diagnose", "--counterexample", "--a", "1", "--eps", "0.1",
                   *flag, "--config", str(cfg), "--out-dir", str(out))
    assert code == 0
    assert _manifest(out)["config"]["mollified"] is expect


def test_config_file_switch_typo_exits_2(tmp_path, capsys):
    # a misspelt switch value is an error, not a silent False
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.1\nmollified = ture\n")
    out = tmp_path / "d"
    code = run_cli("diagnose", "--counterexample", "--a", "1", "--config",
                   str(cfg), "--out-dir", str(out))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cfg}:2: bad value 'ture' for mollified"]
    assert not (out / "manifest.json").exists()


def test_sweep_runs_worker_pool(tmp_path, capsys):
    # three values on two workers: one worker solves two of them, and each
    # exit code comes back on its value's line, in sweep order; the last
    # value reaches the slope cap 0.3
    out = tmp_path / "sweep"
    code = run_cli("solve", "--a", "0.1", "--b", "0.1", "--sweep",
                   "a=0.2:0.05:0.3", "--intervals", "1024", "--times", "1",
                   "--workers", "2", "--out-dir", str(out))
    assert code == 2
    subs = ("a_0.2", "a_0.25", "a_0.3")
    assert capsys.readouterr().out.splitlines() == [
        f"{out / sub}: exit {code}" for sub, code in zip(subs, (0, 0, 2))]
    for sub, a in zip(subs[:2], (0.2, 0.25)):
        with open(out / sub / "solve_summary.json") as fh:
            assert json.load(fh)["A"] == a
    assert not (out / subs[2] / "solve_summary.json").exists()


def test_sweep_worker_solves_on_one_table(tmp_path, monkeypatch, new_table):
    # a worker builds one table for all its values, so its later solves
    # find the Duhamel operator of the first one held on that table
    tables, held = [], []
    picard_plan = mild._picard_plan

    def build():
        tables.append(new_table())
        return tables[-1]

    def counted(*args):
        plan = picard_plan(*args)
        held.append(plan[0])
        return plan

    monkeypatch.setattr(cli, "build_kernel_table", build)
    monkeypatch.setattr(mild, "_picard_plan", counted)
    args = vars(cli.build_parser().parse_args(
        ["solve", "--a", "0.1", "--b", "0.1", "--intervals", "512",
         "--times", "1"]))
    payloads = [{**args, "a": a,
                 "out_dir": str(tmp_path / f"a_{a:g}")} for a in (0.05, 0.1)]
    assert cli._sweep_worker(payloads) == [0, 0]
    assert len(tables) == 1
    assert len(held) == 2 and held[1] is held[0]


def test_sweep_spec_validation(tmp_path, capsys):
    code = run_cli("solve", "--a", "0.1", "--b", "0.1", "--sweep",
                   "c=0:1:2", "--out-dir", str(tmp_path / "s"))
    assert code == 2
    # rejected before a worker pool starts
    code = run_cli("solve", "--a", "0.1", "--b", "0.1", "--sweep",
                   "a=0.1:0.1:0.2", "--workers", "0", "--out-dir",
                   str(tmp_path / "w"))
    assert code == 2
    assert "--workers" in capsys.readouterr().err


def test_diagnose_counterexample(tmp_path, capsys):
    out = tmp_path / "d"
    code = run_cli("diagnose", "--counterexample", "--a", "1", "--eps",
                   "0.1", "--out-dir", str(out))
    assert code == 0
    text = capsys.readouterr().out
    assert "far gap" in text
    with open(out / "counterexample.json") as fh:
        fit = json.load(fh)
    assert abs(fit["gap_far"] - fit["gap_expected"]) < 1e-10
    man = _manifest(out)
    assert "counterexample_D.csv" in man["artifacts"]


def test_diagnose_input_csv(tmp_path, capsys):
    xs = symmetric_grid(10.0, 2048)
    lin = GridFunction(xs, 0.25 * xs, 0.25, 0.25, "linear")
    src = tmp_path / "lin.csv"
    lin.to_csv(src)
    out = tmp_path / "d"
    code = run_cli("diagnose", "--input", str(src), "--out-dir", str(out))
    assert code == 0
    text = capsys.readouterr().out
    assert "esp_zero_corner" in text
    assert "FAIL" not in text
    assert (out / "summary.csv").exists()
    assert (out / "report.json").exists()


def test_diagnose_reads_the_phi_that_solve_writes(tmp_path, capsys):
    # solve writes phi = U(., 1) with its far-field sidecar, and lists
    # both; diagnose --input takes it as it is
    out = tmp_path / "s"
    assert run_cli("solve", "--a", "0.2", "--b", "0.03", "--intervals",
                   "1024", "--times", "0.1", "--out-dir", str(out)) == 0
    assert {"phi.csv", "phi.json"} <= set(_manifest(out)["artifacts"])
    phi = GridFunction.from_csv(out / "phi.csv")
    assert (phi.left_far, phi.right_far, phi.far_kind) == (-0.03, 0.2,
                                                          "linear")
    diag = tmp_path / "d"
    assert run_cli("diagnose", "--input", str(out / "phi.csv"),
                   "--out-dir", str(diag)) == 0
    assert (diag / "report.json").exists()
    assert "key_identity" in capsys.readouterr().out


def test_diagnose_input_without_interior_exits_2(tmp_path, capsys):
    xs = np.linspace(-7.0, 8.0, 16)
    src = tmp_path / "short.csv"
    GridFunction(xs, 0.25 * xs, 0.25, 0.25, "linear").to_csv(src)
    code = run_cli("diagnose", "--input", str(src), "--out-dir",
                   str(tmp_path / "d"))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: 16 nodes")


@pytest.mark.parametrize("case", ("one-row", "no-far-kind"))
def test_diagnose_input_unreadable_exits_2(tmp_path, capsys, case):
    # the reader's typed error: one error line naming the file, exit 2
    xs = symmetric_grid(10.0, 64)
    src = tmp_path / "phi.csv"
    GridFunction(xs, 0.25 * xs, 0.25, 0.25, "linear").to_csv(src)
    if case == "one-row":
        src.write_text("x,y\n0,0\n")
    else:
        meta = json.loads((tmp_path / "phi.json").read_text())
        del meta["far_kind"]
        (tmp_path / "phi.json").write_text(json.dumps(meta))
    code = run_cli("diagnose", "--input", str(src), "--out-dir",
                   str(tmp_path / "d"))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "phi.csv" in err[0] or "phi.json" in err[0]


def test_diagnose_missing_input(tmp_path, capsys):
    code = run_cli("diagnose", "--input", str(tmp_path / "nope.csv"),
                   "--out-dir", str(tmp_path / "d"))
    assert code == 2
    assert not (tmp_path / "d").exists()


def test_diagnose_needs_a_source(tmp_path):
    assert run_cli("diagnose", "--out-dir", str(tmp_path / "d")) == 2


def test_oracle_compare_short_horizon(tmp_path, capsys):
    out = tmp_path / "o"
    code = run_cli("oracle-compare", "--intervals", "512", "--dt-max",
                   "2e-4", "--times", "0.05", "--out-dir", str(out))
    assert code == 0
    with open(out / "oracle_compare.json") as fh:
        rows = json.load(fh)["rows"]
    assert rows[0]["sup_diff"] < 5e-2
    for row in rows:
        for key in ("sup_diff", "sup_diff_linear", "duhamel_sup"):
            assert np.isfinite(row[key])
    assert (out / "march_t0.05.csv").exists()


def test_oracle_compare_checks_march_flags_first(tmp_path, monkeypatch):
    # a bad march flag must fail before the kernel table and profile solve
    def no_solve(*args, **kwargs):
        raise AssertionError("profile solve ran before the march check")

    monkeypatch.setattr(cli, "build_kernel_table", no_solve)
    monkeypatch.setattr(cli, "solve_similarity_profile", no_solve)
    code = run_cli("oracle-compare", "--dt-max", "inf", "--out-dir",
                   str(tmp_path / "o"))
    assert code == 2


def test_parser_defaults_are_the_library_defaults(monkeypatch):
    # the CLI reads each shared default from the module that owns it, when
    # the parser is built: build_kernel_table and MarchConfig default to
    # the very constants the parser reads, and a changed constant shows
    import inspect

    def defaults(*argv):
        return vars(cli.build_parser().parse_args(list(argv)))

    table = inspect.signature(kernel.build_kernel_table).parameters
    march = inspect.signature(oracle.MarchConfig).parameters
    got = defaults("kernel")
    assert got["eta_max"] is table["eta_max"].default is kernel.DEFAULT_ETA_MAX
    assert got["nodes"] is table["n_nodes"].default is kernel.DEFAULT_NODES
    got = defaults("oracle-compare")
    for key, const in (("half_width", oracle.DEFAULT_MARCH_HALF_WIDTH),
                       ("intervals", oracle.DEFAULT_MARCH_INTERVALS),
                       ("dt_max", oracle.DEFAULT_DT_MAX)):
        assert got[key] is march[key].default is const

    owners = {
        (mild, "DEFAULT_HALF_WIDTH"): 12.5, (mild, "DEFAULT_INTERVALS"): 1000,
        (kernel, "DEFAULT_ETA_MAX"): 30.0, (kernel, "DEFAULT_NODES"): 4096,
        (oracle, "DEFAULT_MARCH_HALF_WIDTH"): 10.0,
        (oracle, "DEFAULT_MARCH_INTERVALS"): 1024,
        (oracle, "DEFAULT_DT_MAX"): 1e-4}
    for (module, name), value in owners.items():
        monkeypatch.setattr(module, name, value)
    got = defaults("kernel")
    assert (got["eta_max"], got["nodes"]) == (30.0, 4096)
    for argv in (("solve", "--a", "0.1", "--b", "0.1"), ("diagnose",)):
        got = defaults(*argv)
        assert (got["half_width"], got["intervals"]) == (12.5, 1000)
    got = defaults("oracle-compare")
    assert (got["half_width"], got["intervals"], got["dt_max"]) == (
        10.0, 1024, 1e-4)


def test_console_entry_point():
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(cornerflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "cornerflow.cli", "--help"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "kernel" in out.stdout and "oracle-compare" in out.stdout


def test_import_leaves_scipy_signal_and_integrate_unloaded():
    # SciPy's signal module brings stats, ndimage and more with it, about
    # 24 MiB of the process's peak, and its integrate module optimize,
    # spatial and constants, about 17 MiB; the package keeps its own FFT
    # convolution and Simpson rules. A later user of SciPy's heavier
    # modules (say `newton_krylov` for a Newton-Krylov solve, or
    # `solve_bvp` for the profile's boundary-value problem) imports them
    # inside the function that needs them, not at module level: watching
    # scipy.optimize catches a module-level `newton_krylov`, which loads
    # neither of the other two
    src = os.path.dirname(os.path.dirname(cornerflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, cornerflow, cornerflow.cli; "
            "loaded = {'scipy.signal', 'scipy.integrate', 'scipy.optimize'}"
            " & set(sys.modules); "
            "assert not loaded, loaded")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr


def test_manifest_checksums_match_files(tmp_path):
    # every file a run leaves, apart from the manifest, is listed in it
    # with its checksum, and every listed file is there; every JSON file
    # (for solve: the summary, the two CSV sidecars and the manifest) is
    # strict JSON (no Infinity or NaN) with indent 2 and sorted keys
    runs = {
        "cx": ("diagnose", "--counterexample"),
        "k": ("kernel", "--eta-max", "20", "--nodes", "2048"),
        "s": ("solve", "--a", "0.2", "--b", "0.03", "--intervals", "1024",
              "--times", "0.1,10"),
        "d": ("diagnose", "--input", str(tmp_path / "s" / "phi.csv")),
        "df": ("diagnose", "--from-solve", "--intervals", "1024"),
        # the origin, node 500, is off the diagnostics' stride of 8
        "df1000": ("diagnose", "--from-solve", "--half-width", "10",
                   "--intervals", "1000"),
        "o": ("oracle-compare", "--intervals", "512", "--dt-max", "1e-4",
              "--times", "0.05"),
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert run_cli(*argv, "--out-dir", str(out)) == 0
        man = _manifest(out)
        files = {str(p.relative_to(out)) for p in out.rglob("*")
                 if p.is_file()}
        assert files - {"manifest.json"} == set(man["artifacts"])
        for rel, digest in man["artifacts"].items():
            assert cli._sha256(os.path.join(out, rel)) == digest
        for path in out.rglob("*.json"):
            text = path.read_text()
            assert text == json.dumps(json.loads(
                text, parse_constant=_refuse_constant), indent=2,
                sort_keys=True), path
    # the two-level residual rows judge by one rule: the threshold cell is
    # refinement_threshold of the coarse sup, read from the row's field,
    # and the fine sup. The half-width 10 pair fails the profile equation
    # (the domain is too narrow), the half-width 40 pair passes throughout
    for name, failing in (("df", set()), ("df1000", {"profile_equation"})):
        with open(tmp_path / name / "report.json") as fh:
            rows = {row["name"]: row for row in json.load(fh)["checks"]}
        assert {key for key, row in rows.items() if not row["pass"]} == failing
        for key in ("key_identity", "profile_equation"):
            field = GridFunction.from_csv(str(tmp_path / name / f"{key}.csv"))
            coarse = diagnostics.interior_sup(field.ys)
            assert rows[key]["threshold"] == diagnostics.refinement_threshold(
                coarse, rows[key]["sup_residual"])
