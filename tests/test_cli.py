import json
import math
import re
import struct
import warnings
from pathlib import Path

import pytest

from arnoldstab import cli, grid


def run_cli(*argv):
    return cli.main(list(argv))


BASE = ["--domain", "annulus", "--rin", "1.0", "--rout", "2.0", "--res", "16"]


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--bogus-flag", "1")
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not_a_key = 3\n")
    assert run_cli("--config", str(cfg), "gen", "--out", str(tmp_path / "o")) == 2


def test_gen_writes_domain_and_manifest(tmp_path):
    out = tmp_path / "gen"
    assert run_cli("gen", *BASE, "--out", str(out)) == 0
    fld = grid.read_field(out / "domain.sfld")
    assert fld.domain.n_components == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["seed"] is None  # gen takes no --seed
    assert "seed" not in manifest["config"]
    assert "domain.sfld" in manifest["outputs"]


def test_config_file_round(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain = annulus\nrin = 1.0\nrout = 2.0\nres = 16\n")
    out = tmp_path / "o"
    assert run_cli("--config", str(cfg), "gen", "--out", str(out)) == 0
    # flag overrides file
    out2 = tmp_path / "o2"
    assert run_cli("--config", str(cfg), "gen", "--res", "12", "--out", str(out2)) == 0
    a = grid.read_field(out / "domain.sfld")
    b = grid.read_field(out2 / "domain.sfld")
    assert a.domain.nx != b.domain.nx


def test_harmonic_outputs(tmp_path):
    out = tmp_path / "h"
    assert run_cli("harmonic", *BASE, "--out", str(out)) == 0
    rows = (out / "pq.csv").read_text().strip().splitlines()
    assert rows[0] == "i,j,p_ij,q_ij"
    i, j, p, q = rows[1].split(",")
    assert abs(float(p) * float(q) - 1.0) <= 1e-12


def test_stream_and_report(tmp_path):
    out = tmp_path / "s"
    assert run_cli("stream", *BASE, "--omega-const", "1.0", "--a", "0.5", "--out", str(out)) == 0
    diag = (out / "diag.csv").read_text().splitlines()
    assert float(diag[1].split(",")[0]) <= 1e-6
    assert run_cli("report", "--csv", str(out / "diag.csv"), "--out", str(out)) == 0
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg")


def test_spectra_criterion_csv(tmp_path):
    out = tmp_path / "spec"
    assert run_cli("spectra", *BASE, "--kappa", "1.0", "--out", str(out)) == 0
    header, row = (out / "criterion.csv").read_text().strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["lambda_Lambda_minus_1"])) <= 1e-8


def test_steady_subcommand(tmp_path):
    out = tmp_path / "st"
    assert run_cli("steady", *BASE, "--g", "linear:1.0", "--a", "1.0", "--out", str(out)) == 0
    header, row = (out / "steady.csv").read_text().strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["certified"] == "1"


def test_probe_subcommand(tmp_path):
    out = tmp_path / "pr"
    code = run_cli(
        "probe", *BASE, "--kappa", "1.0", "--a", "1.0",
        "--samples", "10", "--out", str(out),
    )
    assert code == 0
    assert (out / "probe.csv").exists()
    assert (out / "supporting.csv").exists()


def test_simulate_subcommand(tmp_path):
    out = tmp_path / "sim"
    code = run_cli(
        "simulate", *BASE, "--kappa", "1.0", "--a", "1.0",
        "--turnovers", "0.05", "--perturb", "swap:0.005", "--out", str(out),
    )
    assert code == 0
    series = (out / "series.csv").read_text().splitlines()
    assert series[0].startswith("t,energy,kinetic,ec,dist_ref,hist_drift,circ_1")
    assert len(series) >= 3


def test_oracle_subcommand(capsys):
    assert run_cli("oracle", "--rin", "1.0", "--rout", "2.0", "--n", "512") == 0
    text = capsys.readouterr().out
    assert "p11" in text and "lambda_Y" in text


def test_solver_error_exit_3(tmp_path):
    # resonant kappa triggers a solver rejection
    out = tmp_path / "bad"
    from arnoldstab import harmonic, spectra

    dom = grid.build_annulus(1.0, 2.0, 16)
    lam = spectra.lambda_plain(harmonic.solve_basis(dom)).value
    code = run_cli(
        "steady", *BASE, "--g", "linear:%.12f" % lam, "--a", "1.0", "--out", str(out)
    )
    assert code == 3


def test_determinism_same_seed_same_bytes(tmp_path):
    outs = []
    for name in ("da", "db"):
        out = tmp_path / name
        assert run_cli(
            "simulate", *BASE, "--kappa", "1.0", "--a", "1.0", "--seed", "7",
            "--turnovers", "0.05", "--perturb", "swap:0.005", "--out", str(out),
        ) == 0
        outs.append((out / "series.csv").read_bytes())
    assert outs[0] == outs[1]


def test_verify_all_fast_subset(tmp_path):
    out = tmp_path / "verify"
    code = run_cli("verify-all", "--quick", "--criteria", "8,11", "--out", str(out))
    assert code == 0
    text = (out / "acceptance.csv").read_text()
    assert "criterion,title,passed" in text


def test_functional_subcommand(tmp_path):
    out = tmp_path / "fn"
    for which in ("E", "EC", "Dhat"):
        code = run_cli(
            "functional", *BASE, "--functional", which,
            "--omega-const", "0.5", "--a", "1.0", "--g", "linear:1.0",
            "--out", str(out),
        )
        assert code == 0
    rows = (out / "functional.csv").read_text().strip().splitlines()
    assert rows[0] == "functional,value,mu"
    assert len(rows) == 4
    dhat_mu = float(rows[3].split(",")[2])
    assert abs(dhat_mu) < 10.0


def test_functional_csv_appends_rows(tmp_path):
    """A second run into the same directory adds its row under the one header."""
    out = tmp_path / "fn"
    for _ in range(2):
        assert run_cli("functional", *BASE, "--functional", "E", "--kappa", "1", "--out", str(out)) == 0
    header, first, second = (out / "functional.csv").read_bytes().split(b"\n")[:-1]
    assert header == b"functional,value,mu"
    assert first == second and first.startswith(b"E,") and first.endswith(b",nan")


def test_mask_domain_via_cli(tmp_path):
    runs = ["24 1"] * 5 + ["9 1 6 0 9 1"] * 5 + ["24 1"] * 5
    mask = tmp_path / "dom.rle"
    mask.write_text("RLE 24 15\n" + "\n".join(runs) + "\n")
    out = tmp_path / "m"
    code = run_cli(
        "gen", "--domain", "mask", "--mask-file", str(mask), "--res", "8",
        "--out", str(out),
    )
    assert code == 0
    fld = grid.read_field(out / "domain.sfld")
    assert fld.domain.n_components == 2


def test_malformed_mask_file_exits_2(tmp_path, capsys):
    mask = tmp_path / "dom.pgm"
    mask.write_bytes(b"P5\n24 15\n255\n" + bytes(100))  # 360 pixels declared
    code = run_cli(
        "gen", "--domain", "mask", "--mask-file", str(mask), "--res", "8",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "truncated" in capsys.readouterr().err


def test_field_file_non_finite_origin_exits_2(tmp_path, capsys):
    path = tmp_path / "omega.sfld"
    grid.write_field(path, grid.build_annulus(1.0, 2.0, 16).zeros())
    data = bytearray(path.read_bytes())
    data[20:28] = struct.pack("<d", math.inf)  # x0, after magic, nx, ny and h
    path.write_bytes(bytes(data))
    code = run_cli("stream", *BASE, "--omega", str(path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_simulate_snapshots(tmp_path):
    out = tmp_path / "snap"
    code = run_cli(
        "simulate", *BASE, "--kappa", "1.0", "--a", "1.0",
        "--turnovers", "0.05", "--cadence", "2", "--snap-every", "2",
        "--out", str(out),
    )
    assert code == 0
    snaps = sorted(out.glob("omega_0*.sfld"))
    assert len(snaps) >= 2
    fld = grid.read_field(snaps[0])
    assert fld.domain.n_components == 2


class _Stop(Exception):
    pass


def test_nonlinear_profiles_reach_steady_newton(tmp_path, monkeypatch):
    """Every subcommand that builds a non-linear steady state builds it by
    steady_newton, with the profile and circulations of its flags."""
    from arnoldstab import steady

    seen = []

    def newton(basis, gf, a):
        seen.append((gf.kind, gf.slope, gf.offset, list(a)))
        raise _Stop

    monkeypatch.setattr(steady, "steady_newton", newton)
    profile = ["--g", "affine:1.0,0.3", "--a", "1.0", "--out", str(tmp_path / "o")]
    commands = (
        ["steady"],
        ["spectra"],
        ["probe"],
        ["simulate"],
        ["functional", "--functional", "H", "--omega-const", "0.5"],
    )
    for cmd in commands:
        seen.clear()
        with pytest.raises(_Stop):
            run_cli(cmd[0], *BASE, *profile, *cmd[1:])
        assert seen == [("affine", 1.0, 0.3, [1.0])], cmd[0]


def _exit_code(*argv):
    """Exit status of a run, whether main returns it or the parser exits."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["steady", *BASE, "--g", "affine:1.0"],
        ["steady", *BASE, "--g", "linear:abc"],
        ["steady", *BASE, "--g", "table:missing.csv"],
        ["steady", *BASE, "--g", "table:nan.csv"],
        ["steady", *BASE, "--kappa", "1.0", "--a", "1,x"],
        ["simulate", *BASE, "--kappa", "1.0", "--turnovers", "0.05", "--perturb", "bump:abc"],
        ["verify-all", "--criteria", "1,x"],
        ["stream", *BASE, "--omega-const", "abc"],
    ],
    ids=["affine", "linear", "table", "table-nan", "a", "perturb", "criteria", "omega-const"],
)
def test_malformed_value_is_config_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # table:missing.csv and table:nan.csv are looked up here
    (tmp_path / "nan.csv").write_text("0.0,0.0\n1.0,nan\n2.0,1.0\n")
    assert _exit_code(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "unrecognized arguments" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [None, "", "functional,value,mu\nE,1.5,nan\nEC,0.5,nan\n"],
    ids=["missing", "empty", "x-not-numeric"],
)
def test_report_unreadable_csv_exits_2(content, tmp_path, capsys):
    path = tmp_path / "series.csv"
    if content is not None:
        path.write_text(content)
    assert run_cli("report", "--csv", str(path)) == 2
    assert "config error:" in capsys.readouterr().err


def test_report_skips_rows_without_finite_x(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("t,energy\n0.0,1.0\nnan,2.0\n1.0,3.0\n")
    assert run_cli("report", "--csv", str(path)) == 0
    svg = (tmp_path / "plot.svg").read_text()
    assert "nan" not in svg
    assert len(svg.split('points="')[1].split('"')[0].split()) == 2


def _capture(monkeypatch, command):
    """Replace a subcommand's handler by one that records its arguments."""
    seen = {}

    def handler(args):
        seen.update(vars(args))
        return []

    monkeypatch.setattr(cli, "_cmd_" + command.replace("-", "_"), handler)
    return seen


def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_config_values_reach_handler(tmp_path, monkeypatch):
    out = str(tmp_path / "o")
    seen = _capture(monkeypatch, "probe")
    cfg = _config(tmp_path, "samples = 7\nradius_frac = 0.5\n")
    assert run_cli("--config", cfg, "probe", "--out", out) == 0
    assert (seen["samples"], seen["radius_frac"]) == (7, 0.5)

    seen = _capture(monkeypatch, "simulate")
    cfg = _config(tmp_path, "cadence = 2\ncfl = 0.3\nsnap-every = 3\na = 0.5,0.25\n")
    assert run_cli("--config", cfg, "simulate", "--out", out) == 0
    assert (seen["cadence"], seen["cfl"], seen["snap_every"]) == (2, 0.3, 3)
    assert seen["a"] == (0.5, 0.25)

    seen = _capture(monkeypatch, "report")
    cfg = _config(tmp_path, "csv = s.csv\nx = t\nys = energy,kinetic\nsvg = e.svg\n")
    assert run_cli("--config", cfg, "report", "--out", out) == 0
    assert [seen[k] for k in ("csv", "x", "ys", "svg")] == ["s.csv", "t", "energy,kinetic", "e.svg"]


@pytest.mark.parametrize(
    "command, flag, text, key, value",
    [
        ("steady", "--kappa", "-2", "kappa", -2.0),
        ("steady", "--kappa", "-1e3", "kappa", -1000.0),
        ("steady", "--kappa", "-2E-1", "kappa", -0.2),
        ("steady", "--kappa", "-.5e+1", "kappa", -5.0),
        ("steady", "--a", "-1e3", "a", (-1000.0,)),
        ("steady", "--a", "-1,2e-1", "a", (-1.0, 0.2)),
        ("simulate", "--b-offset", "-1.5e-2", "b_offset", -0.015),
        ("functional", "--s", "-3e-1", "s", -0.3),
        ("functional", "--m", "-4E2", "m", -400.0),
    ],
)
def test_negative_number_is_a_value(command, flag, text, key, value, tmp_path, monkeypatch):
    """A negative number is read as the option's value, with or without an
    exponent, in a list, and with the value after a space or after `=`."""
    for argv in ([flag, text], [flag + "=" + text]):
        seen = _capture(monkeypatch, command)
        assert run_cli(command, *argv, "--out", str(tmp_path / "o")) == 0
        assert seen[key] == value


@pytest.mark.parametrize("argv", [["--bogus", "1"], ["--kappa", "-1x"], ["--kappa", "-e3"]])
def test_dash_token_still_checked(argv, tmp_path, capsys):
    """An unknown flag, a malformed negative number, and a dash with no digit
    after it are still configuration errors."""
    assert _exit_code("steady", *argv, "--out", str(tmp_path / "o")) == 2
    assert "config error:" in capsys.readouterr().err


def test_explicit_flag_beats_config(tmp_path, monkeypatch):
    seen = _capture(monkeypatch, "simulate")
    cfg = _config(tmp_path, "cadence = 2\nsnap_every = 2\ncfl = 0.3\n")
    code = run_cli(
        "--config", cfg, "simulate", "--cadence", "8", "--snap-every", "0",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    # flags equal to the built-in defaults still win; the rest comes from the file
    assert (seen["cadence"], seen["snap_every"], seen["cfl"]) == (8, 0, 0.3)


@pytest.mark.parametrize("text, value", [("0", False), ("1", True), ("false", False)])
def test_config_switch_is_boolean(text, value, tmp_path, monkeypatch):
    seen = _capture(monkeypatch, "verify-all")
    cfg = _config(tmp_path, "quick = %s\n" % text)
    assert run_cli("--config", cfg, "verify-all", "--out", str(tmp_path / "o")) == 0
    assert seen["quick"] is value


@pytest.mark.parametrize(
    "command, text",
    [
        ("simulate", "bins = 16\n"),  # no such option
        ("gen", "samples = 7\n"),  # an option of another subcommand
        ("probe", "samples = x\n"),
        ("verify-all", "quick = maybe\n"),
        ("gen", "domain = disk\n"),
    ],
)
def test_config_rejects_what_no_flag_accepts(command, text, tmp_path, monkeypatch, capsys):
    _capture(monkeypatch, command)
    cfg = _config(tmp_path, text)
    assert run_cli("--config", cfg, command, "--out", str(tmp_path / "o")) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["steady", *BASE, "--kappa", "1", "--a", "1,2"],
        ["stream", *BASE, "--a", "1,2"],
        ["simulate", *BASE, "--kappa", "1", "--turnovers", "0.05", "--perturb", "foo:1"],
        ["gen", "--res", "0"],
        ["gen", "--domain", "mask", "--mask-file", "m.rle", "--res", "0"],
        ["gen", "--rin", "2", "--rout", "1"],
        ["gen", "--rout", "inf"],
        ["gen", "--res", "100000000"],
        ["steady", *BASE, "--kappa", "nan"],
        ["steady", *BASE, "--kappa", "inf"],
        ["steady", *BASE, "--g", "linear:nan"],
        ["steady", *BASE, "--g", "linear:-inf"],
        ["steady", *BASE, "--g", "affine:nan,0"],
        ["steady", *BASE, "--g", "affine:1,inf"],
        ["simulate", *BASE, "--kappa", "1", "--cfl", "nan"],
        ["simulate", *BASE, "--kappa", "1", "--turnovers", "0.05", "--cfl", "0.95"],
        ["probe", *BASE, "--kappa", "1", "--samples", "0"],
        ["probe", *BASE, "--kappa", "1", "--samples", "-3"],
        ["probe", *BASE, "--kappa", "1", "--samples", "2.5"],
        ["probe", *BASE, "--kappa", "1", "--radius-frac", "-0.5"],
        ["probe", *BASE, "--kappa", "1", "--radius-frac", "0"],
        ["simulate", *BASE, "--kappa", "1", "--turnovers", "0.05", "--cadence", "0"],
        ["simulate", *BASE, "--kappa", "1", "--turnovers", "0.05", "--cadence", "-2"],
        ["simulate", *BASE, "--kappa", "1", "--turnovers", "0.05", "--snap-every", "-1"],
        ["simulate", *BASE, "--kappa", "1", "--turnovers", "0.05", "--perturb", "swap:-0.1"],
        ["simulate", *BASE, "--kappa", "1", "--turnovers", "0.05", "--perturb", "swap:inf"],
        ["oracle", "--n", "3"],
        ["oracle", "--rin", "2", "--rout", "1"],
    ],
    ids=[
        "a-length",
        "stream-a-length",
        "perturb-mode",
        "res-0",
        "mask-res-0",
        "radii",
        "rout-inf",
        "res-huge",
        "kappa-nan",
        "kappa-inf",
        "g-linear-nan",
        "g-linear-inf",
        "g-affine-slope-nan",
        "g-affine-offset-inf",
        "cfl-nan",
        "cfl-range",
        "samples-0",
        "samples-negative",
        "samples-fraction",
        "radius-frac-negative",
        "radius-frac-0",
        "cadence-0",
        "cadence-negative",
        "snap-every-negative",
        "swap-radius-negative",
        "swap-radius-inf",
        "oracle-n",
        "oracle-radii",
    ],
)
def test_bad_input_exits_2(argv, tmp_path, monkeypatch, capsys):
    """Input that the option parser, the grid, the circulation check, the
    radial oracle or the time-integration settings reject is a configuration
    error (exit 2), not a solver error."""
    monkeypatch.chdir(tmp_path)  # m.rle is a readable mask here
    (tmp_path / "m.rle").write_text("RLE 6 5\n6 1\n6 1\n2 1 2 0 2 1\n6 1\n6 1\n")
    out = [] if argv[0] == "oracle" else ["--out", str(tmp_path / "o")]  # oracle writes no files
    assert _exit_code(*argv, *out) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "unrecognized arguments" not in err
    assert "solver error:" not in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("verify-all", "--res", "64"),
        ("oracle", "--out", "x"),
        ("report", "--kappa", "1"),
        ("gen", "--seed", "3"),
        ("functional", "--b-offset", "1"),
        ("harmonic", "--tol", "1e-9"),
    ],
)
def test_subcommand_rejects_options_it_does_not_read(
    command, flag, value, tmp_path, monkeypatch, capsys
):
    """An option of another subcommand, or one no subcommand takes, is refused
    as a flag and as a config-file key, before the handler runs."""
    monkeypatch.chdir(tmp_path)
    _capture(monkeypatch, command)
    assert _exit_code(command, flag, value) == 2
    assert "config error:" in capsys.readouterr().err
    cfg = _config(tmp_path, "%s = %s\n" % (flag[2:], value))
    assert _exit_code("--config", cfg, command) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--ri", "1.0", "--ro", "2.0", "--n", "256"],
        ["simulate", "--turn", "3", "--snap", "2"],
    ],
    ids=["oracle", "simulate"],
)
def test_abbreviated_flag_exits_2(argv, tmp_path, monkeypatch, capsys):
    """Flags are matched whole, like config-file keys: a prefix of a flag
    (`--ri` for `--rin`, `--turn` for `--turnovers`) is refused before the
    handler runs."""
    monkeypatch.chdir(tmp_path)
    seen = _capture(monkeypatch, argv[0])
    assert _exit_code(*argv) == 2
    assert "config error:" in capsys.readouterr().err
    assert not seen


def test_readme_lists_each_subcommands_options():
    """README's option table names exactly the options each subcommand takes."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| subcommand | options |", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.strip().splitlines()[1:]:
        commands, options = row.strip("|").split("|")
        for command in re.findall(r"`([\w-]+)`", commands):
            listed[command] = set(re.findall(r"`(--[\w-]+)`", options))
    parsed = {
        name: {s for action in sp._actions if action.dest != "help" for s in action.option_strings}
        for name, sp in cli._subcommands(cli.build_parser()).items()
    }
    assert listed == parsed
    assert sum(map(len, parsed.values())) == 94


@pytest.mark.parametrize(
    "kappa, message",
    [
        pytest.param("1e308", "slope mass h^2 sum g' = inf is not finite", id="1e308-slope-mass"),
        ("1e200", "Rayleigh-Ritz left residual inf after 4 solves"),
        ("1e150", "steady linear residual"),
        pytest.param(
            "-1e308", "slope mass h^2 sum g' = -inf is not finite", id="-1e308-slope-mass"
        ),
    ],
)
def test_non_finite_rayleigh_ritz_exits_3(kappa, message, tmp_path, capsys):
    """A slope that overflows the steady solve, the slope mass of its verdict
    or its eigen-solve is a solver error, raised by the certificate, before
    any eigen-solve or at the first Rayleigh-Ritz step, not a traceback or a
    run to the basis cap, and numpy and scipy warn of no overflow before
    it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("spectra", *BASE, "--kappa=" + kappa, "--out", str(tmp_path / "o"))
    assert code == 3
    err = capsys.readouterr().err
    assert "solver error: %s" % message in err
    assert "Traceback" not in err


def test_grid_error_in_solve_exits_3(tmp_path, monkeypatch, capsys):
    """A GridError raised inside a solve, not by a check of the input, stays
    a solver error."""
    from arnoldstab import steady
    from arnoldstab.errors import GridError

    def fail(*args):
        raise GridError("broken labels")

    monkeypatch.setattr(steady, "steady_linear", fail)
    assert run_cli("steady", *BASE, "--kappa", "1", "--out", str(tmp_path / "o")) == 3
    assert "solver error:" in capsys.readouterr().err
