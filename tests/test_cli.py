import ast
import csv
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import umbilic
from umbilic.cli import console_main, main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_fields_list(capsys):
    assert main(["fields", "list"]) == 0
    out = capsys.readouterr().out
    assert "bates_like" in out and "loglog_tail" in out


def test_fields_list_csv_quotes_text_cells(tmp_path):
    # a note holding a comma is quoted, so every row keeps the header's cells
    out = tmp_path / "fields.csv"
    assert main(["fields", "list", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))[1:]
    assert len(header) == 6 and all(len(row) == 6 for row in rows)
    specs = umbilic.list_families()
    assert [row[0] for row in rows] == [s.name for s in specs]
    col = header.index("asymptotically_constant")
    assert [row[col] for row in rows] == [str(int(s.asymptotic_c is not None)) for s in specs]
    assert [row[-1] for row in rows] == [s.notes for s in specs]


def test_verify_thm2_csv_contract(tmp_path):
    out = tmp_path / "t2.csv"
    rc = main(["verify", "thm2", "--field", "asym_bump", "--X", "0",
               "--Y", "1.5708", "--radii", "2,4,8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "r,I_area,I_flux,majorant"
    assert len(lines) == 5  # description + header + 3 rows
    first = lines[2].split(",")
    assert float(first[0]) == 2.0
    assert abs(float(first[1]) - float(first[2])) < 1e-8


def test_invert_graph_condition_exit_code(tmp_path):
    rc = main(["invert", "graph", "--field", "sphere_cap", "--r0", "0.9",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    rc = main(["invert", "graph", "--field", "sphere_cap", "--r0", "0.7",
               "--radii", "5,20,80", "--out", str(tmp_path / "ok.csv")])
    assert rc == 0
    rows = (tmp_path / "ok.csv").read_text().splitlines()[2:]
    assert len(rows) == 3


def test_pipeline_graph_check_exit_code(tmp_path):
    rc = main(["pipeline", "thm1", "--body", "triaxial:ax=0,ay=0.16,az=0.32",
               "--offset", "0", "--out", str(tmp_path / "p.csv")])
    assert rc == 3


def test_pipeline_radius_outside_the_ladder_exit_code(tmp_path, capsys):
    # the inverted cap's rbar stays above 0.01 out to the ladder's last angle
    out = tmp_path / "p.csv"
    assert main(["pipeline", "thm1", "--body", "zonal", "--radii", "0.01,10",
                 "--ntheta", "16", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "check failed: target radius 0.01 outside sampled ladder\n")
    assert not out.exists()


@pytest.mark.parametrize("radii", ["1e160", "1e200"])
def test_pipeline_ladder_that_underflows_exit_code(tmp_path, capsys, radii):
    # the ladder starts at phi = 0.01 / 1e160, where a posed point's |q|^2
    # underflows to 0 and rbar = |q_xy| / |q|^2 is inf or NaN: not a failed
    # graph check, and no row is written from it
    out = tmp_path / "p.csv"
    assert main(["pipeline", "thm1", "--body", "triaxial", "--radii", radii,
                 "--ntheta", "16", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("check failed: ")
    assert err.endswith(" of 3520 ladder samples are not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("radii", ["0,10", "0,100,1000"])
def test_pipeline_nonpositive_radius_is_a_usage_error(tmp_path, capsys, radii):
    # refused where --radii is parsed, before the umbilic search
    out = tmp_path / "p.csv"
    assert main(["pipeline", "thm1", "--body", "zonal", "--radii", radii,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "usage error: argument --radii: radii must be positive and finite\n")
    assert not out.exists()


_LADDERS = {
    "thm2": ["verify", "thm2", "--radii", "0.5,1", "--nr", "4", "--ntheta", "16"],
    "thm3": ["verify", "thm3", "--radii", "0.5,1", "--nr", "4", "--ntheta", "16"],
    "divergence-v2": ["verify", "divergence", "--which", "v2", "--radii", "0.5,1",
                      "--nr", "4", "--ntheta", "16"],
    "divergence-v3": ["verify", "divergence", "--which", "v3", "--radii", "0.5,1",
                      "--nr", "4", "--ntheta", "16"],
    "decay": ["decay", "--radii", "0.5,1", "--ntheta", "16"],
}


@pytest.mark.parametrize("command", sorted(_LADDERS))
@pytest.mark.parametrize("family", [spec.name for spec in umbilic.list_families()])
def test_ladder_commands_write_no_nan_on_any_family(tmp_path, family, command):
    # a run either succeeds with finite cells only, or fails with no CSV
    # (sphere_cap's unit-disk domain ends at the last radius)
    out = tmp_path / "out.csv"
    rc = main(_LADDERS[command] + ["--field", family, "--out", str(out)])
    if rc != 0:
        assert not out.exists()
        return
    for line in out.read_text().splitlines()[2:]:
        assert all(math.isfinite(float(cell)) for cell in line.split(",")), line


def test_usage_errors():
    assert main(["verify", "thm2", "--field", "asym_bump", "--radii", "8,2",
                 "--out", "/tmp/never.csv"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["floor", "--field", "unknown_family", "--out", "/tmp/n.csv"]) == 1
    assert main(["umbilic", "scan", "--field", "saddle", "--n", "-5",
                 "--out", "/tmp/n.csv"]) == 1
    # a grid needs two samples per axis
    assert main(["umbilic", "scan", "--field", "paraboloid", "--n", "1",
                 "--out", "/tmp/n.csv"]) == 1
    assert main(["floor", "--field", "ridge:lam=0.1", "--n", "1",
                 "--out", "/tmp/n.csv"]) == 1
    # a region whose corners are out of order is degenerate
    assert main(["umbilic", "scan", "--field", "saddle", "--region", "1", "0", "0", "1",
                 "--out", "/tmp/n.csv"]) == 1
    assert main(["contour", "--field", "saddle", "--region", "0", "1", "1", "0",
                 "--out", "/tmp/n.csv"]) == 1


@pytest.mark.parametrize("argv, flag", [
    (["curvature", "map", "--field", "paraboloid", "--m", "0"], "--m"),
    (["contour", "--field", "saddle", "--n", "0"], "--n"),
    (["invert", "graph", "--field", "sphere_cap", "--r0", "0"], "--r0"),
    (["invert", "graph", "--field", "sphere_cap", "--r0", "0.7", "--radii", "8,2"],
     "--radii"),
    (["invert", "graph", "--field", "sphere_cap", "--r0", "0.7", "--ntheta", "0"],
     "--ntheta"),
    (["decay", "--field", "gaussian_bump", "--ntheta", "0"], "--ntheta"),
    (["decay", "--field", "gaussian_bump", "--radii", "8,2"], "--radii"),
    (["decay", "--field", "gaussian_bump", "--radii", ","], "--radii"),
    (["pipeline", "thm1", "--body", "zonal", "--radii", "8,2"], "--radii"),
    (["pipeline", "thm1", "--body", "zonal", "--ntheta", "0"], "--ntheta"),
    (["pipeline", "thm1", "--body", "triaxial:ayy=0.2"], "--body"),
    (["pipeline", "thm1", "--body", "cube"], "--body"),
    (["verify", "thm3", "--field", "unknown_family"], "--field"),
    (["umbilic", "scan", "--field", "paraboloid", "--tol", "-1"], "--tol"),
    # NaN passes every `<=` test, so each number is also checked to be finite
    (["decay", "--field", "gaussian_bump", "--radii", "2,nan"], "--radii"),
    (["decay", "--field", "gaussian_bump", "--radii", "2,inf"], "--radii"),
    (["verify", "thm2", "--field", "asym_bump", "--X", "nan"], "--X"),
    (["verify", "thm3", "--field", "asym_bump", "--theta0", "nan"], "--theta0"),
    (["verify", "divergence", "--field", "asym_bump", "--Y=-inf"], "--Y"),
    (["umbilic", "scan", "--field", "paraboloid", "--tol", "nan"], "--tol"),
    (["invert", "graph", "--field", "sphere_cap", "--r0", "nan"], "--r0"),
    (["floor", "--field", "ridge", "--region", "nan", "-1", "1", "1"], "--region"),
    (["curvature", "map", "--field", "paraboloid", "--region", "-1", "-1", "inf", "1"],
     "--region"),
    (["contour", "--field", "bates_like:lam=nan"], "--field"),
    (["pipeline", "thm1", "--body", "zonal", "--offset", "nan"], "--offset"),
    (["pipeline", "thm1", "--body", "sphere:R=nan"], "--body"),
    # one name:key=value grammar: every item must be key=value
    (["contour", "--field", "ridge:lam=0.1,"], "--field"),
    (["pipeline", "thm1", "--body", "zonal:eps=0.05,"], "--body"),
    (["pipeline", "thm1", "--body", "zonal:eps"], "--body"),
    # a nonpositive ladder is refused where --radii is parsed, on every command
    # that takes one; invert graph would otherwise fail its graph check (exit 3)
    (["invert", "graph", "--field", "paraboloid", "--r0", "5", "--radii", "0,10"],
     "--radii"),
    (["verify", "thm2", "--field", "asym_bump", "--radii", "0,10"], "--radii"),
    (["verify", "thm3", "--field", "asym_bump", "--radii", "0,10"], "--radii"),
    (["verify", "divergence", "--field", "asym_bump", "--radii", "0,10"], "--radii"),
    (["pipeline", "thm1", "--body", "zonal", "--radii", "0,10"], "--radii"),
    (["decay", "--field", "gaussian_bump", "--radii", "0,10"], "--radii"),
    (["decay", "--field", "gaussian_bump", "--radii", "-1,2"], "--radii"),
    # a ring of decay_profile needs 8 angles, checked before the inversion
    (["invert", "graph", "--field", "paraboloid", "--r0", "5", "--ntheta", "4"],
     "--ntheta"),
    (["decay", "--field", "gaussian_bump", "--ntheta", "4"], "--ntheta"),
    # the quadrature counts are checked by QuadScheme's rule where they are parsed
    (["verify", "thm2", "--field", "gaussian_bump", "--ntheta", "4"], "--ntheta"),
    (["verify", "divergence", "--field", "gaussian_bump", "--nr", "2"], "--nr"),
    # an empty item of a radius list is refused, as a trailing comma of --field is
    (["decay", "--field", "gaussian_bump", "--radii", "2,,4"], "--radii"),
    (["decay", "--field", "gaussian_bump", "--radii", "2,4,"], "--radii"),
], ids=["map-m", "contour-n", "invert-r0", "invert-radii", "invert-ntheta",
        "decay-ntheta", "decay-radii", "decay-empty-radii", "pipeline-radii",
        "pipeline-ntheta", "pipeline-body-key", "pipeline-body-name", "thm3-field",
        "scan-tol", "decay-radii-nan", "decay-radii-inf", "thm2-X-nan", "thm3-theta0-nan",
        "divergence-Y-inf", "scan-tol-nan", "invert-r0-nan", "floor-region-nan",
        "map-region-inf", "contour-lam-nan", "pipeline-offset-nan", "pipeline-body-nan",
        "field-trailing-comma", "body-trailing-comma", "body-bare-key",
        "invert-radii-zero", "thm2-radii-zero", "thm3-radii-zero", "divergence-radii-zero",
        "pipeline-radii-zero", "decay-radii-zero", "decay-radii-negative",
        "invert-ntheta-ring", "decay-ntheta-ring", "thm2-ntheta", "divergence-nr",
        "decay-radii-empty-item", "decay-radii-trailing-comma"])
def test_bad_option_value_is_a_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: ")
    assert not out.exists()


def test_invert_graph_r0_whose_square_underflows_is_a_usage_error(tmp_path, capsys):
    # r0^2 + fmax^2 would be 0 in the exterior's rbar_min = r0 / (r0^2 + fmax^2)
    out = tmp_path / "x.csv"
    assert main(["invert", "graph", "--field", "paraboloid", "--r0", "1e-200",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "usage error: r0 must be positive and its square must not underflow, got 1e-200\n")
    assert not out.exists()


@pytest.mark.parametrize("radii, code", [("0,10", 1), ("10,100", 3)])
def test_invert_graph_refuses_its_ladder_before_evaluating_the_field(tmp_path, monkeypatch,
                                                                     radii, code):
    # a good ladder reaches the inversion, which evaluates the field and
    # fails the graph check at r0 = 5; a bad one stops at the parser
    calls = []
    for name in ("jet_arrays", "values_and_grads"):
        def spy(self, x, y, evaluate=getattr(umbilic.ScalarField, name)):
            calls.append(self.name)
            return evaluate(self, x, y)
        monkeypatch.setattr(umbilic.ScalarField, name, spy)
    out = tmp_path / "x.csv"
    assert main(["invert", "graph", "--field", "paraboloid", "--r0", "5", "--radii", radii,
                 "--out", str(out)]) == code
    assert bool(calls) == (code == 3)
    assert not out.exists()


@pytest.mark.parametrize("argv, sci, plain", [
    (["verify", "thm2", "--field", "asym_bump"], ["--X", "-1e-3"], ["--X=-0.001"]),
    (["contour", "--field", "saddle", "--n", "5"], ["--region", "-1e-1", "-1", "1", "1"],
     ["--region", "-0.1", "-1", "1", "1"]),
    (["curvature", "map", "--field", "paraboloid", "--n", "5", "--m", "5"],
     ["--region", "-2E-1", "-.5", "1", "1"], ["--region", "-0.2", "-0.5", "1", "1"]),
], ids=["thm2-X", "contour-region", "map-region"])
def test_negative_scientific_notation_is_a_value(tmp_path, argv, sci, plain):
    # argparse alone reads -1e-3 as an option flag, and -0.001 as a number
    out, ref = tmp_path / "sci.csv", tmp_path / "plain.csv"
    assert main(argv + sci + ["--out", str(out)]) == 0
    assert main(argv + plain + ["--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("argv, flag", [
    (["verify", "thm2", "--field", "asym_bump", "--X", "-inf"], "--X"),
    (["contour", "--field", "saddle", "--region", "-1e-1", "-1", "1", "-Infinity"],
     "--region"),
    (["verify", "thm3", "--field", "asym_bump", "--theta0", "-NaN"], "--theta0"),
    # a comma list whose first value is negative is a value too
    (["decay", "--field", "gaussian_bump", "--radii", "-1e-3,-Infinity"], "--radii"),
], ids=["thm2-X", "contour-region", "thm3-theta0", "decay-radii-list"])
def test_negative_nonfinite_value_is_a_usage_error(tmp_path, capsys, argv, flag):
    # read as a value, not as an option flag, it meets the finite check
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"usage error: argument {flag}: must be finite, got ")
    assert not out.exists()


@pytest.mark.parametrize("words", [
    [], ["fields"], ["fields", "list"], ["curvature"], ["curvature", "map"],
    ["umbilic"], ["umbilic", "scan"], ["floor"], ["invert"], ["invert", "graph"],
    ["verify"], ["verify", "thm2"], ["verify", "thm3"], ["verify", "divergence"],
    ["pipeline"], ["pipeline", "thm1"], ["contour"], ["decay"],
], ids=lambda words: " ".join(words) or "umbilic")
def test_help_exits_zero(capsys, words):
    with pytest.raises(SystemExit) as exc:
        main(words + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: {' '.join(['umbilic', *words])} ")


def test_floor_and_scan_outputs(tmp_path):
    out = tmp_path / "floor.csv"
    rc = main(["floor", "--field", "ridge:lam=0.1", "--region",
               "-5", "-5", "5", "5", "--n", "41", "--out", str(out)])
    assert rc == 0
    floor_val = float(out.read_text().splitlines()[2].split(",")[0])
    assert floor_val > 0.0

    out2 = tmp_path / "scan.csv"
    rc = main(["umbilic", "scan", "--field", "paraboloid", "--region",
               "-2", "-2", "2", "2", "--n", "41", "--out", str(out2)])
    assert rc == 0
    rows = out2.read_text().splitlines()[2:]
    assert len(rows) == 1
    x, y = (float(v) for v in rows[0].split(",")[:2])
    assert abs(x) < 1e-8 and abs(y) < 1e-8
    assert rows[0].split(",")[3] == "1"  # refined, an integer column


def test_contour_svg_and_heatmap(tmp_path):
    csv = tmp_path / "c.csv"
    svg = tmp_path / "c.svg"
    rc = main(["contour", "--field", "asym_bump", "--residual", "dk",
               "--region", "-3", "-3", "3", "3", "--n", "51", "--m", "51",
               "--out", str(csv), "--svg", str(svg)])
    assert rc == 0
    body = svg.read_text()
    assert body.startswith("<svg") and "<path" in body

    heat = tmp_path / "h.svg"
    rc = main(["curvature", "map", "--field", "paraboloid", "--quantity", "K",
               "--region", "-1", "-1", "1", "1", "--n", "21", "--m", "21",
               "--out", str(tmp_path / "k.csv"), "--svg", str(heat)])
    assert rc == 0
    assert "<rect" in heat.read_text()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field = asym_bump\nradii = 2,4\nntheta = 64\n")
    out1 = tmp_path / "a.csv"
    rc = main(["decay", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    assert len(out1.read_text().splitlines()) == 4  # comment + header + 2 rows
    out2 = tmp_path / "b.csv"
    rc = main(["decay", "--config", str(cfg), "--radii", "2,4,8",
               "--out", str(out2)])
    assert rc == 0
    assert len(out2.read_text().splitlines()) == 5  # flag overrides config


@pytest.mark.parametrize("form", ["--config PATH", "--config=PATH"])
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_config_read_in_either_form_and_position(tmp_path, form, before):
    # the subcommand's options may come before or after its words
    cfg = tmp_path / "c.cfg"
    cfg.write_text("radii = 2,4\nntheta = 16\n")
    flag = ["--config", str(cfg)] if form == "--config PATH" else [f"--config={cfg}"]
    out, ref = tmp_path / "d.csv", tmp_path / "ref.csv"
    cmd = ["--field", "gaussian_bump", "--out", str(out)]
    assert main((flag + ["decay"] if before else ["decay"] + flag) + cmd) == 0
    assert main(["decay", "--field", "gaussian_bump", "--radii", "2,4", "--ntheta", "16",
                 "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()

def test_config_multi_valued_option_matches_flags(tmp_path):
    cfg = tmp_path / "map.cfg"
    cfg.write_text("field = paraboloid\nregion = -1 -0.5 1 1.5\nn = 17\n")

    def csv(name, *argv):
        out = tmp_path / f"{name}.csv"
        assert main(["curvature", "map", "--quantity", "K", "--m", "13", *argv,
                     "--out", str(out)]) == 0
        return out.read_bytes()

    wide = ("--region", "-2", "-2", "2", "2")
    flags = csv("flags", "--field", "paraboloid", "--region", "-1", "-0.5", "1", "1.5",
                "--n", "17")
    assert csv("config", "--config", str(cfg)) == flags
    assert csv("override", "--config", str(cfg), *wide) == csv(
        "wide", "--field", "paraboloid", *wide, "--n", "17") != flags


def test_config_skips_blank_and_comment_lines(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# ring radii\n\n   \nradii = 2,4\n  # angles\nntheta = 16\n")
    out, ref = tmp_path / "d.csv", tmp_path / "ref.csv"
    assert main(["decay", "--config", str(cfg), "--field", "gaussian_bump",
                 "--out", str(out)]) == 0
    assert main(["decay", "--field", "gaussian_bump", "--radii", "2,4", "--ntheta", "16",
                 "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("text, argv, message", [
    ("radii = 2,4\nntheta 16\n", "decay --field gaussian_bump --out {out} --config {cfg}",
     "malformed config line 'ntheta 16'"),
    ("radii = 2,4\n", "decay --field gaussian_bump --out {out} --config",
     "--config requires a path"),
    (None, "decay --config {cfg} --field gaussian_bump --out {out}",
     "cannot read config file: "),
    # argparse would take an abbreviation before the command words as the
    # top-level --config, which nothing reads, and run on the defaults
    ("radii = 2,4\n", "--conf {cfg} decay --field gaussian_bump --out {out}",
     "unrecognized option '--conf'"),
    ("radii = 2,4\n", "--conf={cfg} decay --field gaussian_bump --out {out}",
     "unrecognized option '--conf="),
    # a second --config, in any spelling or place, is refused before either
    # file is read (the file here does not exist)
    (None, "--config {cfg} --conf {cfg} decay --field gaussian_bump --out {out}",
     "--config given twice: '--conf'"),
    (None, "--config {cfg} --config {cfg} decay --field gaussian_bump --out {out}",
     "--config given twice: '--config'"),
    (None, "--config {cfg} decay --field gaussian_bump --config={cfg} --out {out}",
     "--config given twice: '--config'"),
], ids=["malformed-line", "no-path", "missing-file", "abbreviated", "abbreviated-equals",
        "twice-abbreviated", "twice", "twice-after-the-words"])
def test_config_errors_are_usage_errors(tmp_path, capsys, text, argv, message):
    cfg, out = tmp_path / "c.cfg", tmp_path / "d.csv"
    if text is not None:
        cfg.write_text(text)
    assert main([a.format(cfg=cfg, out=out) for a in argv.split()]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: {message}")
    assert not out.exists()


def test_option_abbreviations_after_the_command_words(tmp_path):
    out, ref = tmp_path / "d.csv", tmp_path / "ref.csv"
    assert main(["decay", "--fi", "gaussian_bump", "--rad", "2,4", "--out", str(out)]) == 0
    assert main(["decay", "--field", "gaussian_bump", "--radii", "2,4",
                 "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("threads", ["1", "4"])
def test_csv_determinism_across_threads(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("UMBILIC_THREADS", threads)
    a = tmp_path / f"a{threads}.csv"
    b = tmp_path / f"b{threads}.csv"
    for path in (a, b):
        rc = main(["verify", "thm2", "--field", "asym_bump",
                   "--radii", "2,4,8", "--out", str(path)])
        assert rc == 0
    assert read(a) == read(b)
    ref = tmp_path / "ref.csv"
    monkeypatch.setenv("UMBILIC_THREADS", "1")
    assert main(["verify", "thm2", "--field", "asym_bump", "--radii", "2,4,8",
                 "--out", str(ref)]) == 0
    assert read(ref) == read(a)


def test_grid_determinism_across_threads(tmp_path, monkeypatch):
    blobs = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("UMBILIC_THREADS", threads)
        for tag, argv in {
            "map": ["curvature", "map", "--field", "asym_bump", "--quantity",
                    "H", "--region", "-2", "-2", "2", "2", "--n", "64",
                    "--m", "33"],
            # 301^2 nodes span several sampling blocks
            "scan": ["umbilic", "scan", "--field", "asym_bump", "--region",
                     "-3", "-3", "3", "3", "--n", "301"],
        }.items():
            path = tmp_path / f"{tag}{threads}.csv"
            assert main(argv + ["--out", str(path)]) == 0
            blobs.setdefault(tag, []).append(read(path))
    for tag, (a, b) in blobs.items():
        assert a == b, f"{tag} output differs across thread counts"


# sha256 of a map's CSV and heatmap as the per-cell writers wrote them
MAP_GOLDEN = {
    "csv": "26a634a1334d38ad2683d7d60ec7b11b59ffecacf86b4785f2d0cc1febec87f9",
    "svg": "153f2b8801b1232b03b728a6ceb4aa436b1def95bff0922d0fad4f68e1b45c25",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_curvature_map_golden_bytes(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("UMBILIC_THREADS", threads)
    paths = {"csv": tmp_path / "k.csv", "svg": tmp_path / "k.svg"}
    assert main(["curvature", "map", "--field", "paraboloid", "--quantity", "K",
                 "--n", "31", "--m", "23", "--out", str(paths["csv"]),
                 "--svg", str(paths["svg"])]) == 0
    for kind, path in paths.items():
        assert hashlib.sha256(read(path)).hexdigest() == MAP_GOLDEN[kind], kind


# sha256 of map CSVs whose values repeat heavily, as the per-node writer
# wrote them: loglog_tail's flat disk of zeros and radial repeats (1,599
# distinct values of 10,201), and a ridge, constant along y (272 of 205,209)
REPEAT_MAP_GOLDEN = {
    "loglog_tail k2 --region -4 -4 4 4 --n 101":
        "73b6c8c57f317d64593c50f59e32bf108771c27c9d126641540b39c30d75445b",
    "ridge:lam=0.3 P2 --n 453 --m 453":
        "4c9bb947ebd337b98fd17af850c17fd1aeb70de4d2a56810f8adb7dd435688aa",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("spec", sorted(REPEAT_MAP_GOLDEN))
def test_repeat_heavy_map_golden_bytes(tmp_path, monkeypatch, spec, threads):
    monkeypatch.setenv("UMBILIC_THREADS", threads)
    field, quantity, *rest = spec.split()
    out = tmp_path / "map.csv"
    assert main(["curvature", "map", "--field", field, "--quantity", quantity, *rest,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == REPEAT_MAP_GOLDEN[spec]


# sha256 of contour SVGs as the per-vertex writer wrote them: the README
# example (3 polylines, n = m = 101) and the 2 diagonals on a 61-by-101
# grid, re-pinned when zero-length segments at exact-zero nodes were
# dropped (5 two-vertex polylines and 14 repeated vertices went), and again
# when a node of other than two segments began to end polylines (the
# diagonals cross at the origin node, so they are 4 half-diagonals)
CONTOUR_SVG_GOLDEN = {
    "asym_bump dk -3 3 101": "0253e4a42860cd2c69dedf03cf6b1e3b3d71aa76a1c688ca00d02d8761e7482a",
    "gaussian_bump P2 -3 3 61": "63796ecbd311928ff2e098e802f5aba77d438db4add9589a661c80394b242a51",
}


@pytest.mark.parametrize("spec", sorted(CONTOUR_SVG_GOLDEN))
def test_contour_svg_golden_bytes(tmp_path, spec):
    field, residual, lo, hi, n = spec.split()
    svg = tmp_path / "c.svg"
    assert main(["contour", "--field", field, "--residual", residual,
                 "--region", lo, lo, hi, hi, "--n", n, "--out", str(tmp_path / "c.csv"),
                 "--svg", str(svg)]) == 0
    assert hashlib.sha256(read(svg)).hexdigest() == CONTOUR_SVG_GOLDEN[spec]


# sha256 of the CSVs of README examples that no other golden covers, taken
# before the unused API was deleted from the package; the thm3 CSV re-pinned
# when its stated_ratio column was dropped (the other columns kept their bytes)
README_GOLDEN = {
    "verify thm2 --field asym_bump --X 0 --Y 1.5708 --radii 2,4,8":
        "8e4404ac7132cdc4bcdcab768dd2f015a858df6c1782b0a7de8d48d613bd68a4",
    "verify thm3 --field asym_bump --theta0 0 --radii 2,4,8":
        "8d5918ddf8788b8a305c85b3aff45fa89d6e9fbef5f6bf37c65403060e49b559",
    "verify divergence --field asym_bump --which v2 --radii 2,4,8":
        "579f54da3f83a21da974ec7d1911c5acc1d66b834fb9a573c2998b1eb21802c8",
    "floor --field bates_like:lam=0.1 --region -20 -20 20 20 --n 401":
        "ec51f91b1b1e4ce67652e73ec2e0bba73ad1fae18cb1f964114b4cfd81e0ec24",
    "contour --field asym_bump --residual dk --region -3 -3 3 3":
        "0215905ea3a3ebfa8d443e0fa8e5c9fcbbe0962e23808bc3a8eac27e9db6bdaf",
    "decay --field gaussian_bump --radii 2,4,8,16":
        "5ac74cbdcad9a138c595e0d92d6068028efd47712c282aea3d0e168f3f2bf7e0",
    # taken before the decay profile evaluated its rings in one call
    "invert graph --field sphere_cap --r0 0.7":
        "9fdc06c176e5c09fac0d49f0d57b9bdabd15bebf05087539aabdf2dc5bd94b26",
    # taken once the body was posed in the tangent frame of its umbilic
    "pipeline thm1 --body zonal:eps=0.05 --offset 10":
        "511124312d2384e9a7a666eb965c62e1a23728085dde886c7e7d1c5a43fee87b",
    "pipeline thm1 --body triaxial:ax=0.01,ay=0.05,az=0.09":
        "eaaeee2e318bb1cff15586d10ae0eda8c2468794867a84cbb5464d93c584f730",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", sorted(README_GOLDEN))
def test_readme_example_golden_bytes(tmp_path, monkeypatch, command, threads):
    monkeypatch.setenv("UMBILIC_THREADS", threads)
    out = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == README_GOLDEN[command]


# sha256 of the maps of the six quantities that no golden above covers, taken
# before each quantity had an array formula of its own
QUANTITY_MAP_ARGS = ("--field asym_bump --region -3 -3 3 3 --n 41 --m 37 "
                     "--X 0.3 --Y 1.9 --theta0 0.7")
QUANTITY_MAP_GOLDEN = {
    "H": "e77735180e0fba39a5c4609b2684fb6f9d63240e2f4b195f9cc7de7de1a5c4c8",
    "k1": "c7baed07999801639d7abcdd8843219f598c41cc8f304f2165f249ab6ca3c12d",
    "dk": "4d6e7af202dfaa00809fa6727b2a604f97b8b7bbcfb237da97bbd4c7d4af5c5a",
    "dkdtheta": "d3700364d9ac760629a0ba7d209f9be716c238365e78fa58dbbdbdaf7b0b7b16",
    "P1": "eaad6c2f4699c4ca3a401728f9ce9e7541581282077d975f4d6902dede5e1f29",
    "D": "2ab48198a926791d27c025c773f6ecb7c325fc212f7cc08410d449c46c394747",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("quantity", sorted(QUANTITY_MAP_GOLDEN))
def test_quantity_map_golden_bytes(tmp_path, monkeypatch, quantity, threads):
    monkeypatch.setenv("UMBILIC_THREADS", threads)
    out = tmp_path / "map.csv"
    assert main(["curvature", "map", "--quantity", quantity, *QUANTITY_MAP_ARGS.split(),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == QUANTITY_MAP_GOLDEN[quantity]


# sha256 of flux-ladder CSVs on radii whose last annulus is not a whole one
# (below 1, two in one unit annulus, past an integer), taken while each
# radius evaluated its whole disk
LADDER_GOLDEN = {
    "verify thm2 --field asym_bump --X 0.3 --Y 1.9 --radii 0.7,2.5,2.9,6.3":
        "a385a1e7a1bdd4e879966798c57ecdfa7e7e6a8442bf5e0f467fc365b913029a",
    "verify thm3 --field asym_bump --theta0 0.7 --radii 0.7,2.5,2.9,6.3":
        "b111ab279c646399ad4ec0f1b85cb9dce2675dc15698483256eaccf105074f4d",
    "verify divergence --field asym_bump --which v2 --X 0.3 --Y 1.9 --radii 0.7,2.5,2.9,6.3":
        "009121652565041feec87183f3abc0cd4b41e5d35c1e0dcd896e295831112406",
    "verify divergence --field asym_bump --which v3 --theta0 0.7 --radii 0.7,2.5,2.9,6.3":
        "a3d850dbee7c86b473a098574e6e5cf6364849457b1d0c7e9b0ae872ac3f6f1f",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", sorted(LADDER_GOLDEN))
def test_flux_ladder_golden_bytes(tmp_path, monkeypatch, command, threads):
    monkeypatch.setenv("UMBILIC_THREADS", threads)
    out = tmp_path / "ladder.csv"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == LADDER_GOLDEN[command]


def test_invert_graph_of_loglog_tail_far_out_exits_zero(tmp_path):
    # graph_condition samples the field out to r0, where (r log r)^2 in F''
    # overflows to inf; F'' is then -0.0, and pytest makes a RuntimeWarning
    # an error
    out = tmp_path / "inv.csv"
    assert main(["invert", "graph", "--field", "loglog_tail", "--r0", "1e200",
                 "--ntheta", "16", "--out", str(out)]) == 0


# sha256 of `invert graph` CSVs of exterior fields, taken before the decay
# profile evaluated its rings in one call
INVERT_GOLDEN = {
    "invert graph --field paraboloid --r0 0.3 --radii 4,40,400 --normalize":
        "c627dff426f4add19baaf7ed5a01018119947370028c16d93d5b371217faea90",
    "invert graph --field cylinder --r0 0.3 --radii 4,40,400":
        "97e7b7c07e55858e3eef982b5672e29a8c89a295186ba363fa9f563a88562cbc",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", sorted(INVERT_GOLDEN))
def test_invert_graph_golden_bytes(tmp_path, monkeypatch, command, threads):
    monkeypatch.setenv("UMBILIC_THREADS", threads)
    out = tmp_path / "inv.csv"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == INVERT_GOLDEN[command]


def test_invert_graph_solves_its_ladder_once(tmp_path, monkeypatch):
    # every ring of the ladder goes through one exterior radius solve
    calls = []
    solve_r = umbilic.transform.ExteriorGraph.solve_r

    def counted(self, rbar, theta):
        calls.append(np.shape(rbar))
        return solve_r(self, rbar, theta)

    monkeypatch.setattr(umbilic.transform.ExteriorGraph, "solve_r", counted)
    assert main(["invert", "graph", "--field", "paraboloid", "--r0", "0.3",
                 "--radii", "4,40,400", "--ntheta", "64",
                 "--out", str(tmp_path / "inv.csv")]) == 0
    assert calls == [(3, 64)]


# sha256 of `pipeline thm1 --ntheta 64` CSVs of five bodies, taken once the
# body was posed in the tangent frame of its umbilic
PIPELINE_GOLDEN = {
    "sphere:R=1.3": "eb45651213282cf1e0c36312a017d0cf9d39595c3f6a6fa2b1cde09d7205894e",
    "zonal:eps=0.07": "b224c040412699885bf7c7daab6cdcf9617ecee215286915b1a4360d0234e983",
    "triaxial:ax=0.01,ay=0.05,az=0.09":
        "782b209fd4aa4e5e842e4834e52f458e98e3bb7435e3656b7ab3da4799c84364",
    "shifted:cx=0.2,cy=-0.4,cz=0.1":
        "b5447122f2f93f6a33970d2dbd7c3797fd69458d648a247ea73a174c2fe8f88c",
    "quartic:qx=0.03,qy=0.05,qz=0.07":
        "aefeb20444169a0e2efe420883aa98faae9e55e9607e474d2ecce825a25fa2de",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("body", sorted(PIPELINE_GOLDEN))
def test_pipeline_golden_bytes(tmp_path, monkeypatch, body, threads):
    monkeypatch.setenv("UMBILIC_THREADS", threads)
    out = tmp_path / "p.csv"
    assert main(["pipeline", "thm1", "--body", body, "--ntheta", "64", "--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == PIPELINE_GOLDEN[body]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["floor", "--n", "41"],
    ["contour", "--n", "41", "--m", "41"],
    ["curvature", "map", "--quantity", "D", "--n", "41", "--m", "41"],
    ["umbilic", "scan", "--n", "41"],
])
def test_nonfinite_grid_exit_code(tmp_path, capsys, argv):
    # exp overflows far out, so the curvature samples turn nan
    out = tmp_path / "x.csv"
    rc = main(argv + ["--field", "separable", "--region", "-1000", "-1000",
                      "1000", "1000", "--out", str(out)])
    assert rc == 3
    assert "grid samples are not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv, message", [
    (["decay", "--radii", "1000", "--ntheta", "16"], "ring samples are not finite"),
    (["verify", "thm2", "--radii", "800", "--nr", "4", "--ntheta", "16"],
     "disk samples are not finite"),
    (["verify", "divergence", "--radii", "800", "--nr", "4", "--ntheta", "16"],
     "disk samples are not finite"),
    # finite samples, but r * |grad f| or the ring-mean's variance overflows
    (["decay", "--radii", "709", "--ntheta", "16"],
     "ring samples are finite, but a result computed from them is not"),
    (["decay", "--radii", "600", "--ntheta", "16"],
     "ring samples are finite, but a result computed from them is not"),
], ids=["decay", "thm2", "divergence", "decay-rgrad-overflow", "decay-variance-overflow"])
def test_nonfinite_ring_and_disk_exit_code(tmp_path, capsys, argv, message):
    # exp overflows on the far rings and disks, as on the far grids above
    out = tmp_path / "x.csv"
    assert main(argv + ["--field", "separable", "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    (["--field", "gaussian_bump", "--r0", "0.5"], "vanish to first order"),
    (["--field", "saddle", "--r0", "0.3", "--normalize"], "umbilic critical point"),
    (["--field", "gaussian_bump", "--r0", "0.3", "--normalize"], "positive curvature"),
    # the exterior ends where w = r^2 + f^2 >= 1/(4 rbar^2) could square to a
    # subnormal: 0.5 tiny^(-1/4)
    (["--field", "paraboloid", "--r0", "0.3", "--radii", "4.1e76", "--ntheta", "16"],
     "rbar = 4.1e+76 above exterior domain (max 4.09387e+76)"),
    (["--field", "paraboloid", "--r0", "0.3", "--radii", "1e90", "--ntheta", "16"],
     "rbar = 1e+90 above exterior domain"),
    (["--field", "cylinder", "--r0", "0.3", "--radii", "1e150", "--ntheta", "16"],
     "rbar = 1e+150 above exterior domain"),
    (["--field", "sphere_cap", "--r0", "0.3", "--radii", "1e150", "--ntheta", "16"],
     "rbar = 1e+150 above exterior domain"),
    (["--field", "paraboloid", "--r0", "0.3", "--radii", "10,1e155", "--ntheta", "16"],
     "rbar = 1e+155 above exterior domain"),
    (["--field", "paraboloid", "--r0", "0.3", "--radii", "1e300", "--ntheta", "16"],
     "rbar = 1e+300 above exterior domain"),
], ids=["origin", "umbilic", "curvature", "above-exterior-4.1e76", "above-exterior-1e90",
        "above-exterior-cylinder", "above-exterior-sphere-cap", "above-exterior-1e155",
        "above-exterior-1e300"])
def test_inversion_precondition_exit_code(tmp_path, capsys, argv, reason):
    # a failed precondition of the inversion is a failed check, not a usage error
    out = tmp_path / "x.csv"
    assert main(["invert", "graph", *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("check failed:") and reason in err
    assert not out.exists()


def test_invert_graph_saddle_rays_where_f_vanishes(tmp_path):
    # the ray theta = 0 lies on the saddle's zero set: r = 1/rbar is the root
    # itself and sits on the upper end of the bisection bracket
    out = tmp_path / "s.csv"
    rc = main(["invert", "graph", "--field", "saddle", "--r0", "0.549845",
               "--radii", "2.88464,22.8315,180.708", "--ntheta", "28",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "rbar,sup_dev,sup_rbar_grad"
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert [row[0] for row in rows] == [2.88464, 22.8315, 180.708]
    assert all(math.isfinite(v) and v >= 0.0 for row in rows for v in row)


def test_umbilic_scan_reports_a_totally_umbilic_region(tmp_path, capsys):
    # on the sphere cap every node is umbilic: the CSV says so, and stderr too
    out = tmp_path / "s.csv"
    assert main(["umbilic", "scan", "--field", "sphere_cap", "--region", "-0.7", "-0.7",
                 "0.7", "0.7", "--n", "21", "--out", str(out)]) == 0
    assert capsys.readouterr().err == "region flagged totally umbilic\n"
    assert out.read_text().splitlines()[0].endswith("totally_umbilic=True")


@pytest.mark.parametrize("argv, code", [(["fields", "list"], 0), (["no-such-command"], 1)])
def test_console_main_exits_with_the_code_of_main(monkeypatch, capsys, argv, code):
    # the installed `umbilic` script: sys.argv in, main's exit code out
    monkeypatch.setattr(sys, "argv", ["umbilic", *argv])
    with pytest.raises(SystemExit) as exc:
        console_main()
    assert exc.value.code == code


def test_cli_import_leaves_scipy_out():
    # importing scipy.optimize alone takes longer than the whole CLI start-up
    src = str(Path(umbilic.__file__).resolve().parent.parent)
    code = ("import sys, umbilic.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_package_imports_only_stdlib_and_numpy():
    # orjson and the like may be installed, but none is a dependency; the CSV
    # contract is repr's text, which orjson's float text differs from
    allowed = set(sys.stdlib_module_names) | {"numpy", "umbilic"}
    package = Path(umbilic.__file__).resolve().parent
    found = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in allowed:
                    found.setdefault(path.name, []).append(name)
    assert found == {}
