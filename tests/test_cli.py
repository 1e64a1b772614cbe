import pytest

from umbilic.cli import main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_fields_list(capsys):
    assert main(["fields", "list"]) == 0
    out = capsys.readouterr().out
    assert "bates_like" in out and "loglog_tail" in out


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
