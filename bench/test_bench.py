"""Self-tests of the benchmark: seeded op lists, output checkers, tracing.

    python -m pytest bench -q
"""

import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from umbilic import convexbody, curvature, scan  # noqa: E402


# ---------------------------------------------------------------------------
# op lists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops(name):
    count = 2 * workloads.WORKLOADS[name].round_len
    a = workloads.dump(workloads.op_list(name, 7, count))
    b = workloads.dump(workloads.op_list(name, 7, count))
    assert a == b
    assert a != workloads.dump(workloads.op_list(name, 8, count))


def test_rounds_cover_every_family_and_residual():
    ops = workloads.op_list("plane-scan", 3, 5 * 24)
    assert {op["family"] for op in ops} == set(workloads.FAMILIES)
    assert {op["residual"] for op in ops if op["kind"] == "contour"} == set(workloads.RESIDUALS)
    assert all(101 <= op["n"] <= 301 for op in ops)
    widths = [op["w"] for op in ops if op["family"] != "sphere_cap"]
    assert 0.5 <= min(widths) < 1.0 and 10.0 < max(widths) <= 20.0


def test_round_lengths_match_the_table():
    for name, wl in workloads.WORKLOADS.items():
        round_len = wl.round_len
        ops = workloads.op_list(name, 1, 3 * round_len)
        assert [op["round"] for op in ops] == [i // round_len for i in range(len(ops))]


# ---------------------------------------------------------------------------
# checkers: a real output passes, a corrupted one fails
# ---------------------------------------------------------------------------

@pytest.fixture
def runner(tmp_path):
    os.environ["UMBILIC_THREADS"] = "1"
    return run.Runner(tmp_path, 0)


def cli_op(kind, family, argv, **extra):
    return {"kind": kind, "family": family.partition(":")[0], "spec": family,
            "argv": argv, "id": 0, **extra}


def outcome(runner, op):
    _, result = runner.run(op)
    assert runner.check(op, result) == [], runner.check(op, result)
    return result


def failed(runner, op, result):
    return [name for name, _ in runner.check(op, result)]


def rewrite(result, old, new):
    data = result["csv"]
    assert old in data
    return dict(result, csv=data.replace(old, new))


def body_lines(result):
    head, _, body = result["csv"].partition(b"\n")
    header, _, body = body.partition(b"\n")
    return head + b"\n" + header + b"\n", body.splitlines()


def test_curvature_map_checker(runner):
    op = cli_op("curvature_map", "asym_bump",
                ["curvature", "map", "--field", "asym_bump", "--quantity", "k1",
                 "--region", "-2", "-2", "2", "2", "--n", "12", "--m", "12"],
                quantity="k1", n=12, svg=False)
    result = outcome(runner, op)
    head, lines = body_lines(result)
    scaled = [b"%s,%s,%r" % (*ln.split(b",")[:2], float(ln.split(b",")[2]) * 1.001 + 1e-3)
              for ln in lines]
    assert "recompute" in failed(runner, op, dict(result, csv=head + b"\n".join(scaled) + b"\n"))
    assert "rows" in failed(runner, op, dict(result, csv=head + b"\n".join(lines[:-1]) + b"\n"))
    nan = [ln.rsplit(b",", 1)[0] + b",nan" for ln in lines]
    assert "finite" in failed(runner, op, dict(result, csv=head + b"\n".join(nan) + b"\n"))


def test_contour_checker(runner):
    op = cli_op("contour", "asym_bump",
                ["contour", "--field", "asym_bump", "--residual", "dk", "--region",
                 "-2", "-2", "2", "2", "--n", "31", "--m", "31", "--X", "0.3", "--Y", "1.9"],
                residual="dk", n=31, w=2.0)
    result = outcome(runner, op)
    head, lines = body_lines(result)
    moved = [b"%s,%r,%r" % (ln.split(b",")[0], float(ln.split(b",")[1]) * 0.999,
                            float(ln.split(b",")[2]) * 0.999) for ln in lines]
    assert "grid-edge" in failed(runner, op, dict(result, csv=head + b"\n".join(moved) + b"\n"))
    outside = [b"0,5.0,5.0"] + lines
    assert "region" in failed(runner, op, dict(result, csv=head + b"\n".join(outside) + b"\n"))


def scan_op(family, w, n=41):
    return cli_op("scan", family, ["umbilic", "scan", "--field", family, "--region",
                                   str(-w), str(-w), str(w), str(w), "--n", str(n)],
                  n=n, w=w)


def test_scan_checker_paraboloid(runner):
    op = scan_op("paraboloid", 1.0)
    result = outcome(runner, op)
    head, lines = body_lines(result)
    moved = head + b"0.25,0.25,1e-30,1\n"
    names = failed(runner, op, dict(result, csv=moved))
    assert "paraboloid" in names and "refined-residual" in names


def test_scan_checker_umbilic_free_and_sphere_cap(runner):
    op = scan_op("saddle", 1.0)
    result = outcome(runner, op)
    assert "umbilic-free" in failed(runner, op, dict(result, csv=result["csv"] + b"0.0,0.0,0.0,1\n"))
    op = scan_op("sphere_cap", 0.5)
    result = outcome(runner, op)
    assert "sphere-cap" in failed(runner, op, rewrite(result, b"totally_umbilic=True",
                                                     b"totally_umbilic=False"))


def test_scan_checker_isolation_flags_the_flat_disk(runner):
    op = dict(scan_op("loglog_tail", 8.0, n=31), workload="plane-scan", id=37)
    _, result = runner.run(op)
    fails = dict(runner.check(op, result))
    assert checks.defect_of(op, "isolated", fails["isolated"]) == "flat-disk-pointwise"


def test_floor_checker(runner):
    op = cli_op("floor", "ridge:lam=0.1", ["floor", "--field", "ridge:lam=0.1", "--region",
                                           "-3", "-3", "3", "3", "--n", "41"])
    result = outcome(runner, op)
    head, lines = body_lines(result)
    floor, x, y = lines[0].split(b",")
    bumped = head + b"%r,%s,%s\n" % (float(floor) * 1.01, x, y)
    assert "recompute" in failed(runner, op, dict(result, csv=bumped))


def verify_op(which, extra=()):
    argv = ["verify", which, "--field", "asym_bump", "--radii", "2,4,8",
            "--nr", "8", "--ntheta", "32", *extra]
    return cli_op(which, "asym_bump", argv)


def test_flux_checkers(runner):
    op = verify_op("thm2", ["--X", "0.2", "--Y", "1.7"])
    result = outcome(runner, op)
    head, lines = body_lines(result)
    r, area, flux, maj = lines[0].split(b",")
    bad = head + b"%s,%r,%s,%s\n" % (r, float(area) + 0.1 * float(maj), flux, maj) \
        + b"\n".join(lines[1:]) + b"\n"
    assert "divergence" in failed(runner, op, dict(result, csv=bad))

    op = verify_op("thm3", ["--theta0", "0.4"])
    result = outcome(runner, op)
    head, lines = body_lines(result)
    cells = lines[1].split(b",")
    cells[1] = b"nan"  # I_area_stated must be finite; stated_ratio may be nan
    bad = head + b"\n".join([lines[0], b",".join(cells)] + lines[2:]) + b"\n"
    assert "finite" in failed(runner, op, dict(result, csv=bad))

    op = verify_op("divergence", ["--which", "v3", "--theta0", "0.4"])
    result = outcome(runner, op)
    head, lines = body_lines(result)
    bad = head + b"\n".join(ln.split(b",")[0] + b",0.5" for ln in lines) + b"\n"
    assert "divergence" in failed(runner, op, dict(result, csv=bad))


def test_invert_graph_checker(runner):
    op = cli_op("invert_graph", "sphere_cap",
                ["invert", "graph", "--field", "sphere_cap", "--r0", "0.5",
                 "--radii", "4,40,400", "--ntheta", "16"])
    result = outcome(runner, op)
    head, lines = body_lines(result)
    assert "rows" in failed(runner, op, dict(result, csv=head + b"\n".join(lines[:2]) + b"\n"))


def test_exterior_checker(runner):
    op = {"kind": "exterior_jets", "family": "paraboloid", "spec": "paraboloid",
          "r0": 0.3, "normalize": True, "x": [4.0, -5.0, 0.5], "y": [1.0, 3.0, -6.0], "id": 0}
    result = outcome(runner, op)
    graph, jets = result["value"]
    off = (jets[0] + 1e-6,) + tuple(jets[1:])
    assert "involution" in failed(runner, op, dict(result, value=(graph, off)))


def test_pipeline_checker(runner):
    op = {"kind": "pipeline", "family": "zonal", "body": "zonal:eps=0.05", "id": 0,
          "argv": ["pipeline", "thm1", "--body", "zonal:eps=0.05", "--offset", "10",
                   "--ntheta", "64"]}
    result = outcome(runner, op)
    desc = result["csv"].split(b"\n", 1)[0]
    start = desc.index(b"ustar=(") + len(b"ustar=(")
    bad = desc[:start] + b"1.0,0.0,0.0" + desc[desc.index(b")", start):]
    assert "ustar" in failed(runner, op, rewrite(result, desc, bad))


def test_find_umbilic_and_sites_checkers(runner):
    op = {"kind": "find_umbilic", "family": "triaxial", "id": 0, "grid_n": 16,
          "body": "triaxial:ax=0.02,ay=0.05,az=0.08"}
    result = outcome(runner, op)
    wrong = convexbody.UmbilicSite(np.array([0.0, 1.0, 0.0]), 0.0, True)
    assert "converged" in failed(runner, op, dict(result, value=wrong))

    op = dict(op, kind="umbilic_sites")
    result = outcome(runner, op)
    assert len(result["value"]) == 4
    assert "residual" in failed(runner, op, dict(result, value=result["value"] + [wrong]))
    assert "sites" in failed(runner, op, dict(result, value=[]))

    # every normal of a sphere is umbilic: no site is isolated
    op = {"kind": "umbilic_sites", "family": "sphere", "body": "sphere:R=1", "id": 1,
          "grid_n": 16, "workload": "body-pipeline"}
    site = convexbody.UmbilicSite(np.array([0.0, 0.0, 1.0]), 0.0, True)
    [(name, reason)] = runner.check(op, {"value": [site]})
    assert checks.defect_of(op, name, reason) == "round-body-sites"


def test_exit_and_exception_fail(runner):
    op = scan_op("paraboloid", 1.0)
    assert failed(runner, op, {"rc": 3, "stderr": "check failed: x"}) == ["exit"]
    assert failed(runner, op, {"error": "ValueError: x"}) == ["exception"]


def seed_op(workload, op_id):
    [op] = [op for op in workloads.op_list(workload, 5, op_id + 1) if op["id"] == op_id]
    return op


def test_only_the_seed_failures_are_explained(capsys):
    """A failure counts as a known defect only on the op, check and reason
    the seed shows; anything else leaves the run incorrect."""
    cone = seed_op("plane-scan", 5)
    assert cone["family"] == "cone_type"
    reason = "umbilic-free family 2 umbilic(s) reported"
    assert checks.defect_of(cone, "umbilic-free", reason) == "absolute-umbilic-tol"
    saddle = seed_op("graph-inversion", 4)
    bracket = ("exit 2: non-convergence: bisection bracket violated; the slope "
               "bound does not hold")
    assert checks.defect_of(saddle, "exit", bracket) == "bracket-on-root"
    assert checks.defect_of(saddle, "exit", "exit 2: domain error: r out of range") is None
    assert checks.defect_of(saddle, "involution", bracket) is None

    # a new scan failure on a family the seed scans cleanly
    paraboloid = seed_op("plane-scan", 15)
    assert paraboloid["kind"] == "scan" and paraboloid["family"] == "paraboloid"
    known = run.Record(cone, [0.1], [run.PROBE_REF_S], fails=[("umbilic-free", reason)])
    new = run.Record(paraboloid, [0.1], [run.PROBE_REF_S],
                     fails=[("paraboloid", "expected one umbilic at the origin, got "
                                           "3 point(s), total=False")])
    assert run.report([known])
    assert not run.report([known, new])
    assert "UNEXPLAINED" in capsys.readouterr().out


def test_thread_identity_rejects_different_bytes(runner):
    op = cli_op("curvature_map", "paraboloid",
                ["curvature", "map", "--field", "paraboloid", "--quantity", "K",
                 "--region", "-1", "-1", "1", "1", "--n", "40", "--m", "40"],
                quantity="K", n=40, svg=False)
    os.environ["UMBILIC_THREADS"] = "2"
    _, result = runner.run(op)
    rec = run.Record(op, fails=[], digest=run.digest(op, result))
    run.thread_identity(runner, [rec], {0})
    assert rec.fails == []
    rec.digest = run.digest(op, dict(result, csv=result["csv"] + b"\n"))
    run.thread_identity(runner, [rec], {0})
    assert [name for name, _ in rec.fails] == ["thread-identity"]


def test_passes_repeat_the_set_and_probe_every_run(runner):
    ops = [verify_op("thm2", ["--X", "0.2", "--Y", "1.7"]), scan_op("saddle", 1.0)]
    ops[1] = dict(ops[1], id=1)
    records = run.passes(runner, ops, 0.3)
    assert [rec.op["id"] for rec in records] == [0, 1]
    assert all(len(rec.times) >= 2 and rec.fails == [] for rec in records)
    for rec in records:
        assert len(rec.probes) == len(rec.times)
        scaled = [t * run.PROBE_REF_S / p for t, p in zip(rec.times, rec.probes)]
        assert min(scaled) <= rec.estimate() <= max(scaled)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracer_patches_every_namespace_and_restores():
    original = curvature.residual_arrays
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert scan.residual_arrays is curvature.residual_arrays
        assert scan.residual_arrays is not original
        from umbilic.families import make_field
        span = tracer.begin_op(0)
        scan.umbilic_search(make_field("paraboloid"), (-1, -1, 1, 1), 21)
        tracer.end_op(span)
    finally:
        tracer.uninstall()
    assert scan.residual_arrays is original and curvature.residual_arrays is original
    names = {s.name for s in tracer.spans}
    assert {"scan.umbilic_search", "curvature.residual_arrays",
            "field.ScalarField.jet_arrays"} <= names
    m = tracing.layer_metrics(tracer.spans)
    assert m["scan.umbilic_points"] == 1
    assert m["field.calls"] == m["scan.search_field_calls"] > 1
    assert m["field.points"] >= 21 * 21


def test_self_time_subtracts_the_union_of_children():
    root = tracing.Span("op", "bench", None, 0)
    a = tracing.Span("a", "scan", root, 0)
    b = tracing.Span("b", "field", root, 0)
    c = tracing.Span("c", "field", a, 0)
    root.start, root.end = 0.0, 10.0
    a.start, a.end = 1.0, 5.0
    b.start, b.end = 4.0, 8.0  # overlaps a, as worker threads do
    c.start, c.end = 2.0, 3.0
    st = tracing.self_times([root, a, b, c])
    assert math.isclose(st[id(root)], 3.0)
    assert math.isclose(st[id(a)], 3.0)
    assert math.isclose(st[id(c)], 1.0)


def test_library_results_are_digested(runner):
    op = {"kind": "exterior_jets", "family": "paraboloid", "spec": "paraboloid",
          "r0": 0.3, "normalize": False, "x": [4.0, -5.0], "y": [1.0, 3.0], "id": 0}
    _, first = runner.run(op)
    _, again = runner.run(op)
    assert run.digest(op, first) == run.digest(op, again)
    graph, jets = first["value"]
    bumped = dict(first, value=(graph, (jets[0] + 1e-12,) + tuple(jets[1:])))
    assert run.digest(op, bumped) != run.digest(op, first)


def test_tracer_fails_when_a_measured_function_is_gone(monkeypatch):
    original = curvature.residual_arrays
    monkeypatch.delattr(scan, "umbilic_free_floor")
    with pytest.raises(RuntimeError, match="scan.umbilic_free_floor"):
        tracing.Tracer().install()
    assert scan.residual_arrays is original


def test_setup_is_timed_against_bare_launches(monkeypatch):
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 4)
    setup_s, q_setup, q_bare = run.measure_setup(1, workloads.op_list("body-pipeline", 1, 15))
    assert q_setup > q_bare > 0.0  # set-up imports the package on top of numpy
    assert setup_s == pytest.approx(run.BARE_REF_S * q_setup / q_bare)
