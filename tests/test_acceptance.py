"""End-to-end acceptance suite.

Each test prints one PASS line with its runtime; tolerances are fixed
here, not tuned elsewhere. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from conftest import all_fields, sample_points
from oracles import column, graph_mean_divergence, normal_curvature_theta
from umbilic import (Direction, QuadScheme, curvature_difference_decay,
                     curvature_difference_field, dk_dtheta,
                     divergence_consistency, exterior_eval, find_umbilic,
                     invert_local_graph, invert_patch, make_field,
                     normal_curvature, parallel_patch, perturbed_sphere_patch,
                     principal_deviation_decay, principal_deviation_field,
                     principal_preservation_check, shape_operator,
                     theorem1_pipeline, umbilic_free_floor, umbilic_residuals,
                     umbilic_search)
from umbilic.cli import main
from umbilic.convexbody import SupportBody

EX, EY = Direction(0.0), Direction(math.pi / 2)
EZ = np.array([0.0, 0.0, 1.0])


class _Clock:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.label} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"{self.label} exceeded runtime budget {self.budget}s ({elapsed:.2f}s)"


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_01_formula_cross_checks(rng):
    with _Clock("01 curvature formula cross-checks", 1.0):
        fields = all_fields()
        for _ in range(1000):
            field = fields[rng.integers(len(fields))]
            p = sample_points(field, 1, rng)[0]
            theta = float(rng.uniform(0, 2 * math.pi))
            a = normal_curvature(field, p, Direction(theta))
            b = normal_curvature_theta(field, p, theta)
            assert abs(a - b) < 1e-13
        h = 1e-4
        for _ in range(200):
            field = fields[rng.integers(len(fields))]
            p = sample_points(field, 1, rng)[0]
            theta0 = float(rng.uniform(0, 2 * math.pi))
            exact = dk_dtheta(field, p, theta0)
            fd = (normal_curvature_theta(field, p, theta0 + h)
                  - normal_curvature_theta(field, p, theta0 - h)) / (2 * h)
            assert abs(exact - fd) < 1e-6


def test_02_identity_suite(rng):
    with _Clock("02 discriminant and flux identities", 1.0):
        fields = all_fields()
        for _ in range(1000):
            field = fields[rng.integers(len(fields))]
            p = sample_points(field, 1, rng)[0]
            j = field.jet(p)
            r = umbilic_residuals(field, p)
            pd = shape_operator(field, p)
            gap = pd.H ** 2 - pd.K
            assert rel_close(r.D, 4.0 * (1.0 + j.q) ** 3 * gap, 1e-10)
            cf = graph_mean_divergence(j) ** 2 \
                - 4.0 * (j.f11 * j.f22 - j.f12 ** 2) / (1.0 + j.q) ** 2
            assert rel_close(cf, 4.0 * gap, 1e-10)
        V = curvature_difference_field(make_field("asym_bump"), EX, EY)
        pts = rng.uniform(-3, 3, size=(500, 2))
        div = V.div(pts[:, 0], pts[:, 1])
        stated = V.integrand(pts[:, 0], pts[:, 1])
        assert np.all(np.abs(div - stated) <= 1e-12 * np.maximum(1.0, np.abs(div)))


def test_03_divergence_consistency():
    with _Clock("03 divergence-theorem consistency", 5.0):
        field = make_field("asym_bump")
        V2 = curvature_difference_field(field, EX, EY)
        V3 = principal_deviation_field(field, 0.0)
        default, doubled = QuadScheme(), QuadScheme().doubled()
        for V in (V2, V3):
            for r in (2.0, 4.0, 8.0):
                assert divergence_consistency(V, r, default) < 1e-8
                assert divergence_consistency(V, r, doubled) < 5e-9


def test_04_curvature_difference_decay():
    with _Clock("04 curvature-difference flux decay", 5.0):
        table = curvature_difference_decay(make_field("asym_bump"), EX, EY,
                                           (2.0, 4.0, 6.0, 8.0))
        flux = [abs(v) for v in column(table, "I_flux")]
        assert all(b < a for a, b in zip(flux, flux[1:]))
        assert flux[-1] < 1e-6
        area = column(table, "I_area")
        assert abs(area[-1]) < 1e-6
        for a, f in zip(area, column(table, "I_flux")):
            assert abs(a - f) < 1e-8  # the two integral forms agree
        radial = curvature_difference_decay(make_field("gaussian_bump"), EX, EY,
                                            (2.0, 4.0, 6.0, 8.0))
        for name in ("I_area", "I_flux"):
            for v in column(radial, name):
                assert abs(v) < 1e-12


def test_05_principal_deviation_decay():
    with _Clock("05 principal-deviation flux decay", 5.0):
        table = principal_deviation_decay(make_field("asym_bump"), 0.0,
                                          (2.0, 4.0, 6.0, 8.0))
        assert abs(column(table, "I_area")[-1]) < 1e-6
        assert abs(column(table, "I_flux")[-1]) < 1e-6
        # the raw curvature form is reported next to the divergence form
        # and carries no tolerance of its own
        stated = column(table, "I_area_stated")
        assert len(stated) == 4
        print(f"      stated curvature-form integrals: "
              f"{', '.join(f'{v:.6g}' for v in stated)}")


def test_06_inversion_suite(rng):
    with _Clock("06 inversion suite", 5.0):
        cap = invert_local_graph(make_field("sphere_cap"), 0.7)
        for _ in range(1000):
            rbar = float(rng.uniform(cap.rbar_min * 1.01, 1000.0))
            theta = float(rng.uniform(0, 2 * math.pi))
            fbar, _, _ = exterior_eval(cap, rbar, theta)
            assert abs(fbar - 0.5) < 1e-10
        field = make_field("paraboloid")
        g = invert_local_graph(field, 0.45, normalize=True)
        for r in np.linspace(0.02, 0.2, 10):
            f = float(field.value_polar(r, 1.3))
            w = r * r + f * f
            fbar, _, _ = exterior_eval(g, r / w, 1.3)
            assert abs(fbar - f / w) < 1e-9
        rr, slopes = [], []
        for rbar in (10.0, 100.0, 1000.0):
            r = g.solve_r(rbar, 0.0)
            _, fr, _ = exterior_eval(g, rbar, 0.0)
            rr.append(abs(r * rbar - 1.0))
            slopes.append(rbar * abs(fr))
        assert rr[2] < 1e-3 and rr[2] < rr[1] < rr[0]
        assert slopes[2] < slopes[1] < slopes[0]


def test_07_principal_direction_preservation():
    with _Clock("07 principal-direction preservation", 30.0):
        patch = perturbed_sphere_patch(0.1, center=(0.0, 0.0, 2.0))
        rep = principal_preservation_check(patch, invert_patch(patch), samples=200, seed=5)
        assert rep.usable == 200
        assert rep.max_angle_error < 1e-6
        patch2 = perturbed_sphere_patch(0.1)
        rep2 = principal_preservation_check(patch2, parallel_patch(patch2, 1.0),
                                            samples=200, seed=5)
        assert rep2.usable == 200
        assert rep2.max_angle_error < 1e-6


def test_08_body_pipeline():
    with _Clock("08 convex-body inversion pipeline", 30.0):
        eps = 0.05
        zonal = SupportBody(1.0, (0.0, 0.0, 0.0),
                            ((-eps, 0, 0), (0, -eps, 0), (0, 0, 2 * eps)),
                            name="zonal")
        site = find_umbilic(zonal, grid_n=48)
        angle = math.acos(min(1.0, abs(float(site.u @ EZ))))
        assert angle < 1e-6
        rep = theorem1_pipeline(zonal, offset_r=10.0, radii=(10.0, 100.0, 1000.0))
        assert rep.graph_check_passed
        devs = [row[1] for row in rep.rows]
        slopes = [row[2] for row in rep.rows]
        assert devs[0] > devs[1] > devs[2]
        assert slopes[0] > slopes[1] > slopes[2]
        sphere_rep = theorem1_pipeline(SupportBody(name="sphere"), offset_r=10.0)
        for _, dev, slope in sphere_rep.rows:
            assert dev < 1e-10 and slope < 1e-10


def test_09_family_floors(rng):
    with _Clock("09 umbilic-free floors of the example families", 30.0):
        region = (-20.0, -20.0, 20.0, 20.0)
        for name in ("bates_like", "ridge", "cone_type"):
            rep = umbilic_free_floor(make_field(name, lam=0.1), region, 401)
            assert rep.floor > 0.0
        cone = make_field("cone_type", lam=0.1)
        pts = rng.uniform(-20, 20, size=(1000, 2))
        _, f1, f2, f11, f12, f22 = cone.jet_arrays(pts[:, 0], pts[:, 1])
        K = (f11 * f22 - f12 ** 2) / (1.0 + f1 ** 2 + f2 ** 2) ** 2
        assert np.all(K > 0.0)
        para = umbilic_free_floor(make_field("paraboloid"), region, 401)
        assert para.floor == 0.0
        found = umbilic_search(make_field("paraboloid"), region, 401)
        assert len(found.points) == 1
        assert math.hypot(found.points[0].x, found.points[0].y) < 1e-8


def test_10_cli_determinism(tmp_path, monkeypatch):
    with _Clock("10 byte-identical CSV across thread counts", 30.0):
        blobs = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("UMBILIC_THREADS", threads)
            for tag, argv in {
                "verify": ["verify", "thm2", "--field", "asym_bump",
                           "--radii", "2,4,8"],
                "floor": ["floor", "--field", "ridge:lam=0.1", "--region",
                          "-5", "-5", "5", "5", "--n", "64"],
                # 401^2 nodes span several sampling blocks
                "floor-401": ["floor", "--field", "ridge:lam=0.1", "--region",
                              "-5", "-5", "5", "5", "--n", "401"],
            }.items():
                path = tmp_path / f"{tag}-{threads}.csv"
                assert main(argv + ["--out", str(path)]) == 0
                blobs.setdefault(tag, []).append(path.read_bytes())
        for tag, (a, b) in blobs.items():
            assert a == b, f"{tag} output differs across thread counts"
