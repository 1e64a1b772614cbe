"""Seeded op lists for the four benchmark workloads.

An op is a plain dict: ``kind`` names what runs, ``argv`` holds the
arguments of a ``cli.main`` call (the runner appends ``--out`` and
``--svg``), and library ops carry their inputs as JSON-ready values.
Every workload is an endless sequence of rounds. A round holds the same
slots in the same order for every seed. Every parameter that moves an
op's cost or decides whether it hits a known defect (grid sizes, region
widths, field and body shape parameters, radius ladders, angle and point
counts) follows a fixed quasi-random schedule: a van der Corput sequence
over rounds, offset per slot by multiples of the golden ratio, so a few
rounds cover each range evenly. The seed draws the rest: directions,
query points, flux-ladder radii, sphere radii, body offsets. Runs under
different seeds get different inputs of the same cost, which keeps the
run-to-run spread of the metrics down to the machine's own noise.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("asym_bump", "bates_like", "cone_type", "cylinder", "gaussian_bump",
            "inverse_quadratic", "loglog_tail", "paraboloid", "ridge", "saddle",
            "separable", "sphere_cap")
LAM_FAMILIES = ("bates_like", "ridge", "cone_type", "separable")
RESIDUALS = ("dk", "dkdtheta", "P1", "P2", "D")
QUANTITIES = ("H", "K", "k1", "k2") + RESIDUALS
# the flux theorems concern graphs whose gradient decays at infinity
DECAY_FAMILIES = ("asym_bump", "gaussian_bump", "inverse_quadratic", "loglog_tail")
# analytic bound on r0 for sup |df/dr| < 1 on the disk of radius r0
SLOPE_BOUND = {"sphere_cap": 1.0 / math.sqrt(2.0), "paraboloid": 0.5,
               "saddle": 1.0, "cylinder": 0.5}
# fields with an umbilic critical point at the origin, where --normalize applies
NORMALIZABLE = ("sphere_cap", "paraboloid")
BODIES = ("sphere", "zonal", "triaxial", "shifted", "quartic")


def vdc(r: int) -> float:
    """Base-2 radical inverse of r: 0, 1/2, 1/4, 3/4, 1/8, ..."""
    q, denom = 0.0, 1.0
    while r:
        denom *= 2.0
        r, bit = divmod(r, 2)
        q += bit / denom
    return q


def fmt(v: float) -> str:
    return f"{v:.6g}"


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Draws:
    """Seeded draws, and the schedule of each slot's cost parameters."""

    def __init__(self, seed: int, stream: int):
        self.rng = np.random.default_rng([int(seed), stream])
        self.slots = {}

    def quantile(self, slot, r: int) -> float:
        """Scheduled quantile in [0, 1) of ``slot`` in round r."""
        k = self.slots.setdefault(slot, len(self.slots))
        return (vdc(r) + GOLDEN * k) % 1.0

    def uniform(self, lo, hi) -> float:
        return float(self.rng.uniform(lo, hi))


def log_between(lo: float, hi: float, q: float) -> float:
    return lo * (hi / lo) ** q


def int_between(lo: int, hi: int, q: float, log: bool = True) -> int:
    v = log_between(lo, hi, q) if log else lo + (hi - lo) * q
    return int(min(hi, max(lo, round(v))))


PROFILE_PAIRS = (("exp", "exp"), ("exp", "sqrtlin"), ("sqrtlin", "exp"),
                 ("sqrtlin", "sqrtlin"))


def field_spec(family: str, d: Draws, slot, r: int, pick: int) -> str:
    """CLI field spec with scheduled parameters, e.g. 'ridge:lam=0.173';
    ``pick`` rotates the separable profiles."""
    if family not in LAM_FAMILIES:
        return family
    spec = f"{family}:lam={fmt(log_between(0.05, 0.5, d.quantile(('lam', slot), r)))}"
    if family == "separable":
        g, h = PROFILE_PAIRS[pick % len(PROFILE_PAIRS)]
        spec += f",g={g},h={h}"
    return spec


def half_width(family: str, q: float) -> float:
    """Log-uniform in [0.5, 20]; sphere_cap is clipped to its sample box,
    the only family whose domain ends (r < 1)."""
    w = log_between(0.5, 20.0, q)
    return min(w, 0.6) if family == "sphere_cap" else w


def region_args(w: float):
    return [fmt(-w), fmt(-w), fmt(w), fmt(w)]


def _directions(d: Draws):
    X = d.uniform(0.0, math.pi)
    Y = X + d.uniform(0.2, math.pi - 0.2)
    return ["--X", fmt(X), "--Y", fmt(Y), "--theta0", fmt(d.uniform(0.0, math.pi))]


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def plane_scan_round(d: Draws, r: int):
    """contour + umbilic scan of every family: 24 ops."""
    for k, fam in enumerate(FAMILIES):
        spec = field_spec(fam, d, fam, r, r)
        w = half_width(fam, d.quantile(("contour-w", fam), r))
        n = int_between(101, 301, d.quantile(("contour-n", fam), r))
        res = RESIDUALS[(k + r) % len(RESIDUALS)]
        yield {"kind": "contour", "family": fam, "spec": spec, "residual": res,
               "n": n, "w": w,
               "argv": ["contour", "--field", spec, "--residual", res,
                        "--region", *region_args(w), "--n", str(n), "--m", str(n),
                        *_directions(d)]}
        w = half_width(fam, d.quantile(("scan-w", fam), r))
        # loglog_tail is flat for r < e: the scan refines every flat grid
        # node and merges them pairwise, so an op grows like n^4; n = 101
        # keeps it to a few seconds and still reports 100s of points
        n = 101 if fam == "loglog_tail" else int_between(
            101, 301, d.quantile(("scan-n", fam), r))
        yield {"kind": "scan", "family": fam, "spec": spec, "n": n, "w": w,
               "argv": ["umbilic", "scan", "--field", spec,
                        "--region", *region_args(w), "--n", str(n)]}


def dense_maps_round(d: Draws, r: int):
    """9 curvature maps (each quantity once), 3 floors and 3 flux checks: 15 ops."""
    for i in range(9):
        n = int_between(201, 501, (i + d.quantile("map-n", r)) / 9.0)
        fam = FAMILIES[(3 * r + i) % len(FAMILIES)]
        spec = field_spec(fam, d, ("map", i), r, r + i)
        w = half_width(fam, d.quantile(("map-w", i), r))
        qty = QUANTITIES[(r + 2 * i) % len(QUANTITIES)]
        svg = i == 0  # the heatmap writer, on the smallest map of the round
        yield {"kind": "curvature_map", "family": fam, "spec": spec, "quantity": qty,
               "n": n, "w": w, "svg": svg,
               "argv": ["curvature", "map", "--field", spec, "--quantity", qty,
                        "--region", *region_args(w), "--n", str(n), "--m", str(n),
                        *_directions(d)]}
    for i in range(3):
        # one floor in each upper half of a third of the size range, so every
        # round reaches n > 1800 and the run's peak memory does not hinge on it
        n = int_between(801, 2001, (i + 0.5 + 0.5 * d.quantile("floor-n", r)) / 3.0,
                        log=False)
        fam = FAMILIES[(5 * r + 7 * i + 1) % len(FAMILIES)]
        spec = field_spec(fam, d, ("floor", i), r, r + i)
        w = half_width(fam, d.quantile(("floor-w", i), r))
        yield {"kind": "floor", "family": fam, "spec": spec, "n": n, "w": w,
               "argv": ["floor", "--field", spec, "--region", *region_args(w),
                        "--n", str(n)]}
    for i, which in enumerate(("thm2", "thm3", "divergence")):
        fam = DECAY_FAMILIES[(r + i) % len(DECAY_FAMILIES)]
        rmax = 2 ** (6 + (r + i) % 3)  # 64, 128, 256
        radii = [2.0 ** k for k in range(1, int(math.log2(rmax)) + 1)]
        radii = [fmt(x * d.uniform(0.9, 1.1)) for x in radii[:-1]] + [fmt(rmax)]
        nr = (8, 12, 16)[(r + i) % 3]
        nt = (32, 64, 128)[(r + 2 * i) % 3]
        argv = ["verify", which, "--field", fam, "--radii", ",".join(radii),
                "--nr", str(nr), "--ntheta", str(nt)]
        dirs = _directions(d)  # --X, --Y, --theta0 with their values
        if which == "thm2":
            argv += dirs[:4]
        elif which == "thm3":
            argv += dirs[4:]
        else:
            argv += dirs + ["--which", ("v2", "v3")[r % 2]]
        yield {"kind": which, "family": fam, "spec": fam, "argv": argv}


def graph_inversion_round(d: Draws, r: int):
    """invert graph + exterior jets on each of the four fields: 8 ops."""
    for fam in ("sphere_cap", "paraboloid", "saddle", "cylinder"):
        for j, kind in enumerate(("invert_graph", "exterior_jets")):
            r0 = SLOPE_BOUND[fam] * (0.3 + 0.6 * d.quantile(("r0", fam, kind), r))
            # a normalized field evaluates through a rescaling wrapper
            normalize = fam in NORMALIZABLE and (r + j) % 2 == 0
            # rescaling by half the origin curvature moves the exterior
            # domain edge from about 1/r0 to about 1/(r0 * scale)
            scale = {"sphere_cap": 0.5, "paraboloid": 1.0}.get(fam, 1.0) if normalize else 1.0
            edge = 1.0 / (r0 * scale)
            op = {"kind": kind, "family": fam, "spec": fam, "r0": r0,
                  "normalize": normalize}
            if kind == "invert_graph":
                # where f vanishes on a ray, whether the bisection bracket
                # holds turns on the last bit of each radius: the ladder is
                # scheduled so every seed meets the same failures
                start = edge * (1.5 + 2.5 * d.quantile(("start", fam), r))
                ratio = 4.0 + 6.0 * d.quantile(("ratio", fam), r)
                radii = ",".join(fmt(start * ratio ** k) for k in range(3))
                ntheta = int_between(16, 128, d.quantile(("ntheta", fam), r))
                op["argv"] = (["invert", "graph", "--field", fam, "--r0", fmt(r0),
                               "--radii", radii, "--ntheta", str(ntheta)]
                              + (["--normalize"] if normalize else []))
            else:
                npts = int_between(8, 64, d.quantile(("points", fam), r))
                rbar = [edge * log_between(1.5, 20.0, d.uniform(0.0, 1.0))
                        for _ in range(npts)]
                th = [d.uniform(0.0, 2.0 * math.pi) for _ in range(npts)]
                op["x"] = [float(fmt(a * math.cos(t))) for a, t in zip(rbar, th)]
                op["y"] = [float(fmt(a * math.sin(t))) for a, t in zip(rbar, th)]
            yield op


def body_spec(name: str, d: Draws, r: int) -> str:
    """CLI body spec inside the convex range; the shape parameters, which
    set how many umbilic candidates a body has, are scheduled."""
    def between(key, lo, hi):
        return fmt(lo + (hi - lo) * d.quantile((name, key), r))

    if name == "sphere":
        return f"sphere:R={fmt(d.uniform(0.5, 2.0))}"
    if name == "zonal":
        return f"zonal:eps={between('eps', 0.02, 0.12)}"
    if name == "triaxial":
        ax = between("ax", 0.0, 0.03)
        return f"triaxial:ax={ax},ay={between('ay', 0.035, 0.065)},az={between('az', 0.07, 0.1)}"
    if name == "shifted":
        c = [fmt(d.uniform(-0.5, 0.5)) for _ in range(3)]
        return f"shifted:cx={c[0]},cy={c[1]},cz={c[2]}"
    return (f"quartic:qx={between('qx', 0.01, 0.08)},qy={between('qy', 0.01, 0.08)},"
            f"qz={between('qz', 0.01, 0.08)}")


def body_pipeline_round(d: Draws, r: int):
    """pipeline thm1, umbilic_sites and find_umbilic per body: 15 ops."""
    for name in BODIES:
        spec = body_spec(name, d, r)
        offset = log_between(5.0, 20.0, d.uniform(0.0, 1.0))
        ntheta = int_between(128, 512, d.quantile(("ntheta", name), r))
        yield {"kind": "pipeline", "family": name, "body": spec,
               "argv": ["pipeline", "thm1", "--body", spec, "--offset", fmt(offset),
                        "--ntheta", str(ntheta)]}
        gn = int_between(16, 32, d.quantile(("sites-n", name), r))
        yield {"kind": "umbilic_sites", "family": name, "body": spec, "grid_n": gn}
        yield {"kind": "find_umbilic", "family": name, "body": spec,
               "grid_n": int_between(16, 48, d.quantile(("find-n", name), r))}


@dataclass(frozen=True)
class Workload:
    stream: int         # seeds the draws apart from other workloads
    threads: int        # UMBILIC_THREADS
    round_fn: object
    round_len: int      # ops per round
    set_rounds: int     # rounds in the op set a timed run cycles through
    trace_rounds: int   # rounds a traced run covers


# An op set is the rounds a timed run cycles through. plane-scan needs two
# rounds to reach the scan regions where loglog_tail and bates_like show
# their false umbilics. A dense-maps round maps all nine quantities; one
# round keeps a pass short, so each of its long ops runs about twice.
WORKLOADS = {
    "plane-scan": Workload(1, 1, plane_scan_round, 24, 2, 1),
    "dense-maps": Workload(2, 2, dense_maps_round, 15, 1, 1),
    "graph-inversion": Workload(3, 1, graph_inversion_round, 8, 5, 2),
    "body-pipeline": Workload(4, 1, body_pipeline_round, 15, 1, 1),
}


def ops(workload: str, seed: int):
    """Endless op sequence of a workload; op ids count from 0."""
    d = Draws(seed, WORKLOADS[workload].stream)
    ids = itertools.count()
    for r in itertools.count():
        for op in WORKLOADS[workload].round_fn(d, r):
            op["id"] = next(ids)
            op["round"] = r
            op["workload"] = workload
            yield op


def op_list(workload: str, seed: int, count: int):
    return list(itertools.islice(ops(workload, seed), count))


def dump(op_seq) -> str:
    """Canonical JSON of an op list (used to compare lists byte for byte)."""
    return json.dumps(list(op_seq), sort_keys=True, separators=(",", ":"))
