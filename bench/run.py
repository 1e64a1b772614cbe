"""Run one benchmark workload against the umbilic sources beside this
directory and print its metrics; the last line of stdout is JSON.

    python3 bench/run.py --workload plane-scan --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's op set (its first rounds) runs back to
back and over again, one client in this process, for ``--seconds`` of op
time, and the end-to-end metrics of BENCHMARK.json are printed. With
``--trace 1`` each op of a fixed prefix of rounds runs untraced and then
traced, and the per-layer metrics are printed. Every op's output is checked either way.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WALL_LIMIT = 120.0  # seconds of loop wall time, checks included, per run
SETUP_LAUNCHES = 7
REPEAT_S = 0.3  # within a pass, an op repeats until it has run this long

# The shared machine flips between a fast and a slow mode, and it can stay
# slow for minutes: the probe below takes 0.67-0.72 ms in the fast mode and
# 1.1-1.6 ms in the slow one. The probe is timed right before and after
# every op run, and op times are reported at PROBE_REF_S (Record.estimate).
PROBE_REF_S = 0.7e-3
_PROBE_V = np.random.default_rng(0).standard_normal((24, 24))
_PROBE_X = np.linspace(-3.0, 3.0, 4096)


def probe():
    """Time a fixed kernel that mixes the package's two kinds of work: a
    Python loop over a small array, and numpy calls on a larger one."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(23):
        for j in range(23):
            a, b = _PROBE_V[i, j], _PROBE_V[i + 1, j + 1]
            if (a >= 0.0) != (b >= 0.0):
                acc += a / (a - b)
    for _ in range(8):
        acc += float(np.sum(np.exp(-_PROBE_X * _PROBE_X)))
    return time.perf_counter() - t0

# a fresh interpreter builds the CLI parser and the workload's fields or
# bodies, as every `umbilic` invocation does before its first op
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from umbilic import cli
from umbilic.families import parse_field_spec
cli.build_parser()
make = cli._parse_body if sys.argv[2] == "body" else parse_field_spec
for spec in sys.argv[3:]:
    make(spec)
"""
# what any numpy command line pays before its own code runs; the set-up
# launches are timed against it, and reported at BARE_REF_S for it
BARE_CODE = "import argparse, numpy"
BARE_REF_S = 0.1


def load_program():
    if not (SRC / "umbilic" / "__init__.py").is_file():
        sys.exit(f"bench: no umbilic sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import umbilic
    if Path(umbilic.__file__).resolve().parent != (SRC / "umbilic").resolve():
        sys.exit(f"bench: imported umbilic from {umbilic.__file__}, not {SRC}")


class Runner:
    """Runs ops one at a time and checks their outputs."""

    def __init__(self, workdir: Path, seed: int):
        from umbilic import cli, convexbody, transform
        from umbilic.families import parse_field_spec
        self.cli, self.convexbody, self.transform = cli, convexbody, transform
        self.parse_field_spec = parse_field_spec
        self.workdir = workdir
        self.check_rng = np.random.default_rng([seed, 99])
        self.csv = workdir / "out.csv"
        self.svg = workdir / "out.svg"

    def _library(self, op):
        """Inputs built outside the timer, then the call to time."""
        kind = op["kind"]
        if kind == "exterior_jets":
            field = self.parse_field_spec(op["spec"])
            x, y = np.array(op["x"]), np.array(op["y"])

            def call():
                graph = self.transform.invert_local_graph(field, op["r0"],
                                                          normalize=op["normalize"])
                return graph, graph.as_field().jet_arrays(x, y)
            return call
        body = self.cli._parse_body(op["body"])
        fn = getattr(self.convexbody, kind)  # umbilic_sites or find_umbilic
        return lambda: fn(body, grid_n=op["grid_n"])

    def run(self, op):
        """(elapsed seconds, result dict) of one op."""
        result = {}
        if "argv" in op:
            for p in (self.csv, self.svg):
                p.unlink(missing_ok=True)
            argv = op["argv"] + ["--out", str(self.csv)]
            if op.get("svg"):
                argv += ["--svg", str(self.svg)]
            err = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    result["rc"] = self.cli.main(argv)
            except Exception as exc:  # an op that crashes is a failed op
                result["error"] = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            result["stderr"] = err.getvalue()
            if self.csv.exists():
                result["csv"] = self.csv.read_bytes()
            elif result.get("rc") == 0:
                result["error"] = "exit 0 without an output file"
            result["svg"] = self.svg.exists()
        else:
            call = self._library(op)
            t0 = time.perf_counter()
            try:
                result["value"] = call()
            except Exception as exc:
                result["error"] = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        return elapsed, result

    def check(self, op, result):
        import checks
        try:
            return checks.check(op, result, self.check_rng)
        except Exception as exc:  # a checker that breaks fails the op, visibly
            return [("checker", f"{type(exc).__name__}: {exc}")]


@dataclass
class Record:
    """One op of the set: its runs, its probes, and its failures."""

    op: dict
    times: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # mean of the probes next to each run
    fails: list = None
    digest: str = None

    def estimate(self):
        """The op's time on a machine where the probe takes PROBE_REF_S:
        the median over its runs of the run's time x PROBE_REF_S / the
        mean of the probes right before and after the run."""
        return statistics.median(t * PROBE_REF_S / p for t, p in zip(self.times, self.probes))


def _value_bytes(value):
    """The bytes of a library op's result: its arrays and numbers, in order."""
    if isinstance(value, (tuple, list)):
        return b"".join(_value_bytes(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return b"".join(_value_bytes(getattr(value, f)) for f in value.__dataclass_fields__)
    return np.ascontiguousarray(value).tobytes()


def digest(op, result):
    """What a re-run of the op must reproduce byte for byte."""
    if result.get("csv") is not None:
        return hashlib.sha256(result["csv"]).hexdigest()
    if "value" not in result:
        return result.get("error")
    value = result["value"]
    if op["kind"] == "exterior_jets":
        value = value[1]  # (graph, jets): the jets are the output
    return hashlib.sha256(_value_bytes(value)).hexdigest()


def passes(runner, op_set, seconds):
    """Run the op set over and over, one op at a time, until `seconds` of
    op time have passed; the first pass always completes. Within a pass an
    op repeats until it has run for REPEAT_S, so a short op collects as
    many samples as a long one spends time. A probe runs before and after
    every op run. Each op's output is checked on its first run; every
    later run must write the same bytes."""
    records = {op["id"]: Record(op) for op in op_set}
    busy, wall0 = 0.0, time.perf_counter()
    for n, op in enumerate(itertools.cycle(op_set)):
        if n >= len(op_set) and (busy >= seconds
                                 or time.perf_counter() - wall0 > WALL_LIMIT):
            break
        rec, spent = records[op["id"]], 0.0
        while spent < REPEAT_S:
            before = probe()
            elapsed, result = runner.run(op)
            rec.probes.append((before + probe()) / 2.0)
            spent += elapsed
            rec.times.append(elapsed)
            if rec.fails is None:
                rec.fails = runner.check(op, result)
                rec.digest = digest(op, result)
            elif digest(op, result) != rec.digest and all(k != "repeat" for k, _ in rec.fails):
                rec.fails.append(("repeat", "a later run of the op gave other output bytes"))
        busy += spent
    return list(records.values())


def thread_identity(runner, records, ids):
    """Re-run the ops `ids` at UMBILIC_THREADS=1; their CSV bytes must
    match the bytes of their first run."""
    saved = os.environ["UMBILIC_THREADS"]
    os.environ["UMBILIC_THREADS"] = "1"
    try:
        for rec in records:
            if rec.op["id"] in ids and digest(rec.op, runner.run(rec.op)[1]) != rec.digest:
                rec.fails.append(("thread-identity", f"CSV bytes at {saved} threads "
                                                     "differ from 1 thread"))
    finally:
        os.environ["UMBILIC_THREADS"] = saved


def measure_setup(threads, op_set):
    """Set-up time on a machine where a bare interpreter that imports numpy
    starts in BARE_REF_S: SETUP_LAUNCHES fresh interpreters do the CLI's
    set-up, each followed by a bare launch, and the lower quartile of the
    set-up launches' wall times is scaled by BARE_REF_S / the lower
    quartile of the bare ones. Returns (setup_s, the two quartiles). Both
    kinds hold the BLAS thread pool, which set-up never uses, to one thread."""
    bodies = [op["body"] for op in op_set if "body" in op]
    kind, specs = ("body", bodies) if bodies else (
        "field", [op["spec"] for op in op_set if "spec" in op])
    env = dict(os.environ, UMBILIC_THREADS=str(threads), OPENBLAS_NUM_THREADS="1")

    def launch(*argv):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", *argv], env=env, check=True, cwd=ROOT)
        return time.perf_counter() - t0

    setup, bare = [], []
    for _ in range(SETUP_LAUNCHES):
        setup.append(launch(SETUP_CODE, str(SRC), kind, *sorted(set(specs))))
        bare.append(launch(BARE_CODE))
    q_setup = statistics.quantiles(setup, n=4)[0]
    q_bare = statistics.quantiles(bare, n=4)[0]
    return BARE_REF_S * q_setup / q_bare, q_setup, q_bare


def report(records):
    """Print op times per kind and each failed op with its reason; True
    when every failure is attributed to a known defect."""
    import checks
    kinds = {}
    for rec in records:
        kinds.setdefault(rec.op["kind"], []).append(min(rec.times) * 1e3)
    print("  fastest run per kind:  " + "  ".join(f"{k} n={len(v)} p50={statistics.median(v):.1f}ms"
                                      for k, v in sorted(kinds.items())))
    if any(rec.fails for rec in records):
        print("failed ops:")
    met, explained = set(), True
    for rec in records:
        for name, reason in rec.fails:
            defect = checks.defect_of(rec.op, name, reason)
            explained = explained and defect is not None
            met.add(defect)
            subject = rec.op.get("spec") or rec.op.get("body")
            print(f"  op {rec.op['id']} {rec.op['kind']} {subject} [{name}] {reason}"
                  f" -> {defect or 'UNEXPLAINED'}")
    for defect in sorted(met - {None}):
        print(f"  {defect}: {checks.DEFECTS[defect]}")
    return explained


def metric_units(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def emit(correct, records, values, section):
    units = metric_units(section)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                           f"BENCHMARK.json {section}")
    failed = sum(1 for rec in records if rec.fails)
    print(json.dumps({"correct": bool(correct), "attempted": len(records),
                      "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]}
                                  for k in units}}))


def end_to_end(args, workloads, runner):
    wl = workloads.WORKLOADS[args.workload]
    op_set = workloads.op_list(args.workload, args.seed, wl.set_rounds * wl.round_len)
    setup_s, q_setup, q_bare = measure_setup(wl.threads, op_set)
    records = passes(runner, op_set, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if wl.threads > 1:
        # maps are the workload's only ops that sample on threads (grid_field)
        rng = np.random.default_rng([args.seed, 7])
        maps = [op["id"] for op in op_set if op["kind"] == "curvature_map"]
        thread_identity(runner, records, set(rng.choice(maps, 2, replace=False).tolist()))

    probes = [p * 1e3 for rec in records for p in rec.probes]
    ms = [rec.estimate() * 1e3 for rec in records]
    ok = sum(1 for rec in records if not rec.fails)
    failed = len(records) - ok
    p90 = statistics.quantiles(ms, n=10)[-1]
    beyond = sum(1 for t in ms if t > p90)
    runs = [len(rec.times) for rec in records]
    total = sum(sum(rec.times) for rec in records)
    values = {
        "setup_s": setup_s,
        "ops_per_s": ok / (sum(ms) / 1e3),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops run "
          f"{min(runs)}-{max(runs)} times each, {total:.2f} s "
          f"of op time, UMBILIC_THREADS={wl.threads}")
    print(f"  probe: fastest {min(probes):.3f} ms, median {statistics.median(probes):.3f} ms; "
          f"op times are at a {PROBE_REF_S * 1e3:g} ms probe")
    print(f"  setup_s      {setup_s:.4f} s      lower quartiles of {SETUP_LAUNCHES} launches: "
          f"set-up {q_setup:.4f} s, bare numpy {q_bare:.4f} s, at a {BARE_REF_S:g} s bare launch")
    print(f"  ops_per_s    {values['ops_per_s']:.4f} ops/s  {ok} ok ops / their op time")
    print(f"  op_ms_p50    {values['op_ms_p50']:.3f} ms   n={len(ms)}")
    note = "" if beyond >= 10 else " (fewer than 10 beyond: coarse tail)"
    print(f"  op_ms_p90    {p90:.3f} ms   n={len(ms)}, {beyond} beyond{note}")
    print(f"  failed_frac  {failed / len(records):.4f} ratio  {failed} of {len(records)} "
          f"(the result line's failed/attempted)")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    correct = report(records)
    emit(correct, records, values, "end_to_end")


def traced(args, workloads, runner):
    import tracing
    from umbilic import scan
    wl = workloads.WORKLOADS[args.workload]
    prefix = workloads.op_list(args.workload, args.seed, wl.round_len * wl.trace_rounds)
    runner.run(prefix[0])  # warm up
    tracer = tracing.Tracer()
    records, plain, busy = [], 0.0, 0.0
    # each op untraced, then traced right after, so both see the machine alike
    for op in prefix:
        elapsed, result = runner.run(op)
        plain += elapsed
        records.append(Record(op, [elapsed], fails=runner.check(op, result)))
        tracer.install()
        try:
            span = tracer.begin_op(op["id"])
            elapsed, _ = runner.run(op)
            tracer.end_op(span)
        finally:
            tracer.uninstall()
        busy += elapsed
    values = tracing.layer_metrics(tracer.spans)
    values["trace.overhead_frac"] = busy / plain - 1.0
    values["trace.ops"] = len(prefix)
    values["trace.spans"] = len(tracer.spans)

    # the largest grid_field call of the run, at 1 and at 2 threads
    speedup = 0.0
    if tracer.largest_grid is not None:
        _, gargs, gkwargs = tracer.largest_grid
        took = {1: [], 2: []}
        for _ in range(3):
            for n in took:
                os.environ["UMBILIC_THREADS"] = str(n)
                t0 = time.perf_counter()
                scan.grid_field(*gargs, **gkwargs)
                took[n].append(time.perf_counter() - t0)
        os.environ["UMBILIC_THREADS"] = str(wl.threads)
        speedup = statistics.median(took[1]) / statistics.median(took[2])
    values["scan.grid_field_speedup_2t"] = speedup

    print(f"workload {args.workload} seed {args.seed} traced: {len(prefix)} ops, "
          f"{plain:.2f} s untraced, {busy:.2f} s traced, {len(tracer.spans)} spans")
    units = metric_units("per_layer")
    for name in units:
        print(f"  {name:34s} {values[name]:.6g} {units[name]}")
    correct = report(records)
    emit(correct, records, values, "per_layer")


def main(argv=None):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    load_program()
    os.environ["UMBILIC_THREADS"] = str(workloads.WORKLOADS[args.workload].threads)
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, args.seed)
        (traced if args.trace else end_to_end)(args, workloads, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
