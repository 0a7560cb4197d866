#!/usr/bin/env python3
"""epsnet benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload {profile,sweep,nets,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`. Human-readable report lines go first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, measured without
tracing; with --trace 1 they are the per-layer ones of a separate traced
run, plus the tracing overhead. Every timing is scaled to a reference
CPU speed by a calibration loop timed next to the work (speed.py). See
bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

import speed
from check import (
    SIZE_RATIO_METHODS,
    check_profile,
    check_sweep_row,
    heavy_sets,
    net_problems,
)
from tracer import COUNT_METRICS, Tracer, aggregate, scale_record

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("profile", "sweep", "nets")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
SWEEP_SEEDS_PER_PASS = {"full": 10, "tiny": 1}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "net_size_ratio": "ratio",
    "exact_ratio": "ratio",
}


def per_layer_units() -> dict:
    units = {name: ("count" if name in COUNT_METRICS else "s")
             for name in aggregate([])}
    units["nets.one_shot_success"] = "ratio"
    units["cli.startup_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def child_env() -> dict:
    """Environment of every child: the checkout's src on PYTHONPATH and
    no EPSNET_THREADS, so a stray setting cannot change the sweep."""
    env = {k: v for k, v in os.environ.items() if k != "EPSNET_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit}


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


@dataclass
class Child:
    wall: float  # reference-speed seconds
    factor: float  # reference-speed seconds per measured second
    start: float  # perf_counter at spawn
    code: int
    out: str
    err: str


def run_child(cmd: list[str]) -> Child:
    """Run a child at low priority on this process's CPU while a sampler
    times the calibration loop beside it; wait for it to end."""
    start = time.perf_counter()
    # No other thread runs while forking, so preexec_fn is safe here.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=speed.lower_priority)
    with speed.Sampler() as sampler:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code, err = -1, "timed out"
        wall = time.perf_counter() - start
    return Child(sampler.scale(wall), sampler.factor, start, code, out, err)


class Run:
    """State shared by the workloads: arguments, work directory, tally of
    attempted and failed ops, and the problems found."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict[str, str] = {}
        self.tracer = None

    def tally(self, problems: list[str]) -> None:
        """Count one op, failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def spawn(self, argv: list[str], op_id: str):
        """Run one CLI command as a child; untraced through `python -m
        epsnet.cli`, traced through the launcher. Returns the Child and
        its trace record (None untraced)."""
        trace_file = None
        if self.tracer is None:
            cmd = [sys.executable, "-m", "epsnet.cli"] + argv
        else:
            trace_file = self.work / f"trace-{op_id}.json"
            cmd = [sys.executable, str(BENCH / "launcher.py"),
                   str(trace_file), op_id] + argv
        child = run_child(cmd)
        if child.code != 0:
            self.problems.append(
                f"{op_id}: exit {child.code}: {child.err.strip()[-300:]}")
        record = None
        if trace_file is not None and trace_file.exists():
            record = json.loads(trace_file.read_text())
        return child, record


# -- workloads -----------------------------------------------------------------


class ProfileWorkload:
    """Closed loop, one `epsnet profile --eps 1/8` child at a time."""

    def __init__(self, run: Run):
        self.run = run
        self.ref = json.loads((BENCH / "reference.json").read_text())["profile"]

    def setup(self):
        import instances

        spaces = instances.profile_instances()
        if self.run.args.size == "tiny":
            spaces = [sp for sp in spaces if sp.name in ("disks14", "lb-k2d3l2m3")]
        for sp in spaces:
            (self.run.work / f"{sp.name}.json").write_text(sp.dumps())
        self.spaces = spaces

    def op(self, space, op_id: str):
        run = self.run
        argv = ["profile", str(run.work / f"{space.name}.json"),
                "--eps", "1/8", "--seed", str(run.args.seed)]
        child, record = run.spawn(argv, op_id)
        problems, exact, total = [], 0, 0
        if child.code == 0:
            try:
                problems, exact, total = check_profile(
                    json.loads(child.out), self.ref[space.name], space)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            problems = [f"{space.name}: {p}" for p in problems]
        else:
            problems = [f"{space.name}: profile failed"]
        run.tally(problems)
        return child, record, exact, total

    def unit(self, tag: str):
        """One cycle over the instances; returns its reference-speed time
        and (trace record, speed factor, spawn time) per child."""
        wall, parts = 0.0, []
        for i, sp in enumerate(self.spaces):
            child, record, _, _ = self.op(sp, f"{tag}-{i}")
            wall += child.wall
            parts.append((record, child.factor, child.start))
        return wall, parts

    def timed(self, seconds: float) -> dict:
        lat: dict[str, list[float]] = {sp.name: [] for sp in self.spaces}
        exact = total = 0
        begin = time.perf_counter()
        i = 0
        while True:
            sp = self.spaces[i % len(self.spaces)]
            # The first cycle always runs whole; after it, an op starts
            # only if its last latency still fits before the deadline.
            if i >= len(self.spaces) and (
                    time.perf_counter() - begin + lat[sp.name][-1] > seconds):
                break
            child, _, e, t = self.op(sp, f"op{i}")
            lat[sp.name].append(child.wall)
            if i < len(self.spaces):  # one op per instance, whatever the mix
                exact += e
                total += t
            i += 1
        medians = [statistics.median(v) for v in lat.values()]
        self.run.notes.update({
            "ops_per_s": f"{len(medians)} instances / sum of per-instance "
                         f"median latencies, {i} ops",
            "op_p50_ms": f"median of {len(medians)} per-instance medians, "
                         f"{i} ops",
            "op_p90_ms": f"p90 of {len(medians)} per-instance medians "
                         f"(fewer than 10 samples beyond it)",
            "net_size_ratio": "no nets are built on this workload; reported "
                              "as 1, the ideal",
            "exact_ratio": f"{exact} of {total} labelled profile fields, "
                           f"first op of each instance",
        })
        return {
            "ops_per_s": len(medians) / sum(medians),
            "op_p50_ms": 1000 * statistics.median(medians),
            "op_p90_ms": 1000 * p90(medians),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
            "net_size_ratio": 1.0,
            "exact_ratio": exact / total,
        }


class SweepWorkload:
    """One `epsnet experiment` child per pass over the reference corpus."""

    def __init__(self, run: Run):
        self.run = run
        self.ref = json.loads((BENCH / "reference.json").read_text())["sweep"]
        self.k = SWEEP_SEEDS_PER_PASS[run.args.size]

    def setup(self):
        import instances

        self.inline = [{"inline": sp.to_dict()} for sp in instances.corpus()]
        self.write_config("pass0", self.pass_seeds(0))

    def pass_seeds(self, p: int) -> list[int]:
        base = self.run.args.seed * 1000 + p * self.k
        return list(range(base, base + self.k))

    def write_config(self, tag: str, seeds) -> Path:
        import instances

        path = self.run.work / f"{tag}.json"
        path.write_text(json.dumps(instances.sweep_config(self.inline, seeds)))
        return path

    def op(self, tag: str, seeds, expect_sha=None):
        """One pass. Returns (child, rows, trace record)."""
        import instances

        run = self.run
        config = run.work / f"{tag}.json"
        if not config.exists():
            self.write_config(tag, seeds)
        out = run.work / f"{tag}.csv"
        child, record = run.spawn(
            ["experiment", str(config), "--out", str(out)], tag)
        if child.code != 0 or not out.exists():
            run.tally([f"{tag}: experiment failed"])
            return child, [], record
        data = out.read_bytes()
        rows = list(csv.DictReader(data.decode().splitlines()))
        # A problem with the pass as a whole fails every row of it.
        whole = []
        want_rows = len(seeds) * len(self.inline) * len(instances.EPS_SWEEP) \
            * len(instances.SWEEP_METHODS)
        if len(rows) != want_rows:
            whole.append(f"{tag}: {len(rows)} rows, expected {want_rows}")
        if expect_sha and hashlib.sha256(data).hexdigest() != expect_sha:
            whole.append(f"{tag}: CSV sha256 differs from the reference")
        run.problems.extend(whole)
        for row in rows:
            problems = check_sweep_row(row, self.ref["instances"])
            run.tally(problems or whole)
        return child, rows, record

    def unit(self, tag: str):
        child, _, record = self.op(tag, self.pass_seeds(0))
        return child.wall, [(record, child.factor, child.start)]

    def timed(self, seconds: float) -> dict:
        begin = time.perf_counter()
        rates, walls, ratios = [], [], []
        labels = exact = 0
        p = 0
        while p == 0 or time.perf_counter() - begin < seconds:
            child, rows, _ = self.op(f"pass{p}", self.pass_seeds(p))
            walls.append(child.wall)
            rates.append(len(rows) / child.wall)
            for row in rows:
                labels += 3
                exact += (row["d_exact"] == "true") + (row["D_mode"] == "exact") \
                    + (row["min_net"] != "")
                if (row["method"] in SIZE_RATIO_METHODS and row["is_net"] == "true"
                        and row["min_net"] not in ("", "0")):
                    ratios.append(int(row["size"]) / int(row["min_net"]))
            p += 1
        # The reference pass runs after the timed phase: its CSV must be
        # byte-identical to the one recorded at the reference commit.
        self.op("reference", self.ref["seeds"], expect_sha=self.ref["csv_sha256"])
        self.run.notes.update({
            "ops_per_s": f"CSV rows per second, median of {p} passes of "
                         f"{self.k} seeds",
            "op_p50_ms": f"median time of one experiment command, "
                         f"{p} passes",
            "op_p90_ms": f"p90 of {p} passes (fewer than 10 samples beyond it)",
            "net_size_ratio": f"mean size / exact minimum over {len(ratios)} "
                              f"guaranteed-builder rows with a minimum >= 1",
            "exact_ratio": f"{exact} of {labels} row labels (d_exact, D_mode, "
                           f"min_net) exact",
        })
        return {
            "ops_per_s": statistics.median(rates),
            "op_p50_ms": 1000 * statistics.median(walls),
            "op_p90_ms": 1000 * p90(walls),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
            "net_size_ratio": statistics.fmean(ratios),
            "exact_ratio": exact / labels,
        }


class NetsWorkload:
    """In-process library calls on spaces built once in set-up."""

    def __init__(self, run: Run):
        self.run = run
        self.ref = json.loads((BENCH / "reference.json").read_text())["nets"]
        self.heavy: dict = {}

    def setup(self):
        import instances

        self.spaces = instances.nets_instances()
        self.eps = instances.EPS_NETS

    def check_net(self, space, eps, method, report) -> list[str]:
        key = (space.name, eps)
        if key not in self.heavy:
            self.heavy[key] = heavy_sets(space, eps)
        min_net = self.ref[space.name]["min_net"][f"{eps.numerator}/{eps.denominator}"]
        return net_problems(space, eps, method, report, self.heavy[key], min_net)

    def ops(self, seed: int):
        """The ops of one round: (method, space, eps, call) in a fixed
        order, with the sweep's defaults C = 8, delta = 1/10, budget 20."""
        import epsnet as E

        C, delta = 8.0, Fraction(1, 10)
        out = []
        for space, d, D in self.spaces:
            for eps in self.eps:
                calls = [
                    ("iid", partial(E.iid_net, space, eps, delta, "vc", C, seed, d=d)),
                    ("iid-capacity", partial(
                        E.iid_net, space, eps, delta, "capacity", C, seed, d=d)),
                    ("stratified", partial(E.stratified_net, space, eps, C, seed, d=d)),
                    ("doubling", partial(E.doubling_net, space, eps, C, seed, D=D, d=d)),
                    ("doubling-small", partial(
                        E.doubling_net_small_d, space, eps, C, seed, D=D, d=d)),
                    ("cal", partial(E.cal_net, space, eps, 20, seed)),
                    ("greedy", partial(E.greedy_net, space, eps)),
                    ("exact", partial(E.min_net_exact, space, eps)),
                    ("oig", partial(self.oig, space, seed)),
                ]
                out += [(method, space, eps, fn) for method, fn in calls]
        return out

    @staticmethod
    def oig(space, seed):
        import epsnet as E

        sample = E.draw_points(space, 8, E.stream_rng(seed, "bench-oig"))
        graph = E.build_oig(space, sample)
        check = E.density_check(graph)
        orientation = E.orient_bounded(graph, check["d"])
        loo = [E.loo_error(orientation, v) for v in range(len(graph.vertices))]
        return graph, check, orientation, loo

    def check_oig(self, space, result) -> list[str]:
        _graph, check, orientation, loo = result
        if orientation.max_out_degree > check["d"] or not all(0 <= x <= 1 for x in loo):
            return [f"{space.name}: orientation out-degree above d={check['d']} "
                    f"or a leave-one-out error outside [0, 1]"]
        return []

    def round(self, seed: int, tag: str, sizes: list, exact_runs: list):
        """Run and check one round. Returns the reference-speed latency of
        each op (the calibration loop runs before and after every op) and
        the round's speed factor; appends the guaranteed builders' size /
        minimum ratios to sizes and one entry per exact-oracle call that
        finished under its budget to exact_runs."""
        from epsnet import CapExceededError

        run = self.run
        lat = []
        samples = [speed.calibrate()]
        for j, (method, space, eps, fn) in enumerate(self.ops(seed)):
            if run.tracer is not None:
                run.tracer.op = f"{tag}-{j}"
            start = time.perf_counter()
            try:
                result, error = fn(), None
            except Exception as exc:  # counted as a failed op, run goes on
                result, error = None, exc
            raw = time.perf_counter() - start
            samples.append(speed.calibrate())
            lat.append(raw * speed.factor(samples[-2:]))
            if error is not None:
                # A capped exact oracle is a labelled outcome, not a failure.
                capped = method == "exact" and isinstance(error, CapExceededError)
                run.tally([] if capped else [
                    f"{space.name} {method}: {type(error).__name__}: {error}"])
                continue
            if method == "oig":
                run.tally(self.check_oig(space, result))
                continue
            run.tally(self.check_net(space, eps, method, result))
            key = f"{eps.numerator}/{eps.denominator}"
            if method in SIZE_RATIO_METHODS:
                sizes.append(result.size / self.ref[space.name]["min_net"][key])
            elif method == "exact":
                exact_runs.append(key)
        return lat, speed.factor(samples)

    def unit(self, tag: str):
        """One round at the first round's seed; returns its summed op
        latencies (checks excluded) and, when traced, the in-process
        trace record with the round's speed factor."""
        lat, factor = self.round(self.run.args.seed * 1000, tag, [], [])
        parts = []
        if self.run.tracer is not None:
            parts.append((self.run.tracer.dump(), factor, None))
            self.run.tracer.reset()
        return sum(lat), parts

    def timed(self, seconds: float) -> dict:
        lat, sizes, exact_runs = [], [], []
        begin = time.perf_counter()
        r = 0
        while len(lat) < 100 or time.perf_counter() - begin < seconds:
            lat += self.round(self.run.args.seed * 1000 + r, f"r{r}", sizes,
                              exact_runs)[0]
            r += 1
        exact_calls = r * len(self.eps) * len(self.spaces)
        self.run.notes.update({
            "ops_per_s": f"{len(lat)} library calls in {r} rounds",
            "op_p50_ms": f"median of {len(lat)} ops",
            "op_p90_ms": f"p90 of {len(lat)} ops",
            "net_size_ratio": f"mean size / exact minimum over {len(sizes)} "
                              f"guaranteed-builder nets",
            "exact_ratio": f"{len(exact_runs)} of {exact_calls} exact-oracle "
                           f"calls finished under their budget",
        })
        return {
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1000 * statistics.median(lat),
            "op_p90_ms": 1000 * p90(lat),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
            "net_size_ratio": statistics.fmean(sizes),
            "exact_ratio": len(exact_runs) / exact_calls,
        }


WORKLOAD_CLASSES = {"profile": ProfileWorkload, "sweep": SweepWorkload,
                    "nets": NetsWorkload}


# -- phases --------------------------------------------------------------------


def measure_setup(workload) -> float:
    """Set-up time: the median time of a fresh interpreter that imports
    epsnet.cli, plus the median of repeated set-ups (instance generation,
    writing instance and config files)."""
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        child = run_child([sys.executable, "-c", "import epsnet.cli"])
        if child.code != 0:
            raise RuntimeError(f"import epsnet.cli failed: {child.err}")
        imports.append(child.wall)
        with speed.Sampler() as sampler:
            start = time.perf_counter()
            workload.setup()
            wall = time.perf_counter() - start
        setups.append(sampler.scale(wall))
    return statistics.median(imports) + statistics.median(setups)


def untraced(run: Run, workload) -> dict:
    metrics = {"setup_s": measure_setup(workload)}
    metrics.update(workload.timed(run.args.seconds))
    metrics["ok_ratio"] = (run.attempted - run.failed) / max(run.attempted, 1)
    return metrics


def traced(run: Run, workload) -> dict:
    """Untraced unit for the overhead baseline, then traced set-up and
    traced units (same seeds) until the run length is used. Counts must
    repeat exactly across the traced units."""
    workload.setup()
    base_wall, _ = workload.unit("base")

    tracer = Tracer()
    tracer.install()
    with speed.Sampler() as sampler:
        workload.setup()
    setup_record = scale_record(tracer.dump(), sampler.factor)
    tracer.reset()
    run.tracer = tracer

    per_unit, walls = [], []
    begin = time.perf_counter()
    u = 0
    while u == 0 or time.perf_counter() - begin < run.args.seconds:
        wall, parts = workload.unit(f"t{u}")
        records = [setup_record]
        startups = []
        for record, factor, spawned in parts:
            if record is None:
                continue
            if spawned is not None:  # child spawn to entry of cli.main
                startups += [(s[1] - spawned) * factor for s in record["spans"]
                             if s[0].startswith("cli.main.")]
            records.append(scale_record(record, factor))
        metrics = aggregate(records)
        metrics["cli.startup_s"] = statistics.median(startups) if startups else 0.0
        per_unit.append(metrics)
        walls.append(wall)
        u += 1

    for name in COUNT_METRICS:
        values = {m[name] for m in per_unit}
        if len(values) > 1:
            run.problems.append(f"count {name} differs across traced units: "
                                f"{sorted(values)}")
            run.failed += 1
    out = {name: statistics.median(m[name] for m in per_unit)
           for name in per_unit[0]}
    for name in COUNT_METRICS:
        out[name] = per_unit[0][name]
    out["trace.overhead_ratio"] = statistics.median(walls) / base_wall
    run.notes["trace.overhead_ratio"] = (
        f"median traced unit {statistics.median(walls):.3f} s over "
        f"untraced {base_wall:.3f} s, {u} traced units")
    return out


def run_one(args) -> int:
    if not (SRC / "epsnet" / "__init__.py").is_file():
        print(f"error: no epsnet package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("EPSNET_THREADS", None)
    speed.pin_to_one_cpu()
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, work)
        workload = WORKLOAD_CLASSES[args.workload](run)
        if args.trace:
            metrics = traced(run, workload)
            units = per_layer_units()
        else:
            metrics = untraced(run, workload)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    env = environment()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={env['python']} nproc={env['nproc']} "
          f"commit={env['commit']}")
    for name, unit in units.items():
        note = run.notes.get(name, "")
        print(f"{args.workload} {name} = {metrics[name]!r} {unit}"
              + (f"  ({note})" if note else ""))
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; metric names in
    the combined result line are prefixed with the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: fewer instances and seeds (self-test)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
