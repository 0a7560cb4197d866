"""Outside-in tracing of the epsnet package.

`Tracer.install()` wraps the package's public functions from outside:
each wrapper is rebound in every `epsnet` module namespace that binds
the original, so calls between modules pass through it too. Wrapped
calls record spans (name, start, end, parent span, op id) kept in
memory; the hot helpers `RangeSpace.mask_weight` and `draw_points` only
bump counters (and a timer for `draw_points`), because a span per call
would cost more than the call. Nothing under `src/` is changed.

`Tracer.dump()` gives a JSON-able record; `aggregate()` turns records
from one or more processes into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# (module, function) pairs that get a span per call.
SPAN_TARGETS = (
    ("core", "build_range_space"),
    ("complexity", "vc_dimension"),
    ("complexity", "projection_function"),
    ("complexity", "shallow_cell"),
    ("complexity", "doubling_constant"),
    ("complexity", "alexander_capacity"),
    ("complexity", "capacity_vector"),
    ("complexity", "star_number"),
    ("packing", "max_clique"),
    ("packing", "greedy_packing"),
    ("oneinclusion", "build_oig"),
    ("oneinclusion", "orient_bounded"),
    ("nets", "build_decomposition"),
    ("nets", "verify_net"),
    ("nets", "iid_net"),
    ("nets", "stratified_net"),
    ("nets", "doubling_net"),
    ("nets", "doubling_net_small_d"),
    ("nets", "cal_net"),
    ("nets", "greedy_net"),
    ("nets", "min_net_exact"),
    ("generators", "gen_geometric"),
    ("generators", "gen_random"),
    ("generators", "gen_lower_bound_family"),
    ("experiment", "load_instance"),
    ("experiment", "instance_profile"),
    ("experiment", "run_method"),
    ("experiment", "run_experiment"),
    ("experiment", "write_csv"),
)

BUILDERS = (
    "iid_net", "stratified_net", "doubling_net", "doubling_net_small_d",
    "cal_net", "greedy_net", "min_net_exact",
)
ONE_SHOT_BUILDERS = ("iid_net", "cal_net")
CLI_COMMANDS = ("profile", "experiment")


def _epsnet_modules():
    importlib.import_module("epsnet.cli")  # pulls in every module
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "epsnet" or name.startswith("epsnet."))]


def _rebind(orig, wrapper) -> None:
    for mod in _epsnet_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


class Tracer:
    """Spans and counters of one process. Thread-safe: each thread keeps
    its own span stack and its own counter dict; a span opened in a
    worker thread with an empty stack takes the main thread's open span
    as its parent (the sweep's pool runs inside `run_experiment`)."""

    def __init__(self) -> None:
        self.op = "setup"
        self.spans: list[list] = []  # [name, start, end, parent, op, error]
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[list] = []
        self._accs: list[dict] = []

    def reset(self) -> None:
        """Forget recorded spans and counters; the wrappers stay."""
        self.spans = []
        self._local = threading.local()
        self._main_stack = []
        self._accs = []

    # -- per-thread state -------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _acc(self) -> dict:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = self._local.acc = {}
            self._accs.append(acc)
        return acc

    def add(self, name: str, value=1) -> None:
        acc = self._acc()
        acc[name] = acc.get(name, 0) + value

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            rec = [name, 0.0, 0.0, parent, self.op, None]
            self.spans.append(rec)
            stack.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(rec, result)
            return result

        return wrapper

    def _builder_result(self, rec, report) -> None:
        """Report-derived counts, taken from the outermost builder only
        (doubling_net_small_d calls doubling_net internally)."""
        parent = rec[3]
        while parent is not None:
            if parent[0].split(".", 1)[1] in BUILDERS:
                return
            parent = parent[3]
        fn = rec[0].split(".", 1)[1]
        stats = report.stats
        self.add("nets.draws", int(stats.get("draws", 0)))
        self.add("nets.retries", int(stats.get("retries", 0)))
        self.add("nets.repair_points", int(stats.get("repair_points", 0)))
        if fn in ONE_SHOT_BUILDERS:
            self.add("nets.one_shot_attempts")
            self.add("nets.one_shot_nets", int(report.is_net))

    def install(self) -> None:
        mods = {m.__name__: m for m in _epsnet_modules()}
        for mod_name, fn_name in SPAN_TARGETS:
            orig = getattr(mods[f"epsnet.{mod_name}"], fn_name)
            hook = self._builder_result if fn_name in BUILDERS else None
            _rebind(orig, self._span(f"{mod_name}.{fn_name}", orig, hook))

        core = mods["epsnet.core"]
        orig_weight = core.RangeSpace.mask_weight

        def mask_weight(space, mask):
            self.add("core.mask_weight.calls")
            return orig_weight(space, mask)

        core.RangeSpace.mask_weight = mask_weight

        orig_draw = core.draw_points

        def draw_points(*args, **kwargs):
            start = time.perf_counter()
            try:
                return orig_draw(*args, **kwargs)
            finally:
                self.add("core.draw_points.calls")
                self.add("core.draw_points.s", time.perf_counter() - start)

        _rebind(orig_draw, functools.wraps(orig_draw)(draw_points))

    def wrap_cli_main(self, command: str):
        cli = sys.modules["epsnet.cli"]
        return self._span(f"cli.main.{command}", cli.main)

    # -- output -----------------------------------------------------------

    def dump(self) -> dict:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        spans = [
            [name, start, end, None if parent is None else index[id(parent)],
             op, error]
            for name, start, end, parent, op, error in self.spans
        ]
        counters: dict = {}
        for acc in self._accs:
            for key, value in acc.items():
                counters[key] = counters.get(key, 0) + value
        return {"spans": spans, "counters": counters}


def scale_record(record: dict, factor: float) -> dict:
    """The record with every time multiplied by factor (reference-speed
    seconds per measured second)."""
    spans = [[name, start * factor, end * factor, parent, op, error]
             for name, start, end, parent, op, error in record["spans"]]
    counters = dict(record["counters"])
    if "core.draw_points.s" in counters:
        counters["core.draw_points.s"] *= factor
    return {"spans": spans, "counters": counters}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(records: list[dict]) -> dict:
    """Per-layer metrics from the dumps of every traced process of one
    unit of work: inclusive seconds, self seconds (span minus the union
    of its children's intervals), call counts and counters."""
    s: dict = {}
    self_s: dict = {}
    calls: dict = {}
    errors: dict = {}
    counters: dict = {}
    for rec in records:
        spans = rec["spans"]
        children: dict = {}
        for name, start, end, parent, _op, _err in spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        for i, (name, start, end, parent, _op, err) in enumerate(spans):
            dur = end - start
            s[name] = s.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            kids = [(max(a, start), min(b, end)) for a, b in children.get(i, [])]
            self_s[name] = self_s.get(name, 0.0) + dur - _covered(
                [k for k in kids if k[0] < k[1]])
            if err:
                errors[(name, err)] = errors.get((name, err), 0) + 1
        for key, value in rec["counters"].items():
            counters[key] = counters.get(key, 0) + value

    out = {
        "core.mask_weight.calls": counters.get("core.mask_weight.calls", 0),
        "core.draw_points.calls": counters.get("core.draw_points.calls", 0),
        "core.draw_points.s": counters.get("core.draw_points.s", 0.0),
        "complexity.vc_dimension.fallbacks": errors.get(
            ("complexity.vc_dimension", "CapExceededError"), 0),
        "nets.draws": counters.get("nets.draws", 0),
        "nets.retries": counters.get("nets.retries", 0),
        "nets.repair_points": counters.get("nets.repair_points", 0),
        "nets.min_net_exact.capped": errors.get(
            ("nets.min_net_exact", "CapExceededError"), 0),
    }
    attempts = counters.get("nets.one_shot_attempts", 0)
    out["nets.one_shot_success"] = (
        counters.get("nets.one_shot_nets", 0) / attempts if attempts else 0.0)
    for name in (
        "core.build_range_space", "complexity.vc_dimension",
        "complexity.projection_function", "complexity.alexander_capacity",
        "packing.max_clique", "packing.greedy_packing",
        "nets.build_decomposition", "nets.verify_net",
        "experiment.instance_profile",
    ):
        out[f"{name}.s"] = s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "complexity.shallow_cell", "complexity.capacity_vector",
        "complexity.star_number", "oneinclusion.build_oig",
        "oneinclusion.orient_bounded", "generators.gen_geometric",
        "generators.gen_random", "generators.gen_lower_bound_family",
        "experiment.load_instance", "experiment.run_method",
        "experiment.write_csv",
    ) + tuple(f"nets.{b}" for b in BUILDERS):
        out[f"{name}.s"] = s.get(name, 0.0)
    for name in ("complexity.doubling_constant", "nets.build_decomposition"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["complexity.doubling_constant.s"] = s.get(
        "complexity.doubling_constant", 0.0)
    out["experiment.run_experiment.self_s"] = self_s.get(
        "experiment.run_experiment", 0.0)
    for cmd in CLI_COMMANDS:
        out[f"cli.main.{cmd}.s"] = s.get(f"cli.main.{cmd}", 0.0)
        out[f"cli.main.{cmd}.self_s"] = self_s.get(f"cli.main.{cmd}", 0.0)
    return out


COUNT_METRICS = (
    "core.mask_weight.calls", "core.draw_points.calls",
    "core.build_range_space.calls", "complexity.vc_dimension.calls",
    "complexity.vc_dimension.fallbacks", "complexity.projection_function.calls",
    "complexity.alexander_capacity.calls", "packing.max_clique.calls",
    "packing.greedy_packing.calls", "nets.build_decomposition.calls",
    "nets.verify_net.calls", "nets.draws", "nets.retries",
    "nets.repair_points", "nets.min_net_exact.capped",
    "experiment.instance_profile.calls",
)
