"""Sweep harness: (instance x eps x method x seed) -> CSV rows plus a
JSON summary.

Rows are computed one after another in configuration order, so output
bytes are a pure function of the config. Wall times are opt-in because
they would break that.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .core import (
    CapExceededError,
    InstanceError,
    PRNG_ALGORITHM,
    RangeSpace,
    _items,
    format_rational,
    parse_rational,
)
from .complexity import (
    VCResult,
    alexander_capacity,
    capacity_vector,
    doubling_constant,
    vc_or_lower_bound,
)
from .nets import (
    cal_net,
    capacity_size_bound,
    doubling_net,
    doubling_net_small_d,
    doubling_size_bound,
    greedy_net,
    iid_net,
    min_net_exact,
    small_doubling_size_bound,
    stratified_net,
    stratified_size_bound,
)

CSV_COLUMNS = [
    "instance",
    "eps",
    "method",
    "seed",
    "size",
    "is_net",
    "draws",
    "d",
    "d_exact",
    "tau",
    "tau_vec_hash",
    "D_value",
    "D_mode",
    "min_net",
    "bound_stratified",
    "bound_capacity",
    "bound_doubling",
    "bound_doubling_small",
    "wall_ms",
]


@dataclass(frozen=True)
class Method:
    """A net builder as called by the sweep and the CLI: build(space, eps,
    seed, config, d, D), where D is None when the builder should compute
    it. uses_d marks builders sized by the VC dimension d."""

    build: Callable
    uses_d: bool = False
    bound_column: str | None = None  # CSV column of its size bound


# The one method registry: config validation, the CLI's --method choices
# and run_method all read it. Each entry looks its builder up by name at
# call time, so a wrapper rebound over that name (as a tracer does) sees
# the calls.
METHODS: dict[str, Method] = {
    "iid": Method(
        lambda s, e, seed, c, d, D: iid_net(s, e, c.delta, "vc", c.C, seed, d=d),
        True, "bound_capacity"),
    "iid-capacity": Method(
        lambda s, e, seed, c, d, D: iid_net(s, e, c.delta, "capacity", c.C, seed, d=d),
        True, "bound_capacity"),
    "stratified": Method(
        lambda s, e, seed, c, d, D: stratified_net(s, e, c.C, seed, d=d),
        True, "bound_stratified"),
    "doubling": Method(
        lambda s, e, seed, c, d, D: doubling_net(s, e, c.C, seed, D=D, d=d),
        True, "bound_doubling"),
    "doubling-small": Method(
        lambda s, e, seed, c, d, D: doubling_net_small_d(s, e, c.C, seed, D=D, d=d),
        True, "bound_doubling_small"),
    "cal": Method(lambda s, e, seed, c, d, D: cal_net(s, e, c.cal_budget, seed)),
    "greedy": Method(lambda s, e, seed, c, d, D: greedy_net(s, e)),
    "exact": Method(lambda s, e, seed, c, d, D: min_net_exact(s, e, cap=c.oracle_cap)),
}


@dataclass
class ExperimentConfig:
    """A sweep (instances x eps_grid x methods x seeds) and the settings
    its builders and profiles read. The CLI's net command fills in only
    the settings."""

    instances: list = field(default_factory=list)
    eps_grid: list = field(default_factory=list)
    methods: list = field(default_factory=list)
    seeds: list = field(default_factory=list)
    C: float = 8.0
    delta: Fraction = Fraction(1, 10)
    cal_budget: int = 20
    oracle_cap: int = 2000
    vc_cap: int = 24
    doubling_range_cap: int = 400
    base_dir: Path = field(default_factory=Path)

    @staticmethod
    def from_dict(doc: dict, base_dir: Path | str = ".") -> "ExperimentConfig":
        """Read a config document. Lists must be JSON lists, seeds and caps
        true ints and C a number; anything else, or an unknown key, is an
        InstanceError rather than a silent coercion."""
        if not isinstance(doc, dict):
            raise InstanceError(f"experiment config must be an object, got {doc!r}")
        required = ("instances", "eps", "methods", "seeds")
        for key in required:
            if key not in doc:
                raise InstanceError(f"experiment config missing '{key}'")
        ints = ("cal_budget", "oracle_cap", "vc_cap", "doubling_range_cap")
        unknown = sorted(set(doc) - {*required, "C", "delta", *ints})
        if unknown:
            raise InstanceError(f"unknown experiment config keys: {unknown}")
        methods = list(_items(doc["methods"], "methods"))
        for m in methods:
            if not isinstance(m, str) or m not in METHODS:
                raise InstanceError(f"unknown method {m!r}")
        seeds = list(_items(doc["seeds"], "seeds"))
        caps = {key: doc.get(key, getattr(ExperimentConfig, key)) for key in ints}
        for key, v in [("seeds", x) for x in seeds] + list(caps.items()):
            if type(v) is not int:
                raise InstanceError(f"'{key}' must be an integer, got {v!r}")
        C = doc.get("C", ExperimentConfig.C)
        if type(C) not in (int, float):
            raise InstanceError(f"'C' must be a number, got {C!r}")
        return ExperimentConfig(
            instances=list(_items(doc["instances"], "instances")),
            eps_grid=[parse_rational(str(e)) for e in _items(doc["eps"], "eps")],
            methods=methods,
            C=float(C),
            delta=parse_rational(str(doc.get("delta", ExperimentConfig.delta))),
            seeds=seeds,
            base_dir=Path(base_dir),
            **caps,
        )


def load_instance(path: Path | str) -> RangeSpace:
    return RangeSpace.loads(Path(path).read_text(encoding="utf-8"))


def resolve_instances(config: ExperimentConfig) -> list[RangeSpace]:
    spaces = []
    for entry in config.instances:
        if isinstance(entry, str):
            spaces.append(load_instance(config.base_dir / entry))
        elif not isinstance(entry, dict):
            raise InstanceError(f"instance entry must be a path or an object: {entry!r}")
        elif isinstance(entry.get("path"), str):
            spaces.append(load_instance(config.base_dir / entry["path"]))
        elif "inline" in entry:
            spaces.append(RangeSpace.from_dict(entry["inline"]))
        else:
            raise InstanceError(f"instance entry needs 'path' or 'inline': {entry}")
    return spaces


def tau_vector_hash(taus) -> str:
    text = ",".join(format_rational(t) for t in taus)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _fmt_float(x: float) -> str:
    return f"{x:.6f}"


def instance_profile(
    space: RangeSpace, eps: Fraction, config: ExperimentConfig, d_res: VCResult
) -> dict:
    """Shared per-(instance, eps) facts for every row of the sweep: d and
    D for the builders, and the formatted CSV columns. d_res is the
    instance's VC result, computed once per instance."""
    tau = alexander_capacity(space, eps)
    taus = [tau] + capacity_vector(space, eps)
    doubling = doubling_constant(
        space, eps,
        d=d_res.value if d_res.exact else None,
        range_cap=config.doubling_range_cap,
    )
    try:
        min_net = str(min_net_exact(space, eps, cap=config.oracle_cap).size)
    except CapExceededError:
        min_net = ""
    d, D = d_res.value, max(doubling.upper, 1.0)
    exact = doubling.mode == "exact"
    return {
        "d": d,
        "D": D,
        "columns": {
            "d": str(d),
            "d_exact": "true" if d_res.exact else "false",
            "tau": format_rational(tau),
            "tau_vec_hash": tau_vector_hash(taus[1:]),
            "D_value": str(doubling.lower) if exact else _fmt_float(doubling.upper),
            "D_mode": doubling.mode,
            "min_net": min_net,
            "bound_stratified": _fmt_float(stratified_size_bound(d, taus)),
            "bound_capacity": _fmt_float(capacity_size_bound(d, tau, eps)),
            "bound_doubling": _fmt_float(doubling_size_bound(d, taus, D)),
            "bound_doubling_small": _fmt_float(small_doubling_size_bound(d, D, eps)),
        },
    }


def run_method(
    space: RangeSpace,
    eps: Fraction,
    method: str,
    seed: int,
    config: ExperimentConfig,
    d: int | None = None,
    D: float | None = None,
):
    """Build a net with a registered method. The builders compute d and D
    themselves where they are None."""
    if method not in METHODS:
        raise InstanceError(f"unknown method '{method}'")
    return METHODS[method].build(space, eps, seed, config, d, D)


def _row(space, eps, method, seed, config, profile, timings) -> dict:
    row = {
        "instance": space.name,
        "eps": format_rational(eps),
        "method": method,
        "seed": str(seed),
        **profile["columns"],
        "wall_ms": "",
    }
    start = time.perf_counter()
    try:
        report = run_method(space, eps, method, seed, config,
                            profile["d"], profile["D"])
        row["size"] = str(report.size)
        row["is_net"] = "true" if report.is_net else "false"
        row["draws"] = str(report.stats.get("draws", 0))
    except Exception as exc:  # recorded in-row, sweep never aborts
        row["size"] = ""
        row["is_net"] = f"error:{type(exc).__name__}"
        row["draws"] = ""
    if timings:
        row["wall_ms"] = str(int((time.perf_counter() - start) * 1000))
    return row


def run_experiment(config: ExperimentConfig, timings: bool = False) -> tuple[list[dict], dict]:
    rows = []
    for space in resolve_instances(config):
        d_res = vc_or_lower_bound(space, config.vc_cap)
        for eps in config.eps_grid:
            profile = instance_profile(space, eps, config, d_res)
            for method in config.methods:
                for seed in config.seeds:
                    rows.append(
                        _row(space, eps, method, seed, config, profile, timings)
                    )

    summary: dict = {
        "schema": 1,
        "prng": PRNG_ALGORITHM,
        "rows": len(rows),
        # A TheoremViolationError means a bug; the CLI exits 1 on any.
        "theorem_violations": sum(
            r["is_net"] == "error:TheoremViolationError" for r in rows
        ),
        "methods": {},
    }
    for method in config.methods:
        sub = [r for r in rows if r["method"] == method]
        nets = [r for r in sub if r["is_net"] == "true"]
        errors = [r for r in sub if r["is_net"].startswith("error:")]
        entry = {
            "runs": len(sub),
            "nets": len(nets),
            "errors": len(errors),
            "success_rate": round(len(nets) / len(sub), 6) if sub else None,
        }
        sizes = [int(r["size"]) for r in sub if r["size"]]
        if sizes:
            entry["mean_size"] = round(sum(sizes) / len(sizes), 6)
        bound_col = METHODS[method].bound_column
        if bound_col and nets:
            ratios = [
                int(r["size"]) / float(r[bound_col])
                for r in nets
                if float(r[bound_col]) > 0
            ]
            if ratios:
                entry["mean_size_over_bound"] = round(
                    sum(ratios) / len(ratios), 6
                )
                entry["max_size_over_bound"] = round(max(ratios), 6)
        summary["methods"][method] = entry
    return rows, summary


def write_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_summary(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
