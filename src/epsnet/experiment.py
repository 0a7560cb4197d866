"""Sweep harness: (instance x eps x method x seed) -> CSV rows plus a
JSON summary.

Rows are computed one after another in configuration order, so output
bytes are a pure function of the config. Wall times are opt-in because
they would break that. What depends on (instance, eps) alone is computed
once per cell and shared by its rows: the dyadic decomposition with the
parts the builders derive from it, the outcome of each seed-free method
and the formatted profile columns. The packing-guided report is kept
per (cell, seed) on the decomposition, so a doubling-small row outside
the small-D regime reuses the doubling row's draws.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .core import (
    InstanceError,
    PRNG_ALGORITHM,
    RangeSpace,
    _float_unit,
    _items,
    format_rational,
    parse_rational,
)
from .complexity import doubling_constant, vc_dimension
from .nets import (
    DEFAULT_C,
    _check_C,
    build_decomposition,
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
    seed, config, d, D, dec), where d, D and the dyadic decomposition dec
    are None when the builder should compute them (builders that need no
    decomposition ignore dec).

    seeded=False marks a builder whose outcome does not depend on the
    seed: a sweep computes it once per (instance, eps) and writes that
    outcome, an error included, on every seed's row."""

    build: Callable
    bound_column: str | None = None  # CSV column of its size bound
    seeded: bool = True


# The one method registry: config validation, the CLI's --method choices
# and run_method all read it. Each entry looks its builder up by name at
# call time, so a wrapper rebound over that name (as a tracer does) sees
# the calls.
METHODS: dict[str, Method] = {
    "iid": Method(
        lambda s, e, seed, c, d, D, dec: iid_net(s, e, c.delta, "vc", c.C, seed, d=d),
        "bound_capacity"),
    "iid-capacity": Method(
        lambda s, e, seed, c, d, D, dec: iid_net(
            s, e, c.delta, "capacity", c.C, seed, d=d),
        "bound_capacity"),
    "stratified": Method(
        lambda s, e, seed, c, d, D, dec: stratified_net(s, e, c.C, seed, d=d, dec=dec),
        "bound_stratified"),
    "doubling": Method(
        lambda s, e, seed, c, d, D, dec: doubling_net(
            s, e, c.C, seed, D=D, d=d, dec=dec),
        "bound_doubling"),
    "doubling-small": Method(
        lambda s, e, seed, c, d, D, dec: doubling_net_small_d(
            s, e, c.C, seed, D=D, d=d, dec=dec),
        "bound_doubling_small"),
    "cal": Method(
        lambda s, e, seed, c, d, D, dec: cal_net(s, e, c.cal_budget, seed)),
    "greedy": Method(
        lambda s, e, seed, c, d, D, dec: greedy_net(s, e), seeded=False),
    "exact": Method(
        lambda s, e, seed, c, d, D, dec: min_net_exact(s, e), seeded=False),
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
    C: float = DEFAULT_C
    delta: Fraction = Fraction(1, 10)
    cal_budget: int = 20
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self) -> None:
        """Reject settings no builder can use, by the builders' own checks
        (an InstanceError, so the CLI exits 2)."""
        try:
            _check_C(self.C)
            _float_unit(self.delta, "'delta'")
            for eps in self.eps_grid:
                _float_unit(eps, "'eps'")
        except ValueError as exc:
            raise InstanceError(str(exc)) from None
        if self.cal_budget < 1:
            raise InstanceError(f"'cal_budget' must be at least 1, got {self.cal_budget!r}")

    @staticmethod
    def from_dict(doc: dict, base_dir: Path | str = ".") -> "ExperimentConfig":
        """Read a config document. Lists must be JSON lists, seeds and
        cal_budget true ints and C a number; anything else, or an unknown
        key, is an InstanceError rather than a silent coercion."""
        if not isinstance(doc, dict):
            raise InstanceError(f"experiment config must be an object, got {doc!r}")
        required = ("instances", "eps", "methods", "seeds")
        for key in required:
            if key not in doc:
                raise InstanceError(f"experiment config missing '{key}'")
        unknown = sorted(set(doc) - {*required, "C", "delta", "cal_budget"})
        if unknown:
            raise InstanceError(f"unknown experiment config keys: {unknown}")
        methods = list(_items(doc["methods"], "methods"))
        for m in methods:
            if not isinstance(m, str) or m not in METHODS:
                raise InstanceError(f"unknown method {m!r}")
        seeds = list(_items(doc["seeds"], "seeds"))
        cal_budget = doc.get("cal_budget", ExperimentConfig.cal_budget)
        for key, v in [("seeds", x) for x in seeds] + [("cal_budget", cal_budget)]:
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
            cal_budget=cal_budget,
            base_dir=Path(base_dir),
        )


def load_instance(path: Path | str) -> RangeSpace:
    return RangeSpace.loads(Path(path).read_text(encoding="utf-8"))


def resolve_instances(config: ExperimentConfig) -> list[RangeSpace]:
    spaces = []
    for entry in config.instances:
        # A bare string is a path; an object carries exactly one of a
        # string "path" or an object "inline".
        key, value = "path", entry
        if isinstance(entry, dict) and len(entry) == 1:
            (key, value), = entry.items()
        if key == "path" and isinstance(value, str):
            spaces.append(load_instance(config.base_dir / value))
        elif key == "inline" and isinstance(value, dict):
            spaces.append(RangeSpace.from_dict(value))
        else:
            raise InstanceError(
                "instance entry must be a path, {\"path\": <string>} or "
                f"{{\"inline\": <object>}}, got {entry!r}")
    return spaces


def tau_vector_hash(taus) -> str:
    # Imported here, not at module level, so that the commands that never
    # hash (profile, pack, net) do not load hashlib.
    import hashlib

    text = ",".join(format_rational(t) for t in taus)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _fmt_float(x: float) -> str:
    return f"{x:.6f}"


def _outcome(build) -> tuple:
    """(build()'s report, or the exception it raised, and its wall ms)."""
    start = time.perf_counter()
    try:
        result = build()
    except Exception as exc:  # recorded in-row, sweep never aborts
        result = exc
    return result, int((time.perf_counter() - start) * 1000)


def instance_profile(space: RangeSpace, eps: Fraction, d_res) -> dict:
    """Shared per-(instance, eps) facts for every row of the sweep: d, D
    and the dyadic decomposition for the builders, the exact method's
    outcome, and the formatted CSV columns, eps among them. d_res is the
    instance's VC Bound, computed once per instance; d is its lower end."""
    dec = build_decomposition(space, eps)
    taus, tau = dec.taus, dec.taus[0]
    doubling = doubling_constant(space, eps)
    exact = _outcome(lambda: min_net_exact(space, eps))
    d, D = d_res.lower, max(float(doubling.upper), 1.0)
    return {
        "d": d,
        "D": D,
        "dec": dec,
        "outcomes": {"exact": exact},
        "columns": {
            "eps": format_rational(eps),
            "d": str(d),
            "d_exact": "true" if d_res.exact else "false",
            "tau": format_rational(tau),
            "tau_vec_hash": tau_vector_hash(taus[1:]),
            "D_value": (str(doubling.lower) if doubling.exact
                        else _fmt_float(doubling.upper)),
            "D_mode": doubling.mode,
            "min_net": ("" if isinstance(exact[0], Exception)
                        or "lower" in exact[0].stats else str(exact[0].size)),
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
    dec=None,
):
    """Build a net with a registered method. The builders compute d, D
    and the decomposition themselves where they are None."""
    if method not in METHODS:
        raise InstanceError(f"unknown method '{method}'")
    return METHODS[method].build(space, eps, seed, config, d, D, dec)


def _row(space, method, seed, profile, outcome, timings) -> dict:
    result, ms = outcome
    row = {
        "instance": space.name,
        "method": method,
        "seed": str(seed),
        **profile["columns"],
        "wall_ms": str(ms) if timings else "",
    }
    if isinstance(result, Exception):
        row["size"] = ""
        row["is_net"] = f"error:{type(result).__name__}"
        row["draws"] = ""
    else:
        row["size"] = str(result.size)
        row["is_net"] = "true" if result.is_net else "false"
        row["draws"] = str(result.stats.get("draws", 0))
    return row


def run_experiment(config: ExperimentConfig, timings: bool = False) -> tuple[list[dict], dict]:
    rows = []
    for space in resolve_instances(config):
        d_res = vc_dimension(space)
        for eps in config.eps_grid:
            profile = instance_profile(space, eps, d_res)
            for method in config.methods:
                seeded = METHODS[method].seeded
                # A seed-free outcome is computed once per (instance, eps),
                # exact's already by the profile.
                outcome = None if seeded else profile["outcomes"].get(method)
                for seed in config.seeds:
                    if outcome is None or seeded:
                        outcome = _outcome(lambda: run_method(
                            space, eps, method, seed, config,
                            profile["d"], profile["D"], profile["dec"]))
                    rows.append(
                        _row(space, method, seed, profile, outcome, timings)
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
    """The header and one line per row, in CSV_COLUMNS order. A row whose
    keys are not exactly CSV_COLUMNS is a ValueError naming a key it
    lacks or one it has beyond them."""
    # Imported here, not at module level: only the sweep writes CSV.
    import csv

    width = len(CSV_COLUMNS)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            try:
                line = [row[k] for k in CSV_COLUMNS]
            except KeyError as exc:
                raise ValueError(f"row lacks CSV column {exc.args[0]!r}") from None
            if len(row) != width:
                extra = sorted(set(row) - set(CSV_COLUMNS))
                raise ValueError(f"row has keys beyond the CSV columns: {extra}")
            writer.writerow(line)


def write_summary(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
