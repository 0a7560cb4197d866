"""Record the reference values the benchmark checks outputs against.

    PYTHONPATH=src python3 bench/make_reference.py

Writes bench/reference.json. Capped quantities are computed here once
with the caps lifted: the VC dimension by the exact search, pi and star
by brute force split over the point-disjoint components of the range
family (every range lies inside one component). Rerun only when an
instance or the definition of a quantity changes, never to make a
failing check pass.
"""

import hashlib
import json
import math
import sys
import tempfile
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from epsnet import (  # noqa: E402
    alexander_capacity,
    build_range_space,
    capacity_levels,
    capacity_vector,
    doubling_constant,
    format_rational,
    min_net_exact,
    shallow_cell,
    star_number,
    vc_of_masks,
)
from epsnet.experiment import ExperimentConfig, run_experiment, write_csv  # noqa: E402

import instances  # noqa: E402
from check import SWEEP_INSTANCE_COLUMNS  # noqa: E402

PI_MAX_Y = 8
COMPONENT_LIMIT = 16  # largest component enumerated subset by subset
SWEEP_REFERENCE_SEEDS = [0, 1, 2, 3, 4]


def components(space):
    """Point sets of the connected components of the range family;
    points in no range are single components without ranges."""
    comps = []
    for r in space.ranges:
        merged = r
        keep = []
        for c in comps:
            if c & merged:
                merged |= c
            else:
                keep.append(c)
        comps = keep + [merged]
    covered = 0
    for c in comps:
        covered |= c
    comps += [1 << p for p in range(space.n) if not covered >> p & 1]
    return [[p for p in range(space.n) if c >> p & 1] for c in comps]


def pi_by_components(space, y):
    """max over |Y| = y of the number of distinct traces. The count is
    the sum of each component's nonempty traces, plus one when some range
    misses Y; a knapsack over components keeps a flag for that miss."""
    neg = None
    best = {(0, False): 0}
    for pts in components(space):
        mask = sum(1 << p for p in pts)
        rs = [r for r in space.ranges if r & mask]
        g = [neg] * (len(pts) + 1)  # best count per |T|
        h = [neg] * (len(pts) + 1)  # best count per |T| with a miss
        for t in range(min(len(pts), y) + 1):
            for sub in combinations(pts, t):
                tm = sum(1 << p for p in sub)
                traces = {r & tm for r in rs}
                count = len(traces - {0})
                g[t] = count if g[t] is None else max(g[t], count)
                if 0 in traces:
                    h[t] = count if h[t] is None else max(h[t], count)
        nxt = {}
        for (used, miss), val in best.items():
            for t in range(min(len(pts), y - used) + 1):
                for m2, add in ((miss, g[t]), (True, h[t])):
                    if add is None:
                        continue
                    key = (used + t, m2)
                    nxt[key] = max(nxt.get(key, -1), val + add)
        best = nxt
    return max(best.get((y, False), -1), best.get((y, True), -2) + 1)


def pi_direct(space, y):
    best = 0
    for pts in combinations(range(space.n), y):
        ymask = sum(1 << p for p in pts)
        best = max(best, len({r & ymask for r in space.ranges}))
    return best


def true_pi(space, y):
    if max(len(c) for c in components(space)) <= COMPONENT_LIMIT:
        return pi_by_components(space, y)
    return pi_direct(space, y)


def true_star(space):
    """Star sets split over components, so the star number is the sum of
    the components' exact star numbers."""
    total = 0
    for pts in components(space):
        mask = sum(1 << p for p in pts)
        rs = [[p for p in pts if r >> p & 1] for r in space.ranges if r & mask]
        if not rs:
            continue
        sub = build_range_space(space.n, list(space.weights), rs)
        total += star_number(sub, cap=space.n).lower
    return total


def true_phi(space, y, l):
    if y >= space.n and l >= space.n:
        # Y = every point keeps all ranges as distinct traces, and
        # traces on a subset are images of those.
        return len(space.ranges)
    return shallow_cell(space, y, l, cap=10**12).value


def profile_reference(space, eps):
    d = vc_of_masks(space.ranges, space.n, cap=space.n).value
    tau = alexander_capacity(space, eps)
    z, _ = capacity_levels(eps)
    D = doubling_constant(space, eps, mode="exact", range_cap=10**9).value
    ref = {
        "vc": d,
        "tau": format_rational(tau),
        "tau_vector": [format_rational(t) for t in capacity_vector(space, eps)],
        "z": z,
        "doubling": D,
        "pi": {str(y): true_pi(space, y)
               for y in range(min(space.n, PI_MAX_Y) + 1)},
        "star": true_star(space),
    }
    if d >= 1:
        y_phi = min(math.ceil(8 * d * tau), space.n)
        l_phi = min(24 * d, space.n)
        ref["phi"] = {"y": y_phi, "l": l_phi,
                      "value": true_phi(space, y_phi, l_phi)}
    return ref


def sweep_reference():
    inline = [{"inline": sp.to_dict()} for sp in instances.corpus()]
    rows, _ = run_experiment(ExperimentConfig.from_dict(
        instances.sweep_config(inline, SWEEP_REFERENCE_SEEDS)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        write_csv(rows, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    per_instance: dict = {}
    for row in rows:
        cols = {c: row[c] for c in SWEEP_INSTANCE_COLUMNS}
        per_instance.setdefault(row["instance"], {})[row["eps"]] = cols
    return {
        "seeds": SWEEP_REFERENCE_SEEDS,
        "csv_sha256": digest,
        "rows": len(rows),
        "instances": per_instance,
    }


def nets_reference():
    out = {}
    for space, d_pin, D_pin in instances.nets_instances():
        d = vc_of_masks(space.ranges, space.n, cap=space.n).value
        if d != d_pin:
            raise SystemExit(f"{space.name}: pinned d={d_pin}, exact d={d}")
        entry = {"d": d, "min_net": {}}
        for eps in instances.EPS_NETS:
            res = doubling_constant(space, eps)
            D = float(res.lower) if res.mode == "exact" else res.upper
            if D != D_pin:
                raise SystemExit(f"{space.name}: pinned D={D_pin}, got {D}")
            entry["min_net"][format_rational(eps)] = min_net_exact(space, eps).size
        entry["D"] = D_pin
        out[space.name] = entry
    return out


def main():
    doc = {
        "profile": {
            sp.name: profile_reference(sp, instances.EPS_PROFILE)
            for sp in instances.profile_instances()
        },
        "sweep": sweep_reference(),
        "nets": nets_reference(),
    }
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
