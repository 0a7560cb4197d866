"""Acceptance gate: one pass/fail line per criterion (pytest -v).

Each test prints a [criterion ..] line with its verdict and key numbers
before asserting, so failures carry the full story in their output.
Checks 1c and 1d encode published desk-scale claims about the block
lower-bound family that the exact oracles refute; they are implemented
faithfully and fail honestly rather than being weakened to pass.
"""

import hashlib
import json
import math
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from epsnet.complexity import (
    alexander_capacity,
    capacity_levels,
    capacity_vector,
    doubling_constant,
    sauer_check,
    shallow_cell,
    vc_dimension,
)
from epsnet.core import draw_points, stream_rng
from epsnet.experiment import ExperimentConfig, run_experiment, write_csv
from epsnet.generators import (
    LowerBoundParams,
    gen_geometric,
    gen_lower_bound_family,
    gen_random,
    random_points,
)
from epsnet.nets import (
    build_decomposition,
    iid_net,
    iid_sample_size,
    min_net_exact,
    stratified_net,
)
from epsnet.oneinclusion import build_oig, loo_error, orient_bounded, predict
from epsnet.packing import (
    haussler_certificate,
    haussler_optimization_identity,
    max_packing_exact,
    projection_count_estimate,
)

from corpus import CORPUS, EPS_GRID, chain

CEILINGS = json.loads(
    (Path(__file__).parent / "data" / "regression_ceilings.json").read_text()
)
HEADROOM = 1.4

GRID = [
    LowerBoundParams(k=k, d=d, l=l, m=m)
    for k in (1, 2)
    for d in (1, 2, 3)
    for l in (1, 2)
    for m in (1, 2, 3)
]


def _report(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# -- 1. block lower-bound family, exact desk-scale claims ---------------------


def test_criterion_01a_block_family_min_net_size():
    t0 = time.time()
    bad = []
    for p in GRID:
        sp = gen_lower_bound_family(p)
        eps = Fraction(p.k, p.n)
        got = min_net_exact(sp, eps).size
        if got != p.l * p.m * p.d:
            bad.append((p, got))
    el = time.time() - t0
    ok = not bad and el < 120
    assert _report(
        "criterion 1a", ok,
        f"min net = l*m*d on {len(GRID) - len(bad)}/{len(GRID)} tuples "
        f"({el:.1f}s)" + (f"; exceptions: {bad}" if bad else ""),
    )


def test_criterion_01b_block_family_capacity_bound():
    bad = []
    for p in GRID:
        if p.l != 1:
            continue
        sp = gen_lower_bound_family(p)
        eps = Fraction(p.k, p.n)
        tau = alexander_capacity(sp, eps)
        if not tau < 2 + Fraction(p.d, p.k):
            bad.append((p, tau))
    ok = not bad
    assert _report(
        "criterion 1b", ok,
        "tau(k/n) < 2 + d/k on every single-copy tuple"
        + (f"; exceptions: {bad}" if bad else ""),
    )


def test_criterion_01c_block_family_vc_dimension():
    rows = []
    for p in GRID:
        sp = gen_lower_bound_family(p)
        vc = vc_dimension(sp).value
        rows.append((p, vc))
    bad = [(p, vc) for p, vc in rows if vc != p.d]
    ok = not bad
    detail = f"vc = d on {len(rows) - len(bad)}/{len(rows)} tuples"
    if bad:
        # observed law: with >= 2 blocks vc = min(d, k*2^(m-1));
        # with a single block (l = m = 1) vc = min(d-1, k)
        claims = "; ".join(
            f"(k={p.k},d={p.d},l={p.l},m={p.m})->vc={vc}" for p, vc in bad
        )
        detail += (
            f"; the claim vc = d is refuted by exact search on: {claims}. "
            "Every exception matches min(d, k*2^(m-1)) for multi-block "
            "families and min(d-1, k) for the single-block ones."
        )
    assert _report("criterion 1c", ok, detail)


def test_criterion_01d_block_family_doubling_constant():
    rows = []
    for p in GRID:
        sp = gen_lower_bound_family(p)
        eps = Fraction(p.k, p.n)
        D = doubling_constant(sp, eps, mode="exact").value
        rows.append((p, D))
    bad = [(p, D) for p, D in rows if D != 2 * p.l + 1]
    ok = not bad
    detail = f"doubling = 2l+1 on {len(rows) - len(bad)}/{len(rows)} tuples"
    if bad:
        sample = "; ".join(
            f"(k={p.k},d={p.d},l={p.l},m={p.m})->D={D}" for p, D in bad[:6]
        )
        detail += (
            f"; exact packing search refutes the 2l+1 claim on "
            f"{len(bad)} tuples, e.g. {sample}. The exact values scale "
            "with block count and block size, not with l alone."
        )
    assert _report("criterion 1d", ok, detail)


# -- 2. one-inclusion leave-one-out bound --------------------------------------


def test_criterion_02_one_inclusion_loo_bound():
    t0 = time.time()
    spaces = []
    for i in range(100):
        sp = gen_random(
            6 + i % 7,
            10 + (i * 7) % 51,
            size_law="uniform" if i % 2 else "geometric",
            weight_law="ones" if i % 3 else "uniform",
            seed=i,
        )
        spaces.append(sp)
    checked = 0
    worst_seen = Fraction(0)
    for i, sp in enumerate(spaces):
        d = vc_dimension(sp).value
        rng = stream_rng(i, "accept-oig")
        for t in range(200):
            m = 2 + (t % 7)  # sample sizes 2..8
            sample = draw_points(sp, m, rng)
            g = build_oig(sp, sample)
            o = orient_bounded(g, d)  # feasible at the exact dimension
            bound = Fraction(d, m)
            if o.tails:
                degs = [0] * len(g.vertices)
                for tail in o.tails:
                    degs[tail] += 1
                worst = Fraction(max(degs), m)
            else:
                worst = Fraction(0)
            assert worst <= bound, (i, t, worst, bound)
            worst_seen = max(worst_seen, worst)
            checked += 1
    # spot check: the per-vertex mistake count really is the out-degree
    sp = spaces[0]
    sample = draw_points(sp, 6, stream_rng(999, "accept-oig-spot"))
    g = build_oig(sp, sample)
    d = vc_dimension(sp).value
    o = orient_bounded(g, d)
    for v_idx, v in enumerate(g.vertices):
        mistakes = sum(
            1 for c in range(6) if predict(o, v_idx, c) != (v >> c & 1)
        )
        assert Fraction(mistakes, 6) == loo_error(o, v_idx)
    el = time.time() - t0
    ok = checked == 20_000 and el < 300
    assert _report(
        "criterion 2", ok,
        f"loo <= d/|S| on all {checked} orientations, worst {worst_seen} "
        f"({el:.1f}s)",
    )


# -- 3. packing bound plus its optimization identity ---------------------------


def test_criterion_03_packing_bound_and_optimization_identity():
    t0 = time.time()
    checked = 0
    for key, sp in CORPUS.items():
        for delta in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
                      Fraction(1, 16)):
            rep = haussler_certificate(sp, delta, strict=True)
            assert rep.ok, (key, delta)
            assert rep.packing_exact or rep.packing_size == 0
            checked += 1
    idents = [haussler_optimization_identity(d) for d in (1, 2, 3)]
    assert idents[0]["value"] == 8
    assert idents[1]["value"] == Fraction(81, 4)
    assert idents[2]["value"] == Fraction(1024, 27) * Fraction(16, 16)
    for out in idents:
        assert out["grid_ok"]
    el = time.time() - t0
    ok = el < 120
    assert _report(
        "criterion 3", ok,
        f"packing bound held on {checked} exact maximum packings; "
        f"optimization identity exact for d=1,2,3 ({el:.1f}s)",
    )


# -- 4. sampled trace-count inequality (soft) ----------------------------------


def test_criterion_04_trace_count_statistical_check():
    t0 = time.time()
    losers = []
    ran = 0
    for key, sp in CORPUS.items():
        for slack in (Fraction(1, 4), Fraction(1, 2)):
            out = projection_count_estimate(
                sp, Fraction(1, 4), trials=10_000, slack=slack,
                seed=17, strict=False,
            )
            ran += 1
            if not out["ok"]:
                losers.append((key, slack, out["mean"], out["family"]))
    el = time.time() - t0
    if losers:
        warnings.warn(f"sampled trace-count check missed on: {losers}")
    assert _report(
        "criterion 4", True,
        f"soft check: {ran - len(losers)}/{ran} instance/slack pairs "
        f"within 3 sigma at 10^4 trials ({el:.1f}s)"
        + (f"; warned on {losers}" if losers else ""),
    )
    assert ran == 2 * len(CORPUS)


# -- 5. capacity identities -----------------------------------------------------


def test_criterion_05_capacity_identities():
    t0 = time.time()
    checked = 0
    for key, sp in CORPUS.items():
        for eps in EPS_GRID:
            tau = alexander_capacity(sp, eps)
            assert tau <= Fraction(1) / eps, (key, eps)
            z, levels = capacity_levels(eps)
            vec = capacity_vector(sp, eps)
            for i in range(len(vec) - 1):
                ratio = vec[i] / vec[i + 1]
                assert 1 <= ratio <= 2, (key, eps, i, ratio)
            assert sum(vec) <= Fraction(1) / eps, (key, eps)
            # per-bucket conditional lower bound is certified inside
            # build_decomposition; a violation raises
            build_decomposition(sp, eps)
            checked += 1
    el = time.time() - t0
    ok = el < 60
    assert _report(
        "criterion 5", ok,
        f"tau <= 1/eps, 1 <= tau_i/tau_i+1 <= 2, sum tau_i <= 1/eps, and "
        f"bucket conditionals on {checked} instance/eps pairs ({el:.1f}s)",
    )


# -- 6. growth function inequalities -------------------------------------------


def test_criterion_06_growth_function_bounds():
    t0 = time.time()
    checked = 0
    for key, sp in CORPUS.items():
        if sp.n > 16:
            continue
        report = sauer_check(sp)  # raises on any inequality failure
        assert report.rows, key
        checked += 1
    el = time.time() - t0
    ok = checked == len(CORPUS) and el < 120
    assert _report(
        "criterion 6", ok,
        f"exhaustive trace counts within both binomial-sum and (ey/d)^d "
        f"bounds on {checked} instances ({el:.1f}s)",
    )


# -- 7. i.i.d. sizing success rates ---------------------------------------------


def test_criterion_07a_iid_success_rate():
    t0 = time.time()
    eps, delta = Fraction(1, 10), Fraction(1, 10)
    iv = gen_geometric("intervals", random_points(200, 1, seed=1),
                       name="intervals200")
    assert iv.n == 200
    # dimension 2 for interval families, pinned by the exact search on
    # small instances (the value does not depend on the point count)
    wins = sum(
        iid_net(iv, eps, delta, seed=s, d=2).is_net for s in range(200)
    )
    need = math.ceil((1 - float(delta) - 0.05) * 200)
    el = time.time() - t0
    ok = wins >= need and el < 180
    assert _report(
        "criterion 7a", ok,
        f"one-shot i.i.d. nets succeeded {wins}/200 (need >= {need}) "
        f"at eps=1/10, delta=1/10, C=8 ({el:.1f}s)",
    )


def test_criterion_07b_capacity_sizing_fewer_points():
    t0 = time.time()
    eps, delta = Fraction(1, 10), Fraction(1, 10)
    ch = chain(200, "chain200")
    assert alexander_capacity(ch, eps) == 1
    m_cap = iid_sample_size(eps, delta, d=1, sizing="capacity",
                            tau=Fraction(1))
    m_vc = iid_sample_size(eps, delta, d=1, sizing="vc")
    wins = sum(
        iid_net(ch, eps, delta, sizing="capacity", seed=s, d=1).is_net
        for s in range(200)
    )
    need = math.ceil((1 - float(delta) - 0.05) * 200)
    el = time.time() - t0
    ok = m_cap < m_vc and wins >= need and el < 180
    assert _report(
        "criterion 7b", ok,
        f"capacity sizing drew {m_cap} points vs {m_vc} for the generic "
        f"sizing and still succeeded {wins}/200 (need >= {need}) "
        f"({el:.1f}s)",
    )


# -- 8. guaranteed constructions stay within recorded ceilings ------------------


def test_criterion_08_constructions_within_ceilings():
    t0 = time.time()
    config = ExperimentConfig.from_dict({
        "instances": [{"inline": sp.to_dict()} for sp in CORPUS.values()],
        "eps": CEILINGS["meta"]["eps"],
        "methods": ["stratified", "doubling", "doubling-small"],
        "seeds": CEILINGS["meta"]["seeds"],
    })
    rows, _ = run_experiment(config)
    bound_col = {
        "stratified": "bound_stratified",
        "doubling": "bound_doubling",
        "doubling-small": "bound_doubling_small",
    }
    worst = {m: 0.0 for m in bound_col}
    for row in rows:
        assert row["is_net"] == "true", row
        bound = float(row[bound_col[row["method"]]])
        if bound > 0:
            worst[row["method"]] = max(
                worst[row["method"]], int(row["size"]) / bound
            )
    ceilings = CEILINGS["size_over_bound_max"]
    over = {
        m: (worst[m], ceilings[m] * HEADROOM)
        for m in worst
        if worst[m] > ceilings[m] * HEADROOM
    }
    el = time.time() - t0
    ok = not over and el < 600
    assert _report(
        "criterion 8", ok,
        f"all {len(rows)} construction runs valid; size/bound ratios "
        + ", ".join(f"{m}={worst[m]:.2f}<= {ceilings[m] * HEADROOM:.2f}"
                    for m in sorted(worst))
        + f" ({el:.1f}s)" + (f"; over ceiling: {over}" if over else ""),
    )


# -- 9. constant-capacity chain scaling -----------------------------------------


def test_criterion_09_chain_scaling_table():
    t0 = time.time()
    sp = chain(128, "chain128")
    slope_cap = CEILINGS["chain"]["slope_max"] * HEADROOM
    lines = ["eps      z  stratified  iid_draws"]
    ok = True
    prev_size = None
    for kexp in range(3, 8):
        eps = Fraction(1, 2**kexp)
        assert alexander_capacity(sp, eps) == 1
        z, _ = capacity_levels(eps)
        size = max(stratified_net(sp, eps, seed=s, d=1).size
                   for s in (0, 1, 2))
        m_iid = iid_sample_size(eps, Fraction(1, 10), d=1)
        lines.append(f"1/{2**kexp:<6d} {z}  {size:10d}  {m_iid:9d}")
        if size > slope_cap * z:
            ok = False
        if size >= m_iid:
            ok = False
        prev_size = size
    el = time.time() - t0
    print("\n".join(lines))
    assert _report(
        "criterion 9", ok and el < 120,
        f"stratified size stayed within {slope_cap:.1f}*z and far below "
        f"the 1/eps-factor i.i.d. sizing on the capacity-1 chain "
        f"({el:.1f}s)",
    )


# -- 10. doubling constant vs shallow-cell count ---------------------------------


def test_criterion_10_doubling_vs_shallow_cell():
    t0 = time.time()
    checked = 0
    for key, sp in CORPUS.items():
        if sp.n > 14:
            continue
        d = vc_dimension(sp).value
        for eps in EPS_GRID:
            D = doubling_constant(sp, eps, mode="exact").value
            tau = alexander_capacity(sp, eps)
            y = min(math.ceil(8 * d * tau), sp.n)
            l = min(24 * d, sp.n)
            phi = shallow_cell(sp, y, l)
            assert phi.exact, (key, eps)
            assert D <= 6 * phi.value, (key, eps, D, phi.value)
            checked += 1
    el = time.time() - t0
    ok = checked > 0 and el < 300
    assert _report(
        "criterion 10", ok,
        f"doubling <= 6 * shallow-cell count on {checked} instance/eps "
        f"pairs, all exact ({el:.1f}s)",
    )


# -- 11. experiment CSV determinism ----------------------------------------------


CORPUS_SWEEP_SHA256 = (
    "0d7a350cf8e68b7942a643254b8383ebea0290c70a521e83edf5f35158a5408f"
)


def test_criterion_11_csv_determinism(tmp_path):
    t0 = time.time()
    config_doc = {
        "instances": [{"inline": sp.to_dict()} for sp in CORPUS.values()],
        "eps": ["1/4", "1/8"],
        "methods": ["iid", "iid-capacity", "stratified", "doubling",
                    "doubling-small", "cal", "greedy", "exact"],
        "seeds": [0, 1],
    }
    config = ExperimentConfig.from_dict(config_doc)
    rows1, _ = run_experiment(config)
    rows2, _ = run_experiment(config)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(rows1, a)
    write_csv(rows2, b)
    identical = a.read_bytes() == b.read_bytes()
    # Pinned bytes: a refactor that changes any row, even deterministically,
    # fails here although both runs still agree.
    digest = hashlib.sha256(a.read_bytes()).hexdigest()
    pinned = digest == CORPUS_SWEEP_SHA256
    el = time.time() - t0
    ok = identical and pinned
    assert _report(
        "criterion 11", ok,
        f"two runs, {len(rows1)} rows each, byte-identical={identical}, "
        f"sha256 matches the pinned sweep={pinned} ({el:.1f}s)",
    )
