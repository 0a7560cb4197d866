"""Correctness checks of the benchmark, independent of `verify_net`.

Rule for reference values: a value labelled exact must equal its
reference; a value labelled as a bound must bracket it.
"""

from fractions import Fraction

GUARANTEED = ("stratified", "doubling", "doubling-small", "greedy", "exact")
SIZE_RATIO_METHODS = ("stratified", "doubling", "doubling-small", "greedy")


def heavy_sets(space, eps) -> list[frozenset]:
    """Point sets of the ranges of measure >= eps, found by a plain loop
    over ranges and points."""
    eps = Fraction(eps)
    out = []
    for r in space.ranges:
        pts = frozenset(p for p in range(space.n) if r >> p & 1)
        if Fraction(sum(space.weights[p] for p in pts), space.total_weight) >= eps:
            out.append(pts)
    return out


def is_net(space, points, heavy) -> bool:
    """Every heavy range holds a chosen point, and every chosen point is
    a support point of the space."""
    chosen = set(points)
    return all(0 <= p < space.n and space.weights[p] > 0 for p in chosen) and all(
        not chosen.isdisjoint(r) for r in heavy)


def net_problems(space, eps, method, report, heavy, min_net) -> list[str]:
    """Problems of one builder's report: its is_net label disagrees with
    the brute-force check, a guaranteed builder returned a non-net, or a
    size contradicts the exact minimum. A one-shot miss is no problem."""
    ok = is_net(space, report.points, heavy)
    where = f"{space.name} eps={eps} {method}"
    if ok != report.is_net:
        return [f"{where}: is_net={report.is_net}, brute force says {ok}"]
    if method in GUARANTEED and not ok:
        return [f"{where}: guaranteed builder returned a non-net"]
    if method == "exact" and report.size != min_net:
        return [f"{where}: size {report.size} != minimum {min_net}"]
    if ok and report.size < min_net:
        return [f"{where}: net smaller than the minimum {min_net}"]
    return []


def is_shattered(space, witness) -> bool:
    want = {frozenset(s) for s in _subsets(list(witness))}
    got = set()
    for r in space.ranges:
        got.add(frozenset(p for p in witness if r >> p & 1))
    return want <= got


def _subsets(items):
    out = [[]]
    for x in items:
        out += [s + [x] for s in out]
    return out


def check_profile(doc: dict, ref: dict, space) -> tuple[list[str], int, int]:
    """Problems of one `epsnet profile` output on `space` against its
    reference, plus (fields labelled exact, fields labelled at all)."""
    problems: list[str] = []
    exact = total = 0

    def bracket(label, value, is_exact, true, lower, upper=None):
        nonlocal exact, total
        total += 1
        if is_exact:
            exact += 1
            if value != true:
                problems.append(f"{label}: exact {value} != reference {true}")
        elif true < lower or (upper is not None and true > upper):
            problems.append(f"{label}: bound [{lower}, {upper}] misses {true}")

    for key in ("tau", "tau_vector", "z"):
        if doc[key] != ref[key]:
            problems.append(f"{key}: {doc[key]} != reference {ref[key]}")
    vc = doc["vc"]
    bracket("vc", vc["value"], vc["exact"], ref["vc"], lower=vc["value"])
    if len(vc["witness"]) != vc["value"] or not is_shattered(space, vc["witness"]):
        problems.append(f"vc: witness {vc['witness']} not shattered")
    dbl = doc["doubling"]
    bracket("doubling", dbl["lower"], dbl["mode"] == "exact", ref["doubling"],
            lower=dbl["lower"], upper=dbl["upper"])
    want_pi = [int(y) for y in ref["pi"]]
    if [row["y"] for row in doc["pi"]] != want_pi:
        problems.append("pi: rows do not cover y = 0..min(n, 8)")
    for row in doc["pi"]:
        true = ref["pi"][str(row["y"])]
        bracket(f"pi({row['y']})", row["value"], row["exact"], true,
                lower=row["value"])
    if vc["exact"] and vc["value"] >= 1:
        want_phi = ref["phi"]
        if [(r["y"], r["l"]) for r in doc["phi"]] != [(want_phi["y"], want_phi["l"])]:
            problems.append(f"phi: rows {doc['phi']} != reference scale {want_phi}")
        else:
            row = doc["phi"][0]
            bracket("phi", row["value"], row["exact"], want_phi["value"],
                    lower=row["value"])
    elif doc["phi"]:
        problems.append("phi: row present without an exact VC dimension")
    star = doc["star"]
    bracket("star", star["lower"], star["exact"], ref["star"],
            lower=star["lower"], upper=star["upper"])
    if star["exact"] and star["upper"] != star["lower"]:
        problems.append("star: exact but lower != upper")
    return problems, exact, total


SWEEP_INSTANCE_COLUMNS = (
    "d", "d_exact", "tau", "tau_vec_hash", "D_value", "D_mode", "min_net",
    "bound_stratified", "bound_capacity", "bound_doubling",
    "bound_doubling_small",
)


def check_sweep_row(row: dict, ref: dict) -> list[str]:
    """Problems of one CSV row of the sweep. ref maps instance -> eps ->
    the per-(instance, eps) columns recorded at the reference commit."""
    want = ref.get(row["instance"], {}).get(row["eps"])
    if want is None:
        return [f"unexpected row {row['instance']} {row['eps']}"]
    problems = [
        f"{row['instance']} {row['eps']} {col}: {row[col]} != {want[col]}"
        for col in SWEEP_INSTANCE_COLUMNS if row[col] != want[col]
    ]
    method = row["method"]
    if row["is_net"] not in ("true", "false"):
        problems.append(f"{row['instance']} {method}: {row['is_net']}")
    elif method in GUARANTEED and row["is_net"] != "true":
        problems.append(f"{row['instance']} {method}: guaranteed builder "
                        f"returned a non-net")
    elif row["is_net"] == "true" and int(row["size"]) < int(want["min_net"]):
        problems.append(f"{row['instance']} {method}: net of size "
                        f"{row['size']} below the minimum {want['min_net']}")
    if method == "exact" and row["size"] != want["min_net"]:
        problems.append(f"{row['instance']} exact: size {row['size']} != "
                        f"{want['min_net']}")
    return problems
