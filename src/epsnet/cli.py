"""Command-line surface: gen | profile | pack | oig | net | verify |
experiment.

Data goes to stdout (or --out); diagnostics go to stderr. Exit status:
0 success, 1 verification or theorem-check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .core import (
    CapExceededError,
    InstanceError,
    RangeSpace,
    TheoremViolationError,
    draw_points,
    format_rational,
    parse_json,
    parse_rational,
    stream_rng,
)
from .complexity import compute_profile, vc_of_masks
from .packing import greedy_packing, haussler_certificate, max_packing_exact
from .oneinclusion import (
    OrientationInfeasibleError, build_oig, density_check, loo_error, orient_bounded,
)
from .generators import (
    GEO_DIMS,
    LowerBoundParams,
    gen_geometric,
    gen_lower_bound_family,
    gen_random,
    random_points,
)
from .nets import verify_net
from .experiment import (
    METHODS,
    ExperimentConfig,
    load_instance,
    run_experiment,
    run_method,
    write_csv,
    write_summary,
)

GEO_KINDS = tuple(GEO_DIMS)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _read_points_file(path: str) -> list[tuple[Fraction, ...]]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(tuple(parse_rational(c.strip()) for c in line.split(",")))
    if not rows:
        raise InstanceError(f"no points in {path}")
    return rows


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InstanceError(f"bad integer list '{text}'") from exc


def cmd_gen(args) -> int:
    if args.kind == "lower-bound":
        space = gen_lower_bound_family(
            LowerBoundParams(k=args.k, d=args.d, l=args.l, m=args.m)
        )
    elif args.kind == "random":
        space = gen_random(
            args.n, args.num_ranges, args.size_law, args.weight_law,
            seed=args.seed, w_max=args.w_max, name=args.name or "",
        )
    else:
        if args.points_file:
            pts = _read_points_file(args.points_file)
        elif args.random_points is not None:
            pts = random_points(args.random_points, GEO_DIMS[args.kind],
                                seed=args.seed, grid=args.grid)
        else:
            raise InstanceError("need --points-file or --random-points")
        space = gen_geometric(args.kind, pts, name=args.name or "")
    if args.name:
        space = RangeSpace(space.n, space.weights, space.ranges, args.name)
    _emit(space.dumps(), args.out)
    return 0


def cmd_profile(args) -> int:
    if args.pi_max_y < 0:
        raise ValueError(f"--pi-max-y must be >= 0, got {args.pi_max_y}")
    space = load_instance(args.instance)
    profile = compute_profile(
        space, parse_rational(args.eps), pi_max_y=args.pi_max_y, seed=args.seed
    )
    _emit(json.dumps(profile.to_dict(), indent=2, sort_keys=True), args.out)
    return 0


def cmd_pack(args) -> int:
    space = load_instance(args.instance)
    # Exact mode: the maximum packing, or (exact: false) the clique
    # search's incumbent past its budget. The bound is checked on the
    # packing printed.
    find = max_packing_exact if args.mode == "exact" else greedy_packing
    packing = find(space, parse_rational(args.delta))
    cert = haussler_certificate(space, packing, strict=False)
    doc = {
        "delta": format_rational(packing.delta),
        "mode": args.mode,
        "members": list(packing.members),
        "size": len(packing.members),
        "exact": packing.exact,
        "packing_bound": {
            "d": cert.d_packed,
            "bound": round(cert.bound, 6),
            "ok": cert.ok,
        },
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    return 0 if cert.ok else 1


def cmd_oig(args) -> int:
    space = load_instance(args.instance)
    if args.sample:
        sample = _parse_int_list(args.sample)
    else:
        rng = stream_rng(args.seed, "cli-oig")
        sample = draw_points(space, args.sample_size, rng)
    if not sample:
        raise InstanceError("the sample is empty")
    graph = build_oig(space, sample)
    dim = vc_of_masks(graph.vertices, graph.m)
    d = dim.upper if args.d is None else args.d
    known = dim.lower if dim.exact else f"in [{dim.lower}, {dim.upper}]"
    below = InstanceError(f"given d={d} is below the sample's dimension {known}")
    # Both checks hold at every d >= the dimension, so a d below the walk's
    # lower end, or in a tripped walk's bracket and failing either, is below
    # it, and a failure at d >= the walk's upper end is a theorem violation.
    if d < dim.lower:
        raise below
    try:
        check = density_check(graph, d=d)
        orientation = orient_bounded(graph, d)
    except (TheoremViolationError, OrientationInfeasibleError) as exc:
        if d >= dim.upper:
            raise TheoremViolationError(str(exc)) from exc
        raise below from None
    loo = [str(loo_error(orientation, v)) for v in range(len(graph.vertices))]
    doc = {
        "sample": sample,
        "m": graph.m,
        "vertices": [f"{v:0{graph.m}b}"[::-1] for v in graph.vertices],
        "edges": [[u, v, c] for u, v, c in graph.edges],
        "d": check["d"],
        "density": str(check["density"]),
        "tails": list(orientation.tails),
        "max_out_degree": orientation.max_out_degree,
        "loo_per_vertex": loo,
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    return 0


def cmd_net(args) -> int:
    space = load_instance(args.instance)
    eps = parse_rational(args.eps)
    config = ExperimentConfig(
        C=args.C, delta=parse_rational(args.delta), cal_budget=args.budget_n
    )
    if args.d is not None and args.d < 0:
        raise InstanceError(f"--d must be >= 0, got {args.d}")
    # D stays None, and d too unless given: the builders compute them.
    report = run_method(space, eps, args.method, args.seed, config, args.d)
    _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True), args.out)
    print(
        f"{report.method} {report.size} "
        f"{'true' if report.is_net else 'false'} "
        f"{report.stats.get('draws', 0)}",
        file=sys.stderr,
    )
    return 0 if report.is_net else 1


def cmd_verify(args) -> int:
    space = load_instance(args.instance)
    eps = parse_rational(args.eps)
    points = _parse_int_list(args.points) if args.points else []
    report = verify_net(space, points, eps)
    _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True), args.out)
    if not report.is_net:
        for i in report.violations:
            print(
                f"violated: range {i} measure "
                f"{format_rational(space.measure(i))}",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_experiment(args) -> int:
    path = Path(args.config)
    doc = parse_json(path.read_text(encoding="utf-8"), "config")
    config = ExperimentConfig.from_dict(doc, base_dir=path.parent)
    rows, summary = run_experiment(config, timings=args.timings)
    write_csv(rows, args.out)
    if args.summary:
        write_summary(summary, args.summary)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    if summary["theorem_violations"]:
        print(f"check failed: {summary['theorem_violations']} rows raised "
              f"TheoremViolationError", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="epsnet",
        description="Exact nets and complexity measures for finite "
        "weighted range spaces",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--kind", required=True,
                   choices=("lower-bound", "random") + GEO_KINDS)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--num-ranges", type=int, default=8)
    p.add_argument("--size-law", choices=("uniform", "geometric"),
                   default="uniform")
    p.add_argument("--weight-law", choices=("ones", "uniform"), default="ones")
    p.add_argument("--w-max", type=int, default=8)
    p.add_argument("--points-file")
    p.add_argument("--random-points", type=int)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("profile", help="complexity profile of an instance")
    p.add_argument("instance")
    p.add_argument("--eps", required=True)
    p.add_argument("--pi-max-y", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("pack", help="separated packing and its size bound")
    p.add_argument("instance")
    p.add_argument("--delta", required=True)
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("oig", help="one-inclusion graph and orientation")
    p.add_argument("instance")
    p.add_argument("--sample", help="comma-separated point indices")
    p.add_argument("--sample-size", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oig)

    p = sub.add_parser("net", help="construct a net")
    p.add_argument("instance")
    p.add_argument("--method", required=True, choices=tuple(METHODS))
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", default=format_rational(ExperimentConfig.delta))
    p.add_argument("--C", type=float, default=ExperimentConfig.C)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-n", type=int, default=ExperimentConfig.cal_budget)
    p.add_argument("--d", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_net)

    p = sub.add_parser("verify", help="check a candidate point set")
    p.add_argument("instance")
    p.add_argument("--eps", required=True)
    p.add_argument("--points", default="")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run a sweep from a JSON config")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--summary")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=cmd_experiment)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, CapExceededError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
