"""Command-line interface: subcommand behavior, exit codes, determinism."""

import hashlib
import json
import sys
from fractions import Fraction

import pytest

from epsnet import cli, complexity, experiment, nets, oneinclusion, packing
from epsnet.cli import build_parser, main
from epsnet.core import RangeSpace, TheoremViolationError, build_range_space
from epsnet.generators import (
    GEO_DIMS,
    LowerBoundParams,
    gen_geometric,
    gen_lower_bound_family,
    gen_random,
    random_points,
)
from epsnet.experiment import (
    ExperimentConfig,
    run_experiment,
    tau_vector_hash,
    write_csv,
    write_summary,
)

from corpus import CORPUS


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain8.json"
    path.write_text(CORPUS["chain8"].dumps() + "\n")
    return path


def test_gen_lower_bound_round_trip(tmp_path):
    out = tmp_path / "lb.json"
    rc = main(["gen", "--kind", "lower-bound", "--k", "1", "--d", "2", "--l", "1",
               "--m", "2", "--out", str(out)])
    assert rc == 0
    sp = RangeSpace.loads(out.read_text())
    assert sp.n == 5 and len(sp.ranges) == 5
    assert sp.name == "lb-k1d2l1m2"


def test_gen_random_and_profile(tmp_path, capsys):
    inst = tmp_path / "r.json"
    assert main(["gen", "--kind", "random", "--n", "8", "--num-ranges", "10",
                 "--seed", "4", "--out", str(inst)]) == 0
    assert main(["profile", str(inst), "--eps", "1/4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vc"]["value"] >= 1
    assert "tau" in doc and "tau_vector" in doc


def test_gen_random_w_max_below_one_is_exit_2_naming_w_max(capsys):
    assert main(["gen", "--kind", "random", "--weight-law", "uniform",
                 "--w-max", "0"]) == 2
    assert "w_max" in capsys.readouterr().err


def test_gen_negative_grid_is_exit_2_naming_grid(capsys):
    assert main(["gen", "--kind", "halfplanes", "--random-points", "5",
                 "--grid", "-5"]) == 2
    assert "grid" in capsys.readouterr().err


def test_gen_zero_random_points_is_exit_2_naming_the_point_count(capsys):
    # --random-points 0 is given, so the error is about the count.
    assert main(["gen", "--kind", "halfplanes", "--random-points", "0"]) == 2
    assert "need at least one point" in capsys.readouterr().err


def test_doubling_net_deeper_than_the_recursion_limit_exits_0(tmp_path):
    # The clique search behind D passes the recursion limit on 1,200
    # singletons at eps = 1/1200; the builder goes on with the bracket.
    n = 1200
    inst = tmp_path / "singles.json"
    inst.write_text(json.dumps(
        {"n": n, "weights": [1] * n, "ranges": [[p] for p in range(n)]}))
    assert main(["net", str(inst), "--method", "doubling",
                 "--eps", f"1/{n}"]) == 0


def test_gen_geometric_from_points_file(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("# square\n0,0\n4,0\n4,4\n0,4\n")
    out = tmp_path / "hp.json"
    rc = main(["gen", "--kind", "halfplanes", "--points-file", str(pts),
               "--name", "square", "--out", str(out)])
    assert rc == 0
    sp = RangeSpace.loads(out.read_text())
    assert sp.name == "square" and sp.n == 4


def test_gen_geometric_random_points(tmp_path):
    out = tmp_path / "iv.json"
    rc = main(["gen", "--kind", "intervals", "--random-points", "6", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    sp = RangeSpace.loads(out.read_text())
    assert sp.n == 6


def test_gen_kind_choices_are_the_library_kinds(tmp_path):
    gen = build_parser()._subparsers._group_actions[0].choices["gen"]
    (kind,) = [a for a in gen._actions if a.dest == "kind"]
    assert set(kind.choices) == {"lower-bound", "random"} | set(GEO_DIMS)
    # Every geometric kind draws random points of its own dimension.
    for name in GEO_DIMS:
        out = tmp_path / f"{name}.json"
        assert main(["gen", "--kind", name, "--random-points", "5",
                     "--out", str(out)]) == 0
        assert RangeSpace.loads(out.read_text()).n == 5


def test_net_defaults_are_the_experiment_config_defaults():
    args = build_parser().parse_args(
        ["net", "x.json", "--method", "iid", "--eps", "1/8"])
    config = ExperimentConfig()
    assert args.C == config.C == nets.DEFAULT_C
    assert Fraction(args.delta) == config.delta
    assert args.budget_n == config.cal_budget


def test_net_exit_codes(chain_file, capsys):
    assert main(["net", str(chain_file), "--method", "greedy",
                 "--eps", "1/8"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["is_net"] is True
    # summary line on stderr: method size is_net draws
    parts = captured.err.strip().split()
    assert parts[0] == "greedy" and parts[2] == "true"
    # cal with a starved budget fails with exit 1
    sparse = chain_file.parent / "sparse.json"
    sparse.write_text(CORPUS["sparse-singles8"].dumps())
    assert main(["net", str(sparse), "--method", "cal", "--eps", "1/8",
                 "--budget-n", "1"]) == 1


@pytest.fixture()
def intervals40(tmp_path):
    inst = tmp_path / "iv40.json"
    assert main(["gen", "--kind", "intervals", "--random-points", "40",
                 "--seed", "7", "--out", str(inst)]) == 0
    return inst


def test_net_sizes_with_fallback_when_exact_vc_is_capped(
    intervals40, tmp_path, capsys, monkeypatch,
):
    # With the exact VC walk out of nodes, the CLI must size with the
    # walk's incumbent instead of erroring, and still verify exactly.
    monkeypatch.setattr(complexity, "WALK_NODES", 3)
    out = tmp_path / "net.json"
    rc = main(["net", str(intervals40), "--method", "stratified",
               "--eps", "1/8", "--seed", "0", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["is_net"] is True
    assert 1 <= doc["stats"]["d"] <= 2


def test_verify_exit_codes(chain_file, capsys):
    assert main(["verify", str(chain_file), "--eps", "1/8",
                 "--points", "0"]) == 0
    capsys.readouterr()
    assert main(["verify", str(chain_file), "--eps", "1/8",
                 "--points", "7"]) == 1
    err = capsys.readouterr().err
    assert "violated" in err


def test_unknown_input_is_exit_2(tmp_path, capsys):
    assert main(["profile", str(tmp_path / "missing.json"),
                 "--eps", "1/4"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["profile", str(bad), "--eps", "1/4"]) == 2
    inst = tmp_path / "ok.json"
    inst.write_text(CORPUS["chain8"].dumps())
    # argparse rejects the unknown method itself, also with status 2
    with pytest.raises(SystemExit) as exc:
        main(["net", str(inst), "--method", "warp", "--eps", "1/4"])
    assert exc.value.code == 2
    assert main(["verify", str(inst), "--eps", "0", "--points", "0"]) == 2


def test_verify_on_float_point_instance_is_exit_2(tmp_path, capsys):
    inst = tmp_path / "float.json"
    inst.write_text(json.dumps({"n": 2, "weights": [1, 1], "ranges": [[0.0]]}))
    assert main(["verify", str(inst), "--eps", "1/4", "--points", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [[1, 2], "ranges"])
def test_instance_that_is_not_an_object_is_exit_2_saying_so(
    doc, tmp_path, capsys,
):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    assert main(["profile", str(inst), "--eps", "1/4"]) == 2
    err = capsys.readouterr().err
    assert f"error: instance must be an object, got {doc!r}" in err


def test_instance_with_an_unknown_key_is_exit_2_naming_it(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(
        {"n": 2, "weights": [1, 1], "ranges": [[0]], "extra": 1}))
    assert main(["verify", str(inst), "--eps", "1/4", "--points", "0"]) == 2
    assert "error: unknown instance keys: ['extra']" in capsys.readouterr().err


def test_deeply_nested_json_is_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    assert main(["verify", str(deep), "--eps", "1/4", "--points", "0"]) == 2
    assert main(["profile", str(deep), "--eps", "1/4"]) == 2
    assert main(["experiment", str(deep), "--out",
                 str(tmp_path / "rows.csv")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, opts", [
    ("profile", ["--eps", "1/4"]),
    ("pack", ["--delta", "1/4"]),
    ("experiment", ["--out", "rows.csv"]),
], ids=["profile", "pack", "experiment"])
def test_a_directory_in_place_of_a_file_is_exit_2(
    command, opts, tmp_path, capsys, monkeypatch,
):
    # Reading a directory raises IsADirectoryError, an OSError but not a
    # FileNotFoundError: the user's error, not a failed check.
    monkeypatch.chdir(tmp_path)
    assert main([command, str(tmp_path), *opts]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert not (tmp_path / "rows.csv").exists()


# sha256 of `epsnet profile <instance> --eps 1/8` stdout. It pins every
# value, witness, eps0 and member set of the profile, so a faster
# enumeration must leave the bytes unchanged.
PROFILE_SHA = {
    "disks14": (
        lambda: gen_geometric("disks", random_points(14, 2, seed=3),
                              name="disks14"),
        "fe6c2441176e8ef329af84eb9ad8dc594795329aaf2f3c18e895c37fb619b7ec",
    ),
    "intervals24": (
        lambda: gen_geometric("intervals", random_points(24, 1, seed=3),
                              name="intervals24"),
        "a0cbde171a475877bd538a39bdde0f0d7447c035f28949f58368067b1dfce538",
    ),
    "lb-k2d3l2m3": (
        lambda: gen_lower_bound_family(LowerBoundParams(k=2, d=3, l=2, m=3)),
        "3aadf0fff852be079bc4f4946c80426b77d78337078c9dfc69e9998d4dc4df37",
    ),
    "random-n20r300s1": (
        lambda: gen_random(20, 300, "uniform", "uniform", seed=1),
        "2b3b70100ddfb799613725185037d744174b45e9c4d798d6a352574930ca2bbd",
    ),
}


@pytest.mark.parametrize("key", sorted(PROFILE_SHA))
def test_profile_json_is_frozen(key, tmp_path, capsys):
    build, sha = PROFILE_SHA[key]
    inst = tmp_path / f"{key}.json"
    inst.write_text(build().dumps())
    assert main(["profile", str(inst), "--eps", "1/8"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_profile_negative_pi_max_y_is_exit_2(chain_file, capsys):
    assert main(["profile", str(chain_file), "--eps", "1/4",
                 "--pi-max-y", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pi-max-y" in captured.err


@pytest.mark.parametrize("eps", ["3/2", "0", "-1/4"])
def test_profile_eps_outside_unit_interval_is_exit_2_before_any_search(
    eps, chain_file, capsys, monkeypatch,
):
    calls = []
    monkeypatch.setattr(complexity, "vc_dimension",
                        lambda space: calls.append(space))
    assert main(["profile", str(chain_file), f"--eps={eps}"]) == 2
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    assert "eps must be in (0, 1]" in captured.err


@pytest.mark.parametrize("eps", ["3/2", "0", "-1/4"])
@pytest.mark.parametrize("method", list(experiment.METHODS))
def test_net_eps_outside_unit_interval_is_exit_2_before_any_work(
    method, eps, chain_file, capsys, monkeypatch,
):
    # No VC walk, heavy-range scan or draw may run on an eps every
    # builder rejects: at eps <= 0 every range counts as heavy.
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)
        return lambda *a, **k: calls.append(name) or real(*a, **k)

    for name in ("vc_dimension", "draw_points", "draw_mask", "hit_mask"):
        monkeypatch.setattr(nets, name, spy(nets, name))
    monkeypatch.setattr(RangeSpace, "ranges_at_least",
                        spy(RangeSpace, "ranges_at_least"))
    assert main(["net", str(chain_file), "--method", method,
                 f"--eps={eps}"]) == 2
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    assert "eps must be in (0, 1]" in captured.err


@pytest.mark.parametrize("C", ["1e308", "1e300"])
@pytest.mark.parametrize(
    "method", ["iid", "iid-capacity", "stratified", "doubling"]
)
def test_net_sample_size_past_sys_maxsize_is_exit_2(
    method, C, chain_file, capsys,
):
    # 1e308 sizes to an infinite float, 1e300 to a count past sys.maxsize.
    assert main(["net", str(chain_file), "--method", method,
                 "--eps", "1/8", "--C", C]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not a finite draw count" in captured.err


@pytest.mark.parametrize("args", [
    ["--method", "iid", "--eps", "1/2", "--delta", "1e-400"],
    ["--method", "iid", "--eps", "1e-400"],
    ["--method", "iid-capacity", "--eps", "1e-400"],
], ids=["iid-delta", "iid-eps", "iid-capacity-eps"])
def test_net_eps_or_delta_underflowing_a_float_is_exit_2_naming_it(
    args, chain_file, capsys, monkeypatch,
):
    # 1e-400 lies in (0, 1], but the i.i.d. sizing divides by its float,
    # 0.0: that is a usage error before any VC walk, capacity or draw.
    calls = []
    for name in ("vc_dimension", "alexander_capacity", "hit_mask"):
        real = getattr(nets, name)
        monkeypatch.setattr(
            nets, name,
            lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
    assert main(["net", str(chain_file), *args]) == 2
    captured = capsys.readouterr()
    assert calls == [] and captured.out == ""
    # delta is checked with the net command's settings, eps by the builder.
    name = "'delta'" if "--delta" in args else "eps"
    assert f"error: {name} is below the smallest positive float" in captured.err


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_pack_delta_underflowing_a_float_is_exit_2_naming_it(
    mode, chain_file, capsys, monkeypatch,
):
    # 1e-400 lies in (0, 1], but the packing bound divides by its float,
    # 0.0: that is a usage error before any packing or clique search.
    def no_search(*args, **kwargs):
        raise AssertionError("a packing search ran")

    for name in ("FarGraph", "max_clique"):
        monkeypatch.setattr(packing, name, no_search)
    assert main(["pack", str(chain_file), "--delta", "1e-400",
                 "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: delta is below the smallest positive float" in captured.err


def test_pack_subcommand(chain_file, capsys):
    assert main(["pack", str(chain_file), "--delta", "1/4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["packing_bound"]["ok"] is True


def test_pack_falls_back_to_greedy_when_clique_budget_runs_out(
    chain_file, capsys, monkeypatch,
):
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 1)
    assert main(["pack", str(chain_file), "--delta", "1/4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "exact" and doc["exact"] is False
    assert doc["size"] == len(doc["members"]) >= 1


def test_pack_exact_over_400_ranges_is_exact_with_exit_0(tmp_path, capsys):
    # 401 distinct subsets of 9 points: no range count limits the exact
    # packing, and its clique search proves a maximum of 6 within budget.
    ranges = [[x for x in range(9) if s >> x & 1] for s in range(1, 402)]
    path = tmp_path / "wide.json"
    path.write_text(
        json.dumps({"n": 9, "weights": [1] * 9, "ranges": ranges}) + "\n")
    assert main(["pack", str(path), "--delta", "1/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "exact" and doc["exact"] is True
    assert doc["size"] == len(doc["members"]) == 6


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_pack_on_40_points(mode, intervals40, capsys):
    assert main(["pack", str(intervals40), "--delta", "1/4",
                 "--mode", mode]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["packing_bound"]["ok"] is True
    assert set(doc) == {"delta", "mode", "members", "size", "exact",
                        "packing_bound"}
    assert set(doc["packing_bound"]) == {"d", "bound", "ok"}


def test_pack_certifies_with_the_upper_end_of_a_tripped_vc_walk(
    intervals40, capsys, monkeypatch,
):
    # The walk over the packing's members runs out of nodes and answers a
    # bracket; the certificates take its upper end, and pack exits 0.
    monkeypatch.setattr(complexity, "WALK_NODES", 3)
    assert main(["pack", str(intervals40), "--delta", "1/4",
                 "--mode", "greedy"]) == 0
    doc = json.loads(capsys.readouterr().out)
    sp = RangeSpace.loads(intervals40.read_text())
    walk = complexity.vc_of_masks([sp.ranges[i] for i in doc["members"]], sp.n)
    assert not walk.exact
    assert doc["packing_bound"]["d"] == walk.upper
    assert doc["packing_bound"]["ok"] is True


def test_pack_greedy_certifies_its_own_packing_without_a_clique_search(
    intervals40, capsys, monkeypatch,
):
    def no_search(*args, **kwargs):
        raise AssertionError("a clique search ran")

    monkeypatch.setattr(packing, "max_clique", no_search)
    monkeypatch.setattr(packing, "FarGraph", no_search)
    assert main(["pack", str(intervals40), "--delta", "1/4",
                 "--mode", "greedy"]) == 0
    doc = json.loads(capsys.readouterr().out)
    sp = RangeSpace.loads(intervals40.read_text())
    assert doc["members"] == list(
        packing.greedy_packing(sp, Fraction(1, 4)).members)
    assert doc["exact"] is False and doc["size"] == len(doc["members"])
    masks = [sp.ranges[i] for i in doc["members"]]
    assert doc["packing_bound"]["d"] == complexity.vc_of_masks(masks, sp.n).value


def test_oig_on_a_30_point_sample(intervals40, capsys):
    assert main(["oig", str(intervals40), "--sample-size", "30"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_out_degree"] <= doc["d"]


def test_oig_subcommand(chain_file, capsys):
    rc = main(["oig", str(chain_file), "--sample", "0,3,7", "--d", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"]
    assert doc["max_out_degree"] <= 1


def test_oig_d_below_the_sample_dimension_is_a_usage_error(chain_file, capsys):
    rc = main(["oig", str(chain_file), "--sample", "0,3,7", "--d", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "below the sample's dimension" in err
    assert "Traceback" not in err


# On chain8's points 0..5 the six vertices are prefix masks joined by five
# edges, of dimension 1. A VC walk of one node trips with the bracket
# [0, 2], and one of two nodes finds a shattered point first: [1, 2].
OIG_SAMPLE = ["--sample", "0,1,2,3,4,5"]


@pytest.mark.parametrize("d", [[], ["--d", "3"]])
def test_oig_past_the_vc_budget_orients_at_the_upper_end_or_above(
    chain_file, capsys, monkeypatch, d,
):
    monkeypatch.setattr(complexity, "WALK_NODES", 1)
    assert main(["oig", str(chain_file), *OIG_SAMPLE, *d]) == 0
    doc = json.loads(capsys.readouterr().out)
    # Without --d, the walk's upper end.
    assert doc["d"] == (int(d[1]) if d else 2)
    assert doc["max_out_degree"] <= doc["d"]


def test_oig_d_below_a_tripped_bracket_is_a_usage_error(
    chain_file, capsys, monkeypatch,
):
    monkeypatch.setattr(complexity, "WALK_NODES", 2)
    assert main(["oig", str(chain_file), *OIG_SAMPLE, "--d", "0"]) == 2
    err = capsys.readouterr().err
    assert "below the sample's dimension in [1, 2]" in err
    assert "Traceback" not in err


def test_oig_d_in_a_tripped_bracket_failing_density_is_a_usage_error(
    chain_file, capsys, monkeypatch,
):
    # d = 0 is in [0, 2], but five edges on six vertices fail the density
    # bound at 0, which proves the dimension is above it: exit 2, not the
    # exit 1 of a failed theorem check.
    monkeypatch.setattr(complexity, "WALK_NODES", 1)
    assert main(["oig", str(chain_file), *OIG_SAMPLE, "--d", "0"]) == 2
    err = capsys.readouterr().err
    assert "below the sample's dimension in [0, 2]" in err
    assert "check failed" not in err and "Traceback" not in err


def test_oig_d_in_a_tripped_bracket_failing_orientation_is_a_usage_error(
    tmp_path, capsys, monkeypatch,
):
    # The traces on points 0..6 are a 3-cube (point 7 gives its empty
    # vertex) and seven vertices at distance >= 2 from every other: 12
    # edges on 15 vertices pass the density bound at d = 1, but the cube
    # has no orientation of out-degree 1, so d = 1 in the bracket [0, 3]
    # is below the dimension, 3.
    cube = [[p for p in range(3) if b >> p & 1] or [7] for b in range(8)]
    far = [[3, 4], [3, 5], [3, 6], [4, 5], [4, 6], [5, 6], [3, 4, 5, 6]]
    path = tmp_path / "cube.json"
    path.write_text(build_range_space(8, [1] * 8, cube + far).dumps())
    monkeypatch.setattr(complexity, "WALK_NODES", 1)
    rc = main(["oig", str(path), "--sample", "0,1,2,3,4,5,6", "--d", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "below the sample's dimension in [0, 3]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("check, error", [
    ("density_check", TheoremViolationError),
    ("orient_bounded", oneinclusion.OrientationInfeasibleError),
])
def test_oig_check_failing_at_the_dimension_is_exit_1(
    check, error, tmp_path, capsys, monkeypatch,
):
    # Both checks hold at every d >= the dimension, so a failure at the
    # walk's own d is a theorem violation, reported, not a traceback.
    path = tmp_path / "intervals8w.json"
    path.write_text(CORPUS["intervals8w"].dumps())

    def fail(*a, **k):
        raise error("forced failure")

    monkeypatch.setattr(cli, check, fail)
    assert main(["oig", str(path), "--sample", "0,1,2,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "check failed: forced failure" in captured.err


@pytest.mark.parametrize("sample", [
    ["--sample-size", "0"], ["--sample-size", "-2"], ["--sample", ","],
])
def test_oig_empty_sample_is_exit_2(sample, chain_file, capsys):
    assert main(["oig", str(chain_file), *sample]) == 2
    err = capsys.readouterr().err
    assert "sample is empty" in err and "Traceback" not in err


def test_net_negative_d_is_exit_2(chain_file, capsys):
    rc = main(["net", str(chain_file), "--method", "iid", "--eps", "1/4",
               "--d", "-3"])
    assert rc == 2
    assert "--d must be >= 0" in capsys.readouterr().err
    assert main(["net", str(chain_file), "--method", "iid", "--eps", "1/4",
                 "--d", "0"]) in (0, 1)


def test_experiment_end_to_end_and_determinism(tmp_path):
    inst = tmp_path / "chain8.json"
    inst.write_text(CORPUS["chain8"].dumps())
    config = {
        "instances": ["chain8.json"],
        "eps": ["1/4", "1/8"],
        "methods": ["greedy", "stratified", "cal"],
        "seeds": [0, 1],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    summ = tmp_path / "summary.json"
    assert main(["experiment", str(cfg), "--out", str(out1),
                 "--summary", str(summ)]) == 0
    assert main(["experiment", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3 * 2  # header + eps*methods*seeds
    header = lines[0].split(",")
    assert header[0] == "instance" and "wall_ms" in header
    doc = json.loads(summ.read_text())
    assert doc["schema"] == 1
    assert doc["rows"] == 12
    assert doc["methods"]["greedy"]["success_rate"] == 1.0


def test_experiment_config_validation(tmp_path):
    from epsnet.core import InstanceError

    with pytest.raises(InstanceError):
        ExperimentConfig.from_dict({"instances": [], "eps": ["1/4"],
                                    "methods": ["greedy"]})
    with pytest.raises(InstanceError):
        ExperimentConfig.from_dict({"instances": [], "eps": ["1/4"],
                                    "methods": ["warp"], "seeds": [0]})
    for doc in (None, 5, ["instances"]):
        with pytest.raises(InstanceError):
            ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("eps", [["1/4", "3"], ["0"], ["-1/8"]])
def test_experiment_config_rejects_eps_outside_unit_interval(eps):
    from epsnet.core import InstanceError

    with pytest.raises(InstanceError, match="'eps' must be in"):
        ExperimentConfig.from_dict({"instances": [], "eps": eps,
                                    "methods": ["greedy"], "seeds": [0]})


@pytest.mark.parametrize("settings", [
    {"C": 0.0}, {"C": float("inf")}, {"C": -1.0},
    {"delta": Fraction(0)}, {"delta": Fraction(3, 2)}, {"delta": float("inf")},
])
def test_experiment_config_range_errors_are_the_builders_errors(settings):
    # The config applies the builders' own C and (0, 1] checks, so both
    # reject the same settings with the same words.
    from epsnet.core import InstanceError, _unit_eps

    (key, value), = settings.items()
    with pytest.raises(ValueError) as builder:
        nets._check_C(value) if key == "C" else _unit_eps(value, "'delta'")
    with pytest.raises(InstanceError) as config:
        ExperimentConfig(**settings)
    assert str(config.value) == str(builder.value)


@pytest.mark.parametrize("setting", [
    {"eps": ["1/4", "1e-400"]}, {"delta": "1e-400"},
], ids=["eps", "delta"])
def test_experiment_eps_or_delta_underflowing_a_float_is_exit_2_naming_it(
    setting, chain_file, tmp_path, capsys,
):
    # Every row's size-bound columns divide by eps as a float, and the
    # i.i.d. rows by delta: a value whose float is 0.0 is rejected with
    # the config's other range checks, before any row.
    doc = {"instances": [chain_file.name], "eps": ["1/4"],
           "methods": ["greedy"], "seeds": [0], **setting}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    assert main(["experiment", str(cfg), "--out", str(out)]) == 2
    (key,) = setting
    assert (f"error: '{key}' is below the smallest positive float"
            in capsys.readouterr().err)
    assert not out.exists()


# Each case was silently coerced (or crashed with a traceback) before
# config fields were type-checked.
MALFORMED_CONFIG = {
    "eps-string": {"eps": "11"},
    "seeds-float-bool": {"seeds": [1.9, True]},
    "seeds-string": {"seeds": "01"},
    "cal-budget-float": {"cal_budget": 2.7},
    "cal-budget-zero": {"cal_budget": 0},
    "C-negative": {"C": -1},
    "C-zero": {"C": 0},
    "C-infinite": {"C": float("inf")},
    "delta-over-one": {"delta": "3/2"},
    "delta-zero": {"delta": "0"},
    "oracle-cap-string": {"oracle_cap": "2000"},  # a removed key
    "C-string": {"C": "8"},
    "unknown-key": {"cal-budget": 3},
    "method-list": {"methods": [["greedy"]]},
    "instance-number": {"instances": [5]},
    "instance-path-number": {"instances": [{"path": 5}]},
    "instance-path-and-inline": {"instances": [{"path": 3, "inline": {
        "n": 2, "weights": [1, 1], "ranges": [[0]]}}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIG))
def test_malformed_config_is_exit_2(case, chain_file, tmp_path, capsys):
    doc = {"instances": [chain_file.name], "eps": ["1/4"],
           "methods": ["greedy"], "seeds": [0], **MALFORMED_CONFIG[case]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    assert main(["experiment", str(cfg), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_inline_instance_and_error_rows(tmp_path):
    doc = CORPUS["sparse-singles8"].to_dict()
    config = ExperimentConfig.from_dict({
        "instances": [{"inline": doc}],
        "eps": ["1/8"],
        "methods": ["cal"],
        "seeds": [0],
        "cal_budget": 1,
    })
    rows, summary = run_experiment(config)
    assert rows[0]["is_net"] == "false"
    assert summary["methods"]["cal"]["success_rate"] == 0.0


def test_experiment_rows_keep_their_own_profile_under_a_shared_name():
    singles = {"name": "x", "n": 3, "weights": [1, 1, 1],
               "ranges": [[0], [1], [2]]}
    block = {"name": "x", "n": 4, "weights": [1, 1, 1, 1],
             "ranges": [[0, 1, 2, 3]]}
    config = ExperimentConfig.from_dict({
        "instances": [{"inline": singles}, {"inline": block}],
        "eps": ["1/4"],
        "methods": ["greedy"],
        "seeds": [0],
    })
    rows, _ = run_experiment(config)
    assert [(r["d"], r["min_net"], r["size"]) for r in rows] == [
        ("1", "3", "3"), ("0", "1", "1")]


def _count_calls(monkeypatch, module, name) -> list:
    """Count calls of module.name by rebinding it in every epsnet module
    that binds it, as bench/tracer.py does; returns the list of calls."""
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] == "epsnet":
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_experiment_computes_seed_free_work_once_per_cell(monkeypatch):
    eps_grid = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    config = ExperimentConfig.from_dict({
        "instances": [{"inline": sp.to_dict()} for sp in CORPUS.values()],
        "eps": [str(e) for e in eps_grid],
        "methods": list(experiment.METHODS),
        "seeds": [0, 1, 2],
    })
    cells = len(CORPUS) * len(eps_grid)
    # The small-D builder decomposes its tail subfamily, once per cell.
    tails = sum(
        "scale" in nets.doubling_net_small_d(sp, eps).stats.get("tail", {})
        for sp in CORPUS.values() for eps in eps_grid
    )
    assert tails > 0
    decs = _count_calls(monkeypatch, nets, "build_decomposition")
    greedy = _count_calls(monkeypatch, nets, "greedy_net")
    exact = _count_calls(monkeypatch, nets, "min_net_exact")
    rows, _ = run_experiment(config)
    assert len(rows) == cells * len(experiment.METHODS) * 3
    assert len(decs) == cells + tails
    assert len(greedy) == len(exact) == cells


def test_experiment_fallback_rows_reuse_the_doubling_draws(monkeypatch):
    # Outside the small-D regime doubling-small falls back to doubling_net
    # on the same stream, seed, C, D and d, so on the cell's shared
    # decomposition it reads the doubling row's report: no draw again.
    config = ExperimentConfig.from_dict({
        "instances": [{"inline": sp.to_dict()} for sp in CORPUS.values()],
        "eps": ["1/4", "1/8", "1/16"],
        "methods": ["doubling", "doubling-small"],
        "seeds": [0, 1, 2],
    })
    scale_nets = nets._scale_nets
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return scale_nets(*args, **kwargs)

    small_d = experiment.doubling_net_small_d
    fallbacks = []

    def watched(space, eps, C, seed, **kwargs):
        before = len(calls)
        rep = small_d(space, eps, C, seed, **kwargs)
        if rep.stats.get("fallback"):
            fallbacks.append(((space.name, str(eps), str(seed)), len(calls) - before))
        return rep

    monkeypatch.setattr(nets, "_scale_nets", counted)
    monkeypatch.setattr(experiment, "doubling_net_small_d", watched)
    rows, _ = run_experiment(config)
    assert fallbacks
    assert [n for _, n in fallbacks] == [0] * len(fallbacks)
    by_cell = {(r["instance"], r["eps"], r["seed"], r["method"]): r for r in rows}
    for cell, _ in fallbacks:
        small, plain = by_cell[(*cell, "doubling-small")], by_cell[(*cell, "doubling")]
        for column in ("size", "is_net", "draws"):
            assert small[column] == plain[column], (cell, column)


def test_experiment_timings_fill_every_row():
    config = ExperimentConfig.from_dict({
        "instances": [{"inline": CORPUS["intervals8w"].to_dict()}],
        "eps": ["1/4", "1/8"],
        "methods": ["stratified", "doubling-small", "greedy", "exact"],
        "seeds": [0, 1, 2],
    })
    rows, _ = run_experiment(config, timings=True)
    assert len(rows) == 2 * 4 * 3
    for row in rows:
        assert row["wall_ms"].isdigit(), row
    # A copied seed-free row keeps the time of the call that made it.
    for i in range(0, len(rows), 3):
        if rows[i]["method"] in ("greedy", "exact"):
            assert len({r["wall_ms"] for r in rows[i:i + 3]}) == 1


def test_experiment_row_with_a_bracketed_doubling_constant(monkeypatch):
    # A one-node clique budget leaves D at 1/8 a bracket on singles8; the
    # row prints its upper end as a float, and the doubling builders,
    # sized by that end, still return nets.
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 1)
    config = ExperimentConfig.from_dict({
        "instances": [{"inline": CORPUS["singles8"].to_dict()}],
        "eps": ["1/8"],
        "methods": ["doubling", "doubling-small"],
        "seeds": [0],
    })
    rows, _ = run_experiment(config)
    assert [r["method"] for r in rows] == ["doubling", "doubling-small"]
    for row in rows:
        assert row["D_mode"] == "bracket"
        assert row["D_value"] == "8.000000"
        assert row["is_net"] == "true"


def test_experiment_row_with_a_tripped_minimum_net(monkeypatch):
    # With no node to spend, the search on random10a at 1/8 (8 masks left
    # by the reductions) answers its greedy incumbent: the exact rows carry
    # that net, and min_net, the column of proven minima, stays empty.
    monkeypatch.setattr(nets, "EXACT_NET_NODES", 0)
    config = ExperimentConfig.from_dict({
        "instances": [{"inline": CORPUS["random10a"].to_dict()}],
        "eps": ["1/8"],
        "methods": ["greedy", "exact"],
        "seeds": [0, 1],
    })
    rows, summary = run_experiment(config)
    assert [r["method"] for r in rows] == ["greedy"] * 2 + ["exact"] * 2
    assert {r["min_net"] for r in rows} == {""}
    for row in rows[2:]:
        assert (row["size"], row["is_net"]) == ("3", "true")
    assert summary["methods"]["exact"]["errors"] == 0


def test_net_exact_after_a_trip_prints_its_incumbent_and_lower_end(
    tmp_path, monkeypatch, capsys,
):
    monkeypatch.setattr(nets, "EXACT_NET_NODES", 0)
    inst = tmp_path / "random10a.json"
    inst.write_text(CORPUS["random10a"].dumps())
    assert main(["net", str(inst), "--method", "exact", "--eps", "1/8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_net"] is True and doc["points"] == [1, 3, 4]
    assert doc["stats"]["lower"] == 2


def test_experiment_theorem_violation_is_loud(tmp_path, monkeypatch, capsys):
    def violate(*args):
        raise TheoremViolationError("forged")

    monkeypatch.setitem(experiment.METHODS, "greedy",
                        experiment.Method(violate))
    inst = tmp_path / "chain8.json"
    inst.write_text(CORPUS["chain8"].dumps())
    config = {"instances": ["chain8.json"], "eps": ["1/4"],
              "methods": ["greedy", "cal"], "seeds": [0, 1]}
    rows, summary = run_experiment(
        ExperimentConfig.from_dict(config, base_dir=tmp_path))
    assert [r["is_net"] for r in rows] == [
        "error:TheoremViolationError"] * 2 + ["true"] * 2
    assert summary["theorem_violations"] == 2
    assert summary["methods"]["greedy"]["errors"] == 2
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "rows.csv"
    assert main(["experiment", str(cfg), "--out", str(out)]) == 1
    assert "TheoremViolationError" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 1 + 4


def test_tau_vector_hash_stable():
    h = tau_vector_hash([Fraction(1), Fraction(3, 2)])
    assert h == tau_vector_hash([Fraction(1), Fraction(3, 2)])
    assert len(h) == 12
    assert h != tau_vector_hash([Fraction(1), Fraction(2)])


def test_write_csv_and_summary_trailing_format(tmp_path):
    inst = CORPUS["chain8"]
    config = ExperimentConfig.from_dict({
        "instances": [{"inline": inst.to_dict()}],
        "eps": ["1/4"],
        "methods": ["greedy"],
        "seeds": [0],
    })
    rows, summary = run_experiment(config)
    csv_path = tmp_path / "rows.csv"
    write_csv(rows, csv_path)
    text = csv_path.read_text()
    assert text.endswith("\n") and "\r" not in text
    sm_path = tmp_path / "summary.json"
    write_summary(summary, sm_path)
    assert sm_path.read_text().endswith("\n")


@pytest.mark.parametrize("change, key", [
    (lambda row: row.pop("tau"), "'tau'"),
    (lambda row: row.update(note="x"), "'note'"),
    (lambda row: (row.pop("tau"), row.update(note="x")), "'tau'"),
], ids=["missing", "extra", "missing-and-extra"])
def test_write_csv_names_a_key_off_the_columns(tmp_path, change, key):
    config = ExperimentConfig.from_dict({
        "instances": [{"inline": CORPUS["chain8"].to_dict()}],
        "eps": ["1/4"],
        "methods": ["greedy"],
        "seeds": [0],
    })
    rows, _ = run_experiment(config)
    change(rows[0])
    with pytest.raises(ValueError, match=key):
        write_csv(rows, tmp_path / "rows.csv")
