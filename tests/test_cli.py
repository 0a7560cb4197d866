"""Command-line interface: subcommand behavior, exit codes, determinism."""

import hashlib
import json
from fractions import Fraction

import pytest

from epsnet import complexity, experiment, packing
from epsnet.cli import main
from epsnet.core import RangeSpace, TheoremViolationError
from epsnet.generators import (
    LowerBoundParams,
    gen_geometric,
    gen_lower_bound_family,
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
    # sampled lower bound instead of erroring, and still verify exactly.
    monkeypatch.setattr(complexity, "VC_NODES", 1)
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


def test_deeply_nested_json_is_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    assert main(["verify", str(deep), "--eps", "1/4", "--points", "0"]) == 2
    assert main(["profile", str(deep), "--eps", "1/4"]) == 2
    assert main(["experiment", str(deep), "--out",
                 str(tmp_path / "rows.csv")]) == 2
    assert "error:" in capsys.readouterr().err


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
        "a8d05931fddcebee36449e3661a6636f9851d17070795bcccb1baf32b37bb5d9",
    ),
    "lb-k2d3l2m3": (
        lambda: gen_lower_bound_family(LowerBoundParams(k=2, d=3, l=2, m=3)),
        "b1f4bd07f3e9cdc30d64fac1527e0aec4f9e67f82dcb356e48fe516fb1a42af8",
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


def test_pack_exact_over_range_cap_is_greedy_with_exit_0(tmp_path, capsys):
    # 401 distinct subsets of 9 points: one more than the exact packing's
    # range cap, so the exact mode reports the certificate's greedy packing.
    ranges = [[x for x in range(9) if s >> x & 1] for s in range(1, 402)]
    path = tmp_path / "wide.json"
    path.write_text(
        json.dumps({"n": 9, "weights": [1] * 9, "ranges": ranges}) + "\n")
    assert main(["pack", str(path), "--delta", "1/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "exact" and doc["exact"] is False
    assert doc["size"] == doc["packing_bound"]["max_packing"] >= 1


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_pack_on_40_points(mode, intervals40, capsys):
    assert main(["pack", str(intervals40), "--delta", "1/4",
                 "--mode", mode]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["packing_bound"]["ok"] is True


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
