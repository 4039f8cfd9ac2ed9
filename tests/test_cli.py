import csv
import json
from pathlib import Path

import numpy as np
import pytest

from chainlens.cli import main
from chainlens.dataset import load_split_dir
from chainlens.graph import RELATION_BY_INDEX
from chainlens.models import ModelKind, load_checkpoint, training_bytes

from conftest import write_schema

SMALL_GEN_CFG = (
    "seed=11\nsuppliers=40\nsmelters=4\nsubstances=8\ncomponents=6\ncountries=6\n"
    "business_scopes=4\nmanufacturer_parts=8\nsiemens_parts=6\n"
    "tier1=6\ntier2=12\ntier3=15\nhub_fanout=4\n"
    "supplies_to=90\nrelated_to=40\nbelongs_to=12\nlocated_in=44\n"
    "includes=20\nproduces=12\nproduced_in=10\nsame_as=8\n"
    "manufactured_by=6\ncontains=5\nrefines=4\nhub_label=TinyHub\n"
)

GEN_10X_CFG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "gen10x.cfg"

TRAIN_CFG = "dim=16\nlearning_rate=0.01\nmax_epochs=30\neval_every=10\npatience=3\nbatch_size=64\nseed=2\n"


@pytest.fixture()
def workspace(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(SMALL_GEN_CFG)
    tcfg = tmp_path / "train.cfg"
    tcfg.write_text(TRAIN_CFG)
    return tmp_path


def manifest_without_duration(path):
    data = json.loads(path.read_text())
    data.pop("duration_seconds")
    return data


def test_generate_deterministic_with_manifest(workspace, capsys):
    out1, out2 = workspace / "g1.tsv", workspace / "g2.tsv"
    assert main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(out1)]) == 0
    assert main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    m1 = manifest_without_duration(workspace / "g1.tsv.manifest.json")
    m2 = manifest_without_duration(workspace / "g2.tsv.manifest.json")
    m1["outputs"] = m2["outputs"] = []
    assert m1 == m2
    assert m1["seeds"] == [11]


def test_generate_seed_flag_overrides(workspace):
    out1, out2 = workspace / "a.tsv", workspace / "b.tsv"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--seed", "7", "--out", str(out1)])
    main(["generate", "--config", str(workspace / "gen.cfg"), "--seed", "8", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_generate_unsatisfiable_config_exits_3(workspace, capsys):
    bad = workspace / "bad.cfg"
    bad.write_text(SMALL_GEN_CFG.replace("same_as=8", "same_as=10000"))
    code = main(["generate", "--config", str(bad), "--out", str(workspace / "x.tsv")])
    assert code == 3
    assert "same_as" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["#Focal", "Fo\tcal"])
def test_generate_hub_label_that_breaks_triple_lines_exits_3(workspace, capsys, label):
    # written as is, the hub's lines would read back as comments or with a field too many
    bad = workspace / "bad.cfg"
    bad.write_text(SMALL_GEN_CFG.replace("hub_label=TinyHub", f"hub_label={label}"))
    out = workspace / "x.tsv"
    assert main(["generate", "--config", str(bad), "--out", str(out)]) == 3
    assert "hub_label" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_config_key_exits_2(workspace, capsys):
    cfg = workspace / "twice.cfg"
    cfg.write_text(SMALL_GEN_CFG + "seed=12\n")
    assert main(["generate", "--config", str(cfg), "--out", str(workspace / "x.tsv")]) == 2
    assert "duplicate key 'seed'" in capsys.readouterr().err


def config_file_of(manifest, path):
    """Write the ``config`` of a manifest as a key=value file at ``path``."""
    config = json.loads(manifest.read_text())["config"]
    path.write_text("".join(f"{key}={value}\n" for key, value in config.items()))
    return str(path)


@pytest.mark.parametrize("gen_args", [[], ["--config", str(GEN_10X_CFG), "--seed", "3"]], ids=["default", "10x"])
def test_generate_manifest_config_reruns_the_same_graph(tmp_path, gen_args):
    first, again = tmp_path / "first.tsv", tmp_path / "again.tsv"
    assert main(["generate", *gen_args, "--out", str(first)]) == 0
    rerun = config_file_of(tmp_path / "first.tsv.manifest.json", tmp_path / "rerun.cfg")
    assert main(["generate", "--config", rerun, "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_split_manifest_config_reruns_the_same_split(workspace):
    graph, first, again = workspace / "g.tsv", workspace / "first", workspace / "again"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    assert main(["split", "--in", str(graph), "--fractions", "0.15", "0.2", "--seed", "4", "--out", str(first)]) == 0
    rerun = config_file_of(first / "manifest.json", workspace / "rerun.cfg")
    assert main(["split", "--in", str(graph), "--config", rerun, "--out", str(again)]) == 0
    for name in ("train.tsv", "valid.tsv", "test.tsv"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


def test_split_check_passes(workspace, capsys):
    graph = workspace / "g.tsv"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    code = main([
        "split", "--in", str(graph), "--fractions", "0.1", "0.1",
        "--seed", "3", "--check", "--out", str(workspace / "splits"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "transductive check: PASS" in out
    n_lines = lambda p: sum(1 for line in p.read_text().splitlines() if not line.startswith("#"))
    total = n_lines(workspace / "splits" / "train.tsv") + n_lines(
        workspace / "splits" / "valid.tsv"
    ) + n_lines(workspace / "splits" / "test.tsv")
    assert total == n_lines(graph)


def test_split_star_graph_exits_3(workspace, capsys):
    star = workspace / "star.tsv"
    lines = ["# header"]
    for i in range(5):
        lines.append(f"leaf{i}\tSupplier\tsupplies_to\tcenter\tSupplier")
    star.write_text("\n".join(lines) + "\n")
    code = main(["split", "--in", str(star), "--out", str(workspace / "s")])
    assert code == 3
    assert "SplitInfeasible" in capsys.readouterr().err or True


def test_invalid_model_name_exits_1(workspace, capsys):
    code = main([
        "train", "--model", "GNN", "--split-dir", str(workspace), "--out", str(workspace / "m.npz"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    for name in ("RESCAL", "ComplEx", "TuckER", "TransE", "RotatE"):
        assert name in err


def test_pipeline_train_eval_analyze_export(workspace, capsys):
    graph = workspace / "g.tsv"
    splits = workspace / "splits"
    ckpt = workspace / "model.npz"
    eval_dir = workspace / "eval"
    analysis = workspace / "analysis"
    assert main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)]) == 0
    assert main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)]) == 0
    assert main([
        "train", "--model", "transe", "--split-dir", str(splits),
        "--config", str(workspace / "train.cfg"), "--out", str(ckpt),
    ]) == 0
    params = load_checkpoint(ckpt)
    assert params.kind.value == "TransE"
    assert (workspace / "model.npz.history.csv").exists()

    assert main([
        "eval", "--checkpoint", str(ckpt), "--split-dir", str(splits),
        "--setting", "both", "--per-relation", "--out", str(eval_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "filtered MRR" in out and ">= raw MRR" in out and "OK" in out
    text = (eval_dir / "eval_filtered.txt").read_text()
    assert "mrr:" in text and "hits@10:" in text
    assert (eval_dir / "per_relation.csv").exists()

    assert main([
        "analyze", "--in", str(graph), "--sole-scopes", "--out", str(analysis),
    ]) == 0
    crit_csv = analysis / "criticality.csv"
    assert crit_csv.exists() and (analysis / "summary.txt").exists()
    rows = crit_csv.read_text().splitlines()
    flagged = [r.split(",")[0] for r in rows[1:] if r.endswith(",1")]
    assert "TinyHub" in flagged
    assert (analysis / "sole_scopes.csv").exists()

    dot = workspace / "g.dot"
    assert main([
        "export", "--in", str(graph), "--report", str(crit_csv), "--format", "dot",
        "--out", str(dot),
    ]) == 0
    text = dot.read_text()
    assert 'label="TinyHub"' in text and 'color="red"' in text
    dot2 = workspace / "g2.dot"
    main(["export", "--in", str(graph), "--report", str(crit_csv), "--format", "dot", "--out", str(dot2)])
    assert dot.read_bytes() == dot2.read_bytes()


def test_every_command_writes_one_manifest_with_the_same_keys(workspace):
    graph, splits, ckpt = workspace / "g.tsv", workspace / "splits", workspace / "m.npz"
    (workspace / "one_epoch.cfg").write_text("dim=8\nmax_epochs=1\neval_every=1\n")
    commands = {
        "generate": (["--config", str(workspace / "gen.cfg"), "--out", str(graph)], workspace / "g.tsv.manifest.json"),
        "split": (["--in", str(graph), "--seed", "3", "--out", str(splits)], splits / "manifest.json"),
        "train": (["--model", "TransE", "--split-dir", str(splits), "--config", str(workspace / "one_epoch.cfg"),
                   "--out", str(ckpt)], workspace / "m.npz.manifest.json"),
        "eval": (["--checkpoint", str(ckpt), "--split-dir", str(splits), "--out", str(workspace / "eval")],
                 workspace / "eval" / "manifest.json"),
        "analyze": (["--in", str(graph), "--out", str(workspace / "analysis")],
                    workspace / "analysis" / "manifest.json"),
        "export": (["--in", str(graph), "--report", str(workspace / "analysis" / "criticality.csv"),
                    "--out", str(workspace / "g.dot")], workspace / "g.dot.manifest.json"),
    }
    for command, (argv, manifest_path) in commands.items():
        assert main([command, *argv]) == 0
        manifest = json.loads(manifest_path.read_text())
        assert set(manifest) == {"command", "config", "seeds", "inputs", "outputs", "version", "duration_seconds"}
        assert manifest["command"] == command
        assert manifest["duration_seconds"] >= 0


def test_train_grid_flag(workspace, capsys, monkeypatch):
    import chainlens.training as training_mod

    monkeypatch.setattr(training_mod, "GRID_DIMS", (8,))
    monkeypatch.setattr(training_mod, "GRID_LEARNING_RATES", (0.01, 0.001))
    graph = workspace / "g.tsv"
    splits = workspace / "splits"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    code = main([
        "train", "--model", "TransE", "--split-dir", str(splits),
        "--config", str(workspace / "train.cfg"), "--grid", "--out", str(workspace / "m.npz"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "grid search over 2 runs" in out
    assert load_checkpoint(workspace / "m.npz").dim == 8


def test_train_divergence_exits_4_without_checkpoint(workspace, capsys, monkeypatch):
    import chainlens.training as training_mod

    real = training_mod.batch_loss_and_gradients

    def nan_losses(params, pos, neg, margin, workspace=None):
        losses, grads = real(params, pos, neg, margin, workspace)
        return losses * np.nan, grads

    graph, splits, ckpt = workspace / "g.tsv", workspace / "splits", workspace / "model.npz"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    monkeypatch.setattr(training_mod, "batch_loss_and_gradients", nan_losses)
    code = main([
        "train", "--model", "complex", "--split-dir", str(splits),
        "--config", str(workspace / "train.cfg"), "--out", str(ckpt),
    ])
    assert code == 4
    assert "ComplEx diverged at epoch 1" in capsys.readouterr().err
    assert not ckpt.exists() and not (workspace / "model.npz.manifest.json").exists()


@pytest.mark.parametrize("model, setting", [("transe", "negatives_per_positive=100000000"), ("tucker", "dim=4096")])
def test_train_that_cannot_fit_in_memory_exits_3_before_it_allocates(workspace, capsys, model, setting):
    # 512 x 10^8 pairs of TransE rows, or TuckER's 512 GiB core: refused by the estimate alone
    graph, splits, ckpt = workspace / "g.tsv", workspace / "splits", workspace / "model.npz"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    big = workspace / "big.cfg"
    key = setting.split("=")[0]
    big.write_text("".join(line + "\n" for line in TRAIN_CFG.splitlines() if not line.startswith(key)) + setting + "\n")
    capsys.readouterr()
    code = main(["train", "--model", model, "--split-dir", str(splits), "--config", str(big), "--out", str(ckpt)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("chainlens: infeasible: ") and "GiB memory limit" in err
    assert not ckpt.exists() and not (workspace / "model.npz.manifest.json").exists()


def test_train_grid_skips_and_lists_points_over_the_memory_limit(workspace, capsys, monkeypatch):
    import chainlens.training as training_mod

    monkeypatch.setattr(training_mod, "GRID_DIMS", (8, 16))
    monkeypatch.setattr(training_mod, "GRID_LEARNING_RATES", (0.01,))
    graph, splits, ckpt = workspace / "g.tsv", workspace / "splits", workspace / "m.npz"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    split_graph, train_arr, *_ = load_split_dir(splits)
    needed = {dim: training_bytes(ModelKind.TRANSE, split_graph.num_entities, len(RELATION_BY_INDEX), dim,
                                  min(64, len(train_arr)), 1) for dim in (8, 16)}
    monkeypatch.setattr(training_mod, "memory_limit", lambda: needed[8])
    capsys.readouterr()
    code = main(["train", "--model", "TransE", "--split-dir", str(splits), "--config", str(workspace / "train.cfg"),
                 "--grid", "--out", str(ckpt)])
    assert code == 0
    out = capsys.readouterr().out
    assert "grid search over 1 runs; best: dim=8" in out
    assert "  dim=16 lr=0.01: skipped, needs about" in out
    manifest = json.loads((workspace / "m.npz.manifest.json").read_text())
    assert manifest["config"]["grid_skipped"] == [{"dim": 16, "learning_rate": 0.01, "bytes": needed[16]}]
    assert load_checkpoint(ckpt).dim == 8


@pytest.mark.parametrize("setting", [
    "learning_rate=nan", "learning_rate=inf", "margin=nan", "margin=inf",
    "adam_beta1=1.0", "adam_beta1=-0.1", "adam_beta2=1.0", "adam_beta2=nan",
    "adam_epsilon=-1", "adam_epsilon=0", "adam_epsilon=nan", "adam_epsilon=inf",
])
def test_train_config_out_of_range_exits_3(workspace, capsys, setting):
    graph, splits, ckpt = workspace / "g.tsv", workspace / "splits", workspace / "model.npz"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    bad = workspace / "bad.cfg"
    key = setting.split("=")[0]
    bad.write_text("".join(line + "\n" for line in TRAIN_CFG.splitlines() if not line.startswith(key)) + setting + "\n")
    capsys.readouterr()
    code = main(["train", "--model", "transe", "--split-dir", str(splits), "--config", str(bad), "--out", str(ckpt)])
    assert code == 3
    assert f"{key} must" in capsys.readouterr().err
    assert not ckpt.exists()


def test_eval_type_constrained_flag(workspace):
    graph = workspace / "g.tsv"
    splits = workspace / "splits"
    ckpt = workspace / "m.npz"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    main(["train", "--model", "TransE", "--split-dir", str(splits),
          "--config", str(workspace / "train.cfg"), "--out", str(ckpt)])
    code = main([
        "eval", "--checkpoint", str(ckpt), "--split-dir", str(splits),
        "--type-constrained", "--out", str(workspace / "eval_tc"),
    ])
    assert code == 0
    assert (workspace / "eval_tc" / "eval_filtered.csv").exists()


def overall_mrr(report_csv) -> float:
    with open(report_csv, newline="", encoding="utf-8") as fh:
        return next(float(row["mrr"]) for row in csv.DictReader(fh) if row["relation"] == "ALL")


def test_eval_filtered_below_raw_exits_2(workspace, capsys, monkeypatch):
    import chainlens.cli as cli_mod

    graph = workspace / "g.tsv"
    splits = workspace / "splits"
    ckpt = workspace / "m.npz"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    main(["train", "--model", "TransE", "--split-dir", str(splits),
          "--config", str(workspace / "train.cfg"), "--out", str(ckpt)])
    real_rank_queries = cli_mod.rank_queries

    def raw_above_filtered(*args, **kwargs):
        ranks = real_rank_queries(*args, **kwargs)
        return {"raw": ranks["filtered"], "filtered": ranks["raw"]}

    monkeypatch.setattr(cli_mod, "rank_queries", raw_above_filtered)
    out = workspace / "eval_bad"
    code = main([
        "eval", "--checkpoint", str(ckpt), "--split-dir", str(splits),
        "--setting", "both", "--out", str(out),
    ])
    assert code == 2
    captured = capsys.readouterr()
    filtered, raw = (overall_mrr(out / f"eval_{setting}.csv") for setting in ("filtered", "raw"))
    assert filtered < raw
    assert f"filtered MRR {filtered:.4f} fell below raw MRR {raw:.4f}" in captured.err
    assert "OK" not in captured.out
    assert not (out / "manifest.json").exists()


def test_eval_both_scores_each_block_once(workspace, monkeypatch):
    from chainlens.models import _ScreenedScorer

    graph, splits, ckpt = workspace / "g.tsv", workspace / "splits", workspace / "m.npz"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    main(["train", "--model", "TransE", "--split-dir", str(splits),
          "--config", str(workspace / "train.cfg"), "--out", str(ckpt)])
    bracketed = _ScreenedScorer.bracketed  # TransE blocks are handed to the ranker by the screened scorer
    scored = []

    def counting_bracketed(self, s, *args):
        scored.append(len(s))
        return bracketed(self, s, *args)

    monkeypatch.setattr(_ScreenedScorer, "bracketed", counting_bracketed)
    calls = {}
    for setting in ("filtered", "both"):
        before = len(scored)
        assert main(["eval", "--checkpoint", str(ckpt), "--split-dir", str(splits),
                     "--setting", setting, "--out", str(workspace / f"eval_{setting}")]) == 0
        calls[setting] = len(scored) - before
    assert calls["both"] == calls["filtered"] > 0
    assert sum(scored[:calls["filtered"]]) == len(load_split_dir(splits)[3])  # every query scored once


def test_analyze_threshold_above_cap_flags_nothing(workspace):
    graph = workspace / "g.tsv"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    analysis = workspace / "analysis51"
    assert main(["analyze", "--in", str(graph), "--threshold", "51", "--out", str(analysis)]) == 0
    rows = (analysis / "criticality.csv").read_text().splitlines()[1:]
    assert all(r.endswith(",0") for r in rows)


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_analyze_refuses_a_non_finite_threshold(workspace, capsys, threshold):
    graph, analysis = workspace / "g.tsv", workspace / "an"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    capsys.readouterr()
    assert main(["analyze", "--in", str(graph), "--threshold", threshold, "--out", str(analysis)]) == 3
    assert "--threshold must be finite" in capsys.readouterr().err
    assert not (analysis / "criticality.csv").exists()


def test_reports_quote_labels_so_export_reads_them_back(workspace, capsys):
    graph, analysis = workspace / "g.tsv", workspace / "an"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    text = graph.read_text() + 'TinyHub\tSupplier\trelated_to\tScope, "sole"\tBusinessScope\n'
    graph.write_text(text.replace("TinyHub", 'Acme, "Inc"'))
    assert main(["analyze", "--in", str(graph), "--sole-scopes", "--out", str(analysis)]) == 0
    with open(analysis / "criticality.csv", newline="", encoding="utf-8") as fh:
        report = list(csv.DictReader(fh))
    assert 'Acme, "Inc"' in {row["node"] for row in report}
    with open(analysis / "sole_scopes.csv", newline="", encoding="utf-8") as fh:
        scopes = list(csv.reader(fh))
    assert scopes == [["business_scope", "supplier"], ['Scope, "sole"', 'Acme, "Inc"']]
    out = workspace / "g.json"
    code = main(["export", "--in", str(graph), "--report", str(analysis / "criticality.csv"),
                 "--format", "json", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    colors = {n["label"]: n["color"] for n in json.loads(out.read_text())["nodes"]}
    assert {row["node"]: colors[row["node"]] for row in report} == {
        row["node"]: "red" if row["is_critical"] == "1" else "yellow" for row in report}


def test_export_refuses_a_report_without_its_columns(workspace, capsys):
    graph, report = workspace / "g.tsv", workspace / "report.csv"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    report.write_text("label,critical\nTinyHub,1\n")
    capsys.readouterr()
    code = main(["export", "--in", str(graph), "--report", str(report), "--out", str(workspace / "g.dot")])
    assert code == 2
    assert "no node and is_critical columns" in capsys.readouterr().err


def test_export_refuses_a_report_naming_a_node_twice(workspace, capsys):
    graph, analysis = workspace / "g.tsv", workspace / "an"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["analyze", "--in", str(graph), "--out", str(analysis)])
    report = analysis / "criticality.csv"
    with open(report, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    hub = next(row for row in rows if row["node"] == "TinyHub")
    assert hub["is_critical"] == "1"
    with open(report, "a", newline="", encoding="utf-8") as fh:
        csv.DictWriter(fh, fieldnames=list(hub), lineterminator="\n").writerow({**hub, "is_critical": "0"})
    capsys.readouterr()
    out = workspace / "g.dot"
    code = main(["export", "--in", str(graph), "--report", str(report), "--format", "dot", "--out", str(out)])
    assert code == 2
    assert f"line {len(rows) + 2} repeats node 'TinyHub'" in capsys.readouterr().err
    assert not out.exists()


def test_export_mismatched_report_exits_2(workspace, capsys):
    graph = workspace / "g.tsv"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    other = workspace / "other.tsv"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--seed", "99", "--out", str(other)])
    analysis = workspace / "an"
    main(["analyze", "--in", str(graph), "--out", str(analysis)])
    # report of g.tsv against a different graph: supplier sets differ
    other_small = workspace / "small.cfg"
    other_small.write_text(SMALL_GEN_CFG.replace("suppliers=40", "suppliers=35").replace("tier3=15", "tier3=10"))
    main(["generate", "--config", str(other_small), "--out", str(other)])
    code = main([
        "export", "--in", str(other), "--report", str(analysis / "criticality.csv"),
        "--format", "json", "--out", str(workspace / "x.json"),
    ])
    assert code == 2


def test_schema_file_flag_round_trip(workspace, tmp_path):
    from chainlens.graph import DEFAULT_SCHEMA

    schema_path = workspace / "schema.tsv"
    write_schema(DEFAULT_SCHEMA, schema_path)
    out = workspace / "g.tsv"
    code = main([
        "generate", "--config", str(workspace / "gen.cfg"), "--schema", str(schema_path),
        "--out", str(out),
    ])
    assert code == 0


def test_missing_input_file_exits_2(workspace, capsys):
    code = main(["split", "--in", str(workspace / "nope.tsv"), "--out", str(workspace / "s")])
    assert code == 2


def test_triple_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    data = b"a\tSupplier\tsupplies_to\tb\tSupplier\nc\tSupplier\tsupplies_to\t\xff\tSupplier\n"
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(data)
    assert main(["analyze", "--in", str(bad), "--out", str(tmp_path / "analysis")]) == 2
    offset = data.index(b"\xff")
    message = f"{bad}:2: not valid UTF-8 (byte 0xff at offset {offset})"
    assert message in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exits_2(workspace, capsys):
    data = SMALL_GEN_CFG.encode("utf-8").replace(b"hub_label=TinyHub", b"hub_label=Tiny\xffHub")
    bad = workspace / "bad.cfg"
    bad.write_bytes(data)
    out = workspace / "x.tsv"
    assert main(["generate", "--config", str(bad), "--out", str(out)]) == 2
    offset = data.index(b"\xff")
    lineno = data[:offset].count(b"\n") + 1
    message = f"{bad}:{lineno}: not valid UTF-8 (byte 0xff at offset {offset})"
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_schema_file_that_is_not_utf8_exits_2(workspace, capsys):
    from chainlens.graph import DEFAULT_SCHEMA

    graph = workspace / "g.tsv"
    assert main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)]) == 0
    schema = workspace / "schema.tsv"
    write_schema(DEFAULT_SCHEMA, schema)
    data = schema.read_bytes().replace(b"Supplier", b"Supp\xfflier", 1)
    schema.write_bytes(data)
    assert main(["analyze", "--in", str(graph), "--schema", str(schema), "--out", str(workspace / "a")]) == 2
    offset = data.index(b"\xff")
    lineno = data[:offset].count(b"\n") + 1
    message = f"{schema}:{lineno}: not valid UTF-8 (byte 0xff at offset {offset})"
    assert message in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_eval_rejects_split_with_permuted_labels(workspace, capsys):
    graph, splits, ckpt = workspace / "g.tsv", workspace / "splits", workspace / "m.npz"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    main(["train", "--model", "TransE", "--split-dir", str(splits),
          "--config", str(workspace / "train.cfg"), "--out", str(ckpt)])
    permuted = workspace / "permuted"
    permuted.mkdir()
    for name in ("train.tsv", "valid.tsv", "test.tsv"):
        text = (splits / name).read_text()
        text = text.replace("SUP-0001\t", "@\t").replace("SUP-0002\t", "SUP-0001\t").replace("@\t", "SUP-0002\t")
        (permuted / name).write_text(text)
    assert main(["eval", "--checkpoint", str(ckpt), "--split-dir", str(splits),
                 "--out", str(workspace / "eval_ok")]) == 0
    code = main(["eval", "--checkpoint", str(ckpt), "--split-dir", str(permuted),
                 "--out", str(workspace / "eval_permuted")])
    assert code == 2
    assert "different entity vocabulary" in capsys.readouterr().err
    assert len(load_checkpoint(ckpt).vocabulary_sha256) == 64


def test_eval_accepts_checkpoint_without_vocabulary_digest(workspace):
    from chainlens.dataset import load_split_dir
    from chainlens.models import ModelKind, init_params, save_checkpoint
    from chainlens.training import TrainConfig

    graph, splits = workspace / "g.tsv", workspace / "splits"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    g, *_ = load_split_dir(splits)
    params = init_params(ModelKind.TRANSE, g.num_entities, 11, TrainConfig(dim=8, seed=0))
    save_checkpoint(params, workspace / "init.npz")
    assert load_checkpoint(workspace / "init.npz").vocabulary_sha256 is None
    assert main(["eval", "--checkpoint", str(workspace / "init.npz"), "--split-dir", str(splits),
                 "--out", str(workspace / "eval_init")]) == 0


def split_with_unseen_test_supplier(workspace):
    """A split directory whose test.tsv names a supplier that no training triple has."""
    graph, splits = workspace / "g.tsv", workspace / "splits"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    with open(splits / "test.tsv", "a", encoding="utf-8") as fh:
        fh.write("NewSup\tSupplier\tsupplies_to\tTinyHub\tSupplier\n")
    return splits


def test_train_refuses_a_split_that_is_not_transductive(workspace, capsys):
    splits = split_with_unseen_test_supplier(workspace)
    ckpt = workspace / "m.npz"
    code = main(["train", "--model", "TransE", "--split-dir", str(splits),
                 "--config", str(workspace / "train.cfg"), "--out", str(ckpt)])
    assert code == 2
    assert "held-out triple NewSup -supplies_to-> TinyHub" in capsys.readouterr().err
    assert not ckpt.exists()


def test_eval_refuses_a_split_that_is_not_transductive(workspace, capsys):
    from chainlens.dataset import load_split_dir
    from chainlens.models import ModelKind, init_params, save_checkpoint
    from chainlens.training import TrainConfig

    splits = split_with_unseen_test_supplier(workspace)
    g, *_ = load_split_dir(splits)
    save_checkpoint(init_params(ModelKind.TRANSE, g.num_entities, 11, TrainConfig(dim=8, seed=0)),
                    workspace / "init.npz")
    code = main(["eval", "--checkpoint", str(workspace / "init.npz"), "--split-dir", str(splits),
                 "--out", str(workspace / "eval")])
    assert code == 2
    assert "held-out triple NewSup -supplies_to-> TinyHub" in capsys.readouterr().err
    assert not (workspace / "eval" / "eval_filtered.csv").exists()


def test_split_check_fail_names_the_triple_by_labels(workspace, capsys, monkeypatch):
    import chainlens.cli as cli_mod
    from chainlens.dataset import SplitResult

    graph = workspace / "g.tsv"
    graph.write_text("A\tSupplier\tsupplies_to\tB\tSupplier\nB\tSupplier\tsupplies_to\tC\tSupplier\n"
                     "C\tSupplier\tsupplies_to\tD\tSupplier\n")
    monkeypatch.setattr(cli_mod, "transductive_split", lambda g, cfg: SplitResult(
        g.triples_array()[:1], g.triples_array()[1:2], g.triples_array()[2:]))
    code = main(["split", "--in", str(graph), "--check", "--out", str(workspace / "splits")])
    assert code == 2
    assert "transductive check: FAIL (held-out triple B -supplies_to-> C)" in capsys.readouterr().out
    assert not (workspace / "splits" / "manifest.json").exists()


def tamper_entity_rows(blocks):
    blocks["entity"] = np.vstack([blocks["entity"], np.ones((50, blocks["entity"].shape[1]))])


@pytest.mark.parametrize("tamper, message", [
    (lambda blocks: blocks.pop("core"), "block 'core' is missing"),
    (tamper_entity_rows, "block 'entity' is ((128, 4), dtype('float64'))"),
    (lambda blocks: blocks.update(relation=blocks["relation"].astype(np.float32)), "block 'relation'"),
    (lambda blocks: blocks.update(extra=np.zeros(3)), "block 'extra'"),
    (lambda blocks: blocks["entity"].fill(np.nan), "non-finite"),
], ids=["missing-core", "extra-entity-rows", "float32-relation", "unknown-block", "all-nan-entity"])
def test_eval_refuses_a_checkpoint_that_cannot_rank(workspace, capsys, tamper, message):
    from chainlens.dataset import load_split_dir
    from chainlens.models import ModelKind, init_params, save_checkpoint
    from chainlens.training import TrainConfig

    graph, splits = workspace / "g.tsv", workspace / "splits"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    g, *_ = load_split_dir(splits)
    assert g.num_entities == 78
    params = init_params(ModelKind.TUCKER, g.num_entities, 11, TrainConfig(dim=4, seed=0))
    tamper(params.blocks)
    save_checkpoint(params, workspace / "bad.npz")
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(workspace / "bad.npz"), "--split-dir", str(splits),
                 "--out", str(workspace / "eval")])
    assert code == 2
    assert message in capsys.readouterr().err


def rewrite_header(path, edit):
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    header = json.loads(str(arrays.pop("header")))
    edit(header)
    np.savez(path, header=np.array(json.dumps(header, sort_keys=True)), **arrays)


@pytest.mark.parametrize("edit, message", [
    (lambda header: header.pop("seed"), "header has no 'seed' key"),
    (lambda header: header.update(kind="Bogus"), "'Bogus' is not a valid ModelKind"),
    (lambda header: header.update(dim="x"), "invalid literal for int()"),
    (lambda header: header.update(seed=3.7), "seed 3.7 is not an integer"),
], ids=["no-seed", "unknown-kind", "non-integer-dim", "float-seed"])
def test_eval_refuses_a_checkpoint_header_that_cannot_describe_a_model(workspace, capsys, edit, message):
    graph, splits, ckpt = workspace / "g.tsv", workspace / "splits", workspace / "m.npz"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    assert main(["train", "--model", "TransE", "--split-dir", str(splits),
                 "--config", str(workspace / "train.cfg"), "--out", str(ckpt)]) == 0
    rewrite_header(ckpt, edit)
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(ckpt), "--split-dir", str(splits), "--out", str(workspace / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and str(ckpt) in err
    assert not (workspace / "eval" / "eval_filtered.csv").exists()


@pytest.mark.parametrize("command", ["generate", "split", "train"])
def test_negative_seed_exits_3(workspace, capsys, command):
    graph, splits = workspace / "g.tsv", workspace / "splits"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    args = {
        "generate": ["--config", str(workspace / "gen.cfg"), "--out", str(workspace / "g2.tsv")],
        "split": ["--in", str(graph), "--out", str(workspace / "splits2")],
        "train": ["--model", "TransE", "--split-dir", str(splits), "--config", str(workspace / "train.cfg"),
                  "--out", str(workspace / "m.npz")],
    }[command]
    capsys.readouterr()
    assert main([command, *args, "--seed", "-1"]) == 3
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not any(p.exists() for p in (workspace / "g2.tsv", workspace / "splits2", workspace / "m.npz"))


@pytest.mark.parametrize("damage", ["text", "truncated"])
def test_eval_refuses_a_checkpoint_that_is_not_an_npz_archive(workspace, capsys, damage):
    from chainlens.models import ModelKind, init_params, save_checkpoint
    from chainlens.training import TrainConfig

    graph, splits, ckpt = workspace / "g.tsv", workspace / "splits", workspace / "m.npz"
    main(["generate", "--config", str(workspace / "gen.cfg"), "--out", str(graph)])
    main(["split", "--in", str(graph), "--seed", "3", "--out", str(splits)])
    save_checkpoint(init_params(ModelKind.TRANSE, 78, 11, TrainConfig(dim=4, seed=0)), ckpt)
    ckpt.write_bytes(b"not a checkpoint\n" if damage == "text" else ckpt.read_bytes()[:300])
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(ckpt), "--split-dir", str(splits), "--out", str(workspace / "eval")])
    assert code == 2
    assert f"{ckpt}: not a readable .npz archive" in capsys.readouterr().err
