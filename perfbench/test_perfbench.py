"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench"""

import json
from pathlib import Path

import pytest

import layers
import pipeline
from spans import Instrumentation, Span, Tracer, recording, self_times

REPO = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(0, None, "cli.train", 0.0, 10.0),
        Span(1, 0, "training.train", 1.0, 4.0),
        Span(2, 1, "models.score_batch", 2.0, 3.0),
        Span(3, 0, "dataset.load_split_dir", 5.0, 7.0),
        Span(4, 0, "dataset.load_split_dir", 6.0, 8.0),  # overlaps its sibling
    ]
    own = self_times(spans)
    # the root's children cover [1, 4] and [5, 8]: the overlap counts once
    assert own == pytest.approx({0: 10.0 - 6.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 2.0})


def test_self_times_of_a_nested_call_tree_sum_to_the_root():
    tracer = Tracer()
    leaf = recording(tracer, "models.leaf", lambda: 1)
    middle = recording(tracer, "training.middle", lambda: leaf() + leaf())
    root = recording(tracer, "cli.root", middle)
    assert root() == 2
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]
    own = self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(tracer.spans[0].duration)
    assert tracer.overhead > 0.0
    with tracer.off():
        leaf()
    assert len(tracer.spans) == 4


def test_instrumentation_replaces_every_reference_and_restores_it():
    from chainlens import cli, dataset

    tracer = Tracer()
    original = dataset.load_triples
    inst = Instrumentation()
    inst.replace_function(original, recording(tracer, "dataset.load_triples", original))
    assert dataset.load_triples is not original and cli.load_triples is dataset.load_triples
    inst.restore()
    assert dataset.load_triples is original and cli.load_triples is original


def test_layer_metrics_count_pairs_queries_epochs_and_batches():
    spans = [
        Span(0, None, "cli.train", 0.0, 11.0),
        Span(1, 0, "training.train", 0.0, 10.0, {"model": "TuckER", "epochs": 2, "pairs": 1536}),
        Span(2, 1, "models.batch_loss_and_gradients", 0.0, 2.0,
             {"model": "TuckER", "triples": 512, "pairs": 512, "active": 128}),
        Span(3, 1, "models.batch_loss_and_gradients", 2.0, 3.0,
             {"model": "TuckER", "triples": 256, "pairs": 256, "active": 256}),
        Span(4, 1, "evaluation.evaluate", 8.0, 10.0, {"model": "TuckER"}),
        Span(5, 4, "evaluation.rank_object", 8.0, 10.0,
             {"setting": "filtered", "entities": 100, "candidates": 100}),
        Span(6, None, "cli.eval", 11.0, 13.0),
        Span(7, 6, "evaluation.evaluate", 11.0, 12.0, {"model": "TuckER"}),
        Span(8, 7, "evaluation.rank_object", 11.0, 11.5,
             {"setting": "filtered", "entities": 100, "candidates": 80}),
        Span(9, 7, "evaluation.rank_object", 11.5, 12.0,
             {"setting": "raw", "entities": 100, "candidates": 100}),
    ]
    values = layers.layer_metrics(spans)
    assert values["models.hinge_active_frac.TuckER"] == pytest.approx(384 / 768)
    assert values["models.batch_loss_and_gradients_s.TuckER"] == pytest.approx(3.0 / 768 * 512)
    assert values["training.epoch_s.TuckER"] == pytest.approx((10.0 - 2.0) / 2)
    assert values["training.epoch.calls"] == 2
    assert values["training.val_evaluate_s.TuckER"] == pytest.approx(2.0)
    assert values["evaluation.evaluate_s.TuckER"] == pytest.approx(1.0)
    assert values["evaluation.rank_object.calls"] == 3
    assert values["evaluation.filtered_out_frac"] == pytest.approx(20 / 200)
    assert values["cli.train_pairs_per_s.TuckER"] == pytest.approx(1536 / 11.0)
    assert values["cli.eval_queries_per_s.TuckER"] == pytest.approx(2 / 2.0)  # validation not counted
    assert values["models.score_batch_s.RESCAL"] == 0.0  # did not run
    assert sum(values[f"self_s.{layer}"] for layer in layers.LAYERS) == pytest.approx(13.0)


def test_pair_and_query_counting(tmp_path):
    assert pipeline.trained_pairs(2760, 3) == 8280
    assert pipeline.trained_pairs(2760, 3, negatives_per_positive=2) == 16560
    assert pipeline.ranked_queries(345, "both") == 690
    assert pipeline.ranked_queries(3450, "filtered") == 3450
    split = tmp_path / "test.tsv"
    split.write_text("# header\nA\tsupplier\tsupplies_to\tB\tsupplier\n\nB\tsupplier\tsupplies_to\tC\tsupplier\n")
    assert pipeline.count_triples(split) == 2


def _inputs(tmp_path: Path, seed: int) -> dict[str, str]:
    workdir = tmp_path / f"seed{seed}"
    run = pipeline.Run(workdir, seed, manifest_tolerance=1.0)
    pipeline.prepare_scale(run, "1x", split=True, init=False)
    assert run.failed == 0, run.failures
    return pipeline.output_digests(workdir)


def test_workload_seed_determines_the_inputs(tmp_path):
    first, again = _inputs(tmp_path / "a", 0), _inputs(tmp_path / "b", 0)
    other = _inputs(tmp_path / "c", 1)
    assert first == again
    assert set(first) == set(other)
    assert all(first[name] != other[name] for name in first)


def test_ten_times_config_yields_the_10x_network(tmp_path):
    from chainlens.dataset import GeneratorConfig, generate_synthetic

    cfg = GeneratorConfig.from_file(pipeline.GENERATOR_CONFIGS["10x"])
    graph = generate_synthetic(cfg)
    assert (graph.num_entities, graph.num_triples) == pipeline.EXPECTED_SIZE["10x"] == (6940, 34500)


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(pipeline.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_names()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in spec["end_to_end"])
