"""Per-layer metrics of the traced run.

The layers are the modules under ``src/chainlens``.  ``instrument`` wraps the
public functions of each one (see ``spans``); ``layer_metrics`` turns the
recorded spans into the ``per_layer`` metrics of BENCHMARK.json.  A
``<module>.<function>_s`` metric is the mean inclusive duration of one call,
``.calls`` the number of calls; a function that did not run reports 0.
``models.score_batch_s`` and ``models.batch_loss_and_gradients_s`` are
instead the time per 512 triples, the training batch size.  The per-model
``cli.train_pairs_per_s`` and ``cli.eval_queries_per_s`` are the stage
figures of the untraced run, taken from spans.
"""

from __future__ import annotations

import os
from collections import defaultdict

from pipeline import EXPORT_FORMATS, MODELS
from spans import Instrumentation, Span, Tracer, ancestors, recording, self_times

LAYERS = ("dataset", "graph", "models", "training", "evaluation", "analytics", "exports", "cli")
COMMANDS = ("generate", "split", "train", "eval", "analyze", "export")
ANALYTICS = ("degree_centrality", "betweenness", "closeness", "triangle_count",
             "critical_paths", "sole_supplier_scopes")
DATASET = ("generate_synthetic", "export_triples", "load_triples", "transductive_split",
           "write_split", "load_split_dir")


def _model_of_params(args, kwargs) -> dict:
    return {"model": args[0].kind.value}


def _model_and_size(args, kwargs) -> dict:
    return {"model": args[0].kind.value, "triples": len(args[1])}


def _nodes(args, kwargs) -> dict:
    return {"nodes": args[0].num_entities}


def _model_of_kind(args, kwargs) -> dict:
    config = args[5] if len(args) > 5 else kwargs["config"]
    return {"model": args[0].value, "epochs": config.max_epochs,
            "pairs": config.max_epochs * len(args[1]) * config.negatives_per_positive}


def _hinge(args, kwargs, result) -> dict:
    losses = result[0]
    return {"pairs": int(len(losses)), "active": int((losses > 0.0).sum())}


def _candidates(args, kwargs, result) -> dict:
    return {"setting": result.setting, "entities": args[0].num_entities,
            "candidates": result.num_candidates}


def _export_format(args, kwargs) -> dict:
    return {"format": args[2]}


def _export_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[3])}


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every traced chainlens function; call ``restore()`` on the result."""
    from chainlens import analytics, cli, dataset, evaluation, exports, models, training
    from chainlens.graph import Graph

    inst = Instrumentation()

    def wrap(module, fn_name, span_name, before=None, after=None):
        original = getattr(module, fn_name)
        inst.replace_function(original, recording(tracer, span_name, original, before, after))

    wrap(models, "score_batch", "models.score_batch", _model_and_size)
    wrap(models, "score_objects", "models.score_objects", _model_of_params)
    wrap(models, "batch_loss_and_gradients", "models.batch_loss_and_gradients", _model_and_size, _hinge)
    wrap(models, "corrupt_batch", "models.corrupt_batch")
    wrap(training, "train", "training.train", _model_of_kind)
    wrap(training, "adam_step", "training.adam_step", _model_of_params)
    wrap(evaluation, "evaluate", "evaluation.evaluate", _model_of_params)
    wrap(evaluation, "rank_object", "evaluation.rank_object", after=_candidates)
    wrap(evaluation, "build_filter_index", "evaluation.build_filter_index")
    for fn in ANALYTICS + ("criticality",):
        wrap(analytics, fn, f"analytics.{fn}", _nodes)
    for fn in DATASET:
        wrap(dataset, fn, f"dataset.{fn}")
    wrap(exports, "export_graph", "exports.export_graph", _export_format, _export_bytes)
    for command in COMMANDS:
        wrap(cli, f"cmd_{command}", f"cli.{command}")
    inst.replace_method(Graph, "project_subgraph",
                        recording(tracer, "graph.project_subgraph", Graph.project_subgraph))
    return inst


# Timed functions reported per model, and the others.  rank_object has only
# a call count: its time is that of the score_objects call inside it.
PER_MODEL = ("models.score_batch", "models.batch_loss_and_gradients", "training.adam_step",
             "training.epoch", "training.val_evaluate", "evaluation.evaluate", "evaluation.score_objects")
PLAIN = ("models.corrupt_batch", "evaluation.build_filter_index", *(f"analytics.{f}" for f in ANALYTICS),
         "graph.project_subgraph", *(f"dataset.{f}" for f in DATASET), *(f"cli.{c}" for c in COMMANDS))


def metric_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    names: dict[str, str] = {}
    for stem in PER_MODEL:
        names.update({f"{stem}_s.{m}": "s" for m in MODELS})
        names[f"{stem}.calls"] = "count"
    for stem in PLAIN:
        names[f"{stem}_s"] = "s"
        names[f"{stem}.calls"] = "count"
    names["evaluation.rank_object.calls"] = "count"
    names.update({f"models.hinge_active_frac.{m}": "ratio" for m in MODELS})
    names["evaluation.filtered_out_frac"] = "ratio"
    for fmt in EXPORT_FORMATS:
        names[f"exports.export_graph_s.{fmt}"] = "s"
        names[f"exports.bytes.{fmt}"] = "bytes"
    names["exports.export_graph.calls"] = "count"
    names.update({f"cli.train_pairs_per_s.{m}": "1/s" for m in MODELS})
    names.update({f"cli.eval_queries_per_s.{m}": "1/s" for m in MODELS})
    names.update({f"self_s.{layer}": "s" for layer in LAYERS})
    names["cli.manifest_disagreements"] = "count"
    names["trace.overhead_s"] = "s"
    return names


def _stem(span: Span, spans: list[Span]) -> str:
    """Metric stem of a span: score_objects counts as ranking, evaluate under train as validation."""
    if span.name == "models.score_objects":
        return "evaluation.score_objects"
    if span.name == "evaluation.evaluate" and any(a.name == "training.train" for a in ancestors(spans, span)):
        return "training.val_evaluate"
    return span.name


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metric values (zeros for what did not run); overhead and disagreements excluded."""
    values = {name: 0.0 for name in metric_names()}
    durations: dict[str, list[float]] = defaultdict(list)
    per_triple: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    calls: dict[str, int] = defaultdict(int)
    pairs: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    epochs: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    excluded = entities = 0
    for span in spans:
        stem = _stem(span, spans)
        model = span.attrs.get("model")
        calls[stem] += 1
        durations[f"{stem}_s.{model}" if model else f"{stem}_s"].append(span.duration)
        if "triples" in span.attrs:
            per_triple[f"{stem}_s.{model}"][0] += span.duration
            per_triple[f"{stem}_s.{model}"][1] += span.attrs["triples"]
        if stem == "models.batch_loss_and_gradients":
            pairs[model][0] += span.attrs["active"]
            pairs[model][1] += span.attrs["pairs"]
        elif stem == "training.train":
            validation = sum(s.duration for s in spans if s.parent == span.id
                             and s.name == "evaluation.evaluate")
            epochs[model][0] += span.duration - validation
            epochs[model][1] += span.attrs["epochs"]
            calls["training.epoch"] += span.attrs["epochs"]
        elif stem == "evaluation.rank_object" and span.attrs["setting"] == "filtered":
            excluded += span.attrs["entities"] - span.attrs["candidates"]
            entities += span.attrs["entities"]
        elif stem == "exports.export_graph":
            durations[f"exports.export_graph_s.{span.attrs['format']}"].append(span.duration)
            durations[f"exports.bytes.{span.attrs['format']}"].append(span.attrs["bytes"])
    for key, ds in durations.items():
        if key in values:
            values[key] = sum(ds) / len(ds)
    for key, (seconds, triples) in per_triple.items():
        values[key] = seconds / triples * 512
    for stem, n in calls.items():
        if f"{stem}.calls" in values:
            values[f"{stem}.calls"] = float(n)
    for model, (active, total) in pairs.items():
        values[f"models.hinge_active_frac.{model}"] = active / total if total else 0.0
    for model, (seconds, n) in epochs.items():
        values[f"training.epoch_s.{model}"] = seconds / n if n else 0.0
    values["evaluation.filtered_out_frac"] = excluded / entities if entities else 0.0
    own = self_times(spans)
    for span in spans:
        values[f"self_s.{span.layer}"] += own[span.id]
    values.update(_command_rates(spans))
    return values


def _roots(spans: list[Span]) -> dict[int, Span]:
    """Span id -> its top-level span (parents precede their children)."""
    roots: dict[int, Span] = {}
    for span in spans:
        roots[span.id] = roots[span.parent] if span.parent is not None else span
    return roots


def _command_rates(spans: list[Span]) -> dict[str, float]:
    """Pairs trained and queries ranked per second of ``train`` / ``eval`` command, per model."""
    work: dict[int, float] = defaultdict(float)
    model: dict[int, str] = {}
    roots = _roots(spans)
    for span in spans:
        root = roots[span.id]
        if span.name == "training.train" and root.name == "cli.train":
            work[root.id] += span.attrs["pairs"]
        elif span.name == "evaluation.rank_object" and root.name == "cli.eval":
            work[root.id] += 1
        if "model" in span.attrs:
            model.setdefault(root.id, span.attrs["model"])
    metric = {"cli.train": "cli.train_pairs_per_s", "cli.eval": "cli.eval_queries_per_s"}
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for span in spans:
        if span.name in metric and span.id in model:
            key = f"{metric[span.name]}.{model[span.id]}"
            totals[key][0] += work[span.id]
            totals[key][1] += span.duration
    return {key: done / seconds for key, (done, seconds) in totals.items()}


# Single runs at the ROADMAP re-anchor (2 cores, Python 3.11.7, numpy 2.4.6).
ROADMAP_BASELINE = (
    ("TuckER score_batch, per 512 triples", 0.794),
    ("TuckER gradients, 512 pos+neg pairs", 0.803),
    ("RESCAL score_batch, per 512 triples", 0.017),
    ("RESCAL gradients, 512 pos+neg pairs", 0.065),
    ("betweenness, 612 suppliers (1x)", 0.13),
    ("criticality, 6,120 suppliers (10x)", 16.8),
)


def baseline_table(spans: list[Span]) -> str:
    """The measured counterparts of the ROADMAP baseline rows, where this run has them."""
    by_nodes = {(s.name, s.attrs["nodes"]): s.duration for s in spans if "nodes" in s.attrs}

    def per_512(name: str, model: str) -> float | None:
        timed = [s for s in spans if s.name == name and s.attrs.get("model") == model]
        return sum(s.duration for s in timed) / sum(s.attrs["triples"] for s in timed) * 512 if timed else None

    def score_and_gradient(model: str) -> tuple[float | None, float | None]:
        score, whole = per_512("models.score_batch", model), per_512("models.batch_loss_and_gradients", model)
        # a batch's loss and gradients include its two score_batch calls
        return score, (whole - 2 * score if whole and score else None)

    measured = (
        *score_and_gradient("TuckER"), *score_and_gradient("RESCAL"),
        by_nodes.get(("analytics.betweenness", 612)), by_nodes.get(("analytics.criticality", 6120)),
    )
    lines = ["ROADMAP baseline vs this traced run (seconds):"]
    for (label, baseline), value in zip(ROADMAP_BASELINE, measured):
        shown = f"{value:.4f}" if value else "not run"
        lines.append(f"  {label:<38} baseline {baseline:>7.3f}   measured {shown}")
    return "\n".join(lines)


def self_time_table(spans: list[Span], timed: float) -> str:
    """Self time per layer inside each CLI command; the rows add up to the command time.

    ``timed`` is what the benchmark's own clock gave the same calls; the rest
    of it is argument parsing and logging set-up outside any span.
    """
    own = self_times(spans)
    roots = _roots(spans)
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_layer: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        root = roots[span.id]
        if span is root:
            totals[root.name] += root.duration
            calls[root.name] += 1
        by_layer[root.name][span.layer] += own[span.id]
    header = f"  {'top-level span':<28}{'calls':>6}{'total s':>10}" + "".join(f"{l[:10]:>11}" for l in LAYERS)
    lines = ["Self time per layer (s) under each top-level span:", header]
    for name in sorted(totals):
        cells = "".join(f"{by_layer[name][layer]:>11.4f}" for layer in LAYERS)
        lines.append(f"  {name:<28}{calls[name]:>6}{totals[name]:>10.4f}{cells}")
    accounted = sum(sum(v.values()) for v in by_layer.values())
    lines.append(f"  layer self times sum to {accounted:.4f} s, {accounted / timed:.1%} of the "
                 f"{timed:.4f} s the benchmark timed for these calls")
    return "\n".join(lines)
