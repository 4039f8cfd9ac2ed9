"""Command-line front end: generate, split, train, eval, analyze, export.

One binary with subcommands sharing config and manifest machinery.  Each
``cmd_<name>`` handler returns a :class:`Manifest` of its effective config,
seeds and paths; :func:`main` times the handler and writes that manifest
alongside the outputs with the command name, tool version and wall-clock
duration, so reruns are checkable.  A handler whose own check fails returns
its exit code instead, and no manifest is written.  All randomness flows
from a single per-run seed.

Exit codes: 0 success, 1 usage error, 2 data/schema error, 3 infeasible
operation, 4 training diverged (no checkpoint is written).  The environment
variable CHAINLENS_LOG (error, info, debug) controls verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .analytics import count_critical_paths, criticality, sole_supplier_scopes
from .dataset import (
    TEST_FILE,
    TRAIN_FILE,
    VALID_FILE,
    ConfigError,
    GeneratorConfig,
    ParseError,
    SplitConfig,
    SplitInfeasible,
    check_transductive,
    export_triples,
    generate_synthetic,
    load_split_dir,
    load_triples,
    transductive_split,
    write_split,
)
from .evaluation import (
    EmptyQuerySet,
    EvalReport,
    VocabularyMismatch,
    build_filter_index,
    per_relation_table,
    rank_queries,
    type_constrained_candidates,
)
from .exports import FORMATS, ExportMismatch, export_graph
from .graph import (
    DEFAULT_SCHEMA,
    EntityType,
    Graph,
    GraphError,
    RELATION_BY_INDEX,
    RelationType,
    Schema,
)
from .models import CheckpointError, ModelKind, load_checkpoint, save_checkpoint
from .training import (
    GRID_DIMS,
    GRID_LEARNING_RATES,
    TrainConfig,
    TrainingDiverged,
    grid_search,
    train,
)

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _configure_logging() -> None:
    level_name = os.environ.get("CHAINLENS_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level_name, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )


def _model_kind(name: str) -> ModelKind:
    try:
        return ModelKind.from_name(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_schema(args) -> Schema:
    if args.schema:
        return Schema.from_file(args.schema)
    return DEFAULT_SCHEMA


def _triple_text(graph: Graph, row) -> str:
    s, r, o = row.tolist()
    return f"{graph.labels[s]} -{RELATION_BY_INDEX[r].value}-> {graph.labels[o]}"


def _load_split(split_dir, schema: Schema):
    """``load_split_dir``, refusing a split whose held-out triples name an entity or relation train lacks."""
    graph, *parts = load_split_dir(split_dir, schema)
    if (row := check_transductive(*parts)) is not None:
        raise GraphError(f"{split_dir} is not a transductive split: held-out triple {_triple_text(graph, row)} "
                         "has an entity or relation that no training triple has")
    return graph, *parts


@dataclass(frozen=True)
class Manifest:
    """What a command ran on and wrote: :func:`main` adds the command, version and duration."""

    path: Path
    config: dict
    seeds: list[int]
    inputs: list[str]
    outputs: list[str]

    def write(self, command: str, duration_seconds: float) -> None:
        manifest = {
            "command": command,
            "config": self.config,
            "seeds": self.seeds,
            "inputs": sorted(self.inputs),
            "outputs": sorted(self.outputs),
            "version": __version__,
            "duration_seconds": round(duration_seconds, 6),
        }
        self.path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_generate(args) -> Manifest:
    cfg = GeneratorConfig.from_file(args.config) if args.config else GeneratorConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    schema = _load_schema(args)
    graph = generate_synthetic(cfg, schema)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    export_triples(graph, out)
    stats = graph.stats()
    print(f"generated {stats.total_entities} entities, {stats.total_triples} triples -> {out}")
    return Manifest(
        Path(str(out) + ".manifest.json"),
        cfg.to_kv(),
        [cfg.seed],
        [args.config] if args.config else [],
        [str(out)],
    )


def cmd_split(args) -> Manifest | int:
    schema = _load_schema(args)
    graph = load_triples(args.in_path, schema)
    cfg = SplitConfig.from_file(args.config) if args.config else SplitConfig()
    if args.fractions is not None:
        cfg = replace(cfg, validation_fraction=args.fractions[0], test_fraction=args.fractions[1])
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    result = transductive_split(graph, cfg)
    out_dir = Path(args.out)
    write_split(graph, result, out_dir)
    print(
        f"split {graph.num_triples} triples -> train {len(result.train_ids)} / "
        f"valid {len(result.validation_ids)} / test {len(result.test_ids)} in {out_dir}"
    )
    if args.check:
        if (row := check_transductive(result.train_ids, result.validation_ids, result.test_ids)) is not None:
            print(f"transductive check: FAIL (held-out triple {_triple_text(graph, row)})")
            return 2
        print("transductive check: PASS")
    return Manifest(
        out_dir / "manifest.json",
        cfg.to_kv(),
        [cfg.seed],
        [str(args.in_path)] + ([args.config] if args.config else []),
        [str(out_dir / n) for n in (TRAIN_FILE, VALID_FILE, TEST_FILE)],
    )


def cmd_train(args) -> Manifest:
    schema = _load_schema(args)
    graph, train_arr, valid_arr, _ = _load_split(args.split_dir, schema)
    cfg = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    num_entities, num_relations = graph.num_entities, len(RELATION_BY_INDEX)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    grid_skipped = {}
    if args.grid:
        result = grid_search(args.model, train_arr, valid_arr, num_entities, num_relations, cfg)
        print(f"grid search over {len(result.runs)} runs; best: dim={result.best_config.dim} "
              f"lr={result.best_config.learning_rate:g} val mrr={result.best_mrr:.4f}")
        for dim, lr, mrr in result.runs:
            print(f"  dim={dim} lr={lr:g}: val mrr {mrr:.4f}")
        for dim, lr, needed in result.skipped:
            print(f"  dim={dim} lr={lr:g}: skipped, needs about {needed / 2**30:,.2f} GiB, over the memory limit")
        grid_skipped = {"grid_skipped": [{"dim": dim, "learning_rate": lr, "bytes": needed}
                                         for dim, lr, needed in result.skipped]}
        params, history, cfg = result.best_params, result.best_history, result.best_config
    else:
        params, history = train(args.model, train_arr, valid_arr, num_entities, num_relations, cfg)
    save_checkpoint(replace(params, vocabulary_sha256=graph.vocabulary_sha256()), out)
    history_path = Path(str(out) + ".history.csv")
    history.to_csv(history_path)
    last = history.records[-1] if history.records else None
    print(
        f"trained {args.model.value} for best epoch {history.best_epoch}"
        + (f" (val hits@10 {last.hits10:.4f}, mrr {last.mrr:.4f} at final eval)" if last else "")
        + f" -> {out}"
    )
    return Manifest(
        Path(str(out) + ".manifest.json"),
        {"model": args.model.value, "grid": bool(args.grid), **cfg.to_kv(), **grid_skipped},
        [cfg.seed],
        [str(args.split_dir)] + ([args.config] if args.config else []),
        [str(out), str(history_path)],
    )


def cmd_eval(args) -> Manifest | int:
    schema = _load_schema(args)
    params = load_checkpoint(args.checkpoint)
    if not params.all_finite():
        raise CheckpointError(f"{args.checkpoint} holds non-finite parameters, whose scores cannot be ranked")
    graph, train_arr, valid_arr, test_arr = _load_split(args.split_dir, schema)
    if params.num_entities != graph.num_entities:
        raise GraphError(
            f"checkpoint was trained on {params.num_entities} entities but the split "
            f"directory has {graph.num_entities}"
        )
    if params.vocabulary_sha256 not in (None, graph.vocabulary_sha256()):
        raise GraphError(
            "checkpoint was trained on a different entity vocabulary (ordered label/type "
            "list) than the split directory's, so its entity ids would rank the wrong entities"
        )
    filter_index = build_filter_index([train_arr, valid_arr, test_arr])
    candidate_index = type_constrained_candidates(graph, schema) if args.type_constrained else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    settings = ["filtered", "raw"] if args.setting == "both" else [args.setting]
    ranks = rank_queries(params, test_arr, filter_index, args.tie, candidate_index)
    reports = {}
    outputs: list[str] = []
    for setting in settings:
        report = EvalReport.from_ranks(test_arr, ranks[setting], setting, args.tie)
        reports[setting] = report
        text_path = out_dir / f"eval_{setting}.txt"
        csv_path = out_dir / f"eval_{setting}.csv"
        text_path.write_text(report.to_text(), encoding="utf-8")
        report.to_csv(csv_path)
        outputs += [str(text_path), str(csv_path)]
        print(
            f"{params.kind.value} [{setting}/{args.tie}] mrr {report.mrr:.4f}  "
            f"hits@1 {report.hits[1]:.4f}  hits@3 {report.hits[3]:.4f}  hits@10 {report.hits[10]:.4f}"
        )
    if len(reports) == 2:
        filtered, raw = reports["filtered"].mrr, reports["raw"].mrr
        if filtered < raw:
            print(f"chainlens: error: filtered MRR {filtered:.4f} fell below raw MRR {raw:.4f}", file=sys.stderr)
            return 2
        print(f"filtered MRR {filtered:.4f} >= raw MRR {raw:.4f}: OK")
    if args.per_relation:
        table = per_relation_table({params.kind.value: reports[settings[0]]})
        table_path = out_dir / "per_relation.csv"
        table.to_csv(table_path)
        print(table.to_text(), end="")
        outputs.append(str(table_path))
    return Manifest(
        out_dir / "manifest.json",
        {"checkpoint": str(args.checkpoint), "setting": args.setting, "tie_policy": args.tie,
         "per_relation": bool(args.per_relation), "type_constrained": bool(args.type_constrained)},
        [params.seed],
        [str(args.checkpoint), str(args.split_dir)],
        outputs,
    )


def cmd_analyze(args) -> Manifest:
    if not math.isfinite(args.threshold):
        raise ConfigError(f"--threshold must be finite, got {args.threshold}")
    schema = _load_schema(args)
    graph = load_triples(args.in_path, schema)
    suppliers = graph.project_subgraph({EntityType.SUPPLIER}, {RelationType.SUPPLIES_TO})
    report = criticality(suppliers, threshold=args.threshold)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "criticality.csv"
    summary_path = out_dir / "summary.txt"
    report.to_csv(csv_path)
    summary_path.write_text(report.summary_text(), encoding="utf-8")
    n_critical = int(report.is_critical.sum())
    print(
        f"analyzed {suppliers.num_entities} suppliers: {n_critical} critical "
        f"(threshold {args.threshold:g}), {count_critical_paths(suppliers, report)} critical supply paths"
    )
    outputs = [str(csv_path), str(summary_path)]
    if args.sole_scopes:
        scopes = sole_supplier_scopes(graph)
        scope_path = out_dir / "sole_scopes.csv"
        with open(scope_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["business_scope", "supplier"])
            writer.writerows((graph.labels[scope_id], graph.labels[sup_id]) for scope_id, sup_id in scopes)
        outputs.append(str(scope_path))
        print(f"{len(scopes)} sole-supplier business scopes -> {scope_path}")
    return Manifest(
        out_dir / "manifest.json",
        {"threshold": args.threshold, "sole_scopes": bool(args.sole_scopes)},
        [],
        [str(args.in_path)],
        outputs,
    )


def _read_critical_flags(report: str) -> dict[str, bool]:
    """The ``node`` -> ``is_critical == "1"`` map of a criticality CSV, read in one pass.

    A node on two rows raises :class:`ExportMismatch`: its flag would be ambiguous.
    """
    with open(report, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        if "node" not in header or "is_critical" not in header:
            raise ExportMismatch(f"{report}: no node and is_critical columns")
        node, flag = header.index("node"), header.index("is_critical")
        flags: dict[str, bool] = {}
        try:
            for row in filter(None, rows):
                if row[node] in flags:
                    raise ExportMismatch(f"{report}: line {rows.line_num} repeats node {row[node]!r}")
                flags[row[node]] = row[flag] == "1"
        except IndexError:
            raise ExportMismatch(f"{report}: line {rows.line_num} has fewer cells than the header") from None
        return flags


def cmd_export(args) -> Manifest:
    schema = _load_schema(args)
    graph = load_triples(args.in_path, schema)
    critical_by_label = _read_critical_flags(args.report)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    export_graph(graph, critical_by_label, args.format, out)
    print(f"exported {args.format} -> {out}")
    return Manifest(
        Path(str(out) + ".manifest.json"),
        {"format": args.format, "report": str(args.report)},
        [],
        [str(args.in_path), str(args.report)],
        [str(out)],
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chainlens", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"chainlens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic supply network")
    p.add_argument("--config", help="generator key=value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--schema", help="schema description file (default: built-in)")
    p.add_argument("--out", required=True, help="output triple file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("split", help="transductive train/valid/test split")
    p.add_argument("--in", dest="in_path", required=True, help="input triple file")
    p.add_argument("--config", help="split key=value config file")
    p.add_argument("--fractions", nargs=2, type=float, default=None,
                   metavar=("VALID", "TEST"), help="held-out fractions (default 0.1 0.1)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--schema", help="schema description file")
    p.add_argument("--check", action="store_true", help="verify the transductive property")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train an embedding model on a split")
    p.add_argument("--model", required=True, type=_model_kind,
                   help="one of: " + ", ".join(k.value for k in ModelKind))
    p.add_argument("--split-dir", required=True)
    p.add_argument("--config", help="training key=value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--schema", help="schema description file")
    p.add_argument("--grid", action="store_true",
                   help=f"search dims {GRID_DIMS} x learning rates {GRID_LEARNING_RATES}")
    p.add_argument("--out", required=True, help="output checkpoint (.npz)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank test queries and report MRR / hits@k")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split-dir", required=True)
    p.add_argument("--setting", choices=("raw", "filtered", "both"), default="filtered")
    p.add_argument("--tie", choices=("optimistic", "realistic", "pessimistic"), default="realistic")
    p.add_argument("--per-relation", action="store_true", help="write the per-relation MRR table")
    p.add_argument("--type-constrained", action="store_true",
                   help="restrict candidate objects to schema-legal target types")
    p.add_argument("--schema", help="schema description file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="criticality scores on the supplier subgraph")
    p.add_argument("--in", dest="in_path", required=True, help="input triple file")
    p.add_argument("--threshold", type=float, default=10.0)
    p.add_argument("--sole-scopes", action="store_true",
                   help="also list business scopes with exactly one related supplier")
    p.add_argument("--schema", help="schema description file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export", help="export an annotated graph for visualization")
    p.add_argument("--in", dest="in_path", required=True, help="input triple file")
    p.add_argument("--report", required=True, help="criticality.csv from `analyze`")
    p.add_argument("--format", choices=FORMATS, default="dot")
    p.add_argument("--schema", help="schema description file")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.perf_counter()
        manifest = args.func(args)
        if isinstance(manifest, int):  # the command's own check failed
            return manifest
        manifest.write(args.command, time.perf_counter() - started)
        return 0
    except UsageError as exc:
        print(f"chainlens: usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, SplitInfeasible) as exc:
        print(f"chainlens: infeasible: {exc}", file=sys.stderr)
        return 3
    except (ParseError, GraphError, CheckpointError, ExportMismatch, VocabularyMismatch, EmptyQuerySet,
            OSError) as exc:
        print(f"chainlens: error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"chainlens: error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
