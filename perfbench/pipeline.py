"""Workloads of the chainlens benchmark: set-up, timed stages and output checks.

A workload is a sequence of the ``chainlens`` commands a user runs on one
input, grouped in stages: ingest (generate, split --check, read back), train
each model, rank each model's test queries, analyze criticality, export in
three formats.  Each workload runs the stages it is about (see
``WORKLOADS``) and no others.

The commands run one after the other in this single process, a closed loop
with one client: each starts only after the previous one has finished.  Each
is timed in-process around ``chainlens.cli.main``; its manifest's
``duration_seconds`` is read back and compared with that time.

The end-to-end metrics, the same on every workload, are the set-up time,
the time of the timed stages (``wall_s``) and peak memory.  Each stage also
records its own figure per call (pairs trained per second per model, queries
ranked per second per model, analyze, export and ingest seconds); those are
printed and kept in the run's record, and the traced run reports them per
layer.

Outputs are checked after they are timed.  Every CLI call and every check is
one attempted operation; a non-zero exit code or a failed check is a failed
one.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
GOLDEN_FILE = HERE / "golden_sha256.json"

MODELS = ("RESCAL", "ComplEx", "TuckER", "TransE", "RotatE")
EXPORT_FORMATS = ("dot", "graphml", "json")

GENERATOR_CONFIGS = {"1x": None, "10x": CONFIGS / "gen10x.cfg"}
EXPECTED_SIZE = {"10x": (6940, 34500)}  # (entities, triples) at every seed

# Epoch budgets per model at dim 64, batch 512: a few seconds each on the
# default network, except TuckER, for which one epoch is the costliest step.
DIM = 64
EPOCHS = {"RESCAL": 3, "ComplEx": 6, "TuckER": 1, "TransE": 20, "RotatE": 10}

SETUP_REPS = 3
SAMPLE_QUERIES = 32  # queries ranked by both evaluate() and a rank_object loop
DIGEST_SEED = 0  # golden digests are pinned for this workload seed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: str  # "1x" is the default generator, "10x" configs/gen10x.cfg
    stages: dict[str, int]  # stage -> reps per iteration, in pipeline order


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lp-train-1x",
            "models score+gradient and the training Adam step dominate; ranking 694 candidates is a small share",
            "1x", {"train": 1, "rank": 1},
        ),
        Workload(
            "rank-10x",
            "full filtered ranking of 3,450 queries over 6,940 entities with untrained models; no gradients run",
            "10x", {"rank": 1},
        ),
        Workload(
            "criticality-10x",
            "Brandes betweenness and closeness on the 6,120-supplier subgraph dominate; no model code runs",
            "10x", {"analyze": 1, "export": 1},
        ),
        Workload(
            "ingest-10x",
            "graph store writes, both triple parsers and both writers at 10x; no models or centralities",
            "10x", {"ingest": 6},
        ),
    )
}


def count_triples(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith("#"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def unit(figure: str) -> str:
    """Unit of a stage figure."""
    return "1/s" if figure.startswith(("train_pairs_per_s.", "rank_queries_per_s.")) else "s"


@dataclass
class Run:
    """State of one benchmark run: its directory, seed, counters and samples."""

    workdir: Path
    seed: int
    manifest_tolerance: float
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    manifest_disagreements: list[str] = field(default_factory=list)
    timed: float = 0.0  # seconds spent in timed calls so far
    tracer: object = None  # a spans.Tracer during the traced iteration
    _check_inputs: dict = field(default_factory=dict)

    # -- bookkeeping -------------------------------------------------------
    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def path(self, *parts: str) -> Path:
        return self.workdir.joinpath(*parts)

    def untraced(self):
        """Context in which checks call chainlens without recording spans."""
        return self.tracer.off() if self.tracer else contextlib.nullcontext()

    def split_for_checks(self, split_dir: Path):
        """(test id array, filter index over all three parts), built once per run."""
        if split_dir not in self._check_inputs:
            from chainlens.dataset import load_split_dir
            from chainlens.evaluation import build_filter_index

            with self.untraced():
                _, train_arr, valid_arr, test_arr = load_split_dir(split_dir)
                self._check_inputs[split_dir] = test_arr, build_filter_index([train_arr, valid_arr, test_arr])
        return self._check_inputs[split_dir]

    # -- CLI calls -------------------------------------------------------------
    def cli(self, argv: list[str], manifest: Path) -> tuple[float, str]:
        """Run one chainlens command; returns (seconds, captured stdout)."""
        from chainlens.cli import main

        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main([str(a) for a in argv])
        seconds = time.perf_counter() - start
        self.timed += seconds
        if self.check(code == 0, f"chainlens {' '.join(map(str, argv))} exited {code}"):
            self._cross_check(argv[0], manifest, seconds)
        return seconds, out.getvalue()

    def _cross_check(self, command: str, manifest: Path, seconds: float) -> None:
        try:
            recorded = json.loads(manifest.read_text(encoding="utf-8"))["duration_seconds"]
        except (OSError, ValueError, KeyError) as exc:
            self.check(False, f"{command}: manifest {manifest} unreadable ({exc})")
            return
        gap = (seconds - recorded) / seconds
        if abs(gap) > self.manifest_tolerance:
            self.manifest_disagreements.append(
                f"{command}: timed {seconds:.4f} s, manifest {recorded:.4f} s ({gap:+.1%})"
            )


# ---------------------------------------------------------------------------
# Stages.  Each call takes one sample of its stage figure and checks what it
# produced.
# ---------------------------------------------------------------------------

def ingest(run: Run, scale: str) -> None:
    """generate, split --check, then read the split back.

    It rewrites, byte for byte, the network that set-up generated.
    """
    from chainlens.dataset import load_split_dir

    out = run.path(scale)
    graph_path, split_dir = out / "graph.tsv", out / "split"
    gen_args = ["--config", GENERATOR_CONFIGS[scale]] if GENERATOR_CONFIGS[scale] else []
    t_gen, said = run.cli(["generate", *gen_args, "--seed", run.seed, "--out", graph_path],
                          Path(str(graph_path) + ".manifest.json"))
    t_split, split_said = run.cli(
        ["split", "--in", graph_path, "--seed", run.seed, "--check", "--out", split_dir],
        split_dir / "manifest.json",
    )
    start = time.perf_counter()
    _, train_arr, valid_arr, test_arr = load_split_dir(split_dir)
    t_load = time.perf_counter() - start
    run.timed += t_load
    run.sample("ingest_s", t_gen + t_split + t_load)
    run.check("transductive check: PASS" in split_said, f"split --check did not pass at {scale}")
    n_triples = len(train_arr) + len(valid_arr) + len(test_arr)
    run.check(n_triples == count_triples(graph_path),
              f"{scale}: split read back {n_triples} triples, graph has {count_triples(graph_path)}")
    if scale in EXPECTED_SIZE:
        entities, triples = EXPECTED_SIZE[scale]
        run.check(f"generated {entities} entities, {triples} triples" in said,
                  f"{scale} generator output: {said.strip()!r}")


def prepare_scale(run: Run, scale: str, *, split: bool, init: bool) -> None:
    """Set-up: the graph of ``scale``, optionally its split and untrained checkpoints."""
    base = run.path(scale)
    shutil.rmtree(base, ignore_errors=True)
    gen_args = ["--config", GENERATOR_CONFIGS[scale]] if GENERATOR_CONFIGS[scale] else []
    run.cli(["generate", *gen_args, "--seed", run.seed, "--out", base / "graph.tsv"],
            base / "graph.tsv.manifest.json")
    if split:
        run.cli(["split", "--in", base / "graph.tsv", "--seed", run.seed, "--check", "--out", base / "split"],
                base / "split" / "manifest.json")
    if init:
        from chainlens.dataset import load_split_dir
        from chainlens.graph import RELATION_BY_INDEX
        from chainlens.models import ModelKind, init_params, save_checkpoint
        from chainlens.training import TrainConfig

        graph, *_ = load_split_dir(base / "split")
        (base / "init").mkdir(parents=True, exist_ok=True)
        for model in MODELS:
            params = init_params(ModelKind.from_name(model), graph.num_entities,
                                 len(RELATION_BY_INDEX), TrainConfig(dim=DIM, seed=run.seed))
            save_checkpoint(params, base / "init" / f"{model}.npz")


def train_config(run: Run, model: str) -> Path:
    """A training config that always runs the whole epoch budget: validation
    ranking runs once, at the last epoch, and patience 1 cannot stop it sooner."""
    path = run.path("configs", f"train_{model}.cfg")
    path.parent.mkdir(parents=True, exist_ok=True)
    epochs = EPOCHS[model]
    path.write_text(
        f"dim={DIM}\nbatch_size=512\nmax_epochs={epochs}\neval_every={epochs}\n"
        f"patience=1\nseed={run.seed}\n",
        encoding="utf-8",
    )
    return path


def train(run: Run, scale: str, model: str) -> None:
    from chainlens.models import load_checkpoint

    split_dir = run.path(scale, "split")
    ckpt = run.path(scale, "models", f"{model}.npz")
    seconds, _ = run.cli(
        ["train", "--model", model, "--split-dir", split_dir, "--config", train_config(run, model),
         "--out", ckpt],
        Path(str(ckpt) + ".manifest.json"),
    )
    n_train = count_triples(split_dir / "train.tsv")
    run.sample(f"train_pairs_per_s.{model}", trained_pairs(n_train, EPOCHS[model]) / seconds)
    if not ckpt.exists():
        return
    run.check(load_checkpoint(ckpt).all_finite(), f"{model} parameters not finite after training")
    last = Path(str(ckpt) + ".history.csv").read_text(encoding="utf-8").splitlines()[-1]
    run.check(last.split(",")[0] == str(EPOCHS[model]),
              f"{model} stopped before its {EPOCHS[model]}-epoch budget: {last!r}")


def trained_pairs(n_train: int, epochs: int, negatives_per_positive: int = 1) -> int:
    """(positive, negative) pairs that ``epochs`` epochs over ``n_train`` triples train."""
    return n_train * negatives_per_positive * epochs


def ranked_queries(n_test: int, setting: str) -> int:
    """Queries one ``chainlens eval`` ranks: every test triple, once per setting."""
    return n_test * (2 if setting == "both" else 1)


def rank(run: Run, scale: str, model: str, checkpoints: str, setting: str, per_relation: bool) -> None:
    split_dir = run.path(scale, "split")
    ckpt = run.path(scale, checkpoints, f"{model}.npz")
    out = run.path(scale, "eval", model)
    argv = ["eval", "--checkpoint", ckpt, "--split-dir", split_dir, "--setting", setting, "--out", out]
    if per_relation:
        argv.append("--per-relation")
    seconds, _ = run.cli(argv, out / "manifest.json")
    n_test = count_triples(split_dir / "test.tsv")
    run.sample(f"rank_queries_per_s.{model}", ranked_queries(n_test, setting) / seconds)
    if setting == "both" and (out / "eval_raw.csv").exists():
        filtered, raw = overall_mrr(out / "eval_filtered.csv"), overall_mrr(out / "eval_raw.csv")
        run.check(filtered >= raw, f"{model} at {scale}: filtered MRR {filtered} < raw MRR {raw}")
    if ckpt.exists():
        check_ranking_sample(run, ckpt, split_dir)


def overall_mrr(report_csv: Path) -> float:
    with open(report_csv, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["relation"] == "ALL":
                return float(row["mrr"])
    raise ValueError(f"{report_csv}: no ALL row")


def check_ranking_sample(run: Run, ckpt: Path, split_dir: Path) -> None:
    """evaluate()'s MRR on a fixed query sample equals a scalar rank_object loop."""
    import numpy as np

    from chainlens.evaluation import Query, evaluate, rank_object
    from chainlens.models import load_checkpoint

    params = load_checkpoint(ckpt)
    test_arr, index = run.split_for_checks(split_dir)
    rng = np.random.default_rng(run.seed)
    sample = test_arr[np.sort(rng.choice(len(test_arr), min(SAMPLE_QUERIES, len(test_arr)), replace=False))]
    with run.untraced():
        batched = evaluate(params, sample, index, setting="filtered").mrr
        scalar = float(np.mean([
            1.0 / rank_object(params, Query(int(s), int(r), int(o)), index, "filtered").rank
            for s, r, o in sample
        ]))
    run.check(math.isclose(batched, scalar, rel_tol=1e-12),
              f"{ckpt.stem}: evaluate() MRR {batched} != rank_object loop MRR {scalar}")


def analyze(run: Run, scale: str) -> None:
    graph_path, out = run.path(scale, "graph.tsv"), run.path(scale, "analysis")
    seconds, _ = run.cli(["analyze", "--in", graph_path, "--sole-scopes", "--out", out],
                         out / "manifest.json")
    run.sample("analyze_s", seconds)
    report = out / "criticality.csv"
    if report.exists():
        with open(report, newline="", encoding="utf-8") as fh:
            scores = [float(row["aggregated_score"]) for row in csv.DictReader(fh)]
        run.check(bool(scores) and all(0.0 <= s <= 50.0 for s in scores),
                  f"{scale}: aggregated scores outside [0, 50]")


def export(run: Run, scale: str) -> None:
    graph_path, report = run.path(scale, "graph.tsv"), run.path(scale, "analysis", "criticality.csv")
    total = 0.0
    for fmt in EXPORT_FORMATS:
        out = run.path(scale, "export", f"graph.{fmt}")
        seconds, _ = run.cli(["export", "--in", graph_path, "--report", report, "--format", fmt,
                              "--out", out], Path(str(out) + ".manifest.json"))
        total += seconds
        run.check(out.exists() and out.stat().st_size > 0, f"{scale}: empty {fmt} export")
    run.sample("export_s", total)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def setup(run: Run, workload: Workload) -> None:
    """The workload's network; its split when it trains or ranks; untrained
    checkpoints when it ranks without training (one TuckER epoch at 10x
    would take minutes)."""
    stages = workload.stages
    prepare_scale(run, workload.scale, split="train" in stages or "rank" in stages,
                  init="rank" in stages and "train" not in stages)


def stage_calls(run: Run, workload: Workload, stage: str) -> list[Callable[[], None]]:
    """One rep of ``stage``: one call per model for training and ranking."""
    scale = workload.scale
    if stage == "ingest":
        return [functools.partial(ingest, run, scale)]
    if stage == "train":
        return [functools.partial(train, run, scale, m) for m in MODELS]
    if stage == "rank":
        checkpoints = "models" if "train" in workload.stages else "init"
        # the default network's user ranks with both settings and the per-relation table
        full = scale == "1x"
        return [functools.partial(rank, run, scale, m, checkpoints, "both" if full else "filtered", full)
                for m in MODELS]
    if stage == "analyze":
        return [functools.partial(analyze, run, scale)]
    return [functools.partial(export, run, scale)]


def iteration(run: Run, workload: Workload) -> None:
    """One pass over the workload's stages, in pipeline order."""
    for stage, reps in workload.stages.items():
        for _ in range(reps):
            for call in stage_calls(run, workload, stage):
                call()


def output_digests(workdir: Path) -> dict[str, str]:
    """sha256 of every generate, split, analyze-CSV and export output present."""
    patterns = ("*/graph.tsv", "*/split/*.tsv", "*/analysis/criticality.csv", "*/export/graph.*")
    found = {}
    for pattern in patterns:
        for path in workdir.glob(pattern):
            if not path.name.endswith(".manifest.json"):
                found[path.relative_to(workdir).as_posix()] = sha256(path)
    return dict(sorted(found.items()))


def check_digests(run: Run) -> None:
    if run.seed != DIGEST_SEED:
        return
    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    found = output_digests(run.workdir)
    run.check(bool(found), "no digestible outputs")
    for name, digest in found.items():
        run.check(golden.get(name) == digest, f"{name}: sha256 {digest} differs from golden {golden.get(name)}")
