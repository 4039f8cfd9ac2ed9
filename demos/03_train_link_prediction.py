"""Train two embedding models and compare their link-prediction quality.

Object prediction: given (subject, predicate, ?), rank every entity as the
candidate object.  Scores come from RotatE (rotations in complex space) and
TransE (translations); training uses margin ranking loss with one sampled
negative per positive, Adam, and early stopping on validation hits@10.

Takes about 6 s on a 2-vCPU Xeon (both models stop early):

    python3 demos/03_train_link_prediction.py
"""

from chainlens import GeneratorConfig, ModelKind, SplitConfig, generate_synthetic, transductive_split
from chainlens.evaluation import build_filter_index, evaluate, per_relation_table
from chainlens.graph import RelationType
from chainlens.models import init_params
from chainlens.training import TrainConfig, train

graph = generate_synthetic(GeneratorConfig(seed=2024))
split = transductive_split(graph, SplitConfig(0.1, 0.1, seed=0))
train_arr, valid_arr, test_arr = split.train_ids, split.validation_ids, split.test_ids
n_entities, n_relations = graph.num_entities, len(RelationType)
filter_index = build_filter_index([train_arr, valid_arr, test_arr])

reports = {}
for kind in (ModelKind.ROTATE, ModelKind.TRANSE):
    config = TrainConfig(dim=64, learning_rate=0.001, max_epochs=150, eval_every=10,
                         patience=3, batch_size=512, seed=1)
    params, history = train(kind, train_arr, valid_arr, n_entities, n_relations, config)
    stopped = "early" if history.stopped_early else "at the cap"
    print(f"{kind.value}: best epoch {history.best_epoch} (stopped {stopped})")

    baseline = evaluate(init_params(kind, n_entities, n_relations, config),
                        test_arr, filter_index, setting="filtered")
    report = evaluate(params, test_arr, filter_index, setting="filtered")
    raw = evaluate(params, test_arr, filter_index, setting="raw")
    reports[kind.value] = report
    print(f"  filtered test MRR {report.mrr:.4f}  (random-parameter baseline {baseline.mrr:.4f})")
    print(f"  hits@1 {report.hits[1]:.3f}  hits@3 {report.hits[3]:.3f}  hits@10 {report.hits[10]:.3f}")
    print(f"  raw MRR {raw.mrr:.4f} <= filtered {report.mrr:.4f} (filtering only helps)")

# Per-relation breakdown, ranked best-to-worst within each model.
table = per_relation_table(reports)
print("\nPer-relation MRR (rank 1 = easiest relation for that model):")
print(table.to_text())
