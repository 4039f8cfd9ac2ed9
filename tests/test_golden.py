"""Golden sha256 digests of the default-seed CLI outputs.

The digests were taken from the per-source Brandes implementation before
the batched centralities replaced it.  Any change that alters a generated,
split, analyzed or exported byte at the default configuration fails here;
manifests are left out because they record wall-clock durations.

The eval digests rank the golden test split with untrained TransE and RotatE
checkpoints.  Their scores use no BLAS call, so the bytes do not depend on
the machine's linear-algebra library.

The train digests pin the checkpoint and history of three epochs of TransE,
RotatE and ComplEx on the golden split.  Their gradients and Adam steps use
no BLAS call either; ComplEx ranks with a GEMM, so its run evaluates never.
"""

import hashlib

import pytest

from chainlens.cli import main
from chainlens.dataset import load_split_dir
from chainlens.graph import RELATION_BY_INDEX
from chainlens.models import ModelKind, init_params, save_checkpoint
from chainlens.training import TrainConfig

GOLDEN = {
    "graph.tsv": "5c0defd0c9559cd6ca42977fb7cb19571675cea47d4c823206e415fa04344556",
    "split/train.tsv": "20c858b0499d3796147856539cff52efabaa8a953576fb1e721515b2b2762fc8",
    "split/valid.tsv": "5c3055cdb6335a74a8a069403829fd339c401bc873b58adc10bc62ea62f54b7a",
    "split/test.tsv": "02eb73c71fa6fcec5d811680ac5845b61be9795970bc30ac0ef30386ac1a40cb",
    "analysis/criticality.csv": "c3f17e6b0951796dd5e7321440994f2c0a132cb8b953e71cd45b6ba248cd435e",
    "analysis/summary.txt": "500f2de571a50ca4060c0461236c453b6a8f746cbece55a2b6fa584c7e2d67e3",
    "analysis/sole_scopes.csv": "115edf39aef7ff3117a65e749bfdf440f155b2a88eabf0e908a7c1363a901c03",
    "export/graph.dot": "8255de28db874e1fb8d06303ba241669214b12d8185e7a969d3fe7c55db62051",
    "export/graph.graphml": "f0bae86a06039c2d846dbc572ede4d208e751ce2f388d61796a8496d6aa60cfb",
    "export/graph.json": "b4ccd5b0d543305ed31b5ff8a0af664750d9204d087f92ef47b7f00bbf15b57a",
}

EVAL_FILES = ("eval_raw.txt", "eval_raw.csv", "eval_filtered.txt", "eval_filtered.csv", "per_relation.csv")

EVAL_GOLDEN = {
    "TransE/all/eval_raw.txt": "f6d30f936fdfc0f39e38dbb84e6ca07bfda1f98ba106786586d9c9d45f76f80c",
    "TransE/all/eval_raw.csv": "92b14636fa552331ad78892e4393b85d6efff510ed441888a7c0c1d65d5f4876",
    "TransE/all/eval_filtered.txt": "40c2473465a14eac39f3a60b5f7dc4dc0726705e635617454eb575e21ec062f7",
    "TransE/all/eval_filtered.csv": "e15adf5a4731834af22ac3eeb0049cc7b2d0078f93bd8705f6b5a1b0253de860",
    "TransE/all/per_relation.csv": "8b3feaf258d855dc3f55cc27e46722ddb7af41826b3c03f1bbaa7b791b37abc7",
    "TransE/typed/eval_raw.txt": "41c295716d556a5e1c30e16403e2ccb1dc3c848842d8fdba8983e563a60ad9fc",
    "TransE/typed/eval_raw.csv": "329df39cceb5f62b1c63d1981363e1e157636c188c89479ce7a789f6e00550fe",
    "TransE/typed/eval_filtered.txt": "68b601a569cdef48176f53f08a1ed7fdcfd23b891bdb6316b78f59dfc41e761e",
    "TransE/typed/eval_filtered.csv": "ec6c5639c6face7eaad6efe1f68eeb2286aa5fb4269022a21ac52cc6d2aa0df9",
    "TransE/typed/per_relation.csv": "01b2b982fb1facf5da63676f5532d5cb0a37f708399a54266113a5a0ec9fb960",
    "RotatE/all/eval_raw.txt": "612d17cb7069067847fb3d81348e738c58ff4d3b9ba9f6d41c992f18050d0d5e",
    "RotatE/all/eval_raw.csv": "a19a2264754e7116573602852751fe976628235fc048bdc6a137746ccd61f2da",
    "RotatE/all/eval_filtered.txt": "2d9df1996e0b4f5ab2da878d734d1ee2c60bb17a12a03ccc9d04b12e6358648f",
    "RotatE/all/eval_filtered.csv": "ce27e13b2652b39f1e6b3fb327a9f4e1590b15aa9b92099af71a4fad555a60e1",
    "RotatE/all/per_relation.csv": "6dabcb48cb193f191610663a4183ca496135bfab06056402273995e5f9649993",
    "RotatE/typed/eval_raw.txt": "45788811ce9bddb2b9e72abe4d359ce6d3932703ca338da6c6251864739f155b",
    "RotatE/typed/eval_raw.csv": "3df7ee681b325f115d5e07887b3f8c836f91a159da9eb6ebd3b44bc1d8d4eaec",
    "RotatE/typed/eval_filtered.txt": "e967c6365241c9096f647098ce9d8e96d9226d89b8d8793f1e5cea2e035057e3",
    "RotatE/typed/eval_filtered.csv": "40f1cb25c1743378859ac53d504b6980fecd6f1e8cc6473c08b1c504f304e034",
    "RotatE/typed/per_relation.csv": "1e4552ad7d12edbfc993e1ebc3ca5037391f883579418edde71ffbaf087ce6bf",
}

TRAIN_CONFIGS = {
    "TransE": "max_epochs=3\neval_every=3\n",
    "RotatE": "max_epochs=3\neval_every=3\n",
    "ComplEx": "max_epochs=3\neval_every=4\n",
}

TRAIN_GOLDEN = {
    "TransE/model.npz": "bdcee4f206387000b8c821dec810f1d0b8f4302ec3d21115d20d642dfbbd0835",
    "TransE/model.npz.history.csv": "f36c56716007b5c00a38e77143b9855e6250fbe49658702bc8f34f1f5f34fb2a",
    "RotatE/model.npz": "2e03be1c374b6029e4ec0ee8bd19a5a2d3c590954ba1693f4c5e754966238191",
    "RotatE/model.npz.history.csv": "ec68f149539dd571e488c11648c4329ee3c859cd48330b793c8754f04846ba73",
    "ComplEx/model.npz": "4ba451f3be0e2a7235da28b7c99b6d14931f193f0da2a928fb6064e853ff4d67",
    "ComplEx/model.npz.history.csv": "15ab1d68fac6b434d3315366a8278b4815eff2f94cc4657186b6cbc206a98d06",
}

# 64 business scopes at seed 0 leave one scope with a single related supplier
SOLE_SCOPE_GOLDEN = "29f8a23481ca737d8d39e110dc8b3c2acf439f7adbaa4854dc126043b7f038fd"


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_pipeline_outputs_match_golden_digests(tmp_path):
    graph = str(tmp_path / "graph.tsv")
    analysis = tmp_path / "analysis"
    assert main(["generate", "--out", graph]) == 0
    assert main(["split", "--in", graph, "--out", str(tmp_path / "split")]) == 0
    assert main(["analyze", "--in", graph, "--sole-scopes", "--out", str(analysis)]) == 0
    for fmt in ("dot", "graphml", "json"):
        code = main([
            "export", "--in", graph, "--report", str(analysis / "criticality.csv"),
            "--format", fmt, "--out", str(tmp_path / "export" / f"graph.{fmt}"),
        ])
        assert code == 0
    digests = {name: digest(tmp_path / name) for name in GOLDEN}
    assert digests == GOLDEN


@pytest.mark.parametrize("constrained", [False, True], ids=["all", "typed"])
@pytest.mark.parametrize("kind", [ModelKind.TRANSE, ModelKind.ROTATE], ids=lambda k: k.value)
def test_eval_outputs_match_golden_digests(tmp_path, kind, constrained):
    graph, split = tmp_path / "graph.tsv", tmp_path / "split"
    assert main(["generate", "--out", str(graph)]) == 0
    assert main(["split", "--in", str(graph), "--out", str(split)]) == 0
    vocabulary = load_split_dir(split)[0]
    params = init_params(kind, vocabulary.num_entities, len(RELATION_BY_INDEX), TrainConfig())
    params.vocabulary_sha256 = vocabulary.vocabulary_sha256()
    ckpt = save_checkpoint(params, tmp_path / "model.npz")
    out = tmp_path / "eval"
    argv = ["eval", "--checkpoint", str(ckpt), "--split-dir", str(split), "--setting", "both",
            "--per-relation", "--out", str(out)]
    assert main(argv + (["--type-constrained"] if constrained else [])) == 0
    mode = "typed" if constrained else "all"
    digests = {f"{kind.value}/{mode}/{name}": digest(out / name) for name in EVAL_FILES}
    assert digests == {key: EVAL_GOLDEN[key] for key in digests}


def test_sole_scope_rows_match_golden_digest(tmp_path):
    config, graph, analysis = tmp_path / "gen.cfg", tmp_path / "graph.tsv", tmp_path / "analysis"
    config.write_text("business_scopes=64\n", encoding="utf-8")
    assert main(["generate", "--config", str(config), "--out", str(graph)]) == 0
    assert main(["analyze", "--in", str(graph), "--sole-scopes", "--out", str(analysis)]) == 0
    rows = (analysis / "sole_scopes.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "business_scope,supplier" and len(rows) >= 2
    assert digest(analysis / "sole_scopes.csv") == SOLE_SCOPE_GOLDEN


@pytest.mark.parametrize("kind", list(TRAIN_CONFIGS))
def test_train_outputs_match_golden_digests(tmp_path, kind):
    graph, split, config = tmp_path / "graph.tsv", tmp_path / "split", tmp_path / "train.cfg"
    assert main(["generate", "--out", str(graph)]) == 0
    assert main(["split", "--in", str(graph), "--out", str(split)]) == 0
    config.write_text(TRAIN_CONFIGS[kind], encoding="utf-8")
    out = tmp_path / kind / "model.npz"
    assert main(["train", "--model", kind, "--split-dir", str(split), "--config", str(config), "--out", str(out)]) == 0
    digests = {f"{kind}/{name}": digest(tmp_path / kind / name) for name in ("model.npz", "model.npz.history.csv")}
    assert digests == {key: TRAIN_GOLDEN[key] for key in digests}
