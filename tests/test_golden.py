"""Golden sha256 digests of the default-seed CLI outputs.

The digests were taken from the per-source Brandes implementation before
the batched centralities replaced it.  Any change that alters a generated,
split, analyzed or exported byte at the default configuration fails here;
manifests are left out because they record wall-clock durations.
"""

import hashlib

from chainlens.cli import main

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
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN
