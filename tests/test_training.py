import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from chainlens.dataset import ConfigError
import chainlens.models as models
from chainlens.models import (
    ModelKind,
    ModelParams,
    apply_constraints,
    batch_loss_and_gradients,
    corrupt_batch,
    init_params,
    training_bytes,
)
from chainlens.training import (
    GRID_DIMS,
    GRID_LEARNING_RATES,
    AdamState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    grid_search,
    train,
)

from reference_models import add_at_batch_loss_and_gradients, reference_adam_step, reference_apply_constraints


def tiny_triples(n_ent=15, n_rel=2, n=40, seed=0, acyclic=True):
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < n:
        s, r, o = int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent))
        if acyclic and not s < o:
            continue
        if s != o:
            seen.add((s, r, o))
    return np.array(sorted(seen), dtype=np.int64)


# -- Adam --------------------------------------------------------------------

def scalar_adam_reference(grad, lr, b1, b2, eps, steps):
    """Independent scalar Adam, straight from the update equations."""
    theta, m, v = 0.0, 0.0, 0.0
    trajectory = []
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(theta)
    return trajectory


def test_adam_matches_scalar_reference():
    cfg = TrainConfig(dim=1, learning_rate=0.01, seed=0)
    params = ModelParams(ModelKind.RESCAL, 1, 1, 1, 0, {"w": np.zeros(1)})
    state = AdamState.for_params(params)
    grads = {"w": np.array([0.37])}
    reference = scalar_adam_reference(0.37, 0.01, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon, 50)
    for expected in reference:
        adam_step(params, grads, state, cfg)
        assert params.blocks["w"][0] == pytest.approx(expected, rel=1e-12)


def test_adam_constant_gradient_update_approaches_lr():
    cfg = TrainConfig(dim=1, learning_rate=0.004, seed=0)
    params = ModelParams(ModelKind.RESCAL, 1, 1, 1, 0, {"w": np.zeros(1)})
    state = AdamState.for_params(params)
    grads = {"w": np.array([-2.5])}
    prev = params.blocks["w"][0]
    for _ in range(1000):
        adam_step(params, grads, state, cfg)
        delta = abs(params.blocks["w"][0] - prev)
        prev = params.blocks["w"][0]
    assert delta == pytest.approx(cfg.learning_rate, rel=0.05)
    assert state.step == 1000


def test_adam_zero_gradient_only_projects():
    cfg = TrainConfig(dim=8, seed=1)
    params = init_params(ModelKind.TRANSE, 5, 2, cfg)
    before = {k: v.copy() for k, v in params.blocks.items()}
    zero = {k: np.zeros_like(v) for k, v in params.blocks.items()}
    adam_step(params, zero, AdamState.for_params(params), cfg)
    for name in before:
        np.testing.assert_allclose(params.blocks[name], before[name], atol=1e-12)
    norms = np.linalg.norm(params.blocks["entity"], axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_transe_projection_has_the_bits_of_linalg_norm_without_an_entity_sized_temporary():
    cfg = TrainConfig(dim=32, seed=5)
    params = init_params(ModelKind.TRANSE, 500, 3, cfg)
    params.blocks["entity"] *= np.random.default_rng(5).uniform(0.1, 3.0, size=(500, 1))
    expected = params.copy()
    reference_apply_constraints(expected)
    scratch = AdamState.for_params(params).scratch["entity"][0]
    tracemalloc.start()
    try:
        apply_constraints(params, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.blocks["entity"].nbytes, peak
    assert params.blocks["entity"].tobytes() == expected.blocks["entity"].tobytes()


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_adam_steps_equal_the_reference_bit_for_bit(kind):
    # unusual constants too, so that no operation of the update can be reordered unnoticed
    n_ent, n_rel = 30, 5
    for cfg in (TrainConfig(dim=16, learning_rate=0.01, seed=3),
                TrainConfig(dim=16, learning_rate=0.37, adam_beta1=0.55, adam_beta2=0.7, adam_epsilon=0.3, seed=4)):
        params, rng = init_params(kind, n_ent, n_rel, cfg), np.random.default_rng(cfg.seed)
        ref_params, state, ref_state = params.copy(), AdamState.for_params(params), AdamState.for_params(params)
        for _ in range(5):
            pos = np.column_stack([rng.integers(n_ent, size=64), rng.integers(n_rel, size=64),
                                   rng.integers(n_ent, size=64)])
            grads = batch_loss_and_gradients(params, pos, corrupt_batch(pos, n_ent, rng), cfg.margin)[1]
            kept = {name: g.copy() for name, g in grads.items()}
            adam_step(params, grads, state, cfg)
            reference_adam_step(ref_params, grads, ref_state, cfg)
            assert all(grads[name].tobytes() == kept[name].tobytes() for name in grads), "grads were changed"
            for name in params.blocks:
                assert params.blocks[name].tobytes() == ref_params.blocks[name].tobytes(), name
                assert state.m[name].tobytes() == ref_state.m[name].tobytes(), f"m {name}"
                assert state.v[name].tobytes() == ref_state.v[name].tobytes(), f"v {name}"
        assert state.step == ref_state.step == 5


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_five_steps_on_one_workspace_and_adam_state_equal_the_reference(kind):
    """Five training steps, each writing into the same workspace and Adam scratch (the last
    batch shorter), against the add.at step and plain-expression Adam on a copy.  Losses are
    bit-identical; RESCAL and TuckER gradients agree within 1e-12, and the copy's Adam then
    takes the step's own, so that both sides keep the same parameters."""
    n_ent, n_rel = 30, 5
    cfg = TrainConfig(dim=16, learning_rate=0.05, margin=0.5, seed=7)
    params, rng = init_params(kind, n_ent, n_rel, cfg), np.random.default_rng(7)
    ref, state = params.copy(), AdamState.for_params(params)
    ref_state = AdamState.for_params(ref)
    ws = models._BatchWorkspace(params, 64)
    for size in (64, 64, 64, 64, 23):
        pos = np.column_stack([rng.integers(n_ent, size=size), rng.integers(n_rel, size=size),
                               rng.integers(n_ent, size=size)])
        neg = corrupt_batch(pos, n_ent, rng)
        losses, grads = batch_loss_and_gradients(params, pos, neg, cfg.margin, ws)
        ref_losses, ref_grads = add_at_batch_loss_and_gradients(ref, pos, neg, cfg.margin)
        assert losses.tobytes() == ref_losses.tobytes()
        if kind in (ModelKind.RESCAL, ModelKind.TUCKER):
            for name in grads:
                np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12, err_msg=name)
            ref_grads = {name: g.copy() for name, g in grads.items()}
        else:
            assert all(grads[name].tobytes() == ref_grads[name].tobytes() for name in grads)
        adam_step(params, grads, state, cfg)
        reference_adam_step(ref, ref_grads, ref_state, cfg)
        for name in params.blocks:
            assert params.blocks[name].tobytes() == ref.blocks[name].tobytes(), name
            assert state.m[name].tobytes() == ref_state.m[name].tobytes(), f"m {name}"
            assert state.v[name].tobytes() == ref_state.v[name].tobytes(), f"v {name}"


def test_adam_preserves_constraints_for_complex_models():
    triples = tiny_triples()
    cfg = TrainConfig(dim=8, max_epochs=20, eval_every=10, batch_size=16, seed=2)
    params, _ = train(ModelKind.ROTATE, triples, triples[:8], 15, 2, cfg)
    phases = params.blocks["relation"]
    assert (phases >= 0.0).all() and (phases < 2.0 * np.pi).all()
    params, _ = train(ModelKind.TRANSE, triples, triples[:8], 15, 2, cfg)
    norms = np.linalg.norm(params.blocks["entity"], axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


# -- training loop -----------------------------------------------------------

def test_train_is_deterministic():
    triples = tiny_triples()
    cfg = TrainConfig(dim=8, max_epochs=30, eval_every=10, batch_size=16, seed=5)
    p1, h1 = train(ModelKind.COMPLEX, triples, triples[:8], 15, 2, cfg)
    p2, h2 = train(ModelKind.COMPLEX, triples, triples[:8], 15, 2, cfg)
    assert [(r.epoch, r.hits10, r.mrr, r.mean_loss) for r in h1.records] == [
        (r.epoch, r.hits10, r.mrr, r.mean_loss) for r in h2.records
    ]
    for name in p1.blocks:
        assert np.array_equal(p1.blocks[name], p2.blocks[name])


def test_train_loss_decreases_on_tiny_graph():
    # 5 entities, 8 triples, TransE dim 16
    triples = np.array(
        [(0, 0, 1), (0, 0, 2), (1, 0, 2), (1, 0, 3), (2, 0, 3), (2, 0, 4), (3, 0, 4), (0, 1, 4)],
        dtype=np.int64,
    )
    # hits@10 over 5 candidates is saturated at 1.0, so disable early stopping
    cfg = TrainConfig(
        dim=16, learning_rate=0.01, max_epochs=50, eval_every=1, patience=100, batch_size=8, seed=0
    )
    _, history = train(ModelKind.TRANSE, triples, triples, 5, 2, cfg)
    losses = [r.mean_loss for r in history.records]
    assert len(losses) == 50
    assert np.mean(losses[:5]) > np.mean(losses[-5:])


def test_train_params_stay_finite():
    triples = tiny_triples()
    for kind in ModelKind:
        cfg = TrainConfig(dim=8, max_epochs=15, eval_every=5, batch_size=16, seed=3)
        params, _ = train(kind, triples, triples[:8], 15, 2, cfg)
        assert params.all_finite()


@pytest.mark.parametrize("kind", list(ModelKind))
def test_train_stops_when_parameters_overflow(kind):
    triples = tiny_triples()
    cfg = TrainConfig(dim=8, learning_rate=1e308, max_epochs=5, eval_every=5, batch_size=16)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="epoch 1") as info:
        train(kind, triples, triples[:8], 15, 2, cfg)
    assert info.value.epoch == 1


def test_train_stops_at_first_non_finite_loss(monkeypatch):
    import chainlens.training as training_mod

    real = training_mod.batch_loss_and_gradients
    calls = []

    def nan_from_third_epoch(params, pos, neg, margin, workspace=None):
        calls.append(1)
        losses, grads = real(params, pos, neg, margin, workspace)
        return (losses * np.nan if len(calls) > 6 else losses), grads

    monkeypatch.setattr(training_mod, "batch_loss_and_gradients", nan_from_third_epoch)
    triples = tiny_triples(n=40)  # 3 batches of 16 per epoch
    cfg = TrainConfig(dim=8, max_epochs=10, eval_every=5, batch_size=16)
    with pytest.raises(TrainingDiverged, match="TransE diverged at epoch 3: mean loss nan") as info:
        train(ModelKind.TRANSE, triples, triples[:8], 15, 2, cfg)
    assert info.value.epoch == 3 and len(calls) == 9


def scripted_evaluate(monkeypatch, hits10):
    """Make training's validation evaluations return the given hits@10 values,
    in turn; returns the list of parameter snapshots, one per evaluation."""
    import chainlens.training as training_mod

    values = iter(hits10)
    snapshots = []

    def fake_evaluate(params, queries, filter_index=None, setting="filtered"):
        assert setting == "filtered" and filter_index is not None
        snapshots.append(params.copy())
        return SimpleNamespace(hits={10: next(values)}, mrr=0.25)

    monkeypatch.setattr(training_mod, "evaluate", fake_evaluate)
    return snapshots


def test_early_stopping_plateau_timing_and_best_checkpoint(monkeypatch):
    triples = tiny_triples()
    cfg = TrainConfig(dim=8, max_epochs=1000, eval_every=10, patience=3, batch_size=16, seed=7)
    snapshots = scripted_evaluate(monkeypatch, [0.5] * 5)  # plateau from the very first evaluation
    params, history = train(ModelKind.TRANSE, triples, triples[:8], 15, 2, cfg)
    assert len(snapshots) == 4  # patience+1 = 4 evaluations
    assert history.stopped_early
    assert history.best_epoch == 10
    for name in params.blocks:  # returned checkpoint is the best (first) one
        assert np.array_equal(params.blocks[name], snapshots[0].blocks[name])
        assert not np.array_equal(params.blocks[name], snapshots[-1].blocks[name])
    assert [r.epoch for r in history.records] == [10, 20, 30, 40]
    assert [(r.hits10, r.mrr) for r in history.records] == [(0.5, 0.25)] * 4


def test_early_stopping_improvement_resets_patience(monkeypatch):
    triples = tiny_triples()
    cfg = TrainConfig(dim=8, max_epochs=1000, eval_every=10, patience=3, batch_size=16, seed=7)
    snapshots = scripted_evaluate(monkeypatch, [0.1, 0.2, 0.2, 0.2, 0.3, 0.3, 0.3, 0.3, 0.9])
    params, history = train(ModelKind.TRANSE, triples, triples[:8], 15, 2, cfg)
    # improvements at 10, 20, 50; three flat evaluations after 50 stop at 80
    assert [r.epoch for r in history.records] == [10, 20, 30, 40, 50, 60, 70, 80]
    assert len(snapshots) == 8
    assert history.best_epoch == 50
    assert history.stopped_early
    for name in params.blocks:
        assert np.array_equal(params.blocks[name], snapshots[4].blocks[name])


def test_train_without_evaluations_returns_final_params():
    triples = tiny_triples()
    cfg = TrainConfig(dim=8, max_epochs=5, eval_every=10, batch_size=16, seed=1)
    params, history = train(ModelKind.TRANSE, triples, triples[:8], 15, 2, cfg)
    assert history.records == []
    assert history.best_epoch == 5
    assert params.all_finite()


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(dim=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(margin=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)


def test_train_config_from_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("dim=32\nlearning_rate=0.01\nmax_epochs=7\nseed=9\n")
    cfg = TrainConfig.from_file(path)
    assert (cfg.dim, cfg.learning_rate, cfg.max_epochs, cfg.seed) == (32, 0.01, 7, 9)
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope=1\n")
    with pytest.raises(ConfigError, match="nope"):
        TrainConfig.from_file(bad)


def test_history_csv_round_numbers(tmp_path):
    triples = tiny_triples()
    cfg = TrainConfig(dim=8, max_epochs=20, eval_every=10, batch_size=16, seed=5)
    _, history = train(ModelKind.TRANSE, triples, triples[:8], 15, 2, cfg)
    path = tmp_path / "history.csv"
    history.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,hits@10,mrr,loss"
    assert len(lines) == 1 + len(history.records)


# -- memory preflight ----------------------------------------------------------

@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_training_bytes_is_within_a_quarter_of_the_traced_peak(kind):
    # no validation triples, so the run holds what the estimate counts and no ranking buffers
    rng = np.random.default_rng(0)
    n_ent, n_rel, n = 2000, 4, 1200
    triples = np.column_stack([rng.integers(n_ent, size=n), rng.integers(n_rel, size=n),
                               rng.integers(n_ent, size=n)])
    for dim in (8, 16, 32):
        cfg = TrainConfig(dim=dim, max_epochs=1, batch_size=256, negatives_per_positive=2, seed=0)
        tracemalloc.start()
        try:
            train(kind, triples, np.empty((0, 3), dtype=np.int64), n_ent, n_rel, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = training_bytes(kind, n_ent, n_rel, dim, 256, 2)
        assert abs(estimate - peak) <= 0.25 * peak, (dim, estimate, peak)


def test_training_bytes_counts_sizes_no_array_could_have():
    # TuckER's core alone is 4096^3 float64s, 512 GiB: seven copies of it and the rest
    assert training_bytes(ModelKind.TUCKER, 694, 8, 4096, 512, 1) > 7 * 512 * 2**30
    assert training_bytes(ModelKind.TRANSE, 694, 8, 64, 512, 10**8) > 512 * 10**8 * 8 * 64


def test_train_over_the_memory_limit_refuses_before_it_allocates(monkeypatch):
    import chainlens.training as training_mod

    triples = tiny_triples()
    cfg = TrainConfig(dim=8, max_epochs=1, batch_size=16)
    needed = training_bytes(ModelKind.TRANSE, 15, 2, 8, 16, 1)
    monkeypatch.setattr(training_mod, "memory_limit", lambda: needed - 1)
    monkeypatch.setattr(training_mod, "init_params", lambda *args: pytest.fail("allocated parameters"))
    with pytest.raises(ConfigError, match="TransE at dim 8 needs about .* GiB to train, more than the"):
        train(ModelKind.TRANSE, triples, triples[:8], 15, 2, cfg)


def test_memory_limit_is_positive_and_at_most_physical_ram():
    import os

    import chainlens.training as training_mod

    assert 0 < training_mod.memory_limit() <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def cgroup_files(monkeypatch, tmp_path, listing):
    """Point memory_limit at a /proc/self/cgroup holding ``listing`` and at empty hierarchies under tmp_path."""
    import chainlens.training as training_mod

    proc = tmp_path / "proc_self_cgroup"
    proc.write_text(listing)
    v2, v1 = tmp_path / "v2", tmp_path / "v1"
    monkeypatch.setattr(training_mod, "PROC_SELF_CGROUP", str(proc))
    monkeypatch.setattr(training_mod, "CGROUP_V2", (str(v2), "memory.max"))
    monkeypatch.setattr(training_mod, "CGROUP_V1_MEMORY", (str(v1), "memory.limit_in_bytes"))
    return v2, v1


def test_memory_limit_reads_a_cgroup_limit_and_ignores_max(monkeypatch, tmp_path):
    import chainlens.training as training_mod

    v2, v1 = cgroup_files(monkeypatch, tmp_path, "4:memory:/\n0::/\n")
    v2.mkdir()
    (v2 / "memory.max").write_text("max\n")
    physical = training_mod.memory_limit()  # "max" and a missing file set no limit
    v1.mkdir()
    (v1 / "memory.limit_in_bytes").write_text("1048576\n")
    assert training_mod.memory_limit() == 1048576 < physical


@pytest.mark.parametrize("version", ["v2", "v1"])
def test_memory_limit_reads_the_own_nested_cgroup_and_its_ancestors(monkeypatch, tmp_path, version):
    """A process in a nested cgroup with no cgroup namespace: the hierarchy's root sets no limit,
    its own cgroup and a parent do, and the least of them holds."""
    import chainlens.training as training_mod

    v2, v1 = cgroup_files(monkeypatch, tmp_path, "5:cpu,cpuacct:/other\n4:memory:/pods/pod1/box\n"
                                                 "0::/system.slice/job.scope\n")
    mount, name, parent, own = ((v2, "memory.max", "system.slice", "job.scope") if version == "v2"
                                else (v1, "memory.limit_in_bytes", "pods/pod1", "box"))
    (mount / parent / own).mkdir(parents=True)
    (mount / name).write_text("max\n" if version == "v2" else "9223372036854771712\n")
    physical = training_mod.memory_limit()
    (mount / parent / own / name).write_text("3145728\n")
    assert training_mod.memory_limit() == 3145728 < physical
    (mount / parent / name).write_text("2097152\n")
    assert training_mod.memory_limit() == 2097152
    # another controller's path, or a cgroup this process is not in, sets nothing
    (v1 / "other").mkdir(parents=True, exist_ok=True)
    (v1 / "other" / "memory.limit_in_bytes").write_text("1024\n")
    (mount / parent / "sibling").mkdir()
    (mount / parent / "sibling" / name).write_text("1024\n")
    assert training_mod.memory_limit() == 2097152


@pytest.mark.parametrize("version", ["v2", "v1"])
def test_memory_available_takes_what_each_cgroup_and_the_machine_have_free(monkeypatch, tmp_path, version):
    """The least of the limit, each limited level's limit less its usage, and MemAvailable."""
    import chainlens.training as training_mod

    v2, v1 = cgroup_files(monkeypatch, tmp_path, "4:memory:/pods/box\n0::/pods/box\n")
    mount, name, used = (v2, "memory.max", "memory.current") if version == "v2" else \
        (v1, "memory.limit_in_bytes", "memory.usage_in_bytes")
    meminfo = tmp_path / "meminfo"
    monkeypatch.setattr(training_mod, "PROC_MEMINFO", str(meminfo))
    (mount / "pods" / "box").mkdir(parents=True)
    (mount / "pods" / name).write_text("8388608\n")
    (mount / "pods" / "box" / name).write_text("4194304\n")
    assert training_mod.memory_available() == training_mod.memory_limit() == 4194304  # no usage, no meminfo
    (mount / "pods" / "box" / used).write_text("1048576\n")
    assert training_mod.memory_available() == 3145728 < training_mod.memory_limit()
    (mount / "pods" / used).write_text("6291456\n")  # the parent has less free than its child
    assert training_mod.memory_available() == 2097152
    meminfo.write_text("MemTotal:       16000000 kB\nMemFree:          100000 kB\nMemAvailable:       1024 kB\n")
    assert training_mod.memory_available() == 1048576
    (mount / "pods" / "box" / used).write_text("9999999\n")  # over its limit: nothing is free
    assert training_mod.memory_available() == 0


def test_train_refuses_a_run_over_what_is_free_under_the_limit(monkeypatch, tmp_path):
    import chainlens.training as training_mod

    triples = tiny_triples()
    cfg = TrainConfig(dim=8, max_epochs=1, batch_size=16)
    needed = training_bytes(ModelKind.TRANSE, 15, 2, 8, 16, 1)
    meminfo = tmp_path / "meminfo"
    meminfo.write_text(f"MemAvailable: {(needed - 1) // 1024} kB\n")
    monkeypatch.setattr(training_mod, "PROC_MEMINFO", str(meminfo))
    monkeypatch.setattr(training_mod, "memory_limit", lambda: 2 * needed)
    monkeypatch.setattr(training_mod, "init_params", lambda *args: pytest.fail("allocated parameters"))
    with pytest.raises(ConfigError, match="GiB memory limit of what is free now"):
        train(ModelKind.TRANSE, triples, triples[:8], 15, 2, cfg)
    monkeypatch.setattr(training_mod, "memory_limit", lambda: needed - 1)  # with MemAvailable unread
    meminfo.unlink()
    with pytest.raises(ConfigError):
        train(ModelKind.TRANSE, triples, triples[:8], 15, 2, cfg)


def test_memory_limit_without_a_cgroup_listing_is_physical_ram(monkeypatch, tmp_path):
    import os

    import chainlens.training as training_mod

    monkeypatch.setattr(training_mod, "PROC_SELF_CGROUP", str(tmp_path / "missing"))
    assert training_mod.memory_limit() == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def test_grid_skips_points_over_the_memory_limit(monkeypatch):
    import chainlens.training as training_mod

    set_grid(monkeypatch, (8, 16), (0.01,))
    triples = tiny_triples()
    fits = training_bytes(ModelKind.TUCKER, 15, 2, 8, 16, 1)
    monkeypatch.setattr(training_mod, "memory_limit", lambda: fits)
    base = TrainConfig(max_epochs=5, eval_every=5, batch_size=16, seed=1)
    result = grid_search(ModelKind.TUCKER, triples, triples[:8], 15, 2, base)
    assert [(d, lr) for d, lr, _ in result.runs] == [(8, 0.01)]
    assert result.skipped == [(16, 0.01, training_bytes(ModelKind.TUCKER, 15, 2, 16, 16, 1))]
    monkeypatch.setattr(training_mod, "memory_limit", lambda: fits - 1)
    with pytest.raises(ConfigError, match="no TuckER grid point fits"):
        grid_search(ModelKind.TUCKER, triples, triples[:8], 15, 2, base)


# -- grid search -------------------------------------------------------------

def test_full_grid_shape_is_18_runs():
    assert len(GRID_DIMS) * len(GRID_LEARNING_RATES) == 18


def set_grid(monkeypatch, dims, learning_rates):
    import chainlens.training as training_mod

    monkeypatch.setattr(training_mod, "GRID_DIMS", dims)
    monkeypatch.setattr(training_mod, "GRID_LEARNING_RATES", learning_rates)


def test_grid_single_point_returns_it(monkeypatch):
    set_grid(monkeypatch, (8,), (0.01,))
    triples = tiny_triples()
    base = TrainConfig(dim=8, max_epochs=10, eval_every=5, batch_size=16, seed=1)
    result = grid_search(ModelKind.TRANSE, triples, triples[:8], 15, 2, base)
    assert result.best_config == replace(base, learning_rate=0.01)
    assert len(result.runs) == 1


def test_grid_trained_config_beats_untrained(monkeypatch):
    # a learning rate of 1e-12 leaves the initial parameters all but untouched
    set_grid(monkeypatch, (16,), (1e-12, 0.01))
    triples = tiny_triples(n=50)
    base = TrainConfig(max_epochs=300, eval_every=500, batch_size=50, seed=3)
    result = grid_search(ModelKind.ROTATE, triples, triples, 15, 2, base)
    (_, _, untrained), (_, _, trained) = result.runs
    assert trained > untrained
    assert result.best_config.learning_rate == 0.01


def test_grid_tie_break_prefers_smaller_dim_then_lr(monkeypatch):
    import chainlens.training as training_mod

    # force a six-way tie so only the (dim, learning_rate) order decides
    real_evaluate = training_mod.evaluate

    def constant_mrr(params, queries, filter_set=None, **kwargs):
        report = real_evaluate(params, queries, filter_set, **kwargs)
        report.mrr = 0.5
        return report

    monkeypatch.setattr(training_mod, "evaluate", constant_mrr)
    # grid order (16, .01), (16, .001), (8, .01), (8, .001), (32, .01), (32, .001): the winner is fourth
    set_grid(monkeypatch, (16, 8, 32), (0.01, 0.001))
    triples = tiny_triples()
    base = TrainConfig(max_epochs=0, eval_every=10, batch_size=16, seed=1)
    result = grid_search(ModelKind.TRANSE, triples, triples[:8], 15, 2, base)
    assert [(d, lr) for d, lr, _ in result.runs] == [(16, 0.01), (16, 0.001), (8, 0.01), (8, 0.001),
                                                     (32, 0.01), (32, 0.001)]
    assert all(m == 0.5 for _, _, m in result.runs)
    assert (result.best_config.dim, result.best_config.learning_rate) == (8, 0.001)


def test_grid_reads_validation_mrr_from_history(monkeypatch):
    """A run that evaluated reports the MRR recorded at its best epoch; a run
    that never evaluated (max_epochs < eval_every) is evaluated once."""
    import chainlens.training as training_mod
    from chainlens.evaluation import build_filter_index, evaluate

    triples = tiny_triples(n=50)
    valid = triples[:10]
    index = build_filter_index([triples, valid])
    set_grid(monkeypatch, (8, 16), (0.001, 0.01))
    calls = []

    def counting_evaluate(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    for max_epochs, evaluations_per_run in ((20, 2), (5, 1)):
        base = TrainConfig(max_epochs=max_epochs, eval_every=10, patience=5, batch_size=16, seed=2)
        expected = []
        for dim in (8, 16):
            for lr in (0.001, 0.01):
                params, _ = train(ModelKind.TRANSE, triples, valid, 15, 2, replace(base, dim=dim, learning_rate=lr))
                expected.append((dim, lr, evaluate(params, valid, index, setting="filtered").mrr))
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(training_mod, "evaluate", counting_evaluate)
            result = grid_search(ModelKind.TRANSE, triples, valid, 15, 2, base)
        assert result.runs == expected  # bit for bit
        assert len(calls) == len(expected) * evaluations_per_run


def test_train_without_validation_set_runs_plain():
    triples = tiny_triples()
    empty = np.empty((0, 3), dtype=np.int64)
    cfg = TrainConfig(dim=8, max_epochs=20, eval_every=10, batch_size=16, seed=4)
    params, history = train(ModelKind.TRANSE, triples, empty, 15, 2, cfg)
    assert history.records == []
    assert not history.stopped_early
    assert params.all_finite()
