import os
import signal
import sys
import time

import numpy as np
import pytest

import chainlens.models as models
from chainlens.evaluation import block_rows
from chainlens.models import (
    CheckpointError,
    ModelKind,
    ModelParams,
    batch_loss_and_gradients,
    corrupt_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    score,
    score_batch,
    score_objects,
)
from chainlens.training import TrainConfig

from reference_models import (
    einsum_batch_loss_and_gradients,
    einsum_score_batch,
    gradients,
    margin_ranking_loss,
    negative_sample,
)

ALL_KINDS = list(ModelKind)


def make_params(kind, n_ent=9, n_rel=3, dim=8, seed=0):
    return init_params(kind, n_ent, n_rel, TrainConfig(dim=dim, seed=seed))


def pair_loss(params, pos, neg, margin):
    ps = score_batch(params, np.array([pos]))[0]
    ns = score_batch(params, np.array([neg]))[0]
    return margin_ranking_loss(ps, ns, margin)


def finite_difference(params, pos, neg, margin, step=1e-5):
    """Central-difference gradient of the pair loss, block by block."""
    out = {}
    for name, arr in params.blocks.items():
        view = arr.view(np.float64) if np.iscomplexobj(arr) else arr
        flat = view.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = pair_loss(params, pos, neg, margin)
            flat[i] = orig - step
            down = pair_loss(params, pos, neg, margin)
            flat[i] = orig
            fd[i] = (up - down) / (2.0 * step)
        out[name] = fd.reshape(view.shape)
    return out


def active_hinge_pair(params, rng, n_ent, n_rel, margin=1.0, guard=0.05):
    """A (positive, negative) pair whose hinge is active and away from kinks."""
    for _ in range(1000):
        pos = tuple(int(v) for v in (rng.integers(n_ent), rng.integers(n_rel), rng.integers(n_ent)))
        neg = tuple(int(v) for v in (rng.integers(n_ent), rng.integers(n_rel), rng.integers(n_ent)))
        if pos == neg:
            continue
        gap = margin + score(params, *neg) - score(params, *pos)
        if gap > guard:
            return pos, neg
    raise AssertionError("no active-hinge pair found")


# -- initialization ----------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_init_deterministic(kind):
    a = make_params(kind, seed=11)
    b = make_params(kind, seed=11)
    for name in a.blocks:
        assert np.array_equal(a.blocks[name], b.blocks[name])


def test_init_transe_unit_norms():
    p = make_params(ModelKind.TRANSE, n_ent=50, dim=16)
    norms = np.linalg.norm(p.blocks["entity"], axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_init_rotate_phase_range():
    p = make_params(ModelKind.ROTATE, n_ent=50, dim=16)
    phases = p.blocks["relation"]
    assert (phases >= 0.0).all() and (phases < 2.0 * np.pi).all()


# -- scoring -----------------------------------------------------------------

def test_transe_exact_translation_scores_zero():
    p = make_params(ModelKind.TRANSE, n_ent=4, n_rel=2, dim=6)
    ent, rel = p.blocks["entity"], p.blocks["relation"]
    ent[2] = ent[0] + rel[1]
    assert score(p, 0, 1, 2) == pytest.approx(0.0, abs=1e-12)
    assert score_objects(p, 0, 1).max() == pytest.approx(0.0, abs=1e-12)


def test_rotate_identity_rotation_scores_zero():
    p = make_params(ModelKind.ROTATE, n_ent=4, n_rel=2, dim=6)
    p.blocks["relation"][0][:] = 0.0
    p.blocks["entity"][3] = p.blocks["entity"][1]
    assert score(p, 1, 0, 3) == pytest.approx(0.0, abs=1e-12)


def test_rescal_identity_relation_unit_basis():
    p = make_params(ModelKind.RESCAL, n_ent=3, n_rel=1, dim=4)
    p.blocks["relation"][0] = np.eye(4)
    e = np.zeros(4)
    e[2] = 1.0
    p.blocks["entity"][0] = e
    p.blocks["entity"][1] = e
    assert score(p, 0, 0, 1) == pytest.approx(1.0)


def test_complex_matches_real_arithmetic_oracle():
    # independent expansion of Re(sum s * w * conj(o)) into real parts
    rng = np.random.default_rng(5)
    for _ in range(20):
        sr, si = rng.normal(size=4), rng.normal(size=4)
        wr, wi = rng.normal(size=4), rng.normal(size=4)
        orr, oi = rng.normal(size=4), rng.normal(size=4)
        expected = float(np.sum(sr * wr * orr + sr * wi * oi + si * wr * oi - si * wi * orr))
        p = ModelParams(
            kind=ModelKind.COMPLEX, dim=4, num_entities=2, num_relations=1, seed=0,
            blocks={
                "entity": np.vstack([sr + 1j * si, orr + 1j * oi]),
                "relation": (wr + 1j * wi)[None, :],
            },
        )
        assert score(p, 0, 0, 1) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", [ModelKind.TRANSE, ModelKind.ROTATE])
def test_distance_scores_never_positive(kind):
    p = make_params(kind, n_ent=30, n_rel=4, dim=8, seed=3)
    rng = np.random.default_rng(0)
    triples = np.column_stack(
        [rng.integers(30, size=200), rng.integers(4, size=200), rng.integers(30, size=200)]
    )
    assert (score_batch(p, triples) <= 0.0).all()


def test_score_objects_consistent_with_score_batch():
    for kind in ALL_KINDS:
        p = make_params(kind, n_ent=7, n_rel=2, dim=5, seed=9)
        per_obj = score_objects(p, 3, 1)
        assert per_obj.shape == (7,)
        batch = score_batch(p, np.array([[3, 1, o] for o in range(7)]))
        np.testing.assert_allclose(per_obj, batch, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_score_objects_block_matches_score_batch(kind):
    n_ent, n_rel = 23, 4
    p = make_params(kind, n_ent=n_ent, n_rel=n_rel, dim=6, seed=12)
    rng = np.random.default_rng(12)
    s = rng.integers(n_ent, size=9)
    r = np.array([2, 0, 2, 3, 1, 2, 0, 3, 2])  # mixed and repeated relations
    block = score_objects(p, s, r)
    assert block.shape == (9, n_ent)
    objects = np.arange(n_ent)
    for i in range(len(s)):
        triples = np.column_stack([np.full(n_ent, s[i]), np.full(n_ent, r[i]), objects])
        np.testing.assert_allclose(block[i], score_batch(p, triples), rtol=0, atol=1e-12)
        np.testing.assert_allclose(block[i], score_objects(p, int(s[i]), int(r[i])), rtol=0, atol=1e-12)


@pytest.mark.parametrize("workers", [2, 3, 7])
@pytest.mark.parametrize("n_ent", [1, 2, 1023])
@pytest.mark.parametrize("kind", [ModelKind.TRANSE, ModelKind.ROTATE])
def test_distance_scores_split_by_entity_range_equal_one_worker(monkeypatch, kind, n_ent, workers):
    p = make_params(kind, n_ent=n_ent, n_rel=3, dim=8, seed=4)
    rng = np.random.default_rng(n_ent)
    k = block_rows(n_ent)
    s, r = rng.integers(n_ent, size=k), rng.integers(3, size=k)
    monkeypatch.setattr(models, "DISTANCE_WORKERS", 1)
    block, row = score_objects(p, s, r), score_objects(p, int(s[0]), int(r[0]))
    monkeypatch.setattr(models, "DISTANCE_WORKERS", workers)
    monkeypatch.setattr(models, "MIN_RANGE_SCORES", 1)  # split even one row of one or two entities
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the worker threads as often as the interpreter allows
    try:
        for _ in range(3):
            np.testing.assert_array_equal(score_objects(p, s, r), block)
            np.testing.assert_array_equal(score_objects(p, int(s[0]), int(r[0])), row)
    finally:
        sys.setswitchinterval(interval)


def test_distance_pool_starts_on_the_first_split_block(monkeypatch):
    monkeypatch.setattr(models, "_executor", None)
    p = make_params(ModelKind.ROTATE, n_ent=50)
    queries = np.zeros(3, dtype=np.int64), np.ones(3, dtype=np.int64)
    monkeypatch.setattr(models, "MIN_RANGE_SCORES", 1)
    monkeypatch.setattr(models, "DISTANCE_WORKERS", 1)
    score_objects(p, *queries)
    monkeypatch.setattr(models, "DISTANCE_WORKERS", 4)
    score_objects(make_params(ModelKind.TRANSE, n_ent=1), *queries)  # one entity, one range
    monkeypatch.setattr(models, "MIN_RANGE_SCORES", 3 * 50 // 2 + 1)  # 150 scores cannot give two ranges enough
    score_objects(p, *queries)
    assert models._executor is None
    monkeypatch.setattr(models, "MIN_RANGE_SCORES", 3 * 50 // 2)
    score_objects(p, *queries)
    assert models._executor is not None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_scores_with_its_own_pool(monkeypatch):
    monkeypatch.setattr(models, "DISTANCE_WORKERS", 2)
    monkeypatch.setattr(models, "MIN_RANGE_SCORES", 1)
    p = make_params(ModelKind.TRANSE, n_ent=300)
    s, r = np.arange(40), np.arange(40) % 3
    expected = score_objects(p, s, r)  # the parent's pool now exists
    pid = os.fork()
    if pid == 0:  # child: exit at once, never return into pytest
        code = 1
        try:
            code = 0 if np.array_equal(score_objects(p, s, r), expected) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung scoring on the pool it inherited")
    assert os.waitstatus_to_exitcode(done[1]) == 0


# -- negative sampling -------------------------------------------------------

def test_negative_sample_two_entities_forced():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s, r, o = negative_sample((0, 0, 1), 2, rng)
        assert (s, r, o) in ((1, 0, 1), (0, 0, 0))


def test_negative_sample_balance_and_validity():
    rng = np.random.default_rng(1)
    pos = (3, 1, 7)
    subject_corruptions = 0
    for _ in range(10_000):
        s, r, o = negative_sample(pos, 20, rng)
        assert r == 1
        changed_subject = s != pos[0]
        changed_object = o != pos[2]
        assert changed_subject != changed_object  # exactly one slot changes
        if changed_subject:
            subject_corruptions += 1
            assert 0 <= s < 20
        else:
            assert 0 <= o < 20
    assert 0.47 <= subject_corruptions / 10_000 <= 0.53


def test_corrupt_batch_matches_contract():
    rng = np.random.default_rng(2)
    pos = np.tile(np.array([[3, 1, 7]]), (10_000, 1))
    neg = corrupt_batch(pos, 20, rng)
    changed_s = neg[:, 0] != 3
    changed_o = neg[:, 2] != 7
    assert (changed_s ^ changed_o).all()
    assert (neg[:, 1] == 1).all()
    frac = changed_s.mean()
    assert 0.47 <= frac <= 0.53
    assert neg[changed_s, 0].min() >= 0 and neg[changed_s, 0].max() < 20


def test_negative_sample_rejects_tiny_vocab():
    with pytest.raises(ValueError):
        negative_sample((0, 0, 0), 1, np.random.default_rng(0))


# -- loss --------------------------------------------------------------------

def test_margin_ranking_loss_cases():
    assert margin_ranking_loss(5.0, 1.0, 1.0) == 0.0
    assert margin_ranking_loss(1.0, 1.0, 1.0) == 1.0
    assert margin_ranking_loss(0.2, 0.5, 1.0) == pytest.approx(1.3)


# -- gradients ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_inactive_hinge_gives_zero_gradients(kind):
    p = make_params(kind, seed=4)
    rng = np.random.default_rng(4)
    triples = [
        tuple(int(v) for v in (rng.integers(9), rng.integers(3), rng.integers(9)))
        for _ in range(64)
    ]
    scored = sorted(triples, key=lambda t: score(p, *t))
    pos, neg = scored[-1], scored[0]  # widest gap; margin 0 keeps the hinge flat
    assert margin_ranking_loss(score(p, *pos), score(p, *neg), 0.0) == 0.0
    grads = gradients(p, pos, neg, 0.0)
    for arr in grads.values():
        assert not np.any(arr)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(17)
    for trial in range(3):
        p = make_params(kind, seed=100 + trial)
        pos, neg = active_hinge_pair(p, rng, 9, 3)
        analytic = gradients(p, pos, neg, 1.0)
        fd = finite_difference(p, pos, neg, 1.0)
        for name in p.blocks:
            a = analytic[name]
            a = a.view(np.float64) if np.iscomplexobj(a) else a
            f = fd[name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
            rel = np.abs(a - f) / denom
            mask = np.maximum(np.abs(a), np.abs(f)) > 1e-7  # skip pure round-off
            assert rel[mask].max(initial=0.0) < 1e-4, f"{kind} block {name}"


def test_tucker_core_gradient_is_rank_one_product():
    p = make_params(ModelKind.TUCKER, n_ent=6, n_rel=2, dim=4, seed=8)
    rng = np.random.default_rng(8)
    pos, neg = active_hinge_pair(p, rng, 6, 2)
    grads = gradients(p, pos, neg, 1.0)
    E, R = p.blocks["entity"], p.blocks["relation"]
    expected = -np.einsum("a,b,c->abc", E[pos[0]], R[pos[1]], E[pos[2]])
    expected += np.einsum("a,b,c->abc", E[neg[0]], R[neg[1]], E[neg[2]])
    np.testing.assert_allclose(grads["core"], expected, rtol=1e-12, atol=1e-12)


# -- bilinear path against the einsum reference -----------------------------

def bilinear_batch(name, n_ent, n_rel):
    """Fixed (pos, neg, margin) batches that exercise grouping by relation."""
    rng = np.random.default_rng(31)
    if name == "repeated":  # 512 triples over few entities: repeated subjects and objects
        pos = np.column_stack(
            [rng.integers(n_ent, size=512), rng.integers(n_rel, size=512), rng.integers(n_ent, size=512)]
        )
        margin = 1.0
    elif name == "some_relations":
        pos = np.column_stack(
            [rng.integers(n_ent, size=40), rng.choice([3, 1], size=40), rng.integers(n_ent, size=40)]
        )
        margin = 1.0
    else:  # a single triple, with a margin that keeps its hinge active
        pos = np.array([[4, 2, 17]])
        margin = 1e3
    return pos, corrupt_batch(pos, n_ent, rng), margin


@pytest.mark.parametrize("batch", ["repeated", "some_relations", "single"])
@pytest.mark.parametrize("kind", [ModelKind.RESCAL, ModelKind.TUCKER])
def test_bilinear_path_matches_einsum_reference(kind, batch):
    n_ent, n_rel = 30, 5
    p = make_params(kind, n_ent=n_ent, n_rel=n_rel, dim=12, seed=6)
    rng = np.random.default_rng(6)
    for name, arr in p.blocks.items():  # unit-scale entries, so 1e-12 is a tight bound
        p.blocks[name] = rng.normal(size=arr.shape)
    pos, neg, margin = bilinear_batch(batch, n_ent, n_rel)
    for triples in (pos, neg):
        np.testing.assert_allclose(score_batch(p, triples), einsum_score_batch(p, triples), rtol=0, atol=1e-12)
    losses, grads = batch_loss_and_gradients(p, pos, neg, margin)
    ref_losses, ref_grads = einsum_batch_loss_and_gradients(p, pos, neg, margin)
    assert (ref_losses > 0).any()
    np.testing.assert_allclose(losses, ref_losses, rtol=0, atol=1e-12)
    for name in p.blocks:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12, err_msg=name)


# -- checkpoints -------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_checkpoint_round_trip_bit_exact(kind, tmp_path):
    p = make_params(kind, seed=21)
    path = tmp_path / "model.npz"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.kind is p.kind and q.dim == p.dim and q.seed == p.seed
    assert q.num_entities == p.num_entities and q.num_relations == p.num_relations
    for name in p.blocks:
        assert q.blocks[name].dtype == p.blocks[name].dtype
        assert np.array_equal(q.blocks[name], p.blocks[name])


@pytest.mark.parametrize("header", [None, "not json", "[1, 2]"], ids=["no-header", "not-json", "not-an-object"])
def test_load_checkpoint_refuses_an_unreadable_header(tmp_path, header):
    arrays = {"block_entity": np.zeros((3, 2)), "block_relation": np.zeros((1, 2))}
    if header is not None:
        arrays["header"] = np.array(header)
    np.savez(tmp_path / "m.npz", **arrays)
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(tmp_path / "m.npz")
