import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import chainlens.models as models
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
from chainlens.evaluation import block_rows
from chainlens.training import TrainConfig

from reference_models import (
    add_at_batch_loss_and_gradients,
    einsum_batch_loss_and_gradients,
    einsum_score_batch,
    gradients,
    margin_ranking_loss,
    negative_sample,
    tensordot_relation_matrices,
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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_score_objects_broadcasts_subjects_against_relations(kind):
    p = make_params(kind, n_ent=50, n_rel=3, dim=8, seed=6)
    s = np.array([4, 17, 4, 30, 49])
    rows = np.array([score_objects(p, int(i), 2) for i in s])
    for r in (2, np.array([2]), np.full(len(s), 2)):
        np.testing.assert_allclose(score_objects(p, s, r), rows, rtol=0, atol=1e-12)
    # one subject against several relations
    np.testing.assert_allclose(score_objects(p, 4, np.array([0, 2])),
                               [score_objects(p, 4, 0), score_objects(p, 4, 2)], rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        score_objects(p, s, np.array([0, 1, 2]))


@pytest.mark.parametrize("workers", [2, 3, 7])
@pytest.mark.parametrize("n_ent", [1, 2, 1023])
@pytest.mark.parametrize("kind", [ModelKind.TRANSE, ModelKind.ROTATE])
def test_distance_scores_split_by_entity_range_equal_one_worker(kind, n_ent, workers):
    """The distance kernel scores each entity on its own: ranges of entities
    scored on threads that share one scorer's E transposed give the bits of
    one call over all entities.  Ranges may be empty (seven of one entity)."""
    p = make_params(kind, n_ent=n_ent, n_rel=3, dim=8, seed=4)
    rng = np.random.default_rng(n_ent)
    k = block_rows(n_ent)
    s, r = rng.integers(n_ent, size=k), rng.integers(3, size=k)
    expected = score_objects(p, s, r)
    scorer = models._ObjectScorer(p, np.unique(r))
    q = scorer.E[s] + scorer.R[r] if kind is ModelKind.TRANSE else scorer.E[s] * scorer.R[r]
    q = q.view(np.float64)
    n_bufs = 1 if kind is ModelKind.TRANSE else 2
    out = np.empty((k, n_ent))

    def score_range(bounds):
        lo, hi = bounds
        bufs = [np.empty((k, hi - lo)) for _ in range(n_bufs)]
        models._negated_distance_sums(q, scorer.E_t[:, lo:hi], bufs, out[:, lo:hi])

    edges = np.linspace(0, n_ent, workers + 1).astype(int)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the worker threads as often as the interpreter allows
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in range(3):
                out.fill(np.nan)
                list(pool.map(score_range, zip(edges[:-1], edges[1:])))
                assert out.tobytes() == expected.tobytes()
    finally:
        sys.setswitchinterval(interval)


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


def test_rotate_rotations_per_relation_equal_rotations_per_row():
    # the models rotate by np.exp(1j * R)[r], once per relation; per row it is np.exp(1j * R[r])
    p = make_params(ModelKind.ROTATE, n_ent=30, n_rel=5, dim=8, seed=3)
    E, R = p.blocks["entity"], p.blocks["relation"]
    rng = np.random.default_rng(3)
    triples = np.column_stack([rng.integers(30, size=64), rng.integers(5, size=64), rng.integers(30, size=64)])
    s, r, o = triples.T
    rot = np.exp(1j * R[r])
    np.testing.assert_array_equal(score_batch(p, triples), -np.abs(E[s] * rot - E[o]).sum(axis=1))
    expected = np.empty((len(s), len(E)))
    models._negated_distance_sums((E[s] * rot).view(np.float64), np.ascontiguousarray(E.view(np.float64).T),
                                  [np.empty_like(expected), np.empty_like(expected)], expected)
    np.testing.assert_array_equal(score_objects(p, s, r), expected)
    got = models.zero_grads(p)
    models._accumulate_score_grads(p, got, triples, 0.25)
    gE, gR = np.zeros_like(E), np.zeros_like(R)
    u = E[s] * rot - E[o]
    m = np.abs(u)
    gu = np.zeros_like(u)
    gu[m > 0] = -u[m > 0] / m[m > 0]
    np.add.at(gE, s, 0.25 * (np.conj(rot) * gu))
    np.add.at(gE, o, -0.25 * gu)
    np.add.at(gR, r, 0.25 * np.imag(np.conj(E[s]) * gu * np.conj(rot)))
    np.testing.assert_array_equal(got["entity"], gE)
    np.testing.assert_array_equal(got["relation"], gR)


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


# -- the training step against the add.at reference --------------------------

def assert_same_bits(got, expected, what):
    assert got.dtype == expected.dtype and got.shape == expected.shape, what
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes(), what


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_gradients_equal_the_add_at_reference_bit_for_bit(kind):
    # 512 pairs over 30 entities and 5 relations repeat every id many times; the
    # second model is trained a little so that some hinges are inactive
    n_ent, n_rel = 30, 5
    rng = np.random.default_rng(12)
    for dim, margin in ((16, 1.0), (64, 0.5)):
        p = make_params(kind, n_ent=n_ent, n_rel=n_rel, dim=dim, seed=dim)
        for size in (512, 40, 1):
            pos = np.column_stack([rng.integers(n_ent, size=size), rng.integers(n_rel, size=size),
                                   rng.integers(n_ent, size=size)])
            neg = corrupt_batch(pos, n_ent, rng)
            losses, grads = batch_loss_and_gradients(p, pos, neg, margin)
            ref_losses, ref_grads = add_at_batch_loss_and_gradients(p, pos, neg, margin)
            assert_same_bits(losses, ref_losses, "losses")
            assert grads.keys() == ref_grads.keys()
            for name in grads:
                assert_same_bits(grads[name], ref_grads[name], f"{kind.value} dim {dim} batch {size}: {name}")


@pytest.mark.parametrize("dim", [8, 64])
def test_tucker_relation_matrices_and_scores_equal_the_tensordot_forms(dim):
    n_ent, n_rel = 40, 11
    p = make_params(ModelKind.TUCKER, n_ent=n_ent, n_rel=n_rel, dim=dim, seed=5)
    rng = np.random.default_rng(5)
    for rels in ([3], [0, 7], [1, 2, 4, 9], list(range(n_rel))):
        rels = np.array(rels)
        assert_same_bits(models._relation_matrices(p, rels), tensordot_relation_matrices(p, rels), f"M_r {rels}")
    triples = np.column_stack([rng.integers(n_ent, size=300), rng.integers(n_rel, size=300),
                               rng.integers(n_ent, size=300)])
    s, r, o = triples.T
    E = p.blocks["entity"]
    rels, groups = models._relation_groups(r)
    M = tensordot_relation_matrices(p, rels)
    scores, block = np.empty(len(triples)), np.empty((len(triples), n_ent))
    for k, rows in enumerate(groups):
        scores[rows] = np.einsum("ij,ij->i", E[s[rows]] @ M[k], E[o[rows]])
        # score_objects builds each relation's M_r on its own, as a ranking block of one relation does
        block[rows] = (E[s[rows]] @ tensordot_relation_matrices(p, rels[k:k + 1])[0]) @ E.T
    assert_same_bits(score_batch(p, triples), scores, "score_batch")
    assert_same_bits(score_objects(p, s, r), block, "score_objects")


@pytest.mark.parametrize("k", [1, 2, 3, 5, 11])
def test_tucker_relation_gradient_matmul_equals_the_einsum(k):
    d = 64
    rng = np.random.default_rng(k)
    W, G = rng.normal(size=(d, d, d)), rng.normal(size=(k, d, d))
    assert_same_bits(G.reshape(k, d * d) @ W.transpose(0, 2, 1).reshape(d * d, d),
                     np.einsum("abc,rac->rb", W, G, optimize=True), f"{k} relations")


@st.composite
def scatter_case(draw):
    """A gradient block, row ids with repeats (or none) and rows to add, holding +0.0 and -0.0."""
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    n, width = draw(st.integers(1, 12)), draw(st.integers(1, 130))
    idx = np.array(draw(st.lists(st.integers(0, n - 1), max_size=40)), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.floats(0.0, 1.0))

    def block(rows):
        floats = rng.normal(size=(rows, width * (2 if dtype is np.complex128 else 1)))
        floats[rng.random(floats.shape) < zeros] = 0.0
        floats[rng.random(floats.shape) < zeros / 2] = -0.0
        return floats.view(dtype)

    return block(n), idx, block(len(idx))


@given(scatter_case())
def test_scatter_rows_equals_row_wise_add_at(case):
    g, idx, rows = case
    expected = g.copy()
    np.add.at(expected, idx, rows)
    models._scatter_rows(g, idx, rows)
    assert_same_bits(g, expected, "scatter")


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


@pytest.mark.parametrize("damage", ["empty", "text", "truncated", "bad-crc", "npy"])
def test_load_checkpoint_refuses_a_file_that_is_not_an_npz_archive(tmp_path, damage):
    path = tmp_path / "m.npz"
    save_checkpoint(make_params(ModelKind.TRANSE, seed=0), path)
    data = path.read_bytes()
    if damage == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    else:
        path.write_bytes({"empty": b"", "text": b"kind=TransE\n", "truncated": data[:-10],
                          "bad-crc": data[:200] + bytes([data[200] ^ 0xFF]) + data[201:]}[damage])
    with pytest.raises(CheckpointError, match="archive"):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [None, "not json", "[1, 2]"], ids=["no-header", "not-json", "not-an-object"])
def test_load_checkpoint_refuses_an_unreadable_header(tmp_path, header):
    arrays = {"block_entity": np.zeros((3, 2)), "block_relation": np.zeros((1, 2))}
    if header is not None:
        arrays["header"] = np.array(header)
    np.savez(tmp_path / "m.npz", **arrays)
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(tmp_path / "m.npz")
