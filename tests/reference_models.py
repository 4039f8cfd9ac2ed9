"""Reference implementations that the model tests compare chainlens against.

``negative_sample``, ``margin_ranking_loss`` and ``gradients`` are the
single-triple and single-pair forms of what training does in batches.

``reference_score_batch`` writes each model's score formula out on gathered
rows: the training step's forward pass must match it bit for bit for
TransE, ComplEx and RotatE, within 1e-12 for RESCAL and TuckER.
(``models.score_batch`` returns the exact scores, which
``exact_object_scores`` writes out.)

``einsum_score_batch`` and ``einsum_batch_loss_and_gradients`` write RESCAL
and TuckER scores and hinge gradients directly, as einsums in which every
operand carries the batch index, with no grouping by relation.  TuckER's
cost grows as B * d^3 with no matrix products to run it, so tests call them
at small dims.

``exact_dot_scores``, ``exact_distance_scores`` and ``exact_rotate_scores``
write out the exact scores that the models are ranked by: Σ_c Q_i[c] E_j[c]
for RESCAL, TuckER and ComplEx, -Σ_c |Q_i[c] - E_j[c]| for TransE, and minus
the moduli of the (re, im) differences for RotatE, each summed in column
order.  ``exact_object_scores`` builds the query rows of (s, r, ?) and scores
them with these: ``score_batch``, ``score_objects`` and every exact score of
the ranking must match it bit for bit.

``add_at_batch_loss_and_gradients`` and ``reference_adam_step`` are the
training step as it was before the flat scatters, the in-place Adam update
and the per-run workspace: fresh gradient blocks (``zero_grads``) per batch,
each half scored by ``reference_score_batch`` and its active rows' gradients
accumulated on their own, row-wise ``np.add.at`` into the 2-D gradient
blocks, TuckER's M_r by ``tensordot`` and its relation gradient by
``einsum``, and Adam written as plain array expressions, with TransE's row
norms from ``np.linalg.norm``.  The current step takes one forward pass
over both halves for all five models and must match them bit for bit,
apart from RESCAL's and TuckER's gradients: their backward pass covers
both halves at once, and so rounds them differently (within 1e-12).
"""

import numpy as np

from chainlens.models import (
    ModelKind,
    _relation_groups,
    _relation_matrices,
    apply_constraints,
    batch_loss_and_gradients,
)
from chainlens.training import _float_view


def negative_sample(triple, num_entities, rng):
    """Corrupt one slot of a triple with a uniformly random other entity.

    The subject is replaced with probability 1/2, otherwise the object; the
    replacement is uniform over the remaining entities and never equals the
    original occupant.  No filtering against known-true triples.
    """
    if num_entities < 2:
        raise ValueError("negative sampling needs at least two entities")
    s, r, o = triple
    corrupt_subject = rng.random() < 0.5
    orig = s if corrupt_subject else o
    repl = int(rng.integers(num_entities - 1))
    if repl >= orig:
        repl += 1
    return (repl, r, o) if corrupt_subject else (s, r, repl)


def margin_ranking_loss(pos_score, neg_score, margin):
    """Hinge ranking loss max(0, margin + neg_score - pos_score)."""
    return max(0.0, margin + neg_score - pos_score)


def gradients(params, pos, neg, margin):
    """Exact gradient of the hinge loss of one (positive, negative) pair.

    Dense arrays shaped like the parameter blocks; all-zero when the hinge
    is inactive (pos_score - neg_score >= margin).
    """
    pos_arr = np.array([pos], dtype=np.int64)
    neg_arr = np.array([neg], dtype=np.int64)
    return batch_loss_and_gradients(params, pos_arr, neg_arr, margin)[1]


def reference_score_batch(params, triples):
    """Scores for an (B, 3) array of (subject, relation, object) id triples, formula by formula."""
    triples = np.atleast_2d(np.asarray(triples, dtype=np.int64))
    s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
    E, R = params.blocks["entity"], params.blocks["relation"]
    kind = params.kind
    if kind is ModelKind.TRANSE:
        return -np.abs(E[s] + R[r] - E[o]).sum(axis=1)
    if kind in (ModelKind.RESCAL, ModelKind.TUCKER):
        out = np.empty(len(triples))
        rels, groups = _relation_groups(r)
        for M_r, rows in zip(_relation_matrices(params, rels), groups):  # an empty batch has no M_r
            out[rows] = np.einsum("ij,ij->i", E[s[rows]] @ M_r, E[o[rows]])
        return out
    if kind is ModelKind.COMPLEX:
        return np.real(np.sum(E[s] * R[r] * np.conj(E[o]), axis=1))
    rot = np.exp(1j * R)[r]
    return -np.abs(E[s] * rot - E[o]).sum(axis=1)


def einsum_score_batch(params, triples):
    """RESCAL or TuckER scores of an (B, 3) id array, one einsum over the batch."""
    s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
    E, R = params.blocks["entity"], params.blocks["relation"]
    if params.kind is ModelKind.RESCAL:
        return np.einsum("bi,bij,bj->b", E[s], R[r], E[o], optimize=True)
    W = params.blocks["core"]
    return np.einsum("abc,ia,ib,ic->i", W, E[s], R[r], E[o], optimize=True)


def _einsum_score_grads(params, grads, triples, coeff):
    """Add coeff * (d score / d params) of each RESCAL or TuckER triple into ``grads``."""
    s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
    E, R = params.blocks["entity"], params.blocks["relation"]
    gE, gR = grads["entity"], grads["relation"]
    es, eo = E[s], E[o]
    if params.kind is ModelKind.RESCAL:
        M = R[r]
        np.add.at(gE, s, coeff * np.einsum("bij,bj->bi", M, eo, optimize=True))
        np.add.at(gE, o, coeff * np.einsum("bij,bi->bj", M, es, optimize=True))
        np.add.at(gR, r, coeff * np.einsum("bi,bj->bij", es, eo))
        return
    W, w = params.blocks["core"], R[r]
    np.add.at(gE, s, coeff * np.einsum("abc,ib,ic->ia", W, w, eo, optimize=True))
    np.add.at(gR, r, coeff * np.einsum("abc,ia,ic->ib", W, es, eo, optimize=True))
    np.add.at(gE, o, coeff * np.einsum("abc,ia,ib->ic", W, es, w, optimize=True))
    grads["core"] += coeff * np.einsum("ia,ib,ic->abc", es, w, eo, optimize=True)


def einsum_batch_loss_and_gradients(params, pos, neg, margin):
    """Per-pair hinge losses and the gradient of their batch mean, by einsum."""
    losses = np.maximum(0.0, margin + einsum_score_batch(params, neg) - einsum_score_batch(params, pos))
    grads = zero_grads(params)
    active = losses > 0.0
    scale = 1.0 / len(pos)
    _einsum_score_grads(params, grads, pos[active], -scale)
    _einsum_score_grads(params, grads, neg[active], scale)
    return losses, grads


def tensordot_relation_matrices(params, rels):
    """M_r of relations ``rels``: RESCAL's stored R[r], TuckER's W x_2 w_r by one tensordot."""
    R = params.blocks["relation"]
    if params.kind is ModelKind.RESCAL:
        return R[rels]
    return np.tensordot(R[rels], params.blocks["core"], axes=(1, 1))


def exact_dot_scores(query_rows, entities):
    """RESCAL's, TuckER's and ComplEx's exact scores of float64 query rows against every entity, written out:
    sum_c Q_i[c] E_j[c] over the real columns (ComplEx's (re, im) pairs), one term at a time in c order."""
    Q, E = query_rows.view(np.float64), entities.view(np.float64)
    scores = np.zeros((len(Q), len(E)))
    for c in range(Q.shape[1]):
        scores += np.outer(Q[:, c], E[:, c])
    return scores


def exact_distance_scores(query_rows, entities):
    """TransE's exact scores of float64 query rows against every entity, written out:
    -sum_c |Q_i[c] - E_j[c]|, one term at a time in c order."""
    Q, E = query_rows.view(np.float64), entities.view(np.float64)
    scores = np.zeros((len(Q), len(E)))
    for c in range(Q.shape[1]):
        scores -= np.abs(np.subtract.outer(Q[:, c], E[:, c]))
    return scores


def exact_rotate_scores(query_rows, entities):
    """RotatE's exact scores of complex query rows against every entity, written out: minus the sum of
    sqrt((q_re - e_re)^2 + (q_im - e_im)^2) over the (re, im) column pairs, one term at a time in column order."""
    Q, E = query_rows.view(np.float64), entities.view(np.float64)
    scores = np.zeros((len(Q), len(E)))
    for c in range(0, Q.shape[1], 2):
        re, im = np.subtract.outer(Q[:, c], E[:, c]), np.subtract.outer(Q[:, c + 1], E[:, c + 1])
        scores -= np.sqrt(re * re + im * im)
    return scores


def exact_object_scores(params, s, r):
    """Every entity's exact score as object of (s[i], r[i], ?), written out.  The query rows are E[s] + R[r]
    (TransE), E[s] * R[r] (ComplEx), E[s] * exp(i R[r]) (RotatE), or one one-row matmul E[s_i] M_r per row, M_r
    built for r_i alone (RESCAL, TuckER); each model's exact score then sums their terms in column order."""
    E, R = params.blocks["entity"], params.blocks["relation"]
    if params.kind is ModelKind.TRANSE:
        return exact_distance_scores(E[s] + R[r], E)
    if params.kind is ModelKind.ROTATE:
        return exact_rotate_scores(E[s] * np.exp(1j * R[r]), E)
    if params.kind is ModelKind.COMPLEX:
        return exact_dot_scores(E[s] * R[r], E)
    return exact_dot_scores(np.vstack([E[i:i + 1] @ _relation_matrices(params, np.array([rel]))[0]
                                       for i, rel in zip(s, r)]), E)


def zero_grads(params):
    """All-zero gradient blocks shaped like the parameter blocks."""
    return {name: np.zeros_like(arr) for name, arr in params.blocks.items()}


def add_at_accumulate_score_grads(params, grads, triples, coeff):
    """Add coeff * (d score / d params) of each triple into ``grads``, row by row with ``np.add.at``."""
    if len(triples) == 0:
        return
    s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
    E, R = params.blocks["entity"], params.blocks["relation"]
    gE, gR = grads["entity"], grads["relation"]
    kind = params.kind
    if kind is ModelKind.TRANSE:
        sgn = np.sign(E[s] + R[r] - E[o])
        np.add.at(gE, s, -coeff * sgn)
        np.add.at(gR, r, -coeff * sgn)
        np.add.at(gE, o, coeff * sgn)
    elif kind in (ModelKind.RESCAL, ModelKind.TUCKER):
        rels, groups = _relation_groups(r)
        M = tensordot_relation_matrices(params, rels)
        es, eo = E[s], E[o]
        g_s, g_o, G = np.empty_like(es), np.empty_like(eo), np.empty_like(M)
        for k, rows in enumerate(groups):
            g_s[rows] = eo[rows] @ M[k].T
            g_o[rows] = es[rows] @ M[k]
            G[k] = es[rows].T @ eo[rows]
        np.add.at(gE, s, coeff * g_s)
        np.add.at(gE, o, coeff * g_o)
        if kind is ModelKind.RESCAL:
            gR[rels] += coeff * G
        else:
            W = params.blocks["core"]
            gR[rels] += coeff * np.einsum("abc,rac->rb", W, G, optimize=True)
            grads["core"] += coeff * np.einsum("rac,rb->abc", G, R[rels], optimize=True)
    elif kind is ModelKind.COMPLEX:
        es, eo, w = E[s], E[o], R[r]
        np.add.at(gE, s, coeff * (np.conj(w) * eo))
        np.add.at(gR, r, coeff * (np.conj(es) * eo))
        np.add.at(gE, o, coeff * (es * w))
    else:
        rot = np.exp(1j * R)[r]
        es = E[s]
        u = es * rot - E[o]
        m = np.abs(u)
        gu = np.zeros_like(u)
        nz = m > 0
        gu[nz] = -u[nz] / m[nz]
        np.add.at(gE, s, coeff * (np.conj(rot) * gu))
        np.add.at(gE, o, -coeff * gu)
        np.add.at(gR, r, coeff * np.imag(np.conj(es) * gu * np.conj(rot)))


def add_at_batch_loss_and_gradients(params, pos, neg, margin):
    """Per-pair hinge losses and the gradient of their batch mean, by ``add_at_accumulate_score_grads``."""
    losses = np.maximum(0.0, margin + reference_score_batch(params, neg) - reference_score_batch(params, pos))
    grads = zero_grads(params)
    active = losses > 0.0
    if active.any():
        scale = 1.0 / len(pos)
        add_at_accumulate_score_grads(params, grads, pos[active], -scale)
        add_at_accumulate_score_grads(params, grads, neg[active], scale)
    return losses, grads


def reference_adam_step(params, grads, state, config):
    """One bias-corrected Adam update of ``params`` and ``state`` in place, as plain array expressions."""
    state.step += 1
    t = state.step
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_epsilon
    lr = config.learning_rate
    for name, p in params.blocks.items():
        g = _float_view(grads[name])
        pv = _float_view(p)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        pv -= lr * m_hat / (np.sqrt(v_hat) + eps)
    reference_apply_constraints(params)
    return params, state


def reference_apply_constraints(params):
    """The constraint projection with TransE's row norms from ``np.linalg.norm``."""
    if params.kind is ModelKind.TRANSE:
        ent = params.blocks["entity"]
        ent /= np.linalg.norm(ent, axis=1, keepdims=True)
    else:
        apply_constraints(params)
