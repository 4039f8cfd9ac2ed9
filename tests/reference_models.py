"""Reference implementations that the model tests compare chainlens against.

``negative_sample``, ``margin_ranking_loss`` and ``gradients`` are the
single-triple and single-pair forms of what training does in batches.

``einsum_score_batch`` and ``einsum_batch_loss_and_gradients`` write RESCAL
and TuckER scores and hinge gradients directly, as einsums in which every
operand carries the batch index, with no grouping by relation.  TuckER's
cost grows as B * d^3 with no matrix products to run it, so tests call them
at small dims.
"""

import numpy as np

from chainlens.models import ModelKind, batch_loss_and_gradients


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
    grads = {name: np.zeros_like(arr) for name, arr in params.blocks.items()}
    active = losses > 0.0
    scale = 1.0 / len(pos)
    _einsum_score_grads(params, grads, pos[active], -scale)
    _einsum_score_grads(params, grads, neg[active], scale)
    return losses, grads
