"""Reference computations the benchmark checks the program against.

Everything here is written from the world's definition (frames are
N(speaker_base + emotion_offset + token_effect, tau^2 I) per row) and from
textbook statistics, with numpy and scipy only. Nothing imports melworld,
so a fault in a melworld module cannot hide in its own reference.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist


def clean_loglik(speaker_base, emotion_offset, token_effect, tau, frames, speakers,
                 tokens) -> np.ndarray:
    """Log-likelihood (up to a shared constant) of clean frames under every
    emotion, shape (n, K); frames (n, L, D), speakers (n,), tokens (n, L)."""
    means = (speaker_base[speakers][:, None, None, :]
             + emotion_offset[None, :, None, :]
             + token_effect[tokens][:, None, :, :])
    diff = frames[:, None, :, :] - means
    return -0.5 * np.einsum("nkld,nkld->nk", diff, diff) / tau ** 2


def cell_metrics(world, frames, speakers, targets, tokens) -> dict:
    """Oracle emotion accuracy, content error and nearest-speaker accuracy of
    one cell, vectorised over (n, L, D); the two accuracies are percentages."""
    frames = np.asarray(frames, dtype=np.float64)
    speakers = np.asarray(speakers, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    tokens = np.asarray(tokens, dtype=np.int64)
    n = frames.shape[0]
    loglik = clean_loglik(world.speaker_base, world.emotion_offset, world.token_effect,
                          world.tau, frames, speakers, tokens)
    eca = 100.0 * int((loglik.argmax(axis=1) == targets).sum()) / n
    cond_mean = (world.speaker_base[speakers] + world.emotion_offset[targets])[:, None, :] \
        + world.token_effect[tokens]
    content = float(np.mean(((frames - cond_mean) ** 2).sum(axis=-1).mean(axis=-1)))
    residual = frames - world.emotion_offset[targets][:, None, :] - world.token_effect[tokens]
    estimate = residual.mean(axis=1)
    nearest = np.linalg.norm(world.speaker_base[None, :, :] - estimate[:, None, :],
                             axis=-1).argmin(axis=1)
    speaker_id = 100.0 * int((nearest == speakers).sum()) / n
    return {"eca": eca, "content_error": content, "speaker_id": speaker_id}


def energy_pvalue(x, y, n_perms: int, seed: int) -> float:
    """Two-sample energy-distance permutation test (Szekely & Rizzo).

    The statistic 2 E|X-Y| - E|X-X'| - E|Y-Y'| (V-statistic form) is
    recomputed for ``n_perms`` random relabellings of the pooled sample; the
    p-value is (1 + #{perm >= observed}) / (1 + n_perms).
    """
    pooled = np.vstack([np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)])
    n_total = pooled.shape[0]
    n_x = len(x)
    n_y = n_total - n_x
    dist = cdist(pooled, pooled)

    def statistic(in_x: np.ndarray) -> float:
        a = in_x.astype(np.float64)
        b = 1.0 - a
        da = dist @ a
        db = dist @ b
        return (2.0 * (b @ da) / (n_x * n_y) - (a @ da) / n_x ** 2
                - (b @ db) / n_y ** 2)

    labels = np.zeros(n_total, dtype=bool)
    labels[:n_x] = True
    observed = statistic(labels)
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(n_perms):
        perm = rng.permutation(n_total)
        relabel = np.zeros(n_total, dtype=bool)
        relabel[perm[:n_x]] = True
        count += statistic(relabel) >= observed
    return (1 + count) / (1 + n_perms)


def central_difference_grad(log_density, y) -> np.ndarray:
    """Gradient of ``log_density`` at ``y`` (shape (L, D)) by central
    differences of step 1e-4; ``log_density`` maps a batch (m, L, D) to m
    values."""
    h = 1e-4
    y = np.asarray(y, dtype=np.float64)
    k = y.size
    steps = np.eye(k).reshape((k,) + y.shape) * h
    values = np.asarray(log_density(np.concatenate([y + steps, y - steps])))
    return ((values[:k] - values[k:]) / (2.0 * h)).reshape(y.shape)


def relative_error(estimate, reference) -> float:
    """max |estimate - reference| / max |reference|."""
    reference = np.asarray(reference, dtype=np.float64)
    return float(np.abs(np.asarray(estimate) - reference).max()
                 / max(float(np.abs(reference).max()), 1e-12))


def tail_percentile(values) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it, and
    its value; None with fewer than forty samples, where it is no tail."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size < 40:
        return None
    for p in range(99, 49, -1):
        q = float(np.percentile(v, p))
        if int((v > q).sum()) >= 10:
            return p, q
    return None
