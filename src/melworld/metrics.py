"""Quantitative evaluation: oracle emotion accuracy, speaker similarity,
content fidelity, disentanglement probing, and guidance-scale sweeps.

All metrics are pure functions of (inputs, seed). The emotion accuracy
oracle is the world's exact Bayes classifier over emotions given the target
speaker and tokens, evaluated on clean generated frames; no learned
classifier can beat it on world-generated data beyond Monte-Carlo noise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .autodiff import MelworldError
from .diffusion import _check_gamma, sample_cfg, sample_cg, sample_reverse
from .training import Checkpoint, EmotionProbeHead, Model
from .world import World, condition_means, neutral_references, sample_utterance_batch


class EvalError(MelworldError):
    """Raised for malformed metric inputs."""


@dataclass(frozen=True)
class EvalSample:
    """One generated sample plus the condition it was generated under."""

    frames: np.ndarray
    target_emotion: int
    speaker: int
    tokens: np.ndarray


def checkpoint_hash(checkpoint: Checkpoint) -> str:
    return hashlib.sha256(checkpoint.to_bytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# core metrics


def _stack(world: World, samples: list[EvalSample], metric: str):
    """Frames (n, L, D), speakers, targets and tokens (n, L) of same-length
    samples, every id range-checked."""
    if not samples:
        raise EvalError(f"{metric} requires at least one sample")
    toks = [world.check_tokens(sample.tokens) for sample in samples]
    frames = [np.asarray(sample.frames, dtype=np.float64) for sample in samples]
    shape = (toks[0].size, world.frame_dim)
    for f, t in zip(frames, toks):
        if f.shape != shape or t.size != shape[0]:
            raise EvalError(f"frames shape {f.shape} with {t.size} tokens does not match "
                            f"{shape[0]} tokens x {world.frame_dim} dims")
    speakers = np.array([world.check_speaker(sample.speaker) for sample in samples])
    targets = np.array([world.check_emotion(sample.target_emotion) for sample in samples])
    return np.stack(frames), speakers, targets, np.stack(toks)


def eca_oracle(world: World, samples: list[EvalSample]) -> float:
    """Percentage of samples whose Bayes-optimal emotion equals the target.

    The exact posterior over emotions for clean frames under a uniform
    prior is a softmax of the spherical Gaussian log-likelihoods summed over
    rows, so its argmax is the emotion whose mean is nearest.
    """
    frames, speakers, targets, tokens = _stack(world, samples, "eca_oracle")
    means = condition_means(world, speakers[:, None], np.arange(world.n_emotions)[None, :],
                            tokens[:, None])
    diff = frames[:, None] - means
    best = (diff * diff).sum(axis=(2, 3)).argmin(axis=1)
    return 100.0 * int((best == targets).sum()) / len(samples)


def secs_analog(sample_embedding, reference_embedding) -> float:
    """Cosine similarity between two speaker embeddings; symmetric."""
    a = np.asarray(sample_embedding, dtype=np.float64).ravel()
    b = np.asarray(reference_embedding, dtype=np.float64).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise EvalError("cosine similarity undefined for zero vectors")
    return float(np.dot(a, b) / (na * nb))


def content_error(samples: list[EvalSample], world: World) -> float:
    """Mean squared per-row deviation from the analytic condition mean.

    Each row contributes its squared L2 distance to the world's mean for
    (speaker, target emotion, token); samples drawn from the true
    distribution average to frame_dim * tau^2.
    """
    frames, speakers, targets, tokens = _stack(world, samples, "content_error")
    means = condition_means(world, speakers, targets, tokens)
    return float(np.mean(((frames - means) ** 2).sum(axis=2).mean(axis=1)))


def probe_disentanglement(style_vectors, labels, budget: int = 2000,
                          seed: int = 0, lr: float = 0.05,
                          batch_size: int = 32) -> float:
    """Held-out accuracy (percent) of a freshly initialized softmax probe.

    Trains on a deterministic 80% split of the vectors. High accuracy means
    the style vectors still carry emotion; chance-level accuracy means the
    information was disentangled away.
    """
    vectors = np.asarray(style_vectors, dtype=np.float64)
    labels_arr = np.asarray(labels, dtype=np.int64)
    if vectors.ndim != 2 or vectors.shape[0] != labels_arr.size:
        raise EvalError("style vectors and labels must align")
    classes, counts = np.unique(labels_arr, return_counts=True)
    if classes[0] < 0:
        raise EvalError(f"labels must be nonnegative, got {classes[0]}")
    if counts.min() < 10:
        raise EvalError(f"every class needs at least 10 vectors, got {counts.min()}")
    n_classes = int(classes.max()) + 1
    rng = np.random.default_rng(seed)
    order = rng.permutation(vectors.shape[0])
    n_train = int(round(0.8 * vectors.shape[0]))
    train_idx, test_idx = order[:n_train], order[n_train:]
    probe = EmotionProbeHead(vectors.shape[1], n_classes, seed=seed)
    for _ in range(budget):
        pick = rng.integers(0, train_idx.size, size=batch_size)
        probe.descend(vectors[train_idx[pick]], labels_arr[train_idx[pick]], lr)
    pred = probe.posterior(vectors[test_idx]).argmax(axis=-1)
    return float(100.0 * (pred == labels_arr[test_idx]).mean())


def speaker_id_accuracy(world: World, samples: list[EvalSample]) -> float:
    """Nearest-speaker-mean identification of generated samples (percent).

    Every candidate speaker's condition mean holds the known emotion offset
    and token effects, so the candidate with the smallest row-averaged
    residual is the speaker base nearest the pooled residual.
    """
    frames, speakers, targets, tokens = _stack(world, samples, "speaker_id_accuracy")
    means = condition_means(world, np.arange(world.n_speakers)[None, :], targets[:, None],
                            tokens[:, None])
    residual = (frames[:, None] - means).mean(axis=2)
    nearest = np.linalg.norm(residual, axis=-1).argmin(axis=1)
    return 100.0 * int((nearest == speakers).sum()) / len(samples)


# ---------------------------------------------------------------------------
# evaluation protocol: condition grid, generation, per-cell metrics


def make_scripts(world: World, n_scripts: int, length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0x5C12])
    return rng.integers(0, world.vocab, size=(n_scripts, length))


def sample_frames(model: Model, mode: str, tokens, styles, emotions, gamma: float,
                  steps: int, seed, stochastic: bool,
                  trajectory: list | None = None) -> np.ndarray:
    """Frames (n, L, D) for tokens (n, L), styles (n, style_dim) and target
    emotions (n,) under one sampling mode: none (the conditional sampler),
    cfg or cg; each rejects a guidance scale that is negative or not finite."""
    if mode == "none":
        _check_gamma(gamma)
        e_cond = model.table.embed(emotions)
        mu = model.generator.generate(tokens, styles, e_cond)
        return sample_reverse(model.scorenet, mu, styles, e_cond, model.schedule, steps,
                              seed, stochastic=stochastic, trajectory=trajectory)
    if mode == "cfg":
        return sample_cfg(model.scorenet, model.generator, model.table, tokens, styles,
                          emotions, model.schedule, steps, gamma, seed,
                          stochastic=stochastic, trajectory=trajectory)
    if mode == "cg":
        return sample_cg(model.scorenet, model.noisy_clf, model.generator, model.table,
                         tokens, styles, emotions, model.schedule, steps, gamma, seed,
                         stochastic=stochastic, trajectory=trajectory)
    raise EvalError(f"unknown sampling mode '{mode}'")


def generate_eval_samples(model: Model, world: World, speakers, mode: str,
                          gamma: float, n_samples: int, seed: int,
                          steps: int = 100, n_scripts: int = 10,
                          script_len: int = 8, stochastic: bool = True,
                          ) -> tuple[list[EvalSample], np.ndarray, np.ndarray]:
    """Generate samples under the zero-shot evaluation protocol; returns
    (samples, reference frames, reference style vectors).

    Conditions cycle over the given speakers, all emotions, and a fixed set
    of scripts. References are always freshly sampled *Neutral* utterances
    of the target speaker: the unseen-speaker path never reads emotional
    reference material.
    """
    speakers = np.asarray(list(speakers), dtype=np.int64)
    scripts = make_scripts(world, n_scripts, script_len, seed)
    rng = np.random.default_rng([seed, 0xE7A1])
    spk = speakers[np.arange(n_samples) % speakers.size]
    targets = np.arange(n_samples) % world.n_emotions
    tokens = scripts[np.arange(n_samples) % n_scripts]
    refs = neutral_references(world, spk, script_len, rng)
    styles = model.encoder.encode(refs)
    frames = sample_frames(model, mode, tokens, styles, targets, gamma, steps,
                           rng.integers(0, 2 ** 63 - 1), stochastic)
    return [
        EvalSample(frames=frames[i], target_emotion=int(targets[i]),
                   speaker=int(spk[i]), tokens=tokens[i])
        for i in range(n_samples)
    ], refs, styles


def _speaker_embeddings(world: World, samples: list[EvalSample],
                        refs: np.ndarray, styles: np.ndarray, model: Model):
    """Both SECS embedding candidates: mean frame minus the predicted
    emotion offset, and the style vector."""
    sample_styles = model.encoder.encode(np.stack([sample.frames for sample in samples]))
    secs_frame = []
    secs_style = []
    for i, sample in enumerate(samples):
        emb_sample = sample.frames.mean(axis=0) - world.emotion_offset[sample.target_emotion]
        emb_ref = refs[i].mean(axis=0)
        secs_frame.append(secs_analog(emb_sample, emb_ref))
        secs_style.append(secs_analog(sample_styles[i], styles[i]))
    return float(np.mean(secs_frame)), float(np.mean(secs_style))


@dataclass
class SweepRow:
    gamma: float
    mode: str
    eca: float
    content_error: float
    secs_mean_frame: float
    secs_style: float
    n: int


def sweep_csv(rows: list[SweepRow]) -> str:
    """A header line, then one CSV line per row."""
    lines = ["gamma,mode,eca,content_error,secs_mean_frame,secs_style,n"]
    for row in rows:
        lines.append(f"{row.gamma:g},{row.mode},{row.eca:.4f},"
                     f"{row.content_error:.6f},{row.secs_mean_frame:.6f},"
                     f"{row.secs_style:.6f},{row.n}")
    return "\n".join(lines) + "\n"


def evaluate_cell(model: Model, world: World, speakers, mode: str, gamma: float,
                  n_samples: int, seed: int, **protocol) -> SweepRow:
    """One metrics row; ``protocol`` is passed on to :func:`generate_eval_samples`."""
    samples, refs, styles = generate_eval_samples(
        model, world, speakers, mode, gamma, n_samples, seed, **protocol)
    secs_frame, secs_style = _speaker_embeddings(world, samples, refs, styles, model)
    return SweepRow(
        gamma=float(gamma),
        mode=mode,
        eca=eca_oracle(world, samples),
        content_error=content_error(samples, world),
        secs_mean_frame=secs_frame,
        secs_style=secs_style,
        n=n_samples,
    )


def guidance_sweep(model: Model, world: World, speakers, gammas,
                   mode: str, n_samples: int, seed: int, **protocol) -> list[SweepRow]:
    """One :func:`evaluate_cell` row per gamma, each from fresh samples."""
    gammas = list(gammas)
    if not gammas:
        raise EvalError("gammas must be nonempty")
    if any(b < a for a, b in zip(gammas, gammas[1:])):
        raise EvalError("gammas must be ascending")
    return [evaluate_cell(model, world, speakers, mode, gamma, n_samples, seed, **protocol)
            for gamma in gammas]


# ---------------------------------------------------------------------------
# style-vector export for external projection tools


def collect_style_vectors(world: World, model: Model, speakers, per_emotion: int,
                          utt_len: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Style vectors of fresh utterances for every (speaker-cycled, emotion)
    cell, used both by the disentanglement probe and the TSV export."""
    speakers = np.asarray(list(speakers), dtype=np.int64)
    rng = np.random.default_rng([seed, 0x57FE])
    all_vectors = []
    all_labels = []
    for emotion in range(world.n_emotions):
        spk = speakers[np.arange(per_emotion) % speakers.size]
        tokens = rng.integers(0, world.vocab, size=(per_emotion, utt_len))
        frames = sample_utterance_batch(
            world, spk, np.full(per_emotion, emotion, dtype=np.int64), tokens, rng)
        all_vectors.append(model.encoder.encode(frames))
        all_labels.append(np.full(per_emotion, emotion, dtype=np.int64))
    return np.concatenate(all_vectors), np.concatenate(all_labels)


def styles_tsv(vectors: np.ndarray, labels: np.ndarray) -> str:
    lines = ["\t".join(["emotion"] + [f"s{i}" for i in range(vectors.shape[1])])]
    for label, vec in zip(labels, vectors):
        lines.append("\t".join([str(int(label))] + [f"{v:.10g}" for v in vec]))
    return "\n".join(lines) + "\n"
