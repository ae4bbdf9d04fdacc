"""Synthetic speakers-by-emotions ground truth with closed-form oracles.

Frames of an utterance are conditionally independent draws

    frame_l ~ N(speaker_base[spk] + emotion_offset[emo] + token_effect[tok_l],
                tau^2 * I)

with the Neutral emotion (id 0) pinned to a zero offset. Because the
mean-reverting forward kernel maps Gaussians to Gaussians, the score of the
perturbed data distribution and the emotion posterior both have closed
forms; those exact quantities are what the learned components are tested
against.

A component (speaker, emotion) is drawn once per utterance, so the joint
density of an L-row frame matrix is a mixture whose responsibilities are
shared across rows:

    p_t(Y) = sum_c w_c * prod_l N(y_l; mu_l + (m_{c,l} - mu_l) * rho_t, v_t I)
    v_t    = tau^2 * rho_t^2 + (1 - rho_t^2)

The score of row l is then the responsibility-weighted average of the
per-component Gaussian scores -(y_l - m~_{c,l}) / v_t.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, softmax

NEUTRAL = 0

_SPEAKER_SCALE = 1.0
# emotion offsets sit closer to the 4*tau separation floor than speakers do,
# so clean data still classifies perfectly. The margin is still wide: a
# trained model's unguided samples for seen speakers reach 99.9-100% oracle
# accuracy, and only unseen speakers, whose prior mean is off, leave
# guidance room to help
_EMOTION_SCALE = 0.5
_TOKEN_SCALE = 0.5
_MAX_RESAMPLES = 1000

_FORMAT_HEADER = "melworld world v1"


class WorldError(Exception):
    """Raised for invalid world configurations or ids."""


@dataclass(frozen=True)
class WorldConfig:
    """The ``[world]`` configuration section, apart from its seeds and split."""

    frame_dim: int = 8  # frame dimensionality D
    vocab: int = 10  # token vocabulary size
    n_speakers: int = 10
    n_emotions: int = 4  # including Neutral
    tau: float = 0.3  # per-frame noise scale
    max_len: int = 16  # maximum utterance length


@dataclass(frozen=True)
class World:
    frame_dim: int
    vocab: int
    n_speakers: int
    n_emotions: int
    tau: float
    max_len: int
    seed: int
    speaker_base: np.ndarray
    emotion_offset: np.ndarray
    token_effect: np.ndarray

    def check_speaker(self, speaker: int) -> int:
        if not 0 <= speaker < self.n_speakers:
            raise WorldError(f"speaker id {speaker} out of range [0, {self.n_speakers})")
        return int(speaker)

    def check_emotion(self, emotion: int) -> int:
        if not 0 <= emotion < self.n_emotions:
            raise WorldError(f"emotion id {emotion} out of range [0, {self.n_emotions})")
        return int(emotion)

    def check_tokens(self, tokens) -> np.ndarray:
        toks = np.asarray(tokens, dtype=np.int64)
        if toks.ndim != 1 or toks.size < 1:
            raise WorldError("tokens must be a nonempty 1-D sequence")
        if toks.size > self.max_len:
            raise WorldError(f"token sequence length {toks.size} exceeds max_len {self.max_len}")
        if toks.min() < 0 or toks.max() >= self.vocab:
            raise WorldError(f"token id out of range [0, {self.vocab})")
        return toks


@dataclass(frozen=True)
class Utterance:
    speaker: int
    emotion: int
    tokens: np.ndarray
    frames: np.ndarray


@dataclass(frozen=True)
class SpeakerSplit:
    seen: tuple
    unseen: tuple


def _min_pairwise_distance(rows: np.ndarray) -> float:
    n = rows.shape[0]
    best = np.inf
    for i in range(n - 1):
        d = np.linalg.norm(rows[i + 1:] - rows[i], axis=1).min()
        best = min(best, float(d))
    return best


def make_world(config: WorldConfig = WorldConfig(), seed: int = 0) -> World:
    """Build a world deterministically from ``seed``.

    Speaker bases and emotion offsets are rejection-resampled until all
    pairwise distances reach 4*tau, which keeps the Bayes classifier and
    nearest-mean speaker identification near-perfect on clean data.
    """
    if config.n_speakers < 4:
        raise WorldError("need at least 4 speakers")
    if config.n_emotions < 2:
        raise WorldError("need at least 2 emotions")
    if config.frame_dim < 2:
        raise WorldError("frame_dim must be at least 2")
    if config.tau <= 0:
        raise WorldError("tau must be positive")
    rng = np.random.default_rng(seed)
    min_sep = 4.0 * config.tau
    # scales grow with tau so the required 4*tau separation stays reachable
    spk_scale = max(_SPEAKER_SCALE, 3.0 * config.tau)
    emo_scale = max(_EMOTION_SCALE, 3.0 * config.tau)

    speaker_base = None
    for _ in range(_MAX_RESAMPLES):
        candidate = spk_scale * rng.standard_normal((config.n_speakers, config.frame_dim))
        if _min_pairwise_distance(candidate) >= min_sep:
            speaker_base = candidate
            break
    if speaker_base is None:
        raise WorldError("could not separate speaker bases after "
                         f"{_MAX_RESAMPLES} resamples; increase frame_dim or decrease tau")

    emotion_offset = None
    for _ in range(_MAX_RESAMPLES):
        candidate = np.zeros((config.n_emotions, config.frame_dim))
        candidate[1:] = emo_scale * rng.standard_normal(
            (config.n_emotions - 1, config.frame_dim))
        if _min_pairwise_distance(candidate) >= min_sep:
            emotion_offset = candidate
            break
    if emotion_offset is None:
        raise WorldError("could not separate emotion offsets after "
                         f"{_MAX_RESAMPLES} resamples; increase frame_dim or decrease tau")

    token_effect = _TOKEN_SCALE * rng.standard_normal((config.vocab, config.frame_dim))
    return World(
        frame_dim=config.frame_dim,
        vocab=config.vocab,
        n_speakers=config.n_speakers,
        n_emotions=config.n_emotions,
        tau=config.tau,
        max_len=config.max_len,
        seed=int(seed),
        speaker_base=speaker_base,
        emotion_offset=emotion_offset,
        token_effect=token_effect,
    )


def utterance_mean(world: World, speaker: int, emotion: int, tokens) -> np.ndarray:
    """Analytic per-row mean, shape (L, frame_dim)."""
    spk = world.check_speaker(speaker)
    emo = world.check_emotion(emotion)
    toks = world.check_tokens(tokens)
    return (world.speaker_base[spk] + world.emotion_offset[emo])[None, :] \
        + world.token_effect[toks]


def sample_utterance(world: World, speaker: int, emotion: int, tokens,
                     seed) -> Utterance:
    """Draw frames around the analytic mean; deterministic given seed."""
    mean = utterance_mean(world, speaker, emotion, tokens)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    frames = mean + world.tau * rng.standard_normal(mean.shape)
    return Utterance(speaker=int(speaker), emotion=int(emotion),
                     tokens=world.check_tokens(tokens), frames=frames)


def sample_utterance_batch(world: World, speakers, emotions, tokens,
                           rng: np.random.Generator) -> np.ndarray:
    """Vectorized frames for same-length token sequences, shape (n, L, D)."""
    speakers = np.asarray(speakers, dtype=np.int64)
    emotions = np.asarray(emotions, dtype=np.int64)
    toks = np.asarray(tokens, dtype=np.int64)
    means = (world.speaker_base[speakers] + world.emotion_offset[emotions])[:, None, :] \
        + world.token_effect[toks]
    return means + world.tau * rng.standard_normal(means.shape)


def split_speakers(world: World, n_seen: int, seed: int) -> SpeakerSplit:
    """Deterministic disjoint seen/unseen split; unseen must be nonempty."""
    if not 1 <= n_seen < world.n_speakers:
        raise WorldError(f"n_seen must be in [1, {world.n_speakers}), got {n_seen}")
    order = np.random.default_rng(seed).permutation(world.n_speakers)
    return SpeakerSplit(seen=tuple(int(s) for s in sorted(order[:n_seen])),
                        unseen=tuple(int(s) for s in sorted(order[n_seen:])))


# ---------------------------------------------------------------------------
# closed-form oracles


def _marginal_variance(world: World, t: float, schedule) -> float:
    if t < 0 or t > schedule.T:
        raise WorldError(f"t={t} outside [0, {schedule.T}]")
    rho = schedule.rho(t)
    v = world.tau ** 2 * rho ** 2 + 1.0 - rho ** 2
    if v <= 0.0:
        raise WorldError(f"degenerate perturbed density at t={t} (tau={world.tau})")
    return float(v)


def _component_means(world: World, speakers, emotions, tokens, n_rows: int) -> np.ndarray:
    """Stack of per-component mean matrices, shape (C, L, D).

    When ``tokens`` is None the token contribution is omitted, i.e. the
    component mean is constant across rows.
    """
    speakers = [world.check_speaker(s) for s in speakers]
    emotions = [world.check_emotion(e) for e in emotions]
    pairs = world.speaker_base[speakers][:, None, :] + world.emotion_offset[emotions][None, :, :]
    if tokens is not None:
        toks = world.check_tokens(tokens)
        if toks.size != n_rows:
            raise WorldError(f"tokens length {toks.size} does not match {n_rows} rows")
        tok_part = world.token_effect[toks]
    else:
        tok_part = np.zeros((n_rows, world.frame_dim))
    return pairs.reshape(-1, 1, world.frame_dim) + tok_part


def _mixture(world: World, speaker_prior, emotion, mu, y_t, t: float, schedule,
             tokens) -> tuple[np.ndarray, bool, np.ndarray, np.ndarray, float]:
    """The perturbed mixture over the uniform prior on speakers x emotions.

    ``y_t`` is (L, D) or (n, L, D); ``emotion`` is one id or ``"all"``.
    Returns (Y_t as an (n, L, D) batch, whether it was one utterance,
    per-component perturbed means m_t of shape (C, n, L, D), joint
    log-likelihoods of shape (C, n), marginal variance v).
    """
    y = np.asarray(y_t, dtype=np.float64)
    single = y.ndim == 2
    if single:
        y = y[None, :, :]
    elif y.ndim != 3:
        raise WorldError(f"expected (L, {world.frame_dim}) or (n, L, {world.frame_dim}) "
                         f"array, got shape {y.shape}")
    mu_b = np.broadcast_to(np.asarray(mu, dtype=np.float64), y.shape).astype(np.float64)
    speakers = sorted(set(int(s) for s in speaker_prior))
    if not speakers:
        raise WorldError("speaker_prior must be nonempty")
    emotions = range(world.n_emotions) if emotion == "all" else [emotion]
    means = _component_means(world, speakers, emotions, tokens, y.shape[1])
    v = _marginal_variance(world, t, schedule)
    rho = schedule.rho(t)
    m_t = mu_b[None] + (means[:, None, :, :] - mu_b[None]) * rho
    diff = y[None] - m_t
    n_dims = y.shape[1] * y.shape[2]
    loglik = -0.5 * (diff * diff).sum(axis=(2, 3)) / v \
        - 0.5 * n_dims * np.log(2.0 * np.pi * v)
    return y, single, m_t, loglik, v


def analytic_score(world: World, speaker_prior, emotion, mu, y_t, t: float,
                   schedule, tokens=None) -> np.ndarray:
    """Exact score of the perturbed mixture, same shape as ``y_t``.

    ``speaker_prior`` is an iterable of speaker ids and ``emotion`` a single
    id or ``"all"``; components are their uniform-weight product. ``tokens``
    adds the per-row token effect to every component mean.
    """
    y, single, m_t, loglik, v = _mixture(world, speaker_prior, emotion, mu, y_t, t,
                                         schedule, tokens)
    resp = softmax(loglik, axis=0)  # uniform weights cancel
    score = np.einsum("cn,cnld->nld", resp, -(y[None] - m_t)) / v
    return score[0] if single else score


def analytic_log_density(world: World, speaker_prior, emotion, mu, y_t, t: float,
                         schedule, tokens=None) -> float | np.ndarray:
    """Log-density of the perturbed mixture (up to nothing; fully normalized)."""
    _, single, _, loglik, _ = _mixture(world, speaker_prior, emotion, mu, y_t, t,
                                       schedule, tokens)
    out = logsumexp(loglik, axis=0) - np.log(loglik.shape[0])
    return float(out[0]) if single else out


def analytic_emotion_posterior(world: World, speaker: int, mu, y_t, t: float,
                               schedule, tokens=None) -> np.ndarray:
    """Exact Bayes posterior over emotions under a uniform prior.

    Rows are combined by summing per-row log-likelihoods (the emotion is
    drawn once per utterance). Shape (n_emotions,) or (n, n_emotions).
    """
    _, single, _, loglik, _ = _mixture(world, [speaker], "all", mu, y_t, t, schedule, tokens)
    post = softmax(loglik, axis=0).T  # (n, K)
    return post[0] if single else post


class AnalyticNoisyClassifier:
    """Oracle p(e | Y_t) for fixed (speaker, tokens, mu).

    Provides the same interface as the trained noisy classifier:
    ``posterior``, and ``grad_log_prob``, the gradient of the target
    log-posterior with respect to the noisy frames together with the
    posterior it was computed from. The gradient uses the identity

        grad log p(e|y) = score_cond(e) - sum_e' p(e'|y) * score_cond(e')

    which is algebraically independent of the marginal-score code path, so
    Bayes-rule consistency between the two is a real check.
    """

    def __init__(self, world: World, speaker: int, tokens, mu, schedule):
        self.world = world
        self.speaker = world.check_speaker(speaker)
        self.tokens = None if tokens is None else world.check_tokens(tokens)
        self.mu = np.asarray(mu, dtype=np.float64)
        self.schedule = schedule

    def posterior(self, y_t, t: float) -> np.ndarray:
        return analytic_emotion_posterior(self.world, self.speaker, self.mu, y_t,
                                          t, self.schedule, tokens=self.tokens)

    def grad_log_prob(self, y_t, t: float, target) -> tuple[np.ndarray, np.ndarray]:
        world = self.world
        y, single, m_t, loglik, v = _mixture(world, [self.speaker], "all", self.mu, y_t, t,
                                             self.schedule, self.tokens)
        post = softmax(loglik, axis=0)  # (K, n)
        cond_scores = -(y[None] - m_t) / v  # (K, n, L, D)
        target_arr = np.broadcast_to(np.asarray(target, dtype=np.int64), (y.shape[0],))
        # every id is in range when both extremes are
        world.check_emotion(int(target_arr.min()))
        world.check_emotion(int(target_arr.max()))
        picked = cond_scores[target_arr, np.arange(y.shape[0])]
        avg = np.einsum("kn,knld->nld", post, cond_scores)
        grad = picked - avg
        return (grad[0], post[:, 0]) if single else (grad, post.T)


# ---------------------------------------------------------------------------
# text serialization


def _format_matrix(name: str, rows: np.ndarray) -> list[str]:
    lines = [name]
    for row in rows:
        lines.append(" ".join(f"{value:.17g}" for value in row))
    return lines


def dump_world(world: World) -> str:
    """Versioned text serialization; 17 significant digits round-trip float64."""
    lines = [
        _FORMAT_HEADER,
        f"frame_dim {world.frame_dim}",
        f"vocab {world.vocab}",
        f"n_speakers {world.n_speakers}",
        f"n_emotions {world.n_emotions}",
        f"tau {world.tau:.17g}",
        f"max_len {world.max_len}",
        f"seed {world.seed}",
    ]
    lines += _format_matrix("speaker_base", world.speaker_base)
    lines += _format_matrix("emotion_offset", world.emotion_offset)
    lines += _format_matrix("token_effect", world.token_effect)
    return "\n".join(lines) + "\n"


def load_world(text: str) -> World:
    lines = [ln for ln in text.splitlines()]
    if not lines or lines[0] != _FORMAT_HEADER:
        raise WorldError("not a world file (bad header)")
    fields: dict[str, str] = {}
    i = 1
    for key in ("frame_dim", "vocab", "n_speakers", "n_emotions", "tau", "max_len", "seed"):
        if i >= len(lines):
            raise WorldError("world file truncated in header")
        parts = lines[i].split()
        if len(parts) != 2 or parts[0] != key:
            raise WorldError(f"expected '{key} <value>' at line {i + 1}")
        fields[key] = parts[1]
        i += 1

    def read_matrix(name: str, n_rows: int, n_cols: int) -> np.ndarray:
        nonlocal i
        if i >= len(lines) or lines[i] != name:
            raise WorldError(f"expected matrix '{name}' at line {i + 1}")
        i += 1
        rows = []
        for _ in range(n_rows):
            values = [float(v) for v in lines[i].split()]
            if len(values) != n_cols:
                raise WorldError(f"matrix '{name}' row has {len(values)} values, "
                                 f"expected {n_cols}")
            rows.append(values)
            i += 1
        return np.array(rows, dtype=np.float64)

    d = int(fields["frame_dim"])
    world = World(
        frame_dim=d,
        vocab=int(fields["vocab"]),
        n_speakers=int(fields["n_speakers"]),
        n_emotions=int(fields["n_emotions"]),
        tau=float(fields["tau"]),
        max_len=int(fields["max_len"]),
        seed=int(fields["seed"]),
        speaker_base=read_matrix("speaker_base", int(fields["n_speakers"]), d),
        emotion_offset=read_matrix("emotion_offset", int(fields["n_emotions"]), d),
        token_effect=read_matrix("token_effect", int(fields["vocab"]), d),
    )
    if np.any(world.emotion_offset[NEUTRAL] != 0.0):
        raise WorldError("corrupt world file: neutral emotion offset is nonzero")
    return world


def world_hash(world: World) -> str:
    return hashlib.sha256(dump_world(world).encode("utf-8")).hexdigest()[:16]
