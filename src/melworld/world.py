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
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.special import logsumexp, softmax

from .autodiff import MelworldError

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


class WorldError(MelworldError):
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

    def __post_init__(self):
        # every world passes these, whether generated or loaded from a file
        for name, least in (("n_speakers", 4), ("n_emotions", 2), ("frame_dim", 2),
                            ("vocab", 1), ("max_len", 1)):
            if getattr(self, name) < least:
                raise WorldError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not 0 < self.tau < np.inf:
            raise WorldError(f"tau must be positive and finite, got {self.tau}")


@dataclass(frozen=True, kw_only=True)
class World(WorldConfig):
    """A ``WorldConfig`` plus the seed its matrices were drawn from and the
    matrices themselves."""

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


def _separated(draw, min_sep: float, what: str) -> np.ndarray:
    """The first of up to _MAX_RESAMPLES draws whose rows are pairwise at
    least ``min_sep`` apart."""
    for _ in range(_MAX_RESAMPLES):
        candidate = draw()
        if _min_pairwise_distance(candidate) >= min_sep:
            return candidate
    raise WorldError(f"could not separate {what} after {_MAX_RESAMPLES} resamples; "
                     "increase frame_dim or decrease tau")


def make_world(config: WorldConfig = WorldConfig(), seed: int = 0) -> World:
    """Build a world deterministically from ``seed``.

    Speaker bases and emotion offsets are rejection-resampled until all
    pairwise distances reach 4*tau, which keeps the Bayes classifier and
    nearest-mean speaker identification near-perfect on clean data.
    """
    rng = np.random.default_rng(seed)
    min_sep = 4.0 * config.tau
    # scales grow with tau so the required 4*tau separation stays reachable
    spk_scale = max(_SPEAKER_SCALE, 3.0 * config.tau)
    emo_scale = max(_EMOTION_SCALE, 3.0 * config.tau)

    d = config.frame_dim
    speaker_base = _separated(
        lambda: spk_scale * rng.standard_normal((config.n_speakers, d)),
        min_sep, "speaker bases")
    emotion_offset = _separated(
        lambda: np.vstack([np.zeros((1, d)),
                           emo_scale * rng.standard_normal((config.n_emotions - 1, d))]),
        min_sep, "emotion offsets")
    token_effect = _TOKEN_SCALE * rng.standard_normal((config.vocab, d))
    return World(**asdict(config), seed=int(seed), speaker_base=speaker_base,
                 emotion_offset=emotion_offset, token_effect=token_effect)


def condition_means(world: World, speakers, emotions, tokens) -> np.ndarray:
    """World means base[speaker] + offset[emotion] + token_effect[token],
    broadcast over the leading axes of the ids; shape (..., L, D)."""
    spk, emo, toks = (np.asarray(ids, dtype=np.int64) for ids in (speakers, emotions, tokens))
    return (world.speaker_base[spk] + world.emotion_offset[emo])[..., None, :] \
        + world.token_effect[toks]


def utterance_mean(world: World, speaker: int, emotion: int, tokens) -> np.ndarray:
    """Analytic per-row mean, shape (L, frame_dim)."""
    return condition_means(world, world.check_speaker(speaker), world.check_emotion(emotion),
                           world.check_tokens(tokens))


def sample_utterance_batch(world: World, speakers, emotions, tokens,
                           rng: np.random.Generator) -> np.ndarray:
    """Vectorized frames for same-length token sequences, shape (n, L, D)."""
    means = condition_means(world, speakers, emotions, tokens)
    return means + world.tau * rng.standard_normal(means.shape)


def neutral_references(world: World, speakers, length: int,
                       rng: np.random.Generator) -> np.ndarray:
    """One fresh Neutral utterance of each speaker (n,) over a random script
    of ``length`` tokens, shape (n, length, D): the only reference material
    the zero-shot protocol allows."""
    speakers = np.asarray(speakers, dtype=np.int64)
    tokens = rng.integers(0, world.vocab, size=(speakers.size, length))
    return sample_utterance_batch(world, speakers, np.full(speakers.size, NEUTRAL), tokens, rng)


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
    """Stack of per-component mean matrices, shape (C, L, D)."""
    spk = np.array([world.check_speaker(s) for s in speakers])[:, None]
    emo = np.array([world.check_emotion(e) for e in emotions])[None, :]
    toks = world.check_tokens(tokens)
    if toks.size != n_rows:
        raise WorldError(f"tokens length {toks.size} does not match {n_rows} rows")
    return condition_means(world, spk, emo, toks).reshape(-1, n_rows, world.frame_dim)


def _mixture(world: World, speaker_prior, emotion, mu, y_t, t: float, schedule,
             tokens) -> tuple[np.ndarray, tuple, np.ndarray, np.ndarray, float]:
    """The perturbed mixture over the uniform prior on speakers x emotions.

    ``y_t`` is (L, D) or (n, L, D); ``emotion`` is one id or ``"all"``.
    Returns (Y_t as an (n, L, D) batch, the leading shape of ``y_t``, () or
    (n,), to give the results, per-component perturbed means m_t of shape
    (C, n, L, D), joint log-likelihoods of shape (C, n), marginal variance v).
    m_t is the caller's to overwrite.
    """
    y = np.asarray(y_t, dtype=np.float64)
    if y.ndim not in (2, 3):
        raise WorldError(f"expected (L, {world.frame_dim}) or (n, L, {world.frame_dim}) "
                         f"array, got shape {y.shape}")
    lead = y.shape[:-2]
    y = y.reshape((-1,) + y.shape[-2:])
    mu_b = np.broadcast_to(np.asarray(mu, dtype=np.float64), y.shape)
    speakers = sorted(set(int(s) for s in speaker_prior))
    if not speakers:
        raise WorldError("speaker_prior must be nonempty")
    emotions = range(world.n_emotions) if emotion == "all" else [emotion]
    means = _component_means(world, speakers, emotions, tokens, y.shape[1])
    v = _marginal_variance(world, t, schedule)
    rho = schedule.rho(t)
    m_t = means[:, None, :, :] - mu_b
    m_t *= rho
    m_t += mu_b
    # one component at a time, so the squares take one (n, L, D) buffer, not a second block
    sq, diff = np.empty(m_t.shape[:2]), np.empty(y.shape)
    for c, m_c in enumerate(m_t):
        np.subtract(y, m_c, out=diff)
        diff *= diff
        sq[c] = diff.sum(axis=(1, 2))
    n_dims = y.shape[1] * y.shape[2]
    loglik = -0.5 * sq / v - 0.5 * n_dims * np.log(2.0 * np.pi * v)
    return y, lead, m_t, loglik, v


def analytic_score(world: World, speaker_prior, emotion, mu, y_t, t: float,
                   schedule, tokens) -> np.ndarray:
    """Exact score of the perturbed mixture, same shape as ``y_t``.

    ``speaker_prior`` is an iterable of speaker ids and ``emotion`` a single
    id or ``"all"``; components are their uniform-weight product. ``tokens``
    holds one token per row of ``y_t``, whose effect every component mean adds.
    """
    y, lead, m_t, loglik, v = _mixture(world, speaker_prior, emotion, mu, y_t, t,
                                       schedule, tokens)
    resp = softmax(loglik, axis=0)  # uniform weights cancel
    m_t -= y  # each component's score times v
    score = np.einsum("cn,cnld->nld", resp, m_t) / v
    return score.reshape(lead + y.shape[1:])


def analytic_log_density(world: World, speaker_prior, emotion, mu, y_t, t: float,
                         schedule, tokens) -> float | np.ndarray:
    """Log-density of the perturbed mixture (up to nothing; fully normalized)."""
    _, lead, _, loglik, _ = _mixture(world, speaker_prior, emotion, mu, y_t, t,
                                     schedule, tokens)
    out = logsumexp(loglik, axis=0) - np.log(loglik.shape[0])
    return out.reshape(lead)[()]  # a float for one utterance


def analytic_emotion_posterior(world: World, speaker: int, mu, y_t, t: float,
                               schedule, tokens) -> np.ndarray:
    """Exact Bayes posterior over emotions under a uniform prior.

    Rows are combined by summing per-row log-likelihoods (the emotion is
    drawn once per utterance). Shape (n_emotions,) or (n, n_emotions).
    """
    _, lead, _, loglik, _ = _mixture(world, [speaker], "all", mu, y_t, t, schedule, tokens)
    post = softmax(loglik, axis=0).T  # (n, K)
    return post.reshape(lead + post.shape[1:])


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
        self.tokens = world.check_tokens(tokens)
        self.mu = np.asarray(mu, dtype=np.float64)
        self.schedule = schedule

    def posterior(self, y_t, t: float) -> np.ndarray:
        return analytic_emotion_posterior(self.world, self.speaker, self.mu, y_t,
                                          t, self.schedule, tokens=self.tokens)

    def grad_log_prob(self, y_t, t: float, target) -> tuple[np.ndarray, np.ndarray]:
        world = self.world
        y, lead, m_t, loglik, v = _mixture(world, [self.speaker], "all", self.mu, y_t, t,
                                           self.schedule, self.tokens)
        post = softmax(loglik, axis=0)  # (K, n)
        m_t -= y
        cond_scores = np.divide(m_t, v, out=m_t)  # (K, n, L, D)
        target_arr = np.broadcast_to(np.asarray(target, dtype=np.int64), (y.shape[0],))
        # every id is in range when both extremes are
        world.check_emotion(int(target_arr.min()))
        world.check_emotion(int(target_arr.max()))
        picked = cond_scores[target_arr, np.arange(y.shape[0])]
        picked -= np.einsum("kn,knld->nld", post, cond_scores)
        return picked.reshape(lead + y.shape[1:]), post.T.reshape(lead + post.shape[:1])


# ---------------------------------------------------------------------------
# text serialization


_HEADER_KEYS = tuple(f.name for f in fields(WorldConfig)) + ("seed",)
_MATRICES = ("speaker_base", "emotion_offset", "token_effect")


def dump_world(world: World) -> str:
    """Versioned text serialization; 17 significant digits round-trip float64."""
    lines = [_FORMAT_HEADER]
    for key in _HEADER_KEYS:
        value = getattr(world, key)
        lines.append(f"{key} {value:.17g}" if key == "tau" else f"{key} {value}")
    for name in _MATRICES:
        lines.append(name)
        lines += (" ".join(f"{value:.17g}" for value in row) for row in getattr(world, name))
    return "\n".join(lines) + "\n"


def load_world(text: str) -> World:
    lines = text.splitlines()
    if not lines or lines[0] != _FORMAT_HEADER:
        raise WorldError("not a world file (bad header)")
    header: dict = {}
    for i, key in enumerate(_HEADER_KEYS, start=1):
        if i >= len(lines):
            raise WorldError("world file truncated in header")
        parts = lines[i].split()
        if len(parts) != 2 or parts[0] != key:
            raise WorldError(f"expected '{key} <value>' at line {i + 1}")
        try:
            header[key] = float(parts[1]) if key == "tau" else int(parts[1])
        except ValueError:
            raise WorldError(f"bad {key} value {parts[1]!r} at line {i + 1}") from None
    seed = header.pop("seed")
    sizes = WorldConfig(**header)  # checked before any matrix is read

    matrices = {}
    i = len(_HEADER_KEYS) + 1
    for name, n_rows in zip(_MATRICES, (sizes.n_speakers, sizes.n_emotions, sizes.vocab)):
        if i >= len(lines) or lines[i] != name:
            raise WorldError(f"expected matrix '{name}' at line {i + 1}")
        if i + n_rows >= len(lines):
            raise WorldError(f"world file truncated in matrix '{name}'")
        rows = []
        for number, line in enumerate(lines[i + 1:i + 1 + n_rows], start=i + 2):
            try:
                row = [float(v) for v in line.split()]
            except ValueError:
                raise WorldError(f"non-numeric entry in matrix '{name}' at line {number}") from None
            if not np.isfinite(row).all():
                raise WorldError(f"non-finite entry in matrix '{name}' at line {number}")
            if len(row) != sizes.frame_dim:
                raise WorldError(f"matrix '{name}' row has {len(row)} values, "
                                 f"expected {sizes.frame_dim} at line {number}")
            rows.append(row)
        matrices[name] = np.array(rows, dtype=np.float64)
        i += n_rows + 1
    extra = next((n for n in range(i, len(lines)) if lines[n].strip()), None)
    if extra is not None:
        raise WorldError(f"unexpected content after matrix '{_MATRICES[-1]}' at line {extra + 1}")
    world = World(**header, seed=seed, **matrices)
    if np.any(world.emotion_offset[NEUTRAL] != 0.0):
        raise WorldError("corrupt world file: neutral emotion offset is nonzero")
    return world


def world_hash(world: World) -> str:
    return hashlib.sha256(dump_world(world).encode("utf-8")).hexdigest()[:16]
