"""Synthetic world construction, sampling, and the closed-form oracles."""

import numpy as np
import pytest

import melworld as mw
from melworld.world import (
    NEUTRAL,
    AnalyticNoisyClassifier,
    WorldConfig,
    WorldError,
    _min_pairwise_distance,
    dump_world,
    load_world,
    world_hash,
)


@pytest.fixture(scope="module")
def world():
    return mw.make_world(WorldConfig(), seed=7)


@pytest.fixture(scope="module")
def schedule():
    return mw.NoiseSchedule()


def test_make_world_deterministic():
    w1 = mw.make_world(WorldConfig(), seed=7)
    w2 = mw.make_world(WorldConfig(), seed=7)
    assert np.array_equal(w1.speaker_base, w2.speaker_base)
    assert np.array_equal(w1.emotion_offset, w2.emotion_offset)
    assert np.array_equal(w1.token_effect, w2.token_effect)


def test_neutral_offset_is_zero(world):
    assert np.all(world.emotion_offset[NEUTRAL] == 0.0)


def test_speaker_separation(world):
    assert _min_pairwise_distance(world.speaker_base) >= 1.2  # 4 * tau at tau=0.3


def test_emotion_separation(world):
    assert _min_pairwise_distance(world.emotion_offset) >= 4 * world.tau


def test_make_world_validates_config():
    with pytest.raises(WorldError):
        mw.make_world(WorldConfig(n_speakers=2), seed=0)
    with pytest.raises(WorldError):
        mw.make_world(WorldConfig(n_emotions=1), seed=0)
    with pytest.raises(WorldError):
        mw.make_world(WorldConfig(tau=0.0), seed=0)


def test_separation_failure_reports_resampling():
    # cramming many speakers into 2 dimensions with a large tau cannot reach
    # the 4*tau separation
    with pytest.raises(WorldError, match="resamples"):
        mw.make_world(WorldConfig(frame_dim=2, n_speakers=64, tau=5.0), seed=0)


# ---------------------------------------------------------------------------
# sampling


def test_sample_utterance_noiseless_limit():
    w = mw.make_world(WorldConfig(tau=1e-9), seed=3)
    tokens = [0, 3, 7]
    utt = mw.sample_utterance(w, 1, 1, tokens, seed=5)
    mean = mw.utterance_mean(w, 1, 1, tokens)
    assert np.abs(utt.frames - mean).max() < 1e-7


def test_sample_utterance_mean_monte_carlo(world):
    tokens = [4]
    mean = mw.utterance_mean(world, 2, 1, tokens)[0]
    rng = np.random.default_rng(0)
    frames = mw.world.sample_utterance_batch(
        world, np.full(10_000, 2), np.full(10_000, 1),
        np.full((10_000, 1), 4), rng)[:, 0, :]
    assert np.abs(frames.mean(axis=0) - mean).max() < 0.05


def test_sample_utterance_deterministic(world):
    a = mw.sample_utterance(world, 0, 2, [1, 2, 3], seed=9)
    b = mw.sample_utterance(world, 0, 2, [1, 2, 3], seed=9)
    assert np.array_equal(a.frames, b.frames)


def test_sample_utterance_invalid_ids(world):
    with pytest.raises(WorldError):
        mw.sample_utterance(world, world.n_speakers, 0, [1], seed=0)
    with pytest.raises(WorldError):
        mw.sample_utterance(world, 0, world.n_emotions, [1], seed=0)
    with pytest.raises(WorldError):
        mw.sample_utterance(world, 0, 0, [world.vocab], seed=0)
    with pytest.raises(WorldError):
        mw.sample_utterance(world, 0, 0, [], seed=0)


def test_neutral_emotion_adds_nothing(world):
    tokens = [2, 5]
    mean = mw.utterance_mean(world, 3, NEUTRAL, tokens)
    expected = world.speaker_base[3][None, :] + world.token_effect[[2, 5]]
    assert np.array_equal(mean, expected)


# ---------------------------------------------------------------------------
# split


def test_split_speakers_cardinality(world):
    split = mw.split_speakers(world, 6, seed=0)
    assert len(split.seen) == 6
    assert len(split.unseen) == 4
    assert not set(split.seen) & set(split.unseen)
    assert set(split.seen) | set(split.unseen) == set(range(world.n_speakers))


def test_split_speakers_deterministic(world):
    assert mw.split_speakers(world, 6, seed=1) == mw.split_speakers(world, 6, seed=1)


def test_split_speakers_range(world):
    with pytest.raises(WorldError):
        mw.split_speakers(world, world.n_speakers, seed=0)
    with pytest.raises(WorldError):
        mw.split_speakers(world, 0, seed=0)


# ---------------------------------------------------------------------------
# analytic score


def test_score_zero_at_single_component_mean(world, schedule):
    tokens = np.array([1, 2])
    mu = mw.utterance_mean(world, 0, 0, tokens)
    mean = mw.utterance_mean(world, 0, 1, tokens)
    t = 0.4
    rho = schedule.rho(t)
    m_t = mu + (mean - mu) * rho
    score = mw.analytic_score(world, [0], 1, mu, m_t, t, schedule, tokens=tokens)
    assert np.abs(score).max() < 1e-12


def test_score_single_component_closed_form(world, schedule):
    # score = -(y - m_t)/v_t with m_t = mu + (m - mu)*rho, v = tau^2 rho^2 + 1 - rho^2
    rng = np.random.default_rng(2)
    tokens = np.array([3, 8, 1])
    mu = rng.standard_normal((3, world.frame_dim))
    y = rng.standard_normal((3, world.frame_dim))
    for t in (0.05, 0.3, 0.9):
        rho = schedule.rho(t)
        v = world.tau ** 2 * rho ** 2 + 1 - rho ** 2
        mean = mw.utterance_mean(world, 4, 2, tokens)
        expected = -(y - (mu + (mean - mu) * rho)) / v
        got = mw.analytic_score(world, [4], 2, mu, y, t, schedule, tokens=tokens)
        assert np.abs(got - expected).max() < 1e-12


def test_score_matches_numeric_log_density_gradient(world, schedule):
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, world.vocab, size=2)
    mu = rng.standard_normal((2, world.frame_dim))
    h = 1e-4
    for t in (0.1, 0.325, 0.55, 0.775, 1.0):
        for _ in range(4):
            y = rng.standard_normal((2, world.frame_dim))
            score = mw.analytic_score(world, [0, 1, 2], "all", mu, y, t, schedule,
                                      tokens=tokens)
            num = np.zeros_like(y)
            for idx in np.ndindex(y.shape):
                yp, ym = y.copy(), y.copy()
                yp[idx] += h
                ym[idx] -= h
                num[idx] = (
                    mw.analytic_log_density(world, [0, 1, 2], "all", mu, yp, t,
                                            schedule, tokens=tokens)
                    - mw.analytic_log_density(world, [0, 1, 2], "all", mu, ym, t,
                                              schedule, tokens=tokens)) / (2 * h)
            denom = max(np.abs(num).max(), 1e-8)
            assert np.abs(score - num).max() / denom < 1e-5


def test_score_symmetric_mixture_midpoint_zero(schedule):
    # equal-weight two-speaker mixture, Y_t at the midpoint of symmetric means
    w = mw.make_world(WorldConfig(n_emotions=2), seed=11)
    mid = 0.5 * (w.speaker_base[0] + w.speaker_base[1])
    mu = np.broadcast_to(mid, (1, w.frame_dim))
    score = mw.analytic_score(w, [0, 1], NEUTRAL, mu, mu.copy(), 0.5,
                              mw.NoiseSchedule(), tokens=None)
    assert np.abs(score).max() < 1e-9


def test_score_rejects_bad_t(world, schedule):
    y = np.zeros((1, world.frame_dim))
    with pytest.raises(WorldError):
        mw.analytic_score(world, [0], 0, y, y, 1.5, schedule)
    with pytest.raises(WorldError):
        mw.analytic_score(world, [0], 0, y, y, -0.1, schedule)


# ---------------------------------------------------------------------------
# emotion posterior


def test_posterior_symmetric_equidistant():
    w = mw.make_world(WorldConfig(n_emotions=2), seed=19)
    tokens = np.array([0])
    m0 = mw.utterance_mean(w, 0, 0, tokens)
    m1 = mw.utterance_mean(w, 0, 1, tokens)
    mid = 0.5 * (m0 + m1)
    mu = np.zeros_like(mid)
    t = 0.3
    rho = mw.NoiseSchedule().rho(t)
    y = mu + (mid - mu) * rho  # equidistant from both perturbed means
    post = mw.analytic_emotion_posterior(w, 0, mu, y, t, mw.NoiseSchedule(), tokens=tokens)
    assert np.allclose(post, [0.5, 0.5], atol=1e-12)


def test_posterior_peaks_at_true_mean(world, schedule):
    tokens = np.array([2, 7, 1, 9])
    mu = mw.utterance_mean(world, 5, 0, tokens)
    t = 0.01
    rho = schedule.rho(t)
    mean1 = mw.utterance_mean(world, 5, 1, tokens)
    y = mu + (mean1 - mu) * rho
    post = mw.analytic_emotion_posterior(world, 5, mu, y, t, schedule, tokens=tokens)
    assert post[1] > 0.95


def test_posterior_normalized(world, schedule):
    rng = np.random.default_rng(8)
    for _ in range(100):
        tokens = rng.integers(0, world.vocab, size=3)
        y = rng.standard_normal((3, world.frame_dim))
        mu = rng.standard_normal((3, world.frame_dim))
        t = rng.uniform(0.01, 1.0)
        post = mw.analytic_emotion_posterior(world, 1, mu, y, t, schedule, tokens=tokens)
        assert abs(post.sum() - 1.0) < 1e-12
        assert np.all(post >= 0)


def test_bayes_identity(world, schedule):
    # grad log p(Y|e) - grad log p(Y) = grad log p(e|Y), all in closed form
    rng = np.random.default_rng(13)
    for trial in range(10):
        tokens = rng.integers(0, world.vocab, size=3)
        mu = rng.standard_normal((3, world.frame_dim))
        y = rng.standard_normal((3, world.frame_dim))
        t = rng.uniform(0.02, 1.0)
        speaker = int(rng.integers(0, world.n_speakers))
        emotion = int(rng.integers(0, world.n_emotions))
        clf = AnalyticNoisyClassifier(world, speaker, tokens, mu, schedule)
        cond = mw.analytic_score(world, [speaker], emotion, mu, y, t, schedule,
                                 tokens=tokens)
        marginal = mw.analytic_score(world, [speaker], "all", mu, y, t, schedule,
                                     tokens=tokens)
        grad_post, _ = clf.grad_log_prob(y, t, emotion)
        assert np.abs(cond - marginal - grad_post).max() < 1e-8


def test_analytic_classifier_posterior_matches(world, schedule):
    rng = np.random.default_rng(21)
    tokens = rng.integers(0, world.vocab, size=2)
    mu = rng.standard_normal((2, world.frame_dim))
    y = rng.standard_normal((2, world.frame_dim))
    clf = AnalyticNoisyClassifier(world, 3, tokens, mu, schedule)
    direct = mw.analytic_emotion_posterior(world, 3, mu, y, 0.4, schedule, tokens=tokens)
    assert np.allclose(clf.posterior(y, 0.4), direct, atol=0)
    # the gradient's posterior is the one guided_score_cg checks
    assert np.array_equal(clf.grad_log_prob(y, 0.4, 1)[1], direct)


@pytest.mark.parametrize("bad", [-1, 4])
def test_analytic_classifier_rejects_one_bad_target_in_batch(world, schedule, bad):
    rng = np.random.default_rng(22)
    tokens = rng.integers(0, world.vocab, size=2)
    mu = rng.standard_normal((2, world.frame_dim))
    y = rng.standard_normal((5, 2, world.frame_dim))
    clf = AnalyticNoisyClassifier(world, 3, tokens, mu, schedule)
    targets = np.array([0, 1, 2, 3, 1])
    assert clf.grad_log_prob(y, 0.4, targets)[0].shape == y.shape
    targets[2] = bad
    with pytest.raises(WorldError, match=f"emotion id {bad} out of range"):
        clf.grad_log_prob(y, 0.4, targets)


# ---------------------------------------------------------------------------
# serialization


def test_world_roundtrip_bit_exact(world):
    text = dump_world(world)
    loaded = load_world(text)
    assert np.array_equal(loaded.speaker_base, world.speaker_base)
    assert np.array_equal(loaded.emotion_offset, world.emotion_offset)
    assert np.array_equal(loaded.token_effect, world.token_effect)
    assert loaded.tau == world.tau
    assert dump_world(loaded) == text
    assert world_hash(loaded) == world_hash(world)


def test_load_world_rejects_garbage():
    with pytest.raises(WorldError):
        load_world("not a world\n")
