"""Synthetic world construction, sampling, and the closed-form oracles."""

import hashlib
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import melworld as mw
from melworld import verify
from melworld.world import (
    NEUTRAL,
    AnalyticNoisyClassifier,
    World,
    WorldConfig,
    WorldError,
    _min_pairwise_distance,
    condition_means,
    dump_world,
    load_world,
    neutral_references,
    sample_utterance_batch,
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
    for bad in (dict(vocab=0), dict(max_len=0), dict(tau=np.inf), dict(tau=np.nan)):
        with pytest.raises(WorldError):
            mw.make_world(WorldConfig(**bad), seed=0)


@pytest.mark.parametrize("bad", [dict(n_speakers=3), dict(n_emotions=1), dict(frame_dim=1),
                                 dict(vocab=0), dict(max_len=0), dict(tau=0.0)])
def test_world_built_directly_runs_the_size_checks(world, bad):
    # a World is a WorldConfig, so no constructor skips its checks
    sizes = {f.name: getattr(world, f.name) for f in fields(WorldConfig)}
    with pytest.raises(WorldError, match=next(iter(bad))):
        World(**{**sizes, **bad}, seed=0, speaker_base=world.speaker_base,
              emotion_offset=world.emotion_offset, token_effect=world.token_effect)


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
    frames = sample_utterance_batch(w, [1], [1], [tokens], np.random.default_rng(5))
    mean = mw.utterance_mean(w, 1, 1, tokens)
    assert np.abs(frames[0] - mean).max() < 1e-7


def test_sample_utterance_mean_monte_carlo(world):
    tokens = [4]
    mean = mw.utterance_mean(world, 2, 1, tokens)[0]
    rng = np.random.default_rng(0)
    frames = sample_utterance_batch(
        world, np.full(10_000, 2), np.full(10_000, 1),
        np.full((10_000, 1), 4), rng)[:, 0, :]
    assert np.abs(frames.mean(axis=0) - mean).max() < 0.05


def test_sample_utterance_deterministic(world):
    a = sample_utterance_batch(world, [0], [2], [[1, 2, 3]], np.random.default_rng(9))
    b = sample_utterance_batch(world, [0], [2], [[1, 2, 3]], np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_utterance_mean_invalid_ids(world):
    with pytest.raises(WorldError):
        mw.utterance_mean(world, world.n_speakers, 0, [1])
    with pytest.raises(WorldError):
        mw.utterance_mean(world, 0, world.n_emotions, [1])
    with pytest.raises(WorldError):
        mw.utterance_mean(world, 0, 0, [world.vocab])
    with pytest.raises(WorldError):
        mw.utterance_mean(world, 0, 0, [])


def test_neutral_emotion_adds_nothing(world):
    tokens = [2, 5]
    mean = mw.utterance_mean(world, 3, NEUTRAL, tokens)
    expected = world.speaker_base[3][None, :] + world.token_effect[[2, 5]]
    assert np.array_equal(mean, expected)


def test_condition_means_broadcast_over_id_axes(world):
    tokens = np.array([[1, 4, 4], [0, 9, 2]])
    means = condition_means(world, np.array([[3], [5]]), np.arange(world.n_emotions)[None, :],
                            tokens[:, None])
    assert means.shape == (2, world.n_emotions, 3, world.frame_dim)
    for i, speaker in enumerate((3, 5)):
        for emotion in range(world.n_emotions):
            assert np.array_equal(means[i, emotion],
                                  mw.utterance_mean(world, speaker, emotion, tokens[i]))


def test_neutral_references_draw_script_then_frames(world):
    # the draw order is part of every seeded artifact's bytes
    refs = neutral_references(world, [2, 7, 2], 5, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    tokens = rng.integers(0, world.vocab, size=(3, 5))
    expected = sample_utterance_batch(world, [2, 7, 2], [NEUTRAL] * 3, tokens, rng)
    assert np.array_equal(refs, expected)


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
    # equal-weight two-speaker mixture, Y_t at the midpoint of symmetric means;
    # the token's effect shifts both means, mu and Y_t alike
    w = mw.make_world(WorldConfig(n_emotions=2), seed=11)
    mid = 0.5 * (w.speaker_base[0] + w.speaker_base[1]) + w.token_effect[3]
    mu = np.broadcast_to(mid, (1, w.frame_dim))
    score = mw.analytic_score(w, [0, 1], NEUTRAL, mu, mu.copy(), 0.5,
                              mw.NoiseSchedule(), tokens=[3])
    assert np.abs(score).max() < 1e-9


def test_score_rejects_bad_t(world, schedule):
    y = np.zeros((1, world.frame_dim))
    with pytest.raises(WorldError):
        mw.analytic_score(world, [0], 0, y, y, 1.5, schedule, tokens=[0])
    with pytest.raises(WorldError):
        mw.analytic_score(world, [0], 0, y, y, -0.1, schedule, tokens=[0])


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


@pytest.mark.parametrize("T", [0.5, 1.0])
def test_score_vs_numeric_takes_its_times_as_fractions_of_T(world, monkeypatch, T):
    # the grid ends at the schedule's T, and at T = 1 its times are the
    # fractions themselves, bit for bit
    times, score = [], verify.analytic_score

    def spy(*args, **kwargs):
        times.append(args[5])
        return score(*args, **kwargs)

    monkeypatch.setattr(verify, "analytic_score", spy)
    assert verify.run_score_vs_numeric(world, mw.NoiseSchedule(T=T), n_points=1).passed
    assert times == [0.1 * T, 0.325 * T, 0.55 * T, 0.775 * T, T]
    if T == 1.0:
        assert times == [0.1, 0.325, 0.55, 0.775, 1.0]


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


def test_dump_world_bytes_pinned():
    # the world.txt of every default run at seed 7; a change to the format
    # that still round-trips through load_world moves this hash
    text = dump_world(mw.make_world(WorldConfig(), seed=7))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "10d4e88aa154ca75e6d1d8711ff447aa7a57c4668f53c94d587dd4ae4ad22740"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("name", ["speaker_base", "emotion_offset", "token_effect"])
def test_load_world_rejects_non_finite_entries(world, name, value):
    lines = dump_world(world).splitlines()
    row = lines.index(name) + 2  # the 1-based line of the matrix's second row
    lines[row - 1] = " ".join([value] * world.frame_dim)
    with pytest.raises(WorldError, match=f"non-finite entry in matrix '{name}' at line {row}$"):
        load_world("\n".join(lines) + "\n")


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("name", ["speaker_base", "emotion_offset", "token_effect"])
def test_load_world_rejects_a_row_of_the_wrong_length(world, name, delta):
    lines = dump_world(world).splitlines()
    row = lines.index(name) + 4  # the 1-based line of the matrix's third row
    n = world.frame_dim + delta
    lines[row - 1] = " ".join(["0.5"] * n)
    with pytest.raises(WorldError, match=f"matrix '{name}' row has {n} values, expected "
                                         f"{world.frame_dim} at line {row}$"):
        load_world("\n".join(lines) + "\n")


def test_load_world_rejects_content_after_the_last_matrix(world):
    # an extra token_effect row, then a garbage line: the first one is named;
    # blank lines after the last matrix are left alone
    lines = dump_world(world).splitlines()
    n = len(lines)
    assert load_world("\n".join(lines) + "\n\n  \n").token_effect.shape == (world.vocab,
                                                                             world.frame_dim)
    with pytest.raises(WorldError, match=f"after matrix 'token_effect' at line {n + 2}$"):
        load_world("\n".join(lines + ["", lines[-1], "garbage"]) + "\n")


def test_load_world_rejects_garbage():
    with pytest.raises(WorldError):
        load_world("not a world\n")


@pytest.mark.parametrize("line", ["vocab 0", "max_len 0", "tau 0", "tau -1", "tau nan",
                                  "tau inf", "n_speakers 3", "frame_dim 1"])
def test_load_world_rejects_sizes_make_world_rejects(world, line):
    key = line.split()[0]
    lines = [line if ln.split()[0] == key else ln for ln in dump_world(world).splitlines()]
    with pytest.raises(WorldError, match=key):
        load_world("\n".join(lines) + "\n")


_WORLD_LINES = dump_world(mw.make_world(WorldConfig(), seed=7)).splitlines()
_HEADER_KEYS = ["frame_dim", "vocab", "n_speakers", "n_emotions", "tau", "max_len", "seed"]
# a header line with a small, signed, non-finite or non-numeric value, or any text
_LINE = st.one_of(
    st.tuples(st.sampled_from(_HEADER_KEYS),
              st.integers(-3, 5).map(str) | st.sampled_from(["nan", "inf", "1e400", "x"])
              ).map(" ".join),
    st.text(max_size=20))


@settings(max_examples=80, deadline=None)
@given(st.text() | st.tuples(st.integers(0, len(_WORLD_LINES) - 1), _LINE).map(
    lambda edit: "\n".join(_WORLD_LINES[:edit[0]] + [edit[1]] + _WORLD_LINES[edit[0] + 1:])))
def test_load_world_loads_or_raises_world_error(text):
    # arbitrary text, or a real world file with one line replaced
    try:
        loaded = load_world(text)
    except WorldError:
        return
    assert dump_world(load_world(dump_world(loaded))) == dump_world(loaded)


# sha256 of the exact conditional and exact CG(1) chains below
_ORACLE_CHAIN_BYTES = {
    "cond": "2c7bb390ccb61028dad4392dbdfa180e6ae063083317904522370c1330883a19",
    "cg": "118b22d1515e01895dad624b34586bb70863d0bbe227e2144aab77e3bb865648",
}


def test_exact_oracle_chain_bytes_pinned(world, schedule):
    # criterion 6's oracle chains at a small size: the exact score of one
    # emotion, and the exact marginal score guided by the exact classifier
    tokens = np.array([1, 4])
    mu = np.broadcast_to(mw.utterance_mean(world, 0, NEUTRAL, tokens), (50, 2, world.frame_dim))
    clf = AnalyticNoisyClassifier(world, 0, tokens, mu[0], schedule)

    def cond(y, t, mu, s, e):
        return mw.analytic_score(world, [0], 1, mu, y, t, schedule, tokens=tokens)

    def cg(y, t, mu, s, e):
        uncond = mw.analytic_score(world, [0], "all", mu, y, t, schedule, tokens=tokens)
        return mw.guided_score_cg(uncond, clf, y, t, 1, 1.0)

    dummy = np.zeros((50, 1))
    got = {name: hashlib.sha256(mw.sample_reverse(fn, mu, dummy, dummy, schedule, 20,
                                                  seed=seed).tobytes()).hexdigest()
           for name, fn, seed in (("cond", cond, 11), ("cg", cg, 22))}
    assert got == _ORACLE_CHAIN_BYTES


def test_exact_oracles_keep_a_small_working_set(world, schedule):
    # criterion 6's chains at n = 1000: one analytic_score(..., "all") call
    # and one exact-classifier gradient each peak at no more than two
    # (C, n, L, D) blocks of the component means
    tokens, n = np.array([1, 4]), 1000
    mu = np.broadcast_to(mw.utterance_mean(world, 0, NEUTRAL, tokens), (n, 2, world.frame_dim))
    mu = mu.copy()
    y = mu + np.random.default_rng(0).standard_normal(mu.shape)
    clf = AnalyticNoisyClassifier(world, 0, tokens, mu[0], schedule)
    block = world.n_emotions * y.nbytes
    for call in (lambda: mw.analytic_score(world, [0], "all", mu, y, 0.5, schedule, tokens=tokens),
                 lambda: clf.grad_log_prob(y, 0.5, 1)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * block

