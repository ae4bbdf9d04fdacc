"""Forward kernel, DSM loss, the three reverse samplers, the batch-only
contract of the model and sampler entry points, and graph-free inference."""

import copy
import dataclasses

import numpy as np
import pytest
from scipy.special import softmax

import melworld as mw
from melworld import autodiff as ad
from melworld import metrics
from melworld.autodiff import Tensor
from melworld.diffusion import (
    TIME_EMB_DIM,
    DiffusionError,
    _check_posterior,
    _scalar_consts,
    combine_cfg,
    dsm_loss_t,
    time_embedding,
)
from melworld.training import TrainingError
from melworld.world import NEUTRAL, AnalyticNoisyClassifier, WorldConfig, sample_utterance_batch


@pytest.fixture(scope="module")
def schedule():
    return mw.NoiseSchedule()


def test_schedule_invariants(schedule):
    assert schedule.rho(0.0) == 1.0
    assert schedule.var(0.0) == 0.0
    assert abs(schedule.var(schedule.T) - 1.0) < 1e-4
    assert schedule.rho(schedule.T) < 0.01
    with pytest.raises(DiffusionError):
        mw.NoiseSchedule(beta0=2.0, beta1=1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(DiffusionError, match="beta0 < beta1 < inf"):
            mw.NoiseSchedule(beta1=bad)
        with pytest.raises(DiffusionError, match="t_min < T < inf"):
            mw.NoiseSchedule(T=bad)


def test_time_embedding_shape():
    assert time_embedding(0.5).shape == (5,)
    assert time_embedding(np.array([0.1, 0.2, 0.3])).shape == (3, 5)
    emb = time_embedding(0.25)
    assert emb[0] == 0.25
    assert emb[1] == pytest.approx(np.sin(np.pi / 2))


def test_scalar_time_embedding_is_a_read_only_memo_of_the_stack():
    row = time_embedding(0.3)
    assert not row.flags.writeable
    assert time_embedding(np.float64(0.3)) is row
    t = np.asarray(0.3)
    two_pi = 2.0 * np.pi * t
    stack = np.stack([t, np.sin(two_pi), np.cos(two_pi), np.sin(2.0 * two_pi),
                      np.cos(2.0 * two_pi)], axis=-1)
    assert row.tobytes() == stack.tobytes()
    # -0.0 == 0.0, but its row keeps the sign
    assert np.signbit(time_embedding(-0.0)[:2]).all()
    assert not np.signbit(time_embedding(0.0)[:2]).any()


# ---------------------------------------------------------------------------
# perturb


def test_perturb_fixed_point_at_mu(schedule):
    mu = np.random.default_rng(0).standard_normal((3, 4))

    class ZeroRng:
        def standard_normal(self, shape):
            return np.zeros(shape)

    for t in (0.1, 0.5, 1.0):
        y_t, _ = mw.perturb(mu[None], mu[None], np.array([t]), schedule, ZeroRng())
        assert np.allclose(y_t[0], mu, atol=1e-15)


def test_perturb_terminal_close_to_prior(schedule):
    rng = np.random.default_rng(1)
    mu = rng.standard_normal(6)
    y0 = mu + rng.standard_normal(6)  # fixed data point
    draws = np.stack([
        mw.perturb(y0[None, None], mu, np.array([schedule.T]), schedule, 1000 + i)[0][0, 0]
        for i in range(10_000)
    ])
    assert np.abs(draws.mean(axis=0) - mu).max() < 0.05
    assert np.abs(draws.var(axis=0) - schedule.var(schedule.T)).max() < 0.02 * 2


def test_perturb_variance_matches_monte_carlo(schedule):
    rng = np.random.default_rng(2)
    y0 = rng.standard_normal(8)
    mu = rng.standard_normal(8)
    for t in (0.2, 0.6):
        draws = np.stack([mw.perturb(y0[None, None], mu, np.array([t]), schedule, i)[0][0, 0]
                          for i in range(10_000)])
        v = schedule.var(t)
        # pool the per-coordinate variance estimates (all coordinates share v)
        assert abs(draws.var(axis=0).mean() - v) < 0.02 * v


def test_perturb_deterministic_and_rejects_t0(schedule):
    y0 = np.ones((1, 2, 3))
    a, sa = mw.perturb(y0, 0.0 * y0, np.array([0.5]), schedule, 7)
    b, sb = mw.perturb(y0, 0.0 * y0, np.array([0.5]), schedule, 7)
    assert np.array_equal(a, b) and np.array_equal(sa, sb)
    with pytest.raises(DiffusionError):
        mw.perturb(y0, y0, np.array([0.0]), schedule, 7)


def test_perturb_target_is_conditional_score(schedule):
    # target = -(y_t - m_t)/v for the single-point kernel
    rng = np.random.default_rng(3)
    y0 = rng.standard_normal((1, 2, 4))
    mu = rng.standard_normal((1, 2, 4))
    t = 0.37
    y_t, target = mw.perturb(y0, mu, np.array([t]), schedule, 11)
    rho, v = schedule.rho(t), schedule.var(t)
    m_t = mu + (y0 - mu) * rho
    assert np.allclose(target, -(y_t - m_t) / v, atol=1e-12)


# ---------------------------------------------------------------------------
# score net


def test_estimate_score_identical_rows(schedule):
    net = mw.ScoreNet(4, mw.ModelConfig())
    y = np.tile(np.array([[0.3, -1.0, 0.2, 0.9]]), (1, 3, 1))
    mu = np.tile(np.array([[0.1, 0.1, -0.4, 0.0]]), (1, 3, 1))
    s = np.zeros((1, 16))
    e = np.zeros((1, 8))
    score = net(y, 0.5, mu, s, e)[0]
    assert np.array_equal(score[0], score[1])
    assert np.array_equal(score[1], score[2])


def test_estimate_score_deterministic():
    net = mw.ScoreNet(4, mw.ModelConfig())
    rng = np.random.default_rng(4)
    args = (rng.standard_normal((1, 2, 4)), 0.3, rng.standard_normal((1, 2, 4)),
            rng.standard_normal((1, 16)), rng.standard_normal((1, 8)))
    assert np.array_equal(net(*args), net(*args))


def test_score_net_reduces_to_prior_score(schedule):
    # with both learned parts (the MLP and g) at zero, the skip term alone
    # gives the N(mu, I) prior score -(y_t - mu) at every t
    net = mw.ScoreNet(4, mw.ModelConfig())
    last = mw.ModelConfig().n_hidden
    for name in (f"net.w{last}", f"net.b{last}", "skip.w1", "skip.b1"):
        net.params[name].data[:] = 0.0
    rng = np.random.default_rng(3)
    y, mu = rng.standard_normal((2, 3, 5, 4))
    s, e = rng.standard_normal((3, 16)), rng.standard_normal((3, 8))
    for t in (schedule.t_min, 0.1, 0.5, 1.0):
        score = net(y[:1], t, mu[:1], s[:1], e[:1])
        np.testing.assert_allclose(score, -(y[:1] - mu[:1]), rtol=1e-12, atol=0)
    score = net(y, np.array([0.01, 0.3, 0.9]), mu, s, e)
    np.testing.assert_allclose(score, -(y - mu), rtol=1e-12, atol=0)


def test_estimate_score_shape_mismatch():
    net = mw.ScoreNet(4, mw.ModelConfig())
    with pytest.raises(DiffusionError):
        net(np.zeros((1, 2, 4)), 0.3, np.zeros((1, 3, 4)), np.zeros((1, 16)), np.zeros((1, 8)))


# ---------------------------------------------------------------------------
# dsm loss


def test_dsm_loss_zero_for_perfect_estimator(schedule):
    rng = np.random.default_rng(5)
    y0 = rng.standard_normal((3, 2, 4))
    probe_rng = np.random.default_rng(99)
    t = probe_rng.uniform(schedule.t_min, schedule.T, size=3)
    z = probe_rng.standard_normal(y0.shape)
    target = -z / np.sqrt(schedule.var(t))[:, None, None]

    class Perfect:
        def score_t(self, y_t, t, mu, s, e):
            return Tensor(target)

    loss = dsm_loss_t(Perfect(), y0, np.zeros_like(y0), np.zeros((3, 16)),
                      np.zeros((3, 8)), schedule, np.random.default_rng(99))
    assert float(loss.data) == 0.0


def test_dsm_loss_draws_y_t_and_target_from_perturb(schedule):
    # for the same generator state, the Y_t the score net receives and the
    # target it is scored against are perturb's, bit for bit
    y0, mu = np.random.default_rng(5).standard_normal((2, 3, 4, 2))
    rng = np.random.default_rng(99)
    t = rng.uniform(schedule.t_min, schedule.T, size=3)
    y_t, target = mw.perturb(y0, mu, t, schedule, rng)
    received = []

    class Recorder:
        def score_t(self, y, t, mu, s, e):
            received.append((y, t))
            # the residual is exactly 0 only where the two targets are equal
            return Tensor(target)

    loss = dsm_loss_t(Recorder(), y0, mu, np.zeros((3, 16)), np.zeros((3, 8)), schedule,
                      np.random.default_rng(99))
    ((got_y, got_t),) = received
    assert got_t.tobytes() == t.tobytes()
    assert got_y.tobytes() == y_t.tobytes()
    assert float(loss.data) == 0.0


def test_dsm_loss_nonnegative(schedule):
    net = mw.ScoreNet(4, mw.ModelConfig(seed=1))
    rng = np.random.default_rng(6)
    for i in range(100):
        y0 = rng.standard_normal((2, 3, 4))
        loss = dsm_loss_t(net, y0, np.zeros((2, 3, 4)), np.zeros((2, 16)), np.zeros((2, 8)),
                          schedule, np.random.default_rng(i))
        assert float(loss.data) >= 0.0


def test_dsm_loss_rejects_empty(schedule):
    net = mw.ScoreNet(4, mw.ModelConfig(seed=1))
    with pytest.raises(DiffusionError):
        dsm_loss_t(net, np.zeros((0, 3, 4)), np.zeros((0, 3, 4)), np.zeros((0, 16)),
                   np.zeros((0, 8)), schedule, np.random.default_rng(0))


def test_dsm_gradcheck_tiny_instance(schedule):
    # D=2, L=1, width 8: finite differences through the whole loss
    net = mw.ScoreNet(2, mw.ModelConfig(style_dim=3, emotion_dim=2, hidden=8,
                                        n_hidden=1, seed=2))
    y0 = np.random.default_rng(7).standard_normal((2, 1, 2))
    s = np.random.default_rng(8).standard_normal((2, 3))
    e = np.random.default_rng(9).standard_normal((2, 2))
    mu = np.zeros((2, 1, 2))

    def loss():
        return dsm_loss_t(net, y0, mu, s, e, schedule, np.random.default_rng(123))

    errors = ad.gradcheck(loss, net.params, epsilon=1e-5)
    assert max(errors.values()) < 1e-4


# ---------------------------------------------------------------------------
# samplers


def test_sample_reverse_analytic_score_recovers_distribution():
    # tau=1 keeps the marginal variance at exactly 1 for all t
    world = mw.make_world(WorldConfig(tau=1.0, frame_dim=4, n_speakers=4,
                                      n_emotions=2), seed=3)
    schedule = mw.NoiseSchedule()
    tokens = np.array([1, 4])
    data_mean = mw.utterance_mean(world, 0, 1, tokens)
    mu = np.broadcast_to(mw.utterance_mean(world, 0, 0, tokens), (5000, 2, 4)).copy()

    def oracle(y, t, mu_b, s, e):
        return mw.analytic_score(world, [0], 1, mu_b, y, t, schedule, tokens=tokens)

    out = mw.sample_reverse(oracle, mu, np.zeros((5000, 1)), np.zeros((5000, 1)),
                            schedule, 100, seed=42, stochastic=True)
    assert np.abs(out.mean(axis=0) - data_mean).max() < 0.1
    assert np.abs(out.var(axis=0) - 1.0).max() < 0.05


def test_deterministic_sampler_keeps_the_data_spread():
    # with the exact score the probability-flow ODE carries N(mu, I) to the
    # data distribution, whose per-frame sd is tau; the reverse-SDE drift
    # without its noise collapses every chain onto the mean instead
    world = mw.make_world(WorldConfig(), seed=7)
    schedule = mw.NoiseSchedule()
    tokens = np.array([1, 5, 2, 8])
    mu = np.broadcast_to(mw.utterance_mean(world, 2, NEUTRAL, tokens), (2000, 4, 8)).copy()

    def oracle(y, t, mu_b, s, e):
        return mw.analytic_score(world, [2], 1, mu_b, y, t, schedule, tokens=tokens)

    out = mw.sample_reverse(oracle, mu, np.zeros((2000, 1)), np.zeros((2000, 1)),
                            schedule, 100, seed=0, stochastic=False)
    sd = out.std(axis=0)  # 0.283 to 0.307 per frame at 100 Euler steps
    assert np.abs(out.mean(axis=0) - mw.utterance_mean(world, 2, 1, tokens)).max() < 0.05
    assert np.abs(sd - world.tau).max() < 0.03
    assert abs(sd.mean() - world.tau) < 0.01


def test_sample_reverse_zero_score_expands_from_prior(schedule):
    # the time-reversed mean-reversion drift alone pushes away from mu, so
    # with a zero score the trajectory grows; the score term is what
    # contracts samples onto the data (see the distribution test above)
    zero = lambda y, t, mu, s, e: np.zeros_like(y)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        y_T = rng.standard_normal((1, 2, 4))  # reproduce the prior draw
        out = mw.sample_reverse(zero, np.zeros((1, 2, 4)), np.zeros((1, 1)), np.zeros((1, 1)),
                                schedule, 100, seed=seed, stochastic=False)
        assert np.linalg.norm(out) > np.linalg.norm(y_T)


def test_sample_reverse_deterministic(schedule):
    net = mw.ScoreNet(4, mw.ModelConfig())
    mu = np.random.default_rng(1).standard_normal((1, 3, 4))
    s, e = np.zeros((1, 16)), np.zeros((1, 8))
    a = mw.sample_reverse(net, mu, s, e, schedule, 25, seed=5)
    b = mw.sample_reverse(net, mu, s, e, schedule, 25, seed=5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bad, match", [(np.inf, "step 3 .*= inf"), (np.nan, "step 3 .*= nan"),
                                        (1e12, "step 3 .*= 1.\\d+e\\+12")])
def test_sampler_guard_names_the_step(schedule, bad, match):
    calls = []

    def score(y, t, mu, s, e):
        calls.append(t)
        return np.full(y.shape, bad if len(calls) == 4 else 0.0)

    with pytest.raises(DiffusionError, match=match):
        mw.sample_reverse(score, np.zeros((2, 3, 4)), np.zeros((2, 1)), np.zeros((2, 1)),
                          schedule, 10, seed=0)
    assert len(calls) == 4


def test_sampler_guard_allows_prior_means_far_apart(schedule):
    # the cheap range test fails when mu spans more than twice the limit;
    # the exact |y - mu| must then pass a chain that stays near its mean
    mu = np.zeros((2, 3, 4))
    mu[1] = 1.5e6
    out = mw.sample_reverse(lambda y, t, mu, s, e: -(y - mu), mu, np.zeros((2, 1)),
                            np.zeros((2, 1)), schedule, 10, seed=0)
    assert np.abs(out - mu).max() < 10


def test_sample_reverse_rejects_zero_steps(schedule):
    net = mw.ScoreNet(4, mw.ModelConfig())
    with pytest.raises(DiffusionError):
        mw.sample_reverse(net, np.zeros((1, 1, 4)), np.zeros((1, 16)), np.zeros((1, 8)),
                          schedule, 0, seed=0)


def test_step_halving_error_ratio(schedule):
    net = mw.ScoreNet(4, mw.ModelConfig(seed=5))
    mu = np.random.default_rng(2).standard_normal((1, 2, 4))
    s, e = np.zeros((1, 16)), np.zeros((1, 8))
    outs = {n: mw.sample_reverse(net, mu, s, e, schedule, n, seed=7, stochastic=False)
            for n in (50, 100, 200)}
    ratio = np.linalg.norm(outs[50] - outs[100]) / np.linalg.norm(outs[100] - outs[200])
    assert 1.5 < ratio < 2.5


# ---------------------------------------------------------------------------
# guidance combinators


def test_combine_cfg_gamma_zero_is_cond():
    eps_c = np.random.default_rng(0).standard_normal((2, 3))
    eps_u = np.random.default_rng(1).standard_normal((2, 3))
    assert np.array_equal(mw.combine_cfg(eps_c, eps_u, 0.0), eps_c)


def test_combine_cfg_equal_inputs_any_gamma():
    eps = np.random.default_rng(2).standard_normal((2, 3))
    for gamma in (0.0, 0.7, 3.0):
        assert np.array_equal(mw.combine_cfg(eps, eps.copy(), gamma), eps)


def test_combine_cfg_direct_substitution():
    out = mw.combine_cfg(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 1.0)
    assert np.array_equal(out, [2.0, 2.0])


def test_combine_cfg_shape_mismatch():
    with pytest.raises(DiffusionError):
        mw.combine_cfg(np.zeros((2, 3)), np.zeros((3, 2)), 1.0)


def test_guided_score_cg_gamma_zero_bitwise(schedule):
    world = mw.make_world(seed=7)
    tokens = np.array([1, 2])
    mu = mw.utterance_mean(world, 0, 0, tokens)
    clf = AnalyticNoisyClassifier(world, 0, tokens, mu, schedule)
    score = np.random.default_rng(3).standard_normal((2, 8))
    y = np.random.default_rng(4).standard_normal((2, 8))
    out = mw.guided_score_cg(score, clf, y, 0.5, 1, 0.0)
    assert out is score or np.array_equal(out, score)


def test_guided_score_cg_bayes_identity(schedule):
    # analytic classifier + analytic marginal score at gamma=1 equals the
    # analytic conditional score
    world = mw.make_world(seed=7)
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, world.vocab, size=3)
    mu = rng.standard_normal((3, world.frame_dim))
    y = rng.standard_normal((3, world.frame_dim))
    t = 0.45
    clf = AnalyticNoisyClassifier(world, 2, tokens, mu, schedule)
    uncond = mw.analytic_score(world, [2], "all", mu, y, t, schedule, tokens=tokens)
    cond = mw.analytic_score(world, [2], 1, mu, y, t, schedule, tokens=tokens)
    guided = mw.guided_score_cg(uncond, clf, y, t, 1, 1.0)
    assert np.abs(guided - cond).max() < 1e-8


def test_guided_score_cg_uniform_classifier_noop(schedule):
    class Uniform:
        def posterior(self, y, t):
            return np.full(4, 0.25)

        def grad_log_prob(self, y, t, target):
            return np.zeros(np.asarray(y).shape), self.posterior(y, t)

    score = np.random.default_rng(6).standard_normal((2, 4))
    out = mw.guided_score_cg(score, Uniform(), np.zeros((2, 4)), 0.3, 1, 2.0)
    assert np.array_equal(out, score)


def test_guided_score_cg_rejects_invalid_distribution(schedule):
    class Broken:
        def posterior(self, y, t):
            return np.array([0.9, 0.9, 0.1, 0.1])

        def grad_log_prob(self, y, t, target):
            return np.zeros(np.asarray(y).shape), self.posterior(y, t)

    with pytest.raises(DiffusionError, match="distribution"):
        mw.guided_score_cg(np.zeros((1, 4)), Broken(), np.zeros((1, 4)), 0.3, 1, 1.0)


@pytest.mark.parametrize("gamma", [-1.0, np.nan, np.inf])
def test_guided_score_cg_rejects_a_bad_gamma(schedule, gamma):
    world = mw.make_world(seed=7)
    tokens = np.array([1, 2])
    clf = AnalyticNoisyClassifier(world, 0, tokens, mw.utterance_mean(world, 0, 0, tokens),
                                  schedule)
    with pytest.raises(DiffusionError, match="gamma must be finite and >= 0"):
        mw.guided_score_cg(np.zeros((2, 8)), clf, np.zeros((2, 8)), 0.5, 1, gamma)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_posterior_rejects_non_finite(bad):
    probs = np.full((2, 4), 0.25)
    _check_posterior(probs)
    probs[1, 2] = bad
    with pytest.raises(DiffusionError, match="distribution"):
        _check_posterior(probs)
    with pytest.raises(DiffusionError, match="distribution"):
        _check_posterior(np.full((2, 4), bad))


def test_guided_score_cg_rejects_nan_posterior():
    class NanPosterior:
        def grad_log_prob(self, y, t, target):
            return np.zeros(np.asarray(y).shape), np.full((1, 4), np.nan)

    with pytest.raises(DiffusionError, match="distribution"):
        mw.guided_score_cg(np.zeros((1, 2, 4)), NanPosterior(), np.zeros((1, 2, 4)), 0.3, 1, 1.0)


# ---------------------------------------------------------------------------
# sampler reductions (bitwise)


@pytest.fixture(scope="module")
def tiny_model():
    world = mw.make_world(seed=7)
    model = mw.build_model(world)
    return world, model


def neutral_reference(world):
    """A (1, 2, D) Neutral reference of speaker 0 with tokens (3, 4)."""
    return sample_utterance_batch(world, [0], [NEUTRAL], [[3, 4]], np.random.default_rng(1))


@pytest.mark.parametrize("stochastic", [True, False])
def test_cfg_gamma_zero_reduces_to_conditional(tiny_model, stochastic):
    world, model = tiny_model
    tokens = np.array([[1, 5, 2]])
    s = model.encoder.encode(neutral_reference(world))
    e = model.table.embed([2])
    mu = model.generator.generate(tokens, s, e)
    a = mw.sample_cfg(model.scorenet, model.generator, model.table, tokens, s, 2,
                      model.schedule, 20, 0.0, seed=3, stochastic=stochastic)
    b = mw.sample_reverse(model.scorenet, mu, s, e, model.schedule, 20, seed=3,
                          stochastic=stochastic)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("stochastic", [True, False])
def test_cg_gamma_zero_reduces_to_unconditional(tiny_model, stochastic):
    world, model = tiny_model
    tokens = np.array([[1, 5, 2]])
    s = model.encoder.encode(neutral_reference(world))
    e_null = model.table.embed_null(1)
    mu_null = model.generator.generate(tokens, s, e_null)
    clf = AnalyticNoisyClassifier(world, 0, tokens[0], mu_null[0], model.schedule)
    a = mw.sample_cg(model.scorenet, clf, model.generator, model.table, tokens, s, 1,
                     model.schedule, 20, 0.0, seed=4, stochastic=stochastic)
    b = mw.sample_reverse(model.scorenet, mu_null, s, e_null, model.schedule, 20,
                          seed=4, stochastic=stochastic)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("stochastic", [True, False])
def test_guidance_reductions_hold_above_one_block(tiny_model, stochastic):
    # n utterances of 8 tokens run in blocks of B: CFG's 2n-row score call
    # and the samplers' n-row calls split at different boundaries
    world, model = tiny_model
    n = ad._BLOCK_ROWS // 8 + 3
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, world.vocab, size=(n, 8))
    refs = sample_utterance_batch(world, rng.integers(0, world.n_speakers, size=n),
                                  np.full(n, NEUTRAL), tokens[:, :3], rng)
    s = model.encoder.encode(refs)
    e = model.table.embed(np.full(n, 2))
    a = mw.sample_cfg(model.scorenet, model.generator, model.table, tokens, s, 2,
                      model.schedule, 10, 0.0, seed=3, stochastic=stochastic)
    b = mw.sample_reverse(model.scorenet, model.generator.generate(tokens, s, e), s, e,
                          model.schedule, 10, seed=3, stochastic=stochastic)
    assert np.array_equal(a, b)
    e_null = model.table.embed_null(n)
    a = mw.sample_cg(model.scorenet, model.noisy_clf, model.generator, model.table, tokens, s,
                     1, model.schedule, 10, 0.0, seed=4, stochastic=stochastic)
    b = mw.sample_reverse(model.scorenet, model.generator.generate(tokens, s, e_null), s,
                          e_null, model.schedule, 10, seed=4, stochastic=stochastic)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["cfg", "cg"])
@pytest.mark.parametrize("gamma", [-1.0, np.nan, np.inf])
def test_guided_samplers_reject_a_bad_gamma(tiny_model, mode, gamma):
    _, model = tiny_model
    with pytest.raises(DiffusionError, match="gamma must be finite and >= 0"):
        metrics.sample_frames(model, mode, np.array([[1, 5, 2]]), np.zeros((1, 16)),
                              np.array([1]), gamma, 2, 0, True)


def test_sample_cfg_deterministic(tiny_model):
    world, model = tiny_model
    tokens = np.array([[0, 1]])
    s = np.zeros((1, 16))
    a = mw.sample_cfg(model.scorenet, model.generator, model.table, tokens, s, 1,
                      model.schedule, 10, 1.5, seed=8)
    b = mw.sample_cfg(model.scorenet, model.generator, model.table, tokens, s, 1,
                      model.schedule, 10, 1.5, seed=8)
    assert np.array_equal(a, b)


def test_cg_analytic_everything_matches_conditional_sampler():
    # oracle score + oracle posterior at gamma=1 vs the conditional oracle
    # sampler: same distribution (checked via energy distance in acceptance);
    # here the guided score itself must match the conditional score pointwise
    world = mw.make_world(seed=7)
    schedule = mw.NoiseSchedule()
    rng = np.random.default_rng(9)
    tokens = rng.integers(0, world.vocab, size=2)
    mu = mw.utterance_mean(world, 1, 0, tokens)
    clf = AnalyticNoisyClassifier(world, 1, tokens, mu, schedule)
    for t in (0.1, 0.5, 0.9):
        y = rng.standard_normal((2, world.frame_dim))
        uncond = mw.analytic_score(world, [1], "all", mu, y, t, schedule, tokens=tokens)
        guided = mw.guided_score_cg(uncond, clf, y, t, 2, 1.0)
        cond = mw.analytic_score(world, [1], 2, mu, y, t, schedule, tokens=tokens)
        assert np.abs(guided - cond).max() < 1e-8


def test_trajectory_dump(schedule):
    net = mw.ScoreNet(4, mw.ModelConfig())
    trajectory = []
    mw.sample_reverse(net, np.zeros((1, 1, 4)), np.zeros((1, 16)), np.zeros((1, 8)), schedule,
                      5, seed=0, trajectory=trajectory)
    assert len(trajectory) == 5
    assert trajectory[0]["step"] == 0
    assert trajectory[0]["t"] == schedule.T
    assert all("score_norm" in rec for rec in trajectory)


def test_batch_only_entry_points_reject_unbatched_input(tiny_model):
    # an (L, D) utterance must not pass as L utterances of length D
    world, model = tiny_model
    d, schedule = world.frame_dim, model.schedule
    tokens, s = np.array([1, 5, 2]), np.zeros(16)
    y, mu = np.zeros((3, d)), np.zeros((3, d))
    with pytest.raises(mw.StyleError, match="n, L, "):
        model.encoder.encode(y)
    with pytest.raises(DiffusionError, match="n, L, D"):
        model.scorenet(y, 0.5, mu, s, np.zeros(8))
    with pytest.raises(mw.StyleError, match="n, L"):
        model.generator.generate(tokens, s, model.table.embed([1])[0])
    with pytest.raises(TrainingError, match="n, L, D"):
        model.noisy_clf.posterior(y, 0.5)
    with pytest.raises(TrainingError, match="n, L, D"):
        model.noisy_clf.grad_log_prob(y, 0.5, 1)
    with pytest.raises(DiffusionError, match="n, L, D"):
        mw.sample_reverse(model.scorenet, mu, s, np.zeros(8), schedule, 2, seed=0)
    with pytest.raises(DiffusionError, match="n, L"):
        mw.sample_cfg(model.scorenet, model.generator, model.table, tokens, s, 1,
                      schedule, 2, 1.0, seed=0)
    with pytest.raises(DiffusionError, match="n, L"):
        mw.sample_cg(model.scorenet, model.noisy_clf, model.generator, model.table, tokens,
                     s, 1, schedule, 2, 1.0, seed=0)


# ---------------------------------------------------------------------------
# graph-free inference (bitwise the graph paths)


@pytest.fixture(scope="module")
def random_model():
    """A model whose every parameter is drawn at random, so that no zero
    initialization hides a term from the parity checks."""
    world = mw.make_world(seed=7)
    model = mw.build_model(world)
    rng = np.random.default_rng(11)
    for store in model.stores().values():
        for tensor in store.tensors().values():
            tensor.data = 0.5 * rng.standard_normal(tensor.data.shape)
    return world, model


# 33 utterances of 8 frames are one full block and one more; 200 are six and 8 more
@pytest.mark.parametrize("n", [1, ad._BLOCK_ROWS // 8 + 1, 200])
@pytest.mark.parametrize("per_row_t", [False, True])
def test_graph_free_entry_points_match_graph_paths(random_model, clf_logits_t, n, per_row_t):
    world, model = random_model
    rng = np.random.default_rng([n, per_row_t])
    t = rng.uniform(0.01, 1.0, size=n) if per_row_t else 0.37
    y, mu = rng.standard_normal((2, n, 8, world.frame_dim))
    s = rng.standard_normal((n, model.config.style_dim))
    e = rng.standard_normal((n, model.config.emotion_dim))
    tokens = rng.integers(0, world.vocab, size=(n, 8))
    net, clf = model.scorenet, model.noisy_clf
    assert np.array_equal(net(y, t, mu, s, e), net.score_t(y, t, mu, s, Tensor(e)).data)
    assert np.array_equal(model.encoder.encode(y), model.encoder.encode_t(Tensor(y)).data)
    assert np.array_equal(model.generator.generate(tokens, s, e),
                          model.generator.generate_t(tokens, Tensor(s), Tensor(e)).data)
    assert np.array_equal(clf.posterior(y, t),
                          softmax(clf_logits_t(clf, Tensor(y), t).data, axis=-1))
    assert np.array_equal(model.probe.logits(s), model.probe.logits_t(Tensor(s)).data)
    # the classifier gradient: a hand-written backward against the graph's, from
    # one bind at two (Y_t, t); the second call leaves the first call's arrays intact
    targets = rng.integers(0, world.n_emotions, size=n)
    bound = clf.bind(targets)
    y_b, t_b = rng.standard_normal(y.shape), (rng.uniform(0.01, 1.0, size=n) if per_row_t
                                              else 0.81)
    first = bound(y, t)
    kept = [a.copy() for a in first]
    calls = [((y, t), first), ((y_b, t_b), bound(y_b, t_b))]
    for (y_t, t_t), (bound_grad, bound_post) in calls:
        leaf = Tensor(y_t, requires_grad=True)
        logits = clf_logits_t(clf, leaf, t_t)
        ad.softmax_cross_entropy(logits, targets).backward()
        clf.params.zero_grad()
        grad, post = clf.grad_log_prob(y_t, t_t, targets)
        assert np.array_equal(grad, -n * leaf.grad)
        assert np.array_equal(np.broadcast_to(bound_grad, y_t.shape), grad)
        assert np.array_equal(post, softmax(logits.data, axis=-1))
        assert np.array_equal(bound_post, post)
    assert all(np.array_equal(a, b) for a, b in zip(first, kept))


# T does not enter sd(t), so under that change the two scores agree
@pytest.mark.parametrize("change,differ", [({"beta1": 10.0}, True), ({"T": 0.5}, False)])
def test_time_memo_is_keyed_by_the_schedule(random_model, change, differ):
    # two score nets that differ only in one schedule field, bound in one process
    # at one scalar t: each is bitwise its own graph path on an empty memo
    world, model = random_model
    rng = np.random.default_rng(8)
    y, mu = rng.standard_normal((2, 3, 8, world.frame_dim))
    s = rng.standard_normal((3, model.config.style_dim))
    e = rng.standard_normal((3, model.config.emotion_dim))
    nets = [model.scorenet, copy.copy(model.scorenet)]
    nets[1].schedule = dataclasses.replace(model.schedule, **change)
    expected = []
    for net in nets:
        _scalar_consts.cache_clear()
        expected.append(net.score_t(y, 0.37, mu, s, Tensor(e)).data)
    assert np.array_equal(*expected) != differ
    for order in (nets, nets[::-1]):
        _scalar_consts.cache_clear()
        for net in order:
            assert np.array_equal(net.bind(mu, s, e)(y, 0.37), expected[nets.index(net)])


def test_bad_cg_targets_fail_before_the_prior_draw(random_model):
    # a classifier that knows fewer emotions than the table: the targets pass the
    # table's check, and the classifier's bind rejects them before any step
    world, model = random_model
    calls = []

    def score(y, t, mu, s, e):
        calls.append(t)
        return np.zeros_like(y)

    class NoDraw:
        def standard_normal(self, *args, **kwargs):
            raise AssertionError("the prior was drawn")

    clf = mw.NoisyClassifier(world.frame_dim, world.n_emotions - 1, model.config)
    bad = world.n_emotions - 1
    with pytest.raises(TrainingError, match=rf"target {bad} out of range \[0, {bad}\)"):
        mw.sample_cg(score, clf, model.generator, model.table, np.zeros((2, 4), dtype=int),
                     np.zeros((2, model.config.style_dim)), [0, bad], model.schedule, 3,
                     1.0, seed=NoDraw())
    assert calls == []


def test_mlp_inputs_of_the_wrong_width_name_the_store(random_model):
    world, model = random_model
    style = np.zeros((3, model.config.style_dim - 1))
    with pytest.raises(ad.GraphError, match=r"'generator\.net' takes rows of width 32, got 31"):
        model.generator.generate(np.zeros((3, 4), dtype=int), style, np.zeros((3, 8)))
    with pytest.raises(ad.GraphError, match=r"'probe\.net' takes rows of width 16, got 15"):
        model.probe.logits(style)


def _reshape(x, shape):
    """The reshape node that the reference chains below take: the graph op
    that the score net's skip coefficient needed before its one node."""
    old_shape = x.shape

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(old_shape))

    return ad._make("reshape", x.data.reshape(shape), (x,), backward)


def _repeat_rows(x, length):
    """x (n, w) repeated over L by a reshape and a broadcast node: how the
    graph paths fed per-utterance conditioning to an MLP before its node
    took row blocks, kept here as the reference."""
    n, width = x.shape
    shaped = _reshape(x, (n, 1, width))

    def backward(g):
        shaped._accumulate(ad._unbroadcast(g, shaped.shape))

    out = np.broadcast_to(shaped.data, (n, length, width)).copy()
    return ad._make("broadcast", out, (shaped,), backward)


def _generate_chain(gen, tokens, style, e):
    rows = ad.concat([ad.gather_rows(gen.params["tok"], tokens),
                      _repeat_rows(style, tokens.shape[1]), _repeat_rows(e, tokens.shape[1])])
    return ad.mlp_apply(gen.params, "net", [rows])


def _score_chain(net, y_t, t, mu, s, e):
    n, length, _ = y_t.shape
    temb = time_embedding(t)
    arrays = [y_t, np.broadcast_to(temb if temb.ndim == 1 else temb[:, None, :],
                                   (n, length, TIME_EMB_DIM)),
              mu, np.broadcast_to(s[:, None, :], (n, length, s.shape[1]))]
    rows = ad.concat([Tensor(np.concatenate(arrays, axis=-1)), _repeat_rows(e, length)])
    sd = np.sqrt(net.schedule.var(t)).reshape(-1, 1)
    coeff = ad.sub(ad.mlp_apply(net.params, "skip", [Tensor(np.atleast_2d(temb))]),
                   Tensor(sd))
    skip = ad.mul(Tensor(y_t - mu), _reshape(coeff, (-1, 1, 1)))
    noise = ad.add(skip, ad.mlp_apply(net.params, "net", [rows]))
    return ad.mul(noise, (1.0 / sd).reshape(-1, 1, 1))


@pytest.mark.parametrize("per_row_t", [False, True])
def test_block_node_is_bitwise_the_reshape_broadcast_concat_chain(random_model, per_row_t):
    # the generator's and the score net's MLP node on row blocks against the
    # chain of nodes their graph paths built before: the forwards, the
    # gradients of the style, the emotion rows (one row feeds two
    # utterances, through both components) and the token table, and every
    # parameter's
    world, model = random_model
    gen, net = model.generator, model.scorenet
    rng = np.random.default_rng(20 + per_row_t)
    n, length = 6, 5
    tokens = rng.integers(0, world.vocab, size=(n, length))
    s0 = rng.standard_normal((n, model.config.style_dim))
    table = rng.standard_normal((4, model.config.emotion_dim))
    y, mu, target = rng.standard_normal((3, n, length, world.frame_dim))
    t = rng.uniform(0.01, 1.0, size=n) if per_row_t else 0.37
    results = []
    for chained in (True, False):
        gen.params.zero_grad()
        net.params.zero_grad()
        style, emb = Tensor(s0, requires_grad=True), Tensor(table, requires_grad=True)
        e = ad.gather_rows(emb, [0, 3, 1, 3, 2, 0])
        if chained:
            out, eps = _generate_chain(gen, tokens, style, e), _score_chain(net, y, t, mu, s0, e)
        else:
            out, eps = gen.generate_t(tokens, style, e), net.score_t(y, t, mu, s0, e)
        ad.add(ad.mse(out, target), ad.tmean(ad.mul(eps, eps))).backward()
        results.append([out.data, eps.data, style.grad, emb.grad]
                       + [p.grad for store in (gen.params, net.params)
                          for p in store.tensors().values()])
    assert len(results[1]) == 4 + len(gen.params.tensors()) + len(net.params.tensors())
    for reference, node in zip(*results):
        assert reference.tobytes() == node.tobytes()


@pytest.mark.parametrize("per_row_t", [False, True])
def test_score_node_on_an_array_emotion_is_the_chain(random_model, per_row_t):
    # the dsm_null path: e is a plain array, so only the parameters take a
    # gradient; the node against the chain, forward and every gradient
    world, model = random_model
    net = model.scorenet
    rng = np.random.default_rng(30 + per_row_t)
    n, length = 5, 4
    y, mu, target = rng.standard_normal((3, n, length, world.frame_dim))
    s = rng.standard_normal((n, model.config.style_dim))
    e = rng.standard_normal((n, model.config.emotion_dim))
    t = rng.uniform(0.01, 1.0, size=n) if per_row_t else 0.37
    results = []
    for chained in (True, False):
        net.params.zero_grad()
        eps = _score_chain(net, y, t, mu, s, Tensor(e)) if chained else net.score_t(y, t, mu, s, e)
        ad.mse(eps, target).backward()
        results.append([eps.data] + [p.grad for p in net.params.tensors().values()])
    for reference, node in zip(*results):
        assert reference.tobytes() == node.tobytes()


@pytest.mark.parametrize("param, layer", [("net.b1", "net layer 1"),
                                          ("skip.b0", "skip layer 0")])
def test_score_node_names_a_non_finite_layer(param, layer):
    # tanh maps the inf to 1, so the bound score, which checks no layer, stays
    # finite; the graph node names the layer
    world = mw.make_world(seed=7)
    net = mw.build_model(world).scorenet
    net.params[param].data[0] = np.inf
    rng = np.random.default_rng(4)
    y, mu = rng.standard_normal((2, 2, 3, world.frame_dim))
    s, e = np.zeros((2, net.style_dim)), np.zeros((2, net.emotion_dim))
    assert np.isfinite(net(y, 0.5, mu, s, e)).all()
    with pytest.raises(ad.GraphError, match=f"'scorenet.{layer}'"):
        net.score_t(y, 0.5, mu, s, e)


_B = ad._BLOCK_ROWS // 8  # utterances of 8 frames per block


@pytest.mark.parametrize("n", [1, _B, _B + 1, 2 * _B + 3])
@pytest.mark.parametrize("per_row_t", [False, True])
def test_bound_score_is_the_graph_path_and_keeps_no_stale_column(random_model, n, per_row_t):
    # one bound score on Y_a, Y_b, then Y_a again, each at its own t
    world, model = random_model
    rng = np.random.default_rng([n, per_row_t, 3])
    y_a, y_b, mu = rng.standard_normal((3, n, 8, world.frame_dim))
    s = rng.standard_normal((n, model.config.style_dim))
    e = rng.standard_normal((n, model.config.emotion_dim))
    t_a, t_b = rng.uniform(0.01, 1.0, size=(2, n)) if per_row_t else (0.37, 0.81)
    net = model.scorenet
    score = net.bind(mu, s, e)
    first = score(y_a, t_a)
    assert np.array_equal(first, net.score_t(y_a, t_a, mu, s, Tensor(e)).data)
    assert np.array_equal(score(y_b, t_b), net.score_t(y_b, t_b, mu, s, Tensor(e)).data)
    assert np.array_equal(score(y_a, t_a), first)


def test_cfg_pair_buffer_is_bitwise_a_fresh_pair(random_model):
    # sample_cfg writes Y_t into both halves of one 2n-row buffer; the
    # reference scores a freshly stacked [y; y] through __call__ every step
    world, model = random_model
    n, gen, net, gamma = 2 * _B + 3, model.generator, model.scorenet, 1.5
    rng = np.random.default_rng(6)
    tokens = rng.integers(0, world.vocab, size=(n, 8))
    s = rng.standard_normal((n, model.config.style_dim))
    targets = rng.integers(0, world.n_emotions, size=n)
    e_c, e_u = model.table.embed(targets), model.table.embed_null(n)
    mu_c = gen.generate(tokens, s, e_c)
    both = [np.concatenate(p) for p in ((mu_c, gen.generate(tokens, s, e_u)), (s, s),
                                        (e_c, e_u))]

    def reference(y, t, *_):
        eps = net(np.concatenate([y, y]), t, *both)
        return combine_cfg(eps[:n], eps[n:], gamma)

    a = mw.sample_cfg(net, gen, model.table, tokens, s, targets, model.schedule, 5, gamma,
                      seed=2)
    assert np.array_equal(a, mw.sample_reverse(reference, mu_c, s, e_c, model.schedule, 5,
                                               seed=2))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 200])
def test_batched_cfg_score_matches_two_calls(random_model, n):
    # sample_cfg scores [y; y] against [mu_cond; mu_null] in one call
    world, model = random_model
    rng = np.random.default_rng(n)
    y, mu_c, mu_u = rng.standard_normal((3, n, 8, world.frame_dim))
    s = rng.standard_normal((n, model.config.style_dim))
    e_c, e_u = rng.standard_normal((2, n, model.config.emotion_dim))
    net = model.scorenet
    for t in (1.0, 0.5, 0.013):
        both = net(np.concatenate([y, y]), t, np.concatenate([mu_c, mu_u]),
                   np.concatenate([s, s]), np.concatenate([e_c, e_u]))
        assert np.array_equal(both[:n], net(y, t, mu_c, s, e_c))
        assert np.array_equal(both[n:], net(y, t, mu_u, s, e_u))


@pytest.mark.parametrize("mode", ["none", "cfg", "cg"])
def test_samplers_build_no_graph(random_model, monkeypatch, mode):
    world, model = random_model
    tensors = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        tensors.append(1)
        init(self, *args, **kwargs)

    calls, net = [], model.scorenet

    def counting_score(*args):
        calls.append(args[0].shape[0])
        return net(*args)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    monkeypatch.setattr(model, "scorenet", counting_score)
    rng = np.random.default_rng(2)
    tokens = rng.integers(0, world.vocab, size=(3, 4))
    styles = model.encoder.encode(rng.standard_normal((3, 4, world.frame_dim)))
    frames = metrics.sample_frames(model, mode, tokens, styles, np.array([0, 1, 2]), 2.0, 5,
                                   0, True)
    assert frames.shape == (3, 4, world.frame_dim)
    assert tensors == []
    # one score call per step; classifier-free guidance stacks both branches
    assert calls == [6 if mode == "cfg" else 3] * 5


@pytest.mark.parametrize("mode", ["none", "cfg", "cg"])
@pytest.mark.parametrize("bad", [-1, 4])
def test_sample_frames_rejects_emotion_out_of_range(random_model, mode, bad):
    # emotion n_emotions is the null row's index, and -1 would wrap to it
    world, model = random_model
    rng = np.random.default_rng(3)
    tokens = rng.integers(0, world.vocab, size=(2, 4))
    styles = model.encoder.encode(rng.standard_normal((2, 4, world.frame_dim)))
    with pytest.raises(mw.StyleError, match=f"emotion label {bad} out of range \\[0, 4\\)"):
        metrics.sample_frames(model, mode, tokens, styles, np.array([1, bad]), 2.0, 2, 0, True)
