"""Mean-reverting diffusion: forward kernel, score model, and reverse samplers.

The forward process pulls data toward a prior mean mu,

    Y_t = mu + (Y_0 - mu) * rho(t) + sqrt(var(t)) * z,
    rho(t) = exp(-B(t)/2),  var(t) = 1 - exp(-B(t)),  B(t) = int_0^t beta,

so Y_T is approximately N(mu, I) for the default schedule. Reverse sampling
integrates, backward on a uniform grid from t = T, either the reverse SDE

    Y <- Y - h * beta(t) * (0.5 * (mu - Y) - score) + sqrt(beta h) z

or, deterministically, the probability-flow ODE (Song et al. 2021)

    Y <- Y - h * beta(t) * (0.5 * (mu - Y) - 0.5 * score)

Note the time-reversed drift alone pushes *away* from mu; it is the score
term that transports the prior back to the data distribution (with the
exact score either path recovers the forward marginals up to O(h)).

Three sampling modes share that integrator: plain conditional, classifier
guidance (score + gamma * grad log p(e|Y_t) from a classifier on noisy
data, with the null-embedding unconditional path), and classifier-free
guidance (eps_c + gamma * (eps_c - eps_u), with the matching null prior
mean mu_null on the unconditional branch), both branches in one score call
per step. Samplers build no graph, CG's classifier gradient included, and
check once per step that Y stays finite and within a fixed distance of mu.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import MelworldError, ParamStore, Tensor

if TYPE_CHECKING:
    from .training import ModelConfig


class DiffusionError(MelworldError):
    """Raised for invalid schedule/sampler arguments or shape mismatches."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear beta schedule with closed-form integrals."""

    beta0: float = 0.05
    beta1: float = 20.0
    T: float = 1.0
    t_min: float = 1e-3

    def __post_init__(self):
        if not 0 < self.beta0 < self.beta1 < np.inf:
            raise DiffusionError(f"need 0 < beta0 < beta1 < inf, got {self.beta0}, {self.beta1}")
        if not 0 < self.t_min < self.T < np.inf:
            raise DiffusionError(f"need 0 < t_min < T < inf, got t_min={self.t_min}, T={self.T}")

    def beta(self, t):
        return self.beta0 + (self.beta1 - self.beta0) * np.asarray(t, dtype=np.float64)

    def B(self, t):
        t = np.asarray(t, dtype=np.float64)
        return self.beta0 * t + 0.5 * (self.beta1 - self.beta0) * t * t

    def rho(self, t):
        return np.exp(-0.5 * self.B(t))

    def var(self, t):
        return 1.0 - np.exp(-self.B(t))


# width of the skip-coefficient MLP g(t) in ScoreNet
_SKIP_HIDDEN = 16
# |y - mu| beyond which a sampler has diverged; the prior sd is 1
_Y_LIMIT = 1e6


# features per time in time_embedding
TIME_EMB_DIM = 5


def time_embedding(t) -> np.ndarray:
    """(t, sin 2*pi*t, cos 2*pi*t, sin 4*pi*t, cos 4*pi*t); shape (..., TIME_EMB_DIM).
    A scalar t's row is memoized, read-only and keyed by its hex text, which keeps
    -0.0 apart from 0.0: every run of a sampler takes the same values of t."""
    t = np.asarray(t, dtype=np.float64)
    return _time_row(float(t).hex()) if t.ndim == 0 else _embed(t)


def _embed(t: np.ndarray) -> np.ndarray:
    two_pi = 2.0 * np.pi * t
    return np.stack([t, np.sin(two_pi), np.cos(two_pi),
                     np.sin(2.0 * two_pi), np.cos(2.0 * two_pi)], axis=-1)


@functools.lru_cache(maxsize=1024)
def _time_row(key: str) -> np.ndarray:
    row = _embed(np.asarray(float.fromhex(key)))
    row.setflags(write=False)
    return row


def _time_consts(schedule: NoiseSchedule, t):
    """Time-embedding rows (m, TIME_EMB_DIM), sd(t) (m, 1) and 1 / sd(t) (m, 1, 1) of one
    t or one per row; a scalar t's are memoized read-only, keyed by schedule and t's hex."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 0:
        return _scalar_consts(schedule, float(t).hex())
    sd = np.sqrt(schedule.var(t)).reshape(-1, 1)
    return _embed(t), sd, (1.0 / sd).reshape(-1, 1, 1)


@functools.lru_cache(maxsize=1024)
def _scalar_consts(schedule: NoiseSchedule, key: str):
    # a row of one t is bitwise the scalar's
    consts = _time_consts(schedule, [float.fromhex(key)])
    for a in consts:
        a.setflags(write=False)
    return consts


def _rng(seed):
    # anything with standard_normal works (the samplers pass out=), so tests can inject stubs
    return seed if hasattr(seed, "standard_normal") else np.random.default_rng(seed)


def perturb(y0, mu, t, schedule: NoiseSchedule, noise_seed):
    """The forward kernel draw that DSM and the noisy classifier both train on, for a
    batch y0 (n, L, D) with one t per row; returns (Y_t, conditional score of Y_t given Y_0).

    The target score is -z / sqrt(var(t)), the quantity denoising score
    matching regresses on.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if y0.ndim != 3 or t.shape != y0.shape[:1]:
        raise DiffusionError(f"expected y0 (n, L, D) and t (n,), got shapes {y0.shape} "
                             f"and {t.shape}")
    if np.any(t <= 0) or np.any(t > schedule.T):
        raise DiffusionError(f"t must be in (0, {schedule.T}], got {t}")
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), y0.shape)
    rho = schedule.rho(t)[:, None, None]
    sd = np.sqrt(schedule.var(t))[:, None, None]
    z = _rng(noise_seed).standard_normal(y0.shape)
    y_t = mu * (1.0 - rho) + (y0 * rho + sd * z)
    return y_t, -z / sd


class ScoreNet:
    """Score estimator over concat(Y_t row, time embedding, mu row, s, e).

    The network predicts the unit noise; the score estimate is that
    prediction divided by sd(t) = sqrt(var(t)). The factorization keeps the
    regression target N(0, 1) at every t (the raw kernel-score target blows
    up like 1/sd near t=0, which stalls SGD at small t); the quantity the
    samplers consume is still the score.

    The noise prediction is skip-preconditioned (Karras et al. 2022):

        eps(Y_t) = (g(t) - sd(t)) * (Y_t - mu) + MLP(Y_t, t, mu, s, e)

    -sd(t) * (Y_t - mu) is the exact noise prediction for the N(mu, I)
    terminal prior, and g is a small MLP of the time embedding alone, one
    scalar per sample. For data around mu the exact coefficient is
    -sd(t) / v(t), which rises by a factor of about 20 between t_min and
    t = 0.1; a tanh MLP has to build that product out of additive units and
    learns it slowly, while g only has to learn a function of t. With both
    learned parts at zero the score is the prior score -(Y_t - mu).
    """

    def __init__(self, frame_dim: int, config: ModelConfig):
        self.frame_dim = frame_dim
        self.style_dim = config.style_dim
        self.emotion_dim = config.emotion_dim
        self.schedule = config.schedule
        self.params = ParamStore(config.seed, "scorenet")
        in_dim = frame_dim + TIME_EMB_DIM + frame_dim + self.style_dim + self.emotion_dim
        ad.mlp_init(self.params, "net", [in_dim] + [config.hidden] * config.n_hidden + [frame_dim])
        # g starts at exactly 0, so an untrained net is the prior score plus
        # the MLP; a random g/sd(t) term would make the reverse ODE stiff
        # near t_min
        ad.mlp_init(self.params, "skip", [TIME_EMB_DIM, _SKIP_HIDDEN, 1])
        self.params["skip.w1"].data[:] = 0.0

    def _inputs(self, mu, s, e) -> np.ndarray:
        """After their check, the MLP input with the constant columns mu, s and e
        written; :meth:`_forward` writes the Y_t and time columns."""
        if mu.ndim != 3 or mu.shape[-1] != self.frame_dim:
            raise DiffusionError(f"expected mu of shape (n, L, D={self.frame_dim}), got {mu.shape}")
        n = len(mu)
        if s.shape != (n, self.style_dim) or e.shape != (n, self.emotion_dim):
            raise DiffusionError(f"expected style ({n}, {self.style_dim}) and emotion "
                                 f"({n}, {self.emotion_dim}), got {s.shape} and {e.shape}")
        d, lo = self.frame_dim, 2 * self.frame_dim + TIME_EMB_DIM
        rows = np.empty(mu.shape[:2] + (lo + self.style_dim + self.emotion_dim,))
        rows[..., d + TIME_EMB_DIM:lo] = mu
        rows[..., lo:lo + self.style_dim] = s[:, None, :]
        rows[..., lo + self.style_dim:] = e[:, None, :]
        return rows

    def _forward(self, rows, y_t, t, mu, net=None, skip=None):
        """The score at Y_t and t on the MLP input ``rows``, with Y_t - mu and 1 / sd(t),
        each taken once per distinct t (:func:`_time_consts`). Lists ``net`` and ``skip``
        receive each MLP's layer inputs, and then every layer is checked finite."""
        if y_t.shape != mu.shape:
            raise DiffusionError(f"Y_t shape {y_t.shape} does not match mu {mu.shape}")
        temb, sd, inv_sd = _time_consts(self.schedule, t)
        rows[..., :self.frame_dim] = y_t
        rows[..., self.frame_dim:self.frame_dim + TIME_EMB_DIM] = temb[:, None, :]
        check = net is not None
        noise = ad.mlp_eval(self.params, "net", [rows], net, check)
        dy = y_t - mu
        noise += dy * (ad.mlp_eval(self.params, "skip", [temb], skip, check) - sd)[..., None]
        noise *= inv_sd
        return noise, dy, inv_sd

    def score_t(self, y_t, t, mu, s, e) -> Tensor:
        """Graph-path score estimate: :meth:`bind`'s forward as one node, which checks
        each layer of both MLPs finite (``scorenet.net`` / ``scorenet.skip``).

        y_t and mu (n, L, D) and s (n, style_dim) are constants; a gradient
        reaches e (n, emotion_dim) if it is a Tensor. t is one time or one
        per row.
        """
        feed, net, skip = isinstance(e, Tensor) and e.requires_grad, [], []
        rows = self._inputs(mu, s, e.data if isinstance(e, Tensor) else e)
        out, dy, inv_sd = self._forward(rows, y_t, t, mu, net, skip)

        def backward(g):
            g = g * inv_sd
            gx, grads = ad.mlp_backward(self.params, "net", net, g, feed)
            if feed:
                e._accumulate(gx[..., -self.emotion_dim:].sum(axis=-2))
            # the skip coefficient's gradient: one row per distinct t
            g = ad._unbroadcast(g * dy, inv_sd.shape).reshape(-1, 1)
            grads.update(ad.mlp_backward(self.params, "skip", skip, g, False)[1])
            for name, grad in grads.items():
                self.params[name]._accumulate(grad)

        params = ((e,) if feed else ()) + tuple(self.params.tensors().values())
        return ad._make("scorenet", out, params, backward)

    def bind(self, mu, s, e_emb):
        """``score(y_t, t)``, this net at the constants mu, s and e_emb, which are checked
        and written into the MLP input once: each call, on a float64 array Y_t, writes
        only the Y_t and time columns. :meth:`score_t`'s forward, keeping no layer."""
        mu, s, e = (np.asarray(a, dtype=np.float64) for a in (mu, s, e_emb))
        rows = self._inputs(mu, s, e)
        return lambda y_t, t: self._forward(rows, y_t, t, mu)[0]

    def __call__(self, y_t, t, mu, s, e_emb) -> np.ndarray:
        """:meth:`score_t` on arrays, building no graph; bitwise the same."""
        return self.bind(mu, s, e_emb)(np.asarray(y_t, dtype=np.float64), t)


def dsm_loss_t(scorenet: ScoreNet, y0: np.ndarray, mu, s, e_emb,
               schedule: NoiseSchedule, rng: np.random.Generator) -> Tensor:
    """Denoising score-matching loss as a graph node.

    Draws one t ~ U[t_min, T] per batch element, then Y_t and its target
    score from :func:`perturb`, and returns mean(var(t) * (score - target)^2)
    over all elements. mu and s are constants; pass e_emb as a Tensor to let
    gradients flow into the emotion table.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 3 or y0.shape[0] == 0:
        raise DiffusionError(f"expected nonempty batch (n, L, D), got shape {y0.shape}")
    t = rng.uniform(schedule.t_min, schedule.T, size=y0.shape[0])
    mu = np.asarray(mu, dtype=np.float64)
    y_t, target = perturb(y0, mu, t, schedule, rng)
    e = e_emb if isinstance(e_emb, Tensor) else np.asarray(e_emb, dtype=np.float64)
    eps = scorenet.score_t(y_t, t, mu, np.asarray(s, dtype=np.float64), e)
    resid = ad.sub(eps, Tensor(target))
    return ad.tmean(ad.mul(ad.mul(resid, resid), Tensor(schedule.var(t)[:, None, None])))


# ---------------------------------------------------------------------------
# guidance combinators


def combine_cfg(eps_cond, eps_uncond, gamma: float) -> np.ndarray:
    """eps_c + gamma * (eps_c - eps_u); returns eps_cond untouched at gamma=0."""
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    if eps_cond.shape != eps_uncond.shape:
        raise DiffusionError(f"shape mismatch in guidance combination: "
                             f"{eps_cond.shape} vs {eps_uncond.shape}")
    if gamma == 0.0:
        return eps_cond
    return eps_cond + gamma * (eps_cond - eps_uncond)


def _check_posterior(probs: np.ndarray) -> None:
    probs = np.asarray(probs)
    sums = probs.sum(axis=-1)
    # every comparison with NaN is False, so a NaN fails this test
    if not ((probs >= -1e-12).all() and (np.abs(sums - 1.0) <= 1e-8).all()):
        raise DiffusionError("classifier output is not a valid distribution")


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma < np.inf:
        raise DiffusionError(f"guidance scale gamma must be finite and >= 0, got {gamma}")


def guided_score_cg(score_uncond, noisy_clf, y_t, t: float, target_e, gamma: float) -> np.ndarray:
    """Classifier guidance: score + gamma * grad log p(target | Y_t).

    The classifier gradient with respect to Y_t and the posterior that is
    checked for validity come from the same forward pass (for the trained
    classifier, a hand-written backward on its parameters' arrays); at
    gamma=0 the unconditional score is returned untouched (bitwise); one :func:`sample_cg` step.
    """
    _check_gamma(gamma)
    score_uncond, y_t = (np.asarray(a, dtype=np.float64) for a in (score_uncond, y_t))
    grad = _bound(noisy_clf, target_e, call=noisy_clf.grad_log_prob)
    return _cg_step(score_uncond, noisy_clf, grad, y_t, t, gamma)


def _cg_step(score, noisy_clf, grad_fn, y_t, t, gamma: float) -> np.ndarray:
    """CG at a checked gamma; gamma scales a gradient of shape (n, 1, D) before it broadcasts."""
    if gamma == 0.0:
        _check_posterior(noisy_clf.posterior(y_t, t))
        return score
    grad, probs = grad_fn(y_t, t)
    _check_posterior(probs)
    if grad.shape != score.shape and grad.shape != score.shape[:1] + (1,) + score.shape[2:]:
        raise DiffusionError(f"classifier gradient shape {grad.shape} does not match "
                             f"score shape {score.shape}")
    return score + gamma * grad


# ---------------------------------------------------------------------------
# reverse samplers


# an overflow to inf or nan fails the divergence check, which names the step
@np.errstate(over="ignore", invalid="ignore")
def _integrate(score_fn, mu: np.ndarray, schedule: NoiseSchedule, steps: int,
               rng: np.random.Generator, stochastic: bool,
               trajectory: list | None = None) -> np.ndarray:
    if mu.ndim != 3:
        raise DiffusionError(f"expected a batch mu of shape (n, L, D), got {mu.shape}")
    if steps < 1:
        raise DiffusionError(f"steps must be >= 1, got {steps}")
    y = mu + rng.standard_normal(mu.shape)
    # y inside [lo, hi] keeps every |y - mu| within the limit; checking that
    # allocates nothing, and NaN fails it
    lo, hi = mu.max() - _Y_LIMIT, mu.min() + _Y_LIMIT
    h = schedule.T / steps
    drift, noise = np.empty_like(y), np.empty_like(y)  # written in place each step
    for k in range(steps):
        t = max(schedule.T - k * h, schedule.t_min)
        beta = float(schedule.beta(t))
        score = score_fn(y, t)
        # the reverse SDE; the probability-flow ODE halves the score and adds no noise
        np.multiply(0.5, np.subtract(mu, y, out=drift), out=drift)
        drift -= score if stochastic else np.multiply(0.5, score, out=noise)
        y -= np.multiply(h * beta, drift, out=drift)
        if stochastic:
            y += np.multiply(np.sqrt(beta * h), rng.standard_normal(out=noise), out=noise)
        if not (lo <= y.min() and y.max() <= hi):
            dev = np.abs(y - mu).max()  # nan or inf where the score was not finite
            if not dev <= _Y_LIMIT:
                raise DiffusionError(f"sampler diverged at step {k} (t={t:.4g}): "
                                     f"max |y - mu| = {dev:.3g}, limit {_Y_LIMIT:g}")
        if trajectory is not None:
            trajectory.append({
                "step": k,
                "t": t,
                "y_norm": float(np.linalg.norm(y)),
                "score_norm": float(np.linalg.norm(score)),
            })
    return y


def sample_reverse(scorenet, mu, s, e_emb, schedule: NoiseSchedule, steps: int,
                   seed, stochastic: bool = True,
                   trajectory: list | None = None) -> np.ndarray:
    """Plain conditional reverse sampling from Y_T ~ N(mu, I) for a batch
    mu (n, L, D) with its styles s and emotion embeddings e_emb.

    ``scorenet`` may be any callable (y_t, t, mu, s, e_emb) -> score, which
    is how the analytic-score oracle is plugged in.
    """
    mu = np.asarray(mu, dtype=np.float64)
    return _integrate(_bound(scorenet, mu, s, e_emb), mu, schedule, steps, _rng(seed),
                      stochastic, trajectory)


def _bound(model, *consts, call=None):
    """``f(y, t)`` at one run's constants: ``model.bind(*consts)``, or for a model without
    ``bind`` (an oracle, a test stub) ``(call or model)(y, t, *consts)`` on every call."""
    if hasattr(model, "bind"):
        return model.bind(*consts)
    call = call or model
    return lambda y, t: call(y, t, *consts)


def _guided_inputs(generator, table, tokens, s, emotion_label, gamma: float):
    """What both guided samplers build first, after checking the guidance
    scale: the token and style batches, one range-checked target per row,
    the null embedding and the null-path prior mean."""
    _check_gamma(gamma)
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise DiffusionError(f"expected a batch of tokens (n, L), got shape {tokens.shape}")
    s = np.asarray(s, dtype=np.float64)
    n = tokens.shape[0]
    targets = table.row_indices(np.broadcast_to(np.asarray(emotion_label, dtype=np.int64), (n,)))
    e_null = table.embed_null(n)
    return tokens, s, targets, e_null, generator.generate(tokens, s, e_null)


def sample_cfg(scorenet, generator, table, tokens, s, emotion_label,
               schedule: NoiseSchedule, steps: int, gamma: float, seed,
               stochastic: bool = True, trajectory: list | None = None) -> np.ndarray:
    """Classifier-free guided sampling for tokens (n, L) and styles
    (n, style_dim).

    Builds the conditional prior mean mu = f(tokens, s, e) and the null-path
    mu_null = f(tokens, s, null); each step scores both paths in one call
    on 2n rows and combines the two estimates. The drift and the prior draw
    use the conditional mu.
    """
    tokens, s, targets, e_null, mu_null = _guided_inputs(
        generator, table, tokens, s, emotion_label, gamma)
    e_cond = table.embed(targets)
    mu_cond = generator.generate(tokens, s, e_cond)
    both = [np.concatenate(pair) for pair in ((mu_cond, mu_null), (s, s), (e_cond, e_null))]
    score, pair, n = _bound(scorenet, *both), np.empty(both[0].shape), len(mu_cond)

    def score_fn(y, t):
        pair[:n] = pair[n:] = y
        return combine_cfg(*np.split(score(pair, t), 2), gamma)

    return _integrate(score_fn, mu_cond, schedule, steps, _rng(seed), stochastic, trajectory)


def sample_cg(scorenet, noisy_clf, generator, table, tokens, s, emotion_label,
              schedule: NoiseSchedule, steps: int, gamma: float, seed,
              stochastic: bool = True, trajectory: list | None = None) -> np.ndarray:
    """Classifier-guided sampling on the emotion-unconditional path for
    tokens (n, L) and styles (n, style_dim).

    The prior mean is built with the null embedding (emotion enters only
    through the classifier), and the unconditional score is the score net's
    null path.
    """
    _, s, targets, e_null, mu_null = _guided_inputs(generator, table, tokens, s, emotion_label,
                                                    gamma)
    score = _bound(scorenet, mu_null, s, e_null)
    grad = _bound(noisy_clf, targets, call=noisy_clf.grad_log_prob)

    def score_fn(y, t):
        return _cg_step(score(y, t), noisy_clf, grad, y, t, gamma)

    return _integrate(score_fn, mu_null, schedule, steps, _rng(seed), stochastic, trajectory)
