"""Mean-reverting diffusion: forward kernel, score model, and reverse samplers.

The forward process pulls data toward a prior mean mu,

    Y_t = mu + (Y_0 - mu) * rho(t) + sqrt(var(t)) * z,
    rho(t) = exp(-B(t)/2),  var(t) = 1 - exp(-B(t)),  B(t) = int_0^t beta,

so Y_T is approximately N(mu, I) for the default schedule. Reverse sampling
integrates

    Y <- Y - h * beta(t) * (0.5 * (mu - Y) - score)         [+ sqrt(beta h) z]

backward on a uniform grid from t = T. Note the time-reversed drift alone
pushes *away* from mu; it is the score term that transports the prior back
to the data distribution (with the exact score this recovers the forward
marginals up to O(h)).

Three sampling modes share that integrator: plain conditional, classifier
guidance (score + gamma * grad log p(e|Y_t) from a classifier on noisy
data, with the null-embedding unconditional path), and classifier-free
guidance (eps_c + gamma * (eps_c - eps_u), with the matching null prior
mean mu_null on the unconditional branch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor


class DiffusionError(Exception):
    """Raised for invalid schedule/sampler arguments or shape mismatches."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear beta schedule with closed-form integrals."""

    beta0: float = 0.05
    beta1: float = 20.0
    T: float = 1.0
    t_min: float = 1e-3

    def __post_init__(self):
        if not 0 < self.beta0 < self.beta1:
            raise DiffusionError(f"need 0 < beta0 < beta1, got {self.beta0}, {self.beta1}")
        if not 0 < self.t_min < self.T:
            raise DiffusionError(f"need 0 < t_min < T, got t_min={self.t_min}, T={self.T}")

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


def time_embedding(t) -> np.ndarray:
    """(t, sin 2*pi*t, cos 2*pi*t, sin 4*pi*t, cos 4*pi*t); shape (..., 5)."""
    t = np.asarray(t, dtype=np.float64)
    two_pi = 2.0 * np.pi * t
    return np.stack([t, np.sin(two_pi), np.cos(two_pi),
                     np.sin(2.0 * two_pi), np.cos(2.0 * two_pi)], axis=-1)


def _rng(seed):
    # anything with standard_normal works, so tests can inject noise stubs
    return seed if hasattr(seed, "standard_normal") else np.random.default_rng(seed)


def perturb(y0, mu, t: float, schedule: NoiseSchedule, noise_seed):
    """Forward kernel draw; returns (Y_t, conditional score of Y_t given Y_0).

    The target score is -z / sqrt(var(t)), the quantity denoising score
    matching regresses on.
    """
    if not 0 < t <= schedule.T:
        raise DiffusionError(f"t must be in (0, {schedule.T}], got {t}")
    y0 = np.asarray(y0, dtype=np.float64)
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), y0.shape)
    rho = float(schedule.rho(t))
    sd = float(np.sqrt(schedule.var(t)))
    z = _rng(noise_seed).standard_normal(y0.shape)
    y_t = mu + (y0 - mu) * rho + sd * z
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

    def __init__(self, frame_dim: int, style_dim: int = 16, emotion_dim: int = 8,
                 hidden: int = 64, n_hidden: int = 2, seed: int = 0,
                 schedule: "NoiseSchedule | None" = None):
        self.frame_dim = frame_dim
        self.style_dim = style_dim
        self.emotion_dim = emotion_dim
        self.n_layers = n_hidden + 1
        self.schedule = schedule if schedule is not None else NoiseSchedule()
        self.params = ParamStore(seed, "scorenet")
        in_dim = frame_dim + 5 + frame_dim + style_dim + emotion_dim
        ad.mlp_init(self.params, "net", [in_dim] + [hidden] * n_hidden + [frame_dim])
        # g starts at exactly 0, so an untrained net is the prior score plus
        # the MLP; a random g/sd(t) term would make the reverse ODE stiff
        # near t_min
        self.params.add("skip.w0", (5, _SKIP_HIDDEN))
        self.params.add("skip.b0", (_SKIP_HIDDEN,), init="zeros")
        self.params.add("skip.w1", (_SKIP_HIDDEN, 1), init="zeros")
        self.params.add("skip.b1", (1,), init="zeros")

    def _cond_rows(self, n: int, length: int, t, s: Tensor, e: Tensor,
                   batched: bool) -> list[Tensor]:
        temb = time_embedding(t)
        if batched:
            if temb.ndim == 1:
                temb = np.broadcast_to(temb, (n, length, 5))
            else:
                temb = np.broadcast_to(temb[:, None, :], (n, length, 5))
            s_rows = ad.broadcast_to(ad.reshape(s, (n, 1, self.style_dim)),
                                     (n, length, self.style_dim))
            e_rows = ad.broadcast_to(ad.reshape(e, (n, 1, self.emotion_dim)),
                                     (n, length, self.emotion_dim))
        else:
            temb = np.broadcast_to(temb, (length, 5))
            s_rows = ad.broadcast_to(ad.reshape(s, (1, self.style_dim)),
                                     (length, self.style_dim))
            e_rows = ad.broadcast_to(ad.reshape(e, (1, self.emotion_dim)),
                                     (length, self.emotion_dim))
        return [Tensor(temb.copy()), s_rows, e_rows]

    def _skip_coeff(self, t, batched: bool) -> Tensor:
        """g(t) - sd(t), computed once per distinct t (never per row, so
        identical rows stay bitwise identical)."""
        temb = np.atleast_2d(time_embedding(t))
        sd = np.sqrt(self.schedule.var(t)).reshape(-1, 1)
        coeff = ad.sub(ad.mlp_apply(self.params, "skip", Tensor(temb), 2), Tensor(sd))
        return ad.reshape(coeff, (-1, 1, 1)) if batched else coeff

    def noise_t(self, y_t: Tensor, t, mu: Tensor, s: Tensor, e: Tensor) -> Tensor:
        """Unit-noise prediction; y_t and mu are (L, D) or (n, L, D)."""
        shape = y_t.data.shape
        if mu.data.shape != shape:
            raise DiffusionError(f"mu shape {mu.data.shape} does not match Y_t {shape}")
        if shape[-1] != self.frame_dim:
            raise DiffusionError(f"frame dim {shape[-1]} does not match net {self.frame_dim}")
        batched = y_t.data.ndim == 3
        n = shape[0] if batched else 1
        length = shape[-2]
        temb, s_rows, e_rows = self._cond_rows(n, length, t, s, e, batched)
        rows = ad.concat([y_t, temb, mu, s_rows, e_rows], axis=-1)
        skip = ad.mul(ad.sub(y_t, mu), self._skip_coeff(t, batched))
        return ad.add(skip, ad.mlp_apply(self.params, "net", rows, self.n_layers))

    def score_t(self, y_t: Tensor, t, mu: Tensor, s: Tensor, e: Tensor) -> Tensor:
        """Graph-path score estimate: noise prediction / sqrt(var(t))."""
        inv_sd = 1.0 / np.sqrt(self.schedule.var(t))
        if np.ndim(inv_sd) == 1:
            inv_sd = inv_sd[:, None, None] if y_t.data.ndim == 3 else inv_sd[:, None]
        return ad.mul(self.noise_t(y_t, t, mu, s, e), inv_sd)

    def __call__(self, y_t, t, mu, s, e_emb) -> np.ndarray:
        return self.score_t(Tensor(y_t), t, Tensor(mu), Tensor(s), Tensor(e_emb)).data


def dsm_loss_t(scorenet: ScoreNet, y0: np.ndarray, mu, s, e_emb,
               schedule: NoiseSchedule, rng: np.random.Generator) -> Tensor:
    """Denoising score-matching loss as a graph node.

    Draws one t ~ U[t_min, T] and one noise realization per batch element,
    forms Y_t with the forward kernel, and returns
    mean(var(t) * (score - target)^2) over all elements. Pass mu/s/e_emb
    as Tensors to let gradients flow into the generator and encoder.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 3 or y0.shape[0] == 0:
        raise DiffusionError(f"expected nonempty batch (n, L, D), got shape {y0.shape}")
    n = y0.shape[0]
    t = rng.uniform(schedule.t_min, schedule.T, size=n)
    z = rng.standard_normal(y0.shape)
    rho = schedule.rho(t)[:, None, None]
    var = schedule.var(t)[:, None, None]
    sd = np.sqrt(var)

    mu_t = mu if isinstance(mu, Tensor) else Tensor(np.asarray(mu, dtype=np.float64))
    s_t = s if isinstance(s, Tensor) else Tensor(np.asarray(s, dtype=np.float64))
    e_t = e_emb if isinstance(e_emb, Tensor) else Tensor(np.asarray(e_emb, dtype=np.float64))

    y_t = ad.add(ad.mul(mu_t, 1.0 - rho), Tensor(y0 * rho + sd * z))
    target = -z / sd
    eps = scorenet.score_t(y_t, t, mu_t, s_t, e_t)
    resid = ad.sub(eps, Tensor(target))
    return ad.tmean(ad.mul(ad.mul(resid, resid), Tensor(np.broadcast_to(var, y0.shape).copy())))


def dsm_loss(scorenet: ScoreNet, batch, schedule: NoiseSchedule, seed) -> float:
    """Standalone DSM loss over a batch of (Y0, mu, s, e_emb) tuples.

    Populates gradients for the score net only (conditioning inputs are
    treated as constants here; training composes the graph itself).
    """
    if not batch:
        raise DiffusionError("empty batch")
    y0 = np.stack([np.asarray(item[0], dtype=np.float64) for item in batch])
    mu = np.stack([np.asarray(item[1], dtype=np.float64) for item in batch])
    s = np.stack([np.asarray(item[2], dtype=np.float64) for item in batch])
    e = np.stack([np.asarray(item[3], dtype=np.float64) for item in batch])
    loss = dsm_loss_t(scorenet, y0, mu, s, e, schedule, _rng(seed))
    loss.backward()
    return float(loss.data)


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
    if np.any(probs < -1e-12) or np.any(np.abs(sums - 1.0) > 1e-8):
        raise DiffusionError("classifier output is not a valid distribution")


def guided_score_cg(score_uncond, noisy_clf, y_t, t: float, target_e, gamma: float) -> np.ndarray:
    """Classifier guidance: score + gamma * grad log p(target | Y_t).

    The classifier gradient comes from backpropagation through the
    classifier input, and the posterior that is checked for validity comes
    from the same forward pass; at gamma=0 the unconditional score is
    returned untouched (bitwise).
    """
    if gamma < 0:
        raise DiffusionError(f"gamma must be >= 0, got {gamma}")
    score_uncond = np.asarray(score_uncond, dtype=np.float64)
    if gamma == 0.0:
        _check_posterior(noisy_clf.posterior(y_t, t))
        return score_uncond
    grad, probs = noisy_clf.grad_log_prob(y_t, t, target_e)
    _check_posterior(probs)
    if grad.shape != score_uncond.shape:
        raise DiffusionError(f"classifier gradient shape {grad.shape} does not match "
                             f"score shape {score_uncond.shape}")
    return score_uncond + gamma * grad


# ---------------------------------------------------------------------------
# reverse samplers


def _integrate(score_fn, mu: np.ndarray, schedule: NoiseSchedule, steps: int,
               rng: np.random.Generator, stochastic: bool,
               trajectory: list | None = None) -> np.ndarray:
    if steps < 1:
        raise DiffusionError(f"steps must be >= 1, got {steps}")
    y = mu + rng.standard_normal(mu.shape)
    h = schedule.T / steps
    for k in range(steps):
        t = max(schedule.T - k * h, schedule.t_min)
        beta = float(schedule.beta(t))
        score = score_fn(y, t)
        y = y - h * beta * (0.5 * (mu - y) - score)
        if stochastic:
            y = y + np.sqrt(beta * h) * rng.standard_normal(y.shape)
        if trajectory is not None:
            trajectory.append({
                "step": k,
                "t": t,
                "y_norm": float(np.linalg.norm(y)),
                "score_norm": float(np.linalg.norm(score)),
            })
    return y


def _as_mu_batch(mu) -> tuple[np.ndarray, bool]:
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim == 2:
        return mu[None], True
    if mu.ndim == 3:
        return mu, False
    raise DiffusionError(f"mu must be (L, D) or (n, L, D), got shape {mu.shape}")


def sample_reverse(scorenet, mu, s, e_emb, schedule: NoiseSchedule, steps: int,
                   seed, stochastic: bool = True,
                   trajectory: list | None = None) -> np.ndarray:
    """Plain conditional reverse sampling from Y_T ~ N(mu, I).

    ``scorenet`` may be any callable (y_t, t, mu, s, e_emb) -> score, which
    is how the analytic-score oracle is plugged in.
    """
    mu_b, single = _as_mu_batch(mu)
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    e = np.atleast_2d(np.asarray(e_emb, dtype=np.float64))
    rng = _rng(seed)
    out = _integrate(lambda y, t: scorenet(y, t, mu_b, s, e), mu_b, schedule,
                     steps, rng, stochastic, trajectory)
    return out[0] if single else out


def _guided_inputs(generator, table, tokens, s, emotion_label):
    """What both guided samplers build first: the token and style batches,
    one target per row, the null embedding and the null-path prior mean."""
    tokens = np.asarray(tokens, dtype=np.int64)
    single = tokens.ndim == 1
    toks = tokens[None] if single else tokens
    s_b = np.atleast_2d(np.asarray(s, dtype=np.float64))
    n = toks.shape[0]
    targets = np.broadcast_to(np.asarray(emotion_label, dtype=np.int64), (n,))
    e_null = table.params["emb"].data[np.full(n, table.null_index, dtype=np.int64)]
    return single, toks, s_b, targets, e_null, generator.generate(toks, s_b, e_null)


def sample_cfg(scorenet, generator, table, tokens, s, emotion_label,
               schedule: NoiseSchedule, steps: int, gamma: float, seed,
               stochastic: bool = True, trajectory: list | None = None) -> np.ndarray:
    """Classifier-free guided sampling.

    Builds the conditional prior mean mu = f(tokens, s, e) and the null-path
    mu_null = f(tokens, s, null); each step combines the conditional and
    unconditional score estimates. The drift and the prior draw use the
    conditional mu.
    """
    single, toks, s_b, targets, e_null, mu_null = _guided_inputs(
        generator, table, tokens, s, emotion_label)
    e_cond = table.params["emb"].data[table.row_indices(targets)]
    mu_cond = generator.generate(toks, s_b, e_cond)

    def score_fn(y, t):
        eps_c = scorenet(y, t, mu_cond, s_b, e_cond)
        eps_u = scorenet(y, t, mu_null, s_b, e_null)
        return combine_cfg(eps_c, eps_u, gamma)

    out = _integrate(score_fn, mu_cond, schedule, steps, _rng(seed), stochastic, trajectory)
    return out[0] if single else out


def sample_cg(scorenet, noisy_clf, generator, table, tokens, s, emotion_label,
              schedule: NoiseSchedule, steps: int, gamma: float, seed,
              stochastic: bool = True, trajectory: list | None = None) -> np.ndarray:
    """Classifier-guided sampling on the emotion-unconditional path.

    The prior mean is built with the null embedding (emotion enters only
    through the classifier), and the unconditional score is the score net's
    null path.
    """
    single, _, s_b, targets, e_null, mu_null = _guided_inputs(
        generator, table, tokens, s, emotion_label)

    def score_fn(y, t):
        eps_u = scorenet(y, t, mu_null, s_b, e_null)
        return guided_score_cg(eps_u, noisy_clf, y, t, targets, gamma)

    out = _integrate(score_fn, mu_null, schedule, steps, _rng(seed), stochastic, trajectory)
    return out[0] if single else out
