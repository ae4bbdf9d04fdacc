"""Self-checks shared by the CLI ``verify`` subcommand and the acceptance
suite: gradient checks over the full op set and the oracle integrity checks
(score vs numeric log-density gradient, Bayes-rule consistency)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor, gradcheck
from .world import AnalyticNoisyClassifier, World, analytic_log_density, analytic_score


@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value < self.threshold

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.value:.3e} < {self.threshold:.0e}"


def run_gradcheck_suite(n_instances: int = 20, epsilon: float = 1e-5,
                        seed: int = 0) -> CheckResult:
    """Gradcheck over composed random graphs covering every supported op
    (reversal excluded: it is intentionally not a true derivative)."""
    worst = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng([seed, i])
        n_in = int(rng.integers(2, 5))
        n_hidden = int(rng.integers(3, 9))
        n_out = int(rng.integers(2, 5))
        store = ParamStore(int(rng.integers(0, 2 ** 31)), f"suite{i}")
        ad.mlp_init(store, "net", [n_in, n_hidden, n_out])
        shape = (int(rng.integers(2, 6)), n_in)
        errors = gradcheck(_FrozenGraph(store, rng, shape), store, epsilon=epsilon)
        worst = max(worst, *errors.values())
    return CheckResult("gradcheck suite (ops + composed MLPs)", worst, 1e-4)


class _FrozenGraph:
    """Random op graph with inputs and branch choice fixed at construction,
    so repeated forwards during finite differencing see identical structure."""

    def __init__(self, store: ParamStore, rng: np.random.Generator, shape):
        self.store = store
        self.x = rng.standard_normal(shape) * 0.8
        self.branch = int(rng.integers(0, 4))
        self.act = (ad.tanh, ad.relu)[int(rng.integers(0, 2))]
        n_out = store["net.w1"].data.shape[1]
        self.labels = rng.integers(0, n_out, size=shape[:-1])

    def __call__(self) -> Tensor:
        h = ad.affine(Tensor(self.x), self.store["net.w0"], self.store["net.b0"])
        h = self.act(h)
        h = ad.affine(h, self.store["net.w1"], self.store["net.b1"])
        if self.branch == 0:
            sm = ad.softmax(h)
            return ad.tsum(ad.mul(sm, sm))
        if self.branch == 1:
            return ad.softmax_cross_entropy(h, self.labels)
        if self.branch == 2:
            padded = ad.concat([h, ad.log(ad.add(ad.mul(h, h), 1.0))])
            return ad.tmean(ad.mul(padded, padded))
        return ad.mse(ad.sub(h, ad.symmetric_mean(h, axis=0)),
                      Tensor(np.zeros_like(h.data)))


def run_score_vs_numeric(world: World, schedule, n_points: int = 20,
                         ts=(0.1, 0.325, 0.55, 0.775, 1.0),
                         h: float = 1e-4, seed: int = 0) -> CheckResult:
    """Analytic score against central differences of the closed-form
    log-density on a (t x point) grid; ``ts`` are fractions of the schedule's
    ``T``. Each point's differences come from one log-density call on the
    batch of every y + h e_i and y - h e_i."""
    rng = np.random.default_rng([seed, 0xACE])
    tokens = rng.integers(0, world.vocab, size=2)
    speakers = list(range(min(3, world.n_speakers)))
    k = 2 * world.frame_dim
    step = h * np.eye(k).reshape((k, 2, world.frame_dim))
    worst = 0.0
    for t in (f * schedule.T for f in ts):
        for _ in range(n_points):
            mu = rng.standard_normal((2, world.frame_dim))
            y = rng.standard_normal((2, world.frame_dim))
            score = analytic_score(world, speakers, "all", mu, y, t, schedule,
                                   tokens=tokens)
            logp = analytic_log_density(world, speakers, "all", mu,
                                        np.concatenate([y + step, y - step]), t,
                                        schedule, tokens=tokens)
            num = ((logp[:k] - logp[k:]) / (2 * h)).reshape(y.shape)
            denom = max(float(np.abs(num).max()), 1e-8)
            worst = max(worst, float(np.abs(score - num).max()) / denom)
    return CheckResult("analytic score vs numeric log-density gradient", worst, 1e-5)


def run_bayes_identity(world: World, schedule, n_trials: int = 20,
                       seed: int = 0) -> CheckResult:
    """grad log p(Y|e) - grad log p(Y) = grad log p(e|Y), closed forms on
    independent code paths, at times drawn from [0.02 T, T]."""
    rng = np.random.default_rng([seed, 0xBA1])
    worst = 0.0
    for _ in range(n_trials):
        tokens = rng.integers(0, world.vocab, size=3)
        mu = rng.standard_normal((3, world.frame_dim))
        y = rng.standard_normal((3, world.frame_dim))
        t = float(rng.uniform(0.02 * schedule.T, schedule.T))
        speaker = int(rng.integers(0, world.n_speakers))
        emotion = int(rng.integers(0, world.n_emotions))
        clf = AnalyticNoisyClassifier(world, speaker, tokens, mu, schedule)
        cond = analytic_score(world, [speaker], emotion, mu, y, t, schedule,
                              tokens=tokens)
        marginal = analytic_score(world, [speaker], "all", mu, y, t, schedule,
                                  tokens=tokens)
        grad_post, _ = clf.grad_log_prob(y, t, emotion)
        worst = max(worst, float(np.abs(cond - marginal - grad_post).max()))
    return CheckResult("Bayes identity (conditional - marginal = posterior grad)",
                       worst, 1e-8)


def run_all(world: World, schedule) -> list[CheckResult]:
    return [
        run_gradcheck_suite(),
        run_score_vs_numeric(world, schedule),
        run_bayes_identity(world, schedule),
    ]
