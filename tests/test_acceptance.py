"""Acceptance criteria.

Each test prints one PASS/FAIL line with the measured value (run with -s to
see them as they complete). The trained checkpoints come from session
fixtures in conftest.py, so the training cost is paid once.
"""

import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.stats import spearmanr

import melworld as mw
from melworld import autodiff as ad
from melworld.autodiff import Tensor
from melworld.diffusion import dsm_loss_t
from melworld.metrics import (
    collect_style_vectors,
    content_error,
    eca_oracle,
    evaluate_cell,
    generate_eval_samples,
    probe_disentanglement,
    speaker_id_accuracy,
)
from melworld.training import sgd_update
from melworld.verify import run_bayes_identity, run_gradcheck_suite, run_score_vs_numeric
from melworld.world import AnalyticNoisyClassifier, sample_utterance_batch


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness():
    start = time.time()
    result = run_gradcheck_suite(n_instances=20, epsilon=1e-5)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 60
    report(1, ok, f"gradcheck max rel err {result.value:.2e} < 1e-4 "
                  f"(20 instances, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 2. gradient reversal


def test_criterion_2_gradient_reversal():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3))
    out = ad.grad_reverse(Tensor(x), 1.0)
    forward_identity = np.array_equal(out.data, x)

    store = ad.ParamStore(2, "enc")
    ad.mlp_init(store, "net", [3, 4])
    coeff = rng.standard_normal(4)
    exact = True
    for alpha in (0.25, 1.0, 4.0):
        grads = {}
        for reversed_ in (False, True):
            store.zero_grad()
            h = ad.mlp_apply(store, "net", [Tensor(x)])
            if reversed_:
                h = ad.grad_reverse(h, alpha)
            ad.tsum(ad.mul(h, Tensor(coeff))).backward()
            grads[reversed_] = {k: t.grad.copy() for k, t in store.tensors().items()}
        exact &= all(np.array_equal(grads[True][k], -alpha * grads[False][k])
                     for k in grads[False])
    report(2, forward_identity and exact,
           f"forward identity bitwise: {forward_identity}; backward equals "
           f"-alpha x unreversed exactly for alpha in {{0.25, 1, 4}}: {exact}")


# ---------------------------------------------------------------------------
# 3. oracle integrity


def test_criterion_3_oracle_integrity(acc_world):
    start = time.time()
    schedule = mw.NoiseSchedule()
    score_check = run_score_vs_numeric(acc_world, schedule, n_points=20)
    bayes_check = run_bayes_identity(acc_world, schedule)
    elapsed = time.time() - start
    ok = score_check.passed and bayes_check.passed and elapsed < 60
    report(3, ok, f"score vs numeric grad {score_check.value:.2e} < 1e-5; "
                  f"Bayes identity {bayes_check.value:.2e} < 1e-8 ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 4. score learning


def test_criterion_4_score_learning(acc_world):
    start = time.time()
    world = acc_world
    schedule = mw.NoiseSchedule()
    speaker, emotion = 0, 1
    net = mw.ScoreNet(world.frame_dim, mw.ModelConfig(n_hidden=3))
    rng = np.random.default_rng(0)
    base = world.speaker_base[speaker] + world.emotion_offset[emotion]
    batch = 128
    s_fix = np.zeros((batch, 16))
    e_fix = np.zeros((batch, 8))
    total_steps, tail = 14000, 4000
    averaged = None
    n_avg = 0
    for step in range(total_steps):
        tokens = rng.integers(0, world.vocab, size=(batch, 8))
        mu = base[None, None, :] + world.token_effect[tokens]
        y0 = mu + world.tau * rng.standard_normal(mu.shape)
        loss = dsm_loss_t(net, y0, mu, s_fix, e_fix, schedule, rng)
        net.params.zero_grad()
        loss.backward()
        sgd_update([net.params], 0.01, 5.0)
        if step >= total_steps - tail:
            state = net.params.state_dict()
            if averaged is None:
                averaged = state
            else:
                for key in averaged:
                    averaged[key] += state[key]
            n_avg += 1
    for key in averaged:
        averaged[key] /= n_avg
    net.params.load_state_dict(averaged)

    errs = {}
    for t in [round(v, 1) for v in np.arange(0.1, 1.01, 0.1)]:
        r = np.random.default_rng([7, int(t * 10)])
        n_eval = 400
        tokens = r.integers(0, world.vocab, size=(n_eval, 8))
        mu = base[None, None, :] + world.token_effect[tokens]
        y0 = mu + world.tau * r.standard_normal(mu.shape)
        rho = schedule.rho(t)
        y_t = mu + (y0 - mu) * rho + np.sqrt(schedule.var(t)) * r.standard_normal(mu.shape)
        target = np.stack([
            mw.analytic_score(world, [speaker], emotion, mu[i], y_t[i], t, schedule,
                              tokens=tokens[i])
            for i in range(n_eval)
        ])
        est = net(y_t, t, mu, np.zeros((n_eval, 16)), np.zeros((n_eval, 8)))
        errs[t] = float(np.linalg.norm(est - target) / np.linalg.norm(target))
    elapsed = time.time() - start
    worst = max(errs.values())
    ok = worst < 0.15 and elapsed < 300
    report(4, ok, f"rel L2 err vs analytic score: worst {worst:.3f} < 0.15 over "
                  f"t in {{0.1..1.0}} ({ {float(k): round(v, 3) for k, v in errs.items()} }, "
                  f"{elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 5. sampler reductions


def test_criterion_5_sampler_reductions(acc_world, dat_checkpoint):
    world, model = acc_world, dat_checkpoint.model
    tokens = np.array([[1, 5, 2, 8]])
    ref = sample_utterance_batch(world, [0], [0], [[3, 4, 1]], np.random.default_rng(1))
    style = model.encoder.encode(ref)

    e_cond = model.table.embed([2])
    mu_cond = model.generator.generate(tokens, style, e_cond)
    cfg0 = mw.sample_cfg(model.scorenet, model.generator, model.table, tokens,
                         style, 2, model.schedule, 50, 0.0, seed=3)
    cond = mw.sample_reverse(model.scorenet, mu_cond, style, e_cond,
                             model.schedule, 50, seed=3)
    cfg_reduces = np.array_equal(cfg0, cond)

    e_null = model.table.embed_null(1)
    mu_null = model.generator.generate(tokens, style, e_null)
    clf = AnalyticNoisyClassifier(world, 0, tokens[0], mu_null[0], model.schedule)
    cg0 = mw.sample_cg(model.scorenet, clf, model.generator, model.table, tokens,
                       style, 1, model.schedule, 50, 0.0, seed=4)
    uncond = mw.sample_reverse(model.scorenet, mu_null, style, e_null,
                               model.schedule, 50, seed=4)
    cg_reduces = np.array_equal(cg0, uncond)

    outs = {n: mw.sample_reverse(model.scorenet, mu_cond, style, e_cond,
                                 model.schedule, n, seed=7, stochastic=False)
            for n in (50, 100, 200)}
    ratio = float(np.linalg.norm(outs[50] - outs[100])
                  / np.linalg.norm(outs[100] - outs[200]))
    ratio_ok = 1.5 <= ratio <= 2.5
    report(5, cfg_reduces and cg_reduces and ratio_ok,
           f"CFG(0) bitwise == conditional: {cfg_reduces}; CG(0) bitwise == "
           f"unconditional: {cg_reduces}; halving ratio {ratio:.2f} in [1.5, 2.5]")


# ---------------------------------------------------------------------------
# 6. CG exactness (two-sample energy distance, permutation test)


def _energy_statistic(dxy, dxx, dyy):
    return 2 * dxy.mean() - dxx.mean() - dyy.mean()


def _energy_permutation_pvalue(x, y, n_perms=200, seed=0):
    pooled = np.vstack([x, y])
    n = x.shape[0]
    dists = cdist(pooled, pooled)
    observed = _energy_statistic(dists[:n, n:], dists[:n, :n], dists[n:, n:])
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(n_perms):
        perm = rng.permutation(pooled.shape[0])
        a, b = perm[:n], perm[n:]
        stat = _energy_statistic(dists[np.ix_(a, b)], dists[np.ix_(a, a)],
                                 dists[np.ix_(b, b)])
        count += stat >= observed
    return (1 + count) / (1 + n_perms)


def test_criterion_6_cg_exactness(acc_world):
    world = acc_world
    schedule = mw.NoiseSchedule()
    speaker, target = 0, 1
    tokens = np.array([1, 4])
    mu = mw.utterance_mean(world, speaker, 0, tokens)
    n = 1000
    mu_b = np.broadcast_to(mu, (n, 2, world.frame_dim)).copy()
    clf = AnalyticNoisyClassifier(world, speaker, tokens, mu, schedule)

    def cond_score(y, t, mu_in, s, e):
        return mw.analytic_score(world, [speaker], target, mu_in, y, t, schedule,
                                 tokens=tokens)

    def guided_score(y, t, mu_in, s, e):
        uncond = mw.analytic_score(world, [speaker], "all", mu_in, y, t, schedule,
                                   tokens=tokens)
        return mw.guided_score_cg(uncond, clf, y, t, target, 1.0)

    dummy = np.zeros((n, 1))
    direct = mw.sample_reverse(cond_score, mu_b, dummy, dummy, schedule, 100,
                               seed=11, stochastic=True)
    guided = mw.sample_reverse(guided_score, mu_b, dummy, dummy, schedule, 100,
                               seed=22, stochastic=True)
    p = _energy_permutation_pvalue(direct.reshape(n, -1), guided.reshape(n, -1),
                                   n_perms=200, seed=5)
    report(6, p >= 0.05, f"energy-distance permutation test p={p:.3f} >= 0.05 "
                         f"(2x{n} samples, gamma=1, analytic score + posterior)")


# ---------------------------------------------------------------------------
# 7. DAT disentanglement


def test_criterion_7_dat_disentanglement(acc_world, acc_split, dat_checkpoint,
                                         nodat_checkpoint):
    start = time.time()
    world = acc_world
    accs = {}
    for name, ckpt in [("dat", dat_checkpoint), ("nodat", nodat_checkpoint)]:
        vectors, labels = collect_style_vectors(world, ckpt.model, acc_split.seen,
                                                per_emotion=200, utt_len=8, seed=0)
        accs[name] = probe_disentanglement(vectors, labels, budget=2000, seed=0)
    elapsed = time.time() - start
    chance = 100.0 / world.n_emotions
    ok = accs["dat"] <= chance + 10 and accs["nodat"] >= chance + 30
    report(7, ok, f"probe accuracy with DAT {accs['dat']:.1f}% <= {chance + 10:.0f}%, "
                  f"without DAT {accs['nodat']:.1f}% >= {chance + 30:.0f}% "
                  f"(chance {chance:.0f}%, probes {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 8. guidance improves conditioning


@pytest.fixture(scope="session")
def guidance_cells(acc_world, acc_split, dat_checkpoint):
    cells = {}
    for group_name, group in [("seen", acc_split.seen), ("unseen", acc_split.unseen)]:
        for mode, gamma in [("none", 0.0), ("cg", 50.0), ("cfg", 1.25), ("cfg", 1.75)]:
            ecas = [evaluate_cell(dat_checkpoint.model, acc_world, group, mode,
                                  gamma, 200, seed=s).eca for s in range(5)]
            cells[(group_name, mode, gamma)] = float(np.mean(ecas))
    return cells


def test_criterion_8_guidance_improves_conditioning(guidance_cells):
    lines = []
    ok = True
    for group in ("seen", "unseen"):
        base = guidance_cells[(group, "none", 0.0)]
        for mode, gamma in [("cg", 50.0), ("cfg", 1.25), ("cfg", 1.75)]:
            guided = guidance_cells[(group, mode, gamma)]
            ok &= guided >= base + 10
            lines.append(f"{group} {mode}({gamma:g}) {guided:.1f} vs unguided "
                         f"{base:.1f} ({guided - base:+.1f})")
    report(8, ok, "oracle-ECA, 200/cell x 5 seeds: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# 9. guidance-scale trade-off


def _target_log_odds(world, samples):
    """Mean exact log-odds of the target emotion against the runner-up,
    log p*(target|x) - max_{k != target} log p*(k|x), from the clean-frame
    likelihood that eca_oracle uses. Taken in log space: at these margins
    the posterior itself underflows to exactly 0 or 1."""
    odds = []
    for sample in samples:
        means = (world.speaker_base[sample.speaker] + world.emotion_offset)[:, None, :] \
            + world.token_effect[sample.tokens][None, :, :]
        diff = sample.frames[None, :, :] - means
        loglik = -0.5 * (diff * diff).sum(axis=(1, 2)) / world.tau ** 2
        target = sample.target_emotion
        odds.append(loglik[target] - np.delete(loglik, target).max())
    return float(np.mean(odds))


def test_criterion_9_tradeoff(acc_world, acc_split, dat_checkpoint):
    # Seen-speaker ECA is already at its 100% ceiling at gamma=0, so ranking
    # gamma against it measures Monte-Carlo ties, not conditioning strength;
    # the target log-odds on the same samples has no ceiling.
    gammas = [0.0, 0.5, 1.0, 1.5, 2.0]
    odds, ecas, errors = [], [], []
    for gamma in gammas:
        samples, _, _ = generate_eval_samples(dat_checkpoint.model, acc_world,
                                              acc_split.seen, "cfg", gamma, 200, seed=0)
        odds.append(_target_log_odds(acc_world, samples))
        ecas.append(eca_oracle(acc_world, samples))
        errors.append(content_error(samples, acc_world))
    rho_odds = float(spearmanr(gammas, odds).statistic)
    rho_err = float(spearmanr(gammas, errors).statistic)
    ok = rho_odds > 0 and rho_err > 0
    report(9, ok, f"Spearman(gamma, target log-odds)={rho_odds:.2f} > 0, "
                  f"Spearman(gamma, content_error)={rho_err:.2f} > 0 "
                  f"(log-odds {[round(o) for o in odds]}, "
                  f"ECA {[round(e, 1) for e in ecas]}, "
                  f"err {[round(e, 2) for e in errors]})")


# ---------------------------------------------------------------------------
# 10. zero-shot pathway


def test_criterion_10_zero_shot(acc_world, acc_split, dat_checkpoint, guidance_cells):
    samples, _, _ = generate_eval_samples(dat_checkpoint.model, acc_world,
                                          acc_split.unseen, "none", 0.0, 200, seed=0)
    spk_acc = speaker_id_accuracy(acc_world, samples)
    gaps = {
        f"{mode}({gamma:g})": abs(guidance_cells[("seen", mode, gamma)]
                                  - guidance_cells[("unseen", mode, gamma)])
        for mode, gamma in [("cg", 50.0), ("cfg", 1.25), ("cfg", 1.75)]
    }
    ok = spk_acc >= 80 and all(gap <= 15 for gap in gaps.values())
    gap_text = {k: round(v, 1) for k, v in gaps.items()}
    report(10, ok, f"nearest-speaker-mean accuracy {spk_acc:.1f}% >= 80% on unseen; "
                   f"seen/unseen ECA gaps {gap_text} all <= 15")


# ---------------------------------------------------------------------------
# 11. reproducibility


def test_criterion_11_reproducibility(tmp_path):
    from melworld.cli import main

    args = ["sweep", "--set", "eval.gammas=0,1.0", "--set", "eval.n_samples=8",
            "--set", "eval.steps=10"]
    train_args = ["train", "--set", "train.steps=30",
                  "--set", "train.dat_probe_steps=1", "--set", "eval.per_emotion=10"]
    out_t = tmp_path / "train"
    assert main(train_args + ["--outdir", str(out_t)]) == 0
    ckpt = str(out_t / "checkpoint.bin")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--checkpoint", ckpt, "--outdir", str(out_a)]) == 0
    assert main(args + ["--checkpoint", ckpt, "--outdir", str(out_b)]) == 0
    same_metrics = (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    out_t2 = tmp_path / "train2"
    assert main(train_args + ["--outdir", str(out_t2)]) == 0
    same_train = (out_t / "losses.jsonl").read_bytes() == (out_t2 / "losses.jsonl").read_bytes() \
        and (out_t / "checkpoint.bin").read_bytes() == (out_t2 / "checkpoint.bin").read_bytes()
    report(11, same_metrics and same_train,
           f"re-run metric files byte-identical: sweep {same_metrics}, "
           f"train {same_train}")
