"""The benchmark's workloads: set-up, one round of timed operations, and
the checks on their outputs.

Four kinds of work (train, eval-grid, synth, oracle) each have three legs.
A workload runs two kinds, a round of each in turn, so each kind's
operations spread over the whole measured time; its legs 1-3 belong to the
first kind and 4-6 to the second.

Every input is drawn from the run's seed; melworld receives only the drawn
inputs. A round is a fixed list of operations, so every run attempts whole
rounds of the same operations. ``Context.op`` times one operation and
files its time under its leg, normalised to one unit of work (a training
step, a sample, a request, a chain, a score row, a verify run).

Program calls go through module attributes (``training.train_model``, not
an imported name), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from melworld import cli, diffusion, metrics, training, verify
from melworld import world as wm

import references as ref

# the guidance grid of acceptance criteria 8 and 10
GRID = (("none", 0.0), ("cg", 50.0), ("cfg", 1.25), ("cfg", 1.75))
SYNTH_MODES = (("none", 0.0), ("cfg", 1.25), ("cg", 50.0))
MODE_LEG = {"none": 1, "cfg": 2, "cg": 3}
SCORE_TS = tuple(round(0.1 * k, 1) for k in range(1, 11))
N_SEEN = 6
# acceptance criterion 6's inputs. They stay fixed, unlike every other
# input: a 5% test on chains drawn from the run's seed would fail one seed
# in twenty although the sampler is exact.
C6_WORLD_SEED, C6_SPEAKER, C6_TOKENS, C6_TARGET = 7, 0, (1, 4), 1
C6_SEEDS, C6_PERM_SEED = (11, 22), 5

# keys that keep the streams drawn from one run seed apart
_WORLD, _SPLIT, _TRAIN, _EVAL, _SYNTH, _ROWS, _SETUP = range(1, 8)


def derive(seed: int, *keys: int) -> int:
    return int(np.random.default_rng([seed, *keys]).integers(0, 2 ** 31))


@dataclass(frozen=True)
class Sizes:
    train_steps: int = 50          # steps of each training operation
    clf_steps: int = 200           # noisy-classifier steps per operation
    setup_train_steps: int = 100   # checkpoint trained in set-up
    setup_clf_steps: int = 200
    eval_samples: int = 200        # samples per guidance-grid cell
    sampler_steps: int = 100       # reverse steps, grid and requests
    requests: int = 8              # requests per mode per round
    chains: int = 1000             # exact chains per sampler (C6)
    chain_steps: int = 100
    score_rows: int = 400          # exact-score rows per t (C4)
    reduction_samples: int = 8     # the small CFG(0) / CG(0) cell
    reduction_steps: int = 20
    perms: int = 200


class Context:
    """Operation counts, per-leg times and, in a traced round, the work done
    under each trace tag."""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.tracer = None
        self.leg_base = 0
        self.times: dict[str, list[float]] = defaultdict(list)
        self.units: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, leg: int, tag: str, per: float, units: dict, fn):
        """Run one operation; its time per unit of work goes to leg
        ``leg_base + leg``. Returns the result, or None when it raised, which
        also fails the run's check."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.tag = tag
        start = time.perf_counter()
        try:
            result = fn()
            elapsed = time.perf_counter() - start
        except Exception as exc:
            self.failed += 1
            self.problems.append(f"{tag} raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            if tracer is not None:
                tracer.tag = None
        self.times[f"leg{self.leg_base + leg}"].append(1000.0 * elapsed / per)
        if tracer is not None:
            for key, value in units.items():
                self.units[tag][key] += value
        return result

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass
class State:
    world: object
    split: object
    model: object = None
    data: dict = field(default_factory=dict)


def make_world(seed: int) -> tuple:
    world = wm.make_world(seed=derive(seed, _WORLD))
    return world, wm.split_speakers(world, N_SEEN, seed=derive(seed, _SPLIT))


def trained_checkpoint(world, split, seed: int, sizes: Sizes):
    """The default recipe, shortened: joint training with DAT, then the
    noisy classifier, as `melworld train` and `melworld train-clf` run it."""
    config = training.TrainConfig(steps=sizes.setup_train_steps,
                                  clf_steps=sizes.setup_clf_steps,
                                  seed=derive(seed, _SETUP))
    ckpt = training.train_model(world, split, config)
    training.train_noisy_classifier(world, split, ckpt.model, config)
    return ckpt


def _falls(trace: list, key: str, window: int, factor: float) -> bool:
    """The mean of the last ``window`` records is below ``factor`` times the
    mean of the first ``window``."""
    first = np.mean([rec[key] for rec in trace[:window]])
    last = np.mean([rec[key] for rec in trace[-window:]])
    return bool(last < factor * first)


# ---------------------------------------------------------------------------
# train


class Train:
    name = "train"
    legs = ("DAT training step", "w_dat=0 training step", "noisy-classifier step")

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> State:
        return State(*make_world(seed))

    def round(self, state: State, ctx: Context, r: int) -> None:
        sz = ctx.sizes
        tseed = derive(ctx.seed, _TRAIN, r)
        traces = {"dat": [], "nodat": []}

        def train(w_dat: float, trace: list):
            config = training.TrainConfig(steps=sz.train_steps, w_dat=w_dat, seed=tseed)
            ckpt = training.train_model(state.world, state.split, config, trace=trace)
            return ckpt, ckpt.to_bytes()

        dat = ctx.op(1, "train.dat", sz.train_steps,
                     {"steps": sz.train_steps, "ops": 1},
                     lambda: train(0.5, traces["dat"]))
        ctx.op(2, "train.nodat", sz.train_steps, {"steps": sz.train_steps},
               lambda: train(0.0, traces["nodat"]))
        clf_trace: list = []
        if dat is not None:
            ctx.op(3, "train.clf", sz.clf_steps, {"steps": sz.clf_steps},
                   lambda: training.train_noisy_classifier(
                       state.world, state.split, dat[0].model,
                       training.TrainConfig(clf_steps=sz.clf_steps, seed=tseed),
                       trace=clf_trace))
            state.data.setdefault("checkpoint_bytes", dat[1])
        for leg, trace in traces.items():
            ctx.expect(len(trace) == sz.train_steps and _falls(trace, "recon", 5, 0.75),
                       f"round {r}: {leg} reconstruction loss did not fall by a quarter")
        # measured last/first ratios: recon 0.38-0.48 at 50 steps, classifier
        # 0.72-0.83 at 200 steps, over eight worlds
        ctx.expect(len(clf_trace) == sz.clf_steps and _falls(clf_trace, "clf_loss", 20, 0.95),
                   f"round {r}: noisy-classifier loss did not fall by 5%")

    def check(self, state: State, ctx: Context) -> None:
        raw = state.data.get("checkpoint_bytes")
        ctx.expect(raw is not None, "no checkpoint was trained")
        if raw is not None:
            again = training.Checkpoint.from_bytes(raw).to_bytes()
            ctx.expect(again == raw, "checkpoint does not re-serialise to identical bytes")


# ---------------------------------------------------------------------------
# eval-grid


class EvalGrid:
    name = "eval-grid"
    legs = ("unguided cell, per sample", "CFG cell, per sample", "CG cell, per sample")

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> State:
        world, split = make_world(seed)
        ckpt = trained_checkpoint(world, split, seed, sizes)
        return State(world, split, ckpt.model, {"checkpoint": ckpt})

    def round(self, state: State, ctx: Context, r: int) -> None:
        sz = ctx.sizes
        eval_seed = derive(ctx.seed, _EVAL, r)
        for group_name in ("seen", "unseen"):
            group = getattr(state.split, group_name)
            for mode, gamma in GRID:
                row = ctx.op(MODE_LEG[mode], f"eval.{mode}", sz.eval_samples,
                             {"cells": 1, "sampler_steps": sz.sampler_steps},
                             lambda: metrics.evaluate_cell(
                                 state.model, state.world, group, mode, gamma,
                                 sz.eval_samples, eval_seed, steps=sz.sampler_steps))
                if row is None:
                    continue
                ctx.expect(0.0 <= row.eca <= 100.0 and np.isfinite(row.content_error),
                           f"round {r}: {group_name} {mode}({gamma:g}) metrics out of range")
                state.data.setdefault((group_name, mode, gamma), (row, eval_seed))

    def check(self, state: State, ctx: Context) -> None:
        sz = ctx.sizes
        for cell in (("seen", "none", 0.0), ("unseen", "cg", 50.0), ("unseen", "cfg", 1.25)):
            if cell not in state.data:
                ctx.problems.append(f"cell {cell} never completed")
                continue
            row, eval_seed = state.data[cell]
            group = getattr(state.split, cell[0])
            samples, _, _ = metrics.generate_eval_samples(
                state.model, state.world, group, cell[1], cell[2], sz.eval_samples,
                eval_seed, steps=sz.sampler_steps)
            check_cell_metrics(ctx, state.world, samples, row, f"{cell[0]} {cell[1]}")
        check_reductions(ctx, state, ctx.seed)


def check_cell_metrics(ctx: Context, world, samples, row, label: str) -> None:
    """The cell's metrics, recomputed from the world matrices, must equal
    what `evaluate_cell` reported and what `metrics` computes on the same
    samples (content error to 1e-12 relative: the summation order differs)."""
    frames = np.stack([s.frames for s in samples])
    expected = ref.cell_metrics(world, frames, [s.speaker for s in samples],
                                [s.target_emotion for s in samples],
                                np.stack([s.tokens for s in samples]))
    ctx.expect(expected["eca"] == row.eca == metrics.eca_oracle(world, samples),
               f"{label}: oracle-ECA {row.eca} != reference {expected['eca']}")
    for value in (row.content_error, metrics.content_error(samples, world)):
        ctx.expect(abs(value - expected["content_error"])
                   <= 1e-12 * abs(expected["content_error"]),
                   f"{label}: content error {value} != reference {expected['content_error']}")
    spk = metrics.speaker_id_accuracy(world, samples)
    ctx.expect(spk == expected["speaker_id"],
               f"{label}: speaker ID {spk} != reference {expected['speaker_id']}")


def check_reductions(ctx: Context, state: State, seed: int) -> None:
    """Acceptance criterion 5's property: CFG(0) is bitwise the conditional
    sampler and CG(0) bitwise the null-path sampler."""
    sz = ctx.sizes
    model, world = state.model, state.world
    rng = np.random.default_rng([seed, _EVAL, 0xC5])
    n = sz.reduction_samples
    tokens = rng.integers(0, world.vocab, size=(n, 8))
    targets = rng.integers(0, world.n_emotions, size=n)
    styles = model.encoder.encode(
        wm.sample_utterance_batch(world, rng.choice(state.split.unseen, size=n),
                                  np.zeros(n, dtype=np.int64), tokens, rng))
    emb = model.table.params["emb"].data
    e_cond, e_null = emb[targets], emb[np.full(n, model.table.null_index)]
    mu_cond = model.generator.generate(tokens, styles, e_cond)
    mu_null = model.generator.generate(tokens, styles, e_null)
    steps = sz.reduction_steps
    cfg0 = diffusion.sample_cfg(model.scorenet, model.generator, model.table, tokens,
                                styles, targets, model.schedule, steps, 0.0, seed=3)
    cond = diffusion.sample_reverse(model.scorenet, mu_cond, styles, e_cond,
                                    model.schedule, steps, seed=3)
    ctx.expect(np.array_equal(cfg0, cond), "CFG(0) is not bitwise the conditional sampler")
    cg0 = diffusion.sample_cg(model.scorenet, model.noisy_clf, model.generator, model.table,
                              tokens, styles, targets, model.schedule, steps, 0.0, seed=4)
    uncond = diffusion.sample_reverse(model.scorenet, mu_null, styles, e_null,
                                      model.schedule, steps, seed=4)
    ctx.expect(np.array_equal(cg0, uncond), "CG(0) is not bitwise the null-path sampler")


# ---------------------------------------------------------------------------
# synth


class Synth:
    name = "synth"
    legs = ("unguided request", "CFG request", "CG request")

    def prepare(self, trained: State, workdir: Path) -> State:
        """Write the set-up checkpoint and a config naming its world, for
        the requests to load."""
        base = workdir / "synth"
        base.mkdir(parents=True, exist_ok=True)
        (base / "checkpoint.bin").write_bytes(trained.data["checkpoint"].to_bytes())
        (base / "request.conf").write_text(
            f"[world]\nseed = {trained.world.seed}\n", encoding="utf-8")
        return State(trained.world, trained.split, trained.model, {"dir": base})

    def _argv(self, state: State, mode: str, gamma: float, speaker: int, emotion: int,
              sample_seed: int, steps: int) -> list[str]:
        base = state.data["dir"]
        return ["sample", "--config", str(base / "request.conf"),
                "--checkpoint", str(base / "checkpoint.bin"),
                "--outdir", str(base / mode),
                "--set", f"sample.mode={mode}", "--set", f"sample.gamma={gamma}",
                "--set", f"sample.speaker={speaker}", "--set", f"sample.emotion={emotion}",
                "--set", f"sample.seed={sample_seed}", "--set", f"sample.steps={steps}",
                "--set", "sample.n=1"]

    def round(self, state: State, ctx: Context, r: int) -> None:
        sz = ctx.sizes
        rng = np.random.default_rng([ctx.seed, _SYNTH, r])
        for mode, gamma in SYNTH_MODES * sz.requests:
            argv = self._argv(state, mode, gamma, int(rng.choice(state.split.unseen)),
                              int(rng.integers(0, state.world.n_emotions)),
                              int(rng.integers(0, 2 ** 31)), sz.sampler_steps)
            done = ctx.op(MODE_LEG[mode], f"synth.{mode}", 1,
                          {"requests": 1, "sampler_steps": sz.sampler_steps},
                          lambda: request(argv))
            if done is None:
                continue
            raw = (Path(argv[argv.index("--outdir") + 1]) / "samples.jsonl").read_bytes()
            frames = np.asarray(json.loads(raw)["frames"], dtype=np.float64)
            ctx.expect(frames.shape == (8, state.world.frame_dim) and np.isfinite(frames).all(),
                       f"round {r}: {mode} request wrote frames of shape {frames.shape}")
            state.data.setdefault(mode, (argv, raw))

    def check(self, state: State, ctx: Context) -> None:
        for mode, _ in SYNTH_MODES:
            if mode not in state.data:
                ctx.problems.append(f"no {mode} request completed")
                continue
            argv, raw = state.data[mode]
            try:
                request(argv)
            except RuntimeError as exc:
                ctx.problems.append(f"{mode} request failed when repeated: {exc}")
                continue
            again = (Path(argv[argv.index("--outdir") + 1]) / "samples.jsonl").read_bytes()
            ctx.expect(again == raw, f"{mode} request is not byte-identical when repeated")
        raw = (state.data["dir"] / "checkpoint.bin").read_bytes()
        ctx.expect(training.Checkpoint.from_bytes(raw).to_bytes() == raw,
                   "checkpoint does not re-serialise to identical bytes")


def request(argv: list[str]) -> bool:
    """One in-process `melworld sample` call; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"melworld {' '.join(argv)} exited {code}")
    return True


# ---------------------------------------------------------------------------
# oracle


class Oracle:
    name = "oracle"
    legs = ("exact chain (conditional and CG(1))", "exact score row", "verify.run_all")

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> State:
        world = wm.make_world(seed=derive(seed, _WORLD))
        schedule = diffusion.NoiseSchedule()
        c6_world = wm.make_world(seed=C6_WORLD_SEED)
        tokens = np.array(C6_TOKENS)
        mu = wm.utterance_mean(c6_world, C6_SPEAKER, 0, tokens)
        clf = wm.AnalyticNoisyClassifier(c6_world, C6_SPEAKER, tokens, mu, schedule)
        mu_b = np.broadcast_to(mu, (sizes.chains,) + mu.shape).copy()
        return State(world, None, None, {"seed": seed, "schedule": schedule,
                                         "c6": (c6_world, tokens, mu_b, clf)})

    def _chains(self, state: State, sz: Sizes):
        c6_world, tokens, mu_b, clf = state.data["c6"]
        schedule = state.data["schedule"]

        def cond_score(y, t, mu, s, e):
            return wm.analytic_score(c6_world, [C6_SPEAKER], C6_TARGET, mu, y, t, schedule,
                                     tokens=tokens)

        def guided_score(y, t, mu, s, e):
            uncond = wm.analytic_score(c6_world, [C6_SPEAKER], "all", mu, y, t, schedule,
                                       tokens=tokens)
            return diffusion.guided_score_cg(uncond, clf, y, t, C6_TARGET, 1.0)

        dummy = np.zeros((sz.chains, 1))
        return tuple(diffusion.sample_reverse(fn, mu_b, dummy, dummy, schedule,
                                              sz.chain_steps, seed=s, stochastic=True)
                     for fn, s in ((cond_score, C6_SEEDS[0]), (guided_score, C6_SEEDS[1])))

    def _rows(self, state: State, sz: Sizes, r: int) -> list:
        """Acceptance criterion 4's evaluation rows: forward-process draws of
        one (speaker, emotion) with a different script per row."""
        world = state.world
        schedule = state.data["schedule"]
        rng = np.random.default_rng([state.data["seed"], _ROWS, r])
        speaker = int(rng.integers(0, world.n_speakers))
        emotion = int(rng.integers(0, world.n_emotions))
        base = world.speaker_base[speaker] + world.emotion_offset[emotion]
        out = []
        for t in SCORE_TS:
            tokens = rng.integers(0, world.vocab, size=(sz.score_rows, 8))
            mu = base[None, None, :] + world.token_effect[tokens]
            y0 = mu + world.tau * rng.standard_normal(mu.shape)
            y_t = mu + (y0 - mu) * schedule.rho(t) \
                + np.sqrt(schedule.var(t)) * rng.standard_normal(mu.shape)
            out.append((t, speaker, emotion, tokens, mu, y_t))
        return out

    def round(self, state: State, ctx: Context, r: int) -> None:
        sz = ctx.sizes
        schedule = state.data["schedule"]
        world = state.world
        chains = ctx.op(1, "oracle.chains", 2 * sz.chains,
                        {"rounds": 1, "sampler_steps": 2 * sz.chain_steps},
                        lambda: self._chains(state, sz))
        if chains is not None:
            state.data.setdefault("chains", chains)
        rows = self._rows(state, sz, r)

        def scores():
            return [np.stack([wm.analytic_score(world, [spk], emo, mu[i], y_t[i], t, schedule,
                                                tokens=tokens[i])
                              for i in range(sz.score_rows)])
                    for t, spk, emo, tokens, mu, y_t in rows]

        out = ctx.op(2, "oracle.rows", sz.score_rows * len(SCORE_TS), {"rounds": 1},
                     scores)
        if out is not None:
            state.data.setdefault("rows", (rows, out))
        results = ctx.op(3, "oracle.verify", 1, {"rounds": 1},
                         lambda: verify.run_all(world, schedule))
        if results is not None:
            for result in results:
                ctx.expect(result.passed, f"round {r}: verify {result.line()}")

    def check(self, state: State, ctx: Context) -> None:
        sz = ctx.sizes
        if "chains" in state.data:
            direct, guided = state.data["chains"]
            p = ref.energy_pvalue(direct.reshape(sz.chains, -1), guided.reshape(sz.chains, -1),
                                  n_perms=sz.perms, seed=C6_PERM_SEED)
            ctx.expect(p >= 0.05, f"exact CG(1) chains differ from the exact conditional "
                                  f"sampler: energy test p={p:.3f} < 0.05")
        else:
            ctx.problems.append("no chains completed")
        if "rows" in state.data:
            world, schedule = state.world, state.data["schedule"]
            rows, scores = state.data["rows"]
            worst = 0.0
            for (t, spk, emo, tokens, mu, y_t), score in zip(rows, scores):
                for i in range(min(3, len(score))):
                    numeric = ref.central_difference_grad(
                        lambda y: wm.analytic_log_density(world, [spk], emo, mu[i], y, t,
                                                          schedule, tokens=tokens[i]),
                        y_t[i])
                    worst = max(worst, ref.relative_error(score[i], numeric))
            ctx.expect(worst < 1e-5, f"exact score vs central differences: {worst:.2e} >= 1e-5")
        else:
            ctx.problems.append("no score rows completed")


KINDS = {k.name: k for k in (Train(), EvalGrid(), Synth(), Oracle())}


class Workload:
    """Two kinds of work, a round of each in turn."""

    def __init__(self, name: str, kinds: tuple, setup=None):
        self.name = name
        self.kinds = kinds
        self.legs = tuple(f"{kind.name}: {label}" for kind in kinds for label in kind.legs)
        self._setup = setup

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> list:
        if self._setup is not None:
            return self._setup(seed, sizes, workdir)
        return [kind.setup(seed, sizes, workdir) for kind in self.kinds]

    def round(self, states: list, ctx: Context, r: int) -> None:
        for i, (kind, state) in enumerate(zip(self.kinds, states)):
            ctx.leg_base = 3 * i
            kind.round(state, ctx, r)
        ctx.leg_base = 0

    def check(self, states: list, ctx: Context) -> None:
        for kind, state in zip(self.kinds, states):
            kind.check(state, ctx)


def _sample_setup(seed: int, sizes: Sizes, workdir: Path) -> list:
    trained = KINDS["eval-grid"].setup(seed, sizes, workdir)
    # the requests load the checkpoint the grid samples from
    return [trained, KINDS["synth"].prepare(trained, workdir)]


WORKLOADS = {w.name: w for w in (
    Workload("train-oracle", (KINDS["train"], KINDS["oracle"])),
    Workload("sample", (KINDS["eval-grid"], KINDS["synth"]), setup=_sample_setup),
)}
N_LEGS = 6  # three per kind, two kinds per workload
