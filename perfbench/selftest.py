"""Fast tests of the benchmark's own pieces.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection: they pin today's per-layer counts, which a change that
removes work is meant to move.
"""

import json
import shutil
import statistics
import subprocess
import sys
from argparse import Namespace
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import melworld as mw  # noqa: E402
from melworld import diffusion, metrics  # noqa: E402

import probe  # noqa: E402
import references as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = workloads.Sizes(train_steps=2, clf_steps=2, setup_train_steps=2, setup_clf_steps=2,
                       eval_samples=4, sampler_steps=3, chains=10, chain_steps=3,
                       score_rows=2, requests=1, reduction_samples=3, reduction_steps=3,
                       perms=20)


@pytest.fixture(scope="module")
def world():
    return mw.make_world(seed=3)


def _samples(world):
    n = 12
    rng = np.random.default_rng(0)
    speakers = rng.integers(0, world.n_speakers, size=n)
    targets = rng.integers(0, world.n_emotions, size=n)
    tokens = rng.integers(0, world.vocab, size=(n, 5))
    frames = mw.world.sample_utterance_batch(world, speakers, targets, tokens, rng)
    return [metrics.EvalSample(frames=frames[i], target_emotion=int(targets[i]),
                               speaker=int(speakers[i]), tokens=tokens[i]) for i in range(n)]


def _reference(world, samples):
    return ref.cell_metrics(world, np.stack([s.frames for s in samples]),
                            [s.speaker for s in samples], [s.target_emotion for s in samples],
                            np.stack([s.tokens for s in samples]))


def test_cell_metrics_agree_with_program_and_reject_a_wrong_sample(world):
    samples = _samples(world)
    expected = _reference(world, samples)
    assert expected["eca"] == metrics.eca_oracle(world, samples)
    assert expected["speaker_id"] == metrics.speaker_id_accuracy(world, samples)
    assert expected["content_error"] == pytest.approx(metrics.content_error(samples, world),
                                                      rel=1e-12)
    row = SimpleNamespace(eca=metrics.eca_oracle(world, samples),
                          content_error=metrics.content_error(samples, world))
    ctx = workloads.Context(0, TINY)
    workloads.check_cell_metrics(ctx, world, samples, row, "clean")
    assert ctx.problems == []

    # move one sample onto another emotion and the next onto another speaker
    bad = list(samples)
    for i, (matrix, attr, count) in enumerate(((world.emotion_offset, "target_emotion",
                                                world.n_emotions),
                                               (world.speaker_base, "speaker",
                                                world.n_speakers))):
        s = bad[i]
        label = getattr(s, attr)
        shift = matrix[(label + 1) % count] - matrix[label]
        bad[i] = metrics.EvalSample(frames=s.frames + shift, target_emotion=s.target_emotion,
                                    speaker=s.speaker, tokens=s.tokens)
    wrong = _reference(world, bad)
    assert wrong["eca"] < expected["eca"]
    assert wrong["speaker_id"] < expected["speaker_id"]
    assert wrong["content_error"] > expected["content_error"]
    ctx = workloads.Context(0, TINY)
    workloads.check_cell_metrics(ctx, world, bad, row, "corrupted")
    assert len(ctx.problems) >= 2


def test_energy_test_accepts_one_distribution_and_rejects_a_shift():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 4))
    y = rng.standard_normal((200, 4))
    assert ref.energy_pvalue(x, y, n_perms=200, seed=5) >= 0.05
    assert ref.energy_pvalue(x, y + 0.5, n_perms=200, seed=5) < 0.05


def test_central_differences_match_the_exact_score_and_reject_a_wrong_one(world):
    schedule = mw.NoiseSchedule()
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, world.vocab, size=4)
    mu = rng.standard_normal((4, world.frame_dim))
    y = rng.standard_normal((4, world.frame_dim))
    score = mw.analytic_score(world, [2], 1, mu, y, 0.3, schedule, tokens=tokens)
    numeric = ref.central_difference_grad(
        lambda batch: mw.analytic_log_density(world, [2], 1, mu, batch, 0.3, schedule,
                                              tokens=tokens), y)
    assert ref.relative_error(score, numeric) < 1e-5
    assert ref.relative_error(1.05 * score, numeric) > 1e-3


def test_reduction_check_passes_and_rejects_a_perturbed_sampler(world, monkeypatch):
    split = mw.split_speakers(world, 6, seed=0)
    ckpt = workloads.trained_checkpoint(world, split, 0, TINY)
    state = workloads.State(world, split, ckpt.model)
    ctx = workloads.Context(0, TINY)
    workloads.check_reductions(ctx, state, 0)
    assert ctx.problems == []

    original = diffusion.sample_cfg
    monkeypatch.setattr(diffusion, "sample_cfg",
                        lambda *a, **k: np.nextafter(original(*a, **k), np.inf))
    ctx = workloads.Context(0, TINY)
    workloads.check_reductions(ctx, state, 0)
    assert ctx.problems == ["CFG(0) is not bitwise the conditional sampler"]


def test_checkpoint_check_rejects_non_canonical_bytes(world):
    split = mw.split_speakers(world, 6, seed=0)
    raw = workloads.trained_checkpoint(world, split, 0, TINY).to_bytes()
    train = workloads.KINDS["train"]
    ctx = workloads.Context(0, TINY)
    train.check(workloads.State(world, split, data={"checkpoint_bytes": raw}), ctx)
    assert ctx.problems == []
    # the same checkpoint with its metadata JSON re-spaced
    meta_len = int.from_bytes(raw[8:16], "little")
    meta = json.dumps(json.loads(raw[16:16 + meta_len]), sort_keys=True).encode()
    spaced = raw[:8] + len(meta).to_bytes(8, "little") + meta + raw[16 + meta_len:]
    ctx = workloads.Context(0, TINY)
    train.check(workloads.State(world, split, data={"checkpoint_bytes": spaced}), ctx)
    assert ctx.problems == ["checkpoint does not re-serialise to identical bytes"]


def test_tail_percentile():
    assert ref.tail_percentile(range(39)) is None
    p, value = ref.tail_percentile(np.arange(1.0, 101.0))
    assert p == 90 and value == pytest.approx(90.1)


def test_timings_are_scaled_to_the_probe_reference_speed(tmp_path, monkeypatch):
    # a machine on which the probe takes twice its reference time reports
    # half of every measured time
    monkeypatch.setattr(probe, "probe_ms", lambda: 2.0 * probe.REF_MS)
    args = Namespace(seed=0, seconds=0.0)
    ctx, values, extra = run.untraced(workloads.WORKLOADS["train-oracle"], args, TINY,
                                      tmp_path / "work")
    assert extra["scale"] == 0.5
    assert values["setup_s"][0] == 0.5 * statistics.median(extra["setup_s"])
    assert values["leg1_ms"][0] == 0.5 * statistics.median(ctx.times["leg1"])


def test_traced_counters_on_a_tiny_config(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = Namespace(seed=0, seconds=0.0)
    ctx, values, _ = run.traced(workloads.WORKLOADS["train-oracle"], args, TINY, tmp_path / "work")
    v = {name: value for name, (value, _unit) in values.items()}
    for name in ("autodiff.backward_calls_per_train_step",
                 "autodiff.backward_calls_per_nodat_step",
                 "stylegen.encode_calls_per_train_step",
                 "stylegen.encode_calls_per_nodat_step",
                 "training.probe_calls_per_train_step",
                 "training.probe_calls_per_nodat_step",
                 "training.sgd_update_calls_per_train_step"):
        assert v[name] == 16, name
    assert v["diffusion.score_calls_per_sampler_step.none"] == 1
    assert v["diffusion.score_calls_per_sampler_step.cfg"] == 2
    assert v["diffusion.score_calls_per_sampler_step.cg"] == 1
    assert v["training.clf_forward_calls_per_cg_step"] == 2
    assert v["stylegen.encode_calls_per_eval_cell"] == TINY.eval_samples + 1
    assert v["checkpoint.bytes"] > 0
    assert all(np.isfinite(x) for x in v.values())
    assert (tmp_path / "spans-train-oracle-seed0.jsonl.gz").stat().st_size > 0
    assert ctx.failed == 0


def test_tracer_restores_every_original():
    before = (mw.training.train_model, mw.diffusion.ScoreNet.__call__,
              mw.autodiff.Tensor.__init__, mw.training.Checkpoint.__dict__["from_bytes"],
              mw.metrics.sample_cfg, mw.train_model)
    with Tracer():
        assert mw.training.train_model is not before[0]
        assert mw.metrics.sample_cfg is mw.diffusion.sample_cfg
    after = (mw.training.train_model, mw.diffusion.ScoreNet.__call__,
             mw.autodiff.Tensor.__init__, mw.training.Checkpoint.__dict__["from_bytes"],
             mw.metrics.sample_cfg, mw.train_model)
    assert all(a is b for a, b in zip(before, after))


def test_one_failed_request_fails_the_run(tmp_path, monkeypatch, capsys):
    # two requests of each mode in the round; only the very first exits 1,
    # so every mode still completes and only the failure itself can fail the run
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "Sizes", lambda: replace(TINY, requests=2))
    original, calls = workloads.cli.main, []

    def main(argv):
        calls.append(argv)
        return 1 if len(calls) == 1 else original(argv)

    monkeypatch.setattr(workloads.cli, "main", main)
    code = run.main(["--workload", "sample", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "train-oracle",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "no melworld package" in out.stderr
