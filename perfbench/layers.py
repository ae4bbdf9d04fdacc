"""Per-layer metrics of a traced run, derived from its spans.

Each figure is divided by the work its trace tag did (training steps,
sampler steps, cells, requests, oracle rounds), so counts repeat exactly
between runs. "ms" figures are inclusive wall time of the named calls,
outermost call only, unless the name says "self".
"""

from __future__ import annotations

MODES = ("none", "cfg", "cg")
EVAL = tuple(f"eval.{m}" for m in MODES)
SYNTH = tuple(f"synth.{m}" for m in MODES)
ORACLE = ("oracle.chains", "oracle.rows", "oracle.verify")
DAT, NODAT, CLF = "train.dat", "train.nodat", "train.clf"

SAMPLERS = ("diffusion.sample_reverse", "diffusion.sample_cfg", "diffusion.sample_cg")
SCORE = ("diffusion.ScoreNet.__call__",)
ENCODE_T = ("stylegen.StyleEncoder.encode_t",)
ENCODE = ("stylegen.StyleEncoder.encode",)
BACKWARD = ("autodiff.Tensor.backward",)
PROBE = ("training.EmotionProbeHead.logits_t",)

# name -> unit; BENCHMARK.json lists the same names in this order
UNITS = {
    "autodiff.tensors_per_train_step": "count",
    "autodiff.backward_calls_per_train_step": "count",
    "autodiff.backward_calls_per_nodat_step": "count",
    "autodiff.backward_self_ms_per_train_step": "ms",
    **{f"autodiff.tensors_per_sampler_step.{m}": "count" for m in MODES},
    "stylegen.encode_calls_per_train_step": "count",
    "stylegen.encode_calls_per_nodat_step": "count",
    "stylegen.encode_ms_per_train_step": "ms",
    "stylegen.generate_ms_per_train_step": "ms",
    "stylegen.encode_calls_per_eval_cell": "count",
    "diffusion.dsm_loss_ms_per_train_step": "ms",
    **{f"diffusion.score_calls_per_sampler_step.{m}": "count" for m in MODES},
    **{f"diffusion.score_ms_per_sampler_step.{m}": "ms" for m in MODES},
    **{f"diffusion.sampler_self_ms_per_step.{k}": "ms" for k in ("eval", "synth", "oracle")},
    "diffusion.cg_guidance_ms_per_step": "ms",
    "training.probe_calls_per_train_step": "count",
    "training.probe_calls_per_nodat_step": "count",
    "training.sgd_update_calls_per_train_step": "count",
    "training.sgd_update_ms_per_train_step": "ms",
    "training.clf_forward_calls_per_cg_step": "count",
    "training.clf_grad_ms_per_cg_step": "ms",
    "training.clf_step_ms": "ms",
    "world.sample_batch_ms_per_train_step": "ms",
    "world.analytic_score_calls_per_round": "count",
    "world.analytic_score_ms_per_round": "ms",
    "world.analytic_posterior_ms_per_round": "ms",
    "metrics.oracle_ms_per_cell": "ms",
    "metrics.evaluate_cell_self_ms": "ms",
    "checkpoint.dump_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes",
    "cli.sample_self_ms": "ms",
    "verify.gradcheck_ms": "ms",
    "verify.score_vs_numeric_ms": "ms",
    "verify.bayes_identity_ms": "ms",
    "trace.overhead_pct": "%",
}


def layer_metrics(s, units: dict, checkpoint_bytes: int) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_pct``, from a
    SpanSummary ``s`` and the work done under each tag."""

    def total(tags, key: str) -> float:
        tags = (tags,) if isinstance(tags, str) else tags
        return sum(units[tag][key] for tag in tags)

    def per(value: float, tags, key: str) -> float:
        return value / total(tags, key)

    steps, nodat_steps = (DAT, "steps"), (NODAT, "steps")
    cells = (EVAL, "cells")
    out = {
        "autodiff.tensors_per_train_step":
            per(s.tensors_in(DAT, ("training.train_model",)), *steps),
        "autodiff.backward_calls_per_train_step": per(s.calls(DAT, BACKWARD), *steps),
        "autodiff.backward_calls_per_nodat_step": per(s.calls(NODAT, BACKWARD), *nodat_steps),
        "autodiff.backward_self_ms_per_train_step": per(s.self_ms(DAT, BACKWARD), *steps),
        "stylegen.encode_calls_per_train_step": per(s.calls(DAT, ENCODE_T), *steps),
        "stylegen.encode_calls_per_nodat_step": per(s.calls(NODAT, ENCODE_T), *nodat_steps),
        "stylegen.encode_ms_per_train_step": per(s.incl_ms(DAT, ENCODE_T + ENCODE), *steps),
        "stylegen.generate_ms_per_train_step": per(
            s.incl_ms(DAT, ("stylegen.Generator.generate_t", "stylegen.Generator.generate")),
            *steps),
        "stylegen.encode_calls_per_eval_cell": per(s.calls(EVAL, ENCODE), *cells),
        "diffusion.dsm_loss_ms_per_train_step":
            per(s.incl_ms(DAT, ("diffusion.dsm_loss_t",)), *steps),
        "diffusion.cg_guidance_ms_per_step":
            per(s.incl_ms("eval.cg", ("diffusion.guided_score_cg",)), "eval.cg", "sampler_steps"),
        "training.probe_calls_per_train_step": per(s.calls(DAT, PROBE), *steps),
        "training.probe_calls_per_nodat_step": per(s.calls(NODAT, PROBE), *nodat_steps),
        "training.sgd_update_calls_per_train_step":
            per(s.calls(DAT, ("training.sgd_update",)), *steps),
        "training.sgd_update_ms_per_train_step":
            per(s.incl_ms(DAT, ("training.sgd_update",)), *steps),
        "training.clf_forward_calls_per_cg_step":
            per(s.calls("eval.cg", ("training.NoisyClassifier.logits_t",)),
                "eval.cg", "sampler_steps"),
        "training.clf_grad_ms_per_cg_step":
            per(s.incl_ms("eval.cg", ("training.NoisyClassifier.grad_log_prob",)),
                "eval.cg", "sampler_steps"),
        "training.clf_step_ms":
            per(s.incl_ms(CLF, ("training.train_noisy_classifier",)), CLF, "steps"),
        "world.sample_batch_ms_per_train_step":
            per(s.incl_ms(DAT, ("world.sample_utterance_batch",)), *steps),
        "world.analytic_score_calls_per_round":
            per(s.calls(ORACLE, ("world.analytic_score",)), "oracle.rows", "rounds"),
        "world.analytic_score_ms_per_round":
            per(s.incl_ms(ORACLE, ("world.analytic_score",)), "oracle.rows", "rounds"),
        "world.analytic_posterior_ms_per_round": per(
            s.incl_ms(ORACLE, ("world.AnalyticNoisyClassifier.posterior",
                               "world.AnalyticNoisyClassifier.grad_log_prob",
                               "world.analytic_emotion_posterior")),
            "oracle.rows", "rounds"),
        "metrics.oracle_ms_per_cell":
            per(s.incl_ms(EVAL, ("metrics.eca_oracle", "metrics.content_error")), *cells),
        # cell time outside sampling and the oracles: the SECS embeddings
        "metrics.evaluate_cell_self_ms": per(
            s.incl_ms(EVAL, ("metrics.evaluate_cell",))
            - s.incl_ms(EVAL, ("metrics.generate_eval_samples", "metrics.eca_oracle",
                               "metrics.content_error")), *cells),
        "checkpoint.dump_ms": per(s.incl_ms(DAT, ("checkpoint.dump_stores",)), DAT, "ops"),
        "checkpoint.load_ms": per(s.incl_ms(SYNTH, ("checkpoint.load_stores",)),
                                  SYNTH, "requests"),
        "checkpoint.bytes": float(checkpoint_bytes),
        # request time outside sampling, the model and the checkpoint:
        # argument and config parsing, world build, file writes
        "cli.sample_self_ms": per(
            s.incl_ms(SYNTH, ("cli.main",))
            - s.incl_ms(SYNTH, layers=("diffusion", "stylegen", "training", "checkpoint")),
            SYNTH, "requests"),
        "verify.gradcheck_ms":
            per(s.incl_ms("oracle.verify", ("verify.run_gradcheck_suite",)),
                "oracle.verify", "rounds"),
        "verify.score_vs_numeric_ms":
            per(s.incl_ms("oracle.verify", ("verify.run_score_vs_numeric",)),
                "oracle.verify", "rounds"),
        "verify.bayes_identity_ms":
            per(s.incl_ms("oracle.verify", ("verify.run_bayes_identity",)),
                "oracle.verify", "rounds"),
    }
    for mode in MODES:
        tag = f"eval.{mode}"
        out[f"autodiff.tensors_per_sampler_step.{mode}"] = \
            per(s.tensors_in(tag, SAMPLERS), tag, "sampler_steps")
        out[f"diffusion.score_calls_per_sampler_step.{mode}"] = \
            per(s.calls(tag, SCORE), tag, "sampler_steps")
        out[f"diffusion.score_ms_per_sampler_step.{mode}"] = \
            per(s.incl_ms(tag, SCORE), tag, "sampler_steps")
    # the integrator: sampler time outside its score, guidance and model calls
    for kind, tags in (("eval", EVAL), ("synth", SYNTH), ("oracle", ("oracle.chains",))):
        out[f"diffusion.sampler_self_ms_per_step.{kind}"] = per(
            s.incl_ms(tags, SAMPLERS) - s.children_ms(tags, SAMPLERS),
            tags, "sampler_steps")
    return {name: out[name] for name in UNITS if name in out}
