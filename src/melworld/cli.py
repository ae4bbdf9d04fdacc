"""Experiment runner.

    melworld <subcommand> [--config FILE] [--set section.key=value ...]
                          [--outdir DIR | --runs-root DIR] [...]

Subcommands: gen-data, train, train-clf, sample, eval, sweep, verify.
Artifacts land in a run directory named by the resolved-config hash plus a
timestamp (or exactly ``--outdir``); the resolved configuration is echoed to
``config.resolved`` so any run can be reproduced byte-for-byte. Exit codes:
0 success, 1 failed verification, 2 bad usage or configuration, 3 missing
checkpoint or world file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import config as cfg
from . import metrics as mx
from .autodiff import MelworldError
from .config import ConfigError, config_hash, mix_seed
from .diffusion import NoiseSchedule
from .training import Checkpoint, train_model, train_noisy_classifier
from .world import (
    World,
    dump_world,
    load_world,
    make_world,
    neutral_references,
    split_speakers,
    world_hash,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_MISSING = 3


def _load_config(args) -> dict:
    partial = None
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        partial = cfg.parse_text(path.read_text(encoding="utf-8"))
    return cfg.resolve(partial, args.set or [])


def _run_dir(config: dict, args) -> Path:
    if args.outdir:
        run_dir = Path(args.outdir)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        run_dir = Path(args.runs_root) / f"{config_hash(config)}-{stamp}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.resolved").write_text(cfg.render(config), encoding="utf-8")
    return run_dir


def _section_config(config: dict, section: str):
    """The dataclass that owns ``[section]``, built from its resolved keys;
    a stage seed is mixed with the global seed."""
    cls = cfg.DATACLASSES[section]
    values = {f.name: config[section][f.name] for f in fields(cls)}
    if "seed" in values:
        values["seed"] = mix_seed(config["run"]["seed"], values["seed"])
    return cls(**values)


def _build_world(config: dict, args) -> World:
    if getattr(args, "world", None):
        path = Path(args.world)
        if not path.exists():
            print(f"error: world file not found: {path}", file=sys.stderr)
            raise SystemExit(EXIT_MISSING)
        return load_world(path.read_text(encoding="utf-8"))
    return make_world(_section_config(config, "world"),
                      seed=mix_seed(config["run"]["seed"], config["world"]["seed"]))


def _checkpoint_and_world(config: dict, args) -> tuple[Checkpoint, World]:
    """The checkpoint and the world; exit 3 without the checkpoint file and 2
    unless the checkpoint was trained on that world."""
    path = Path(args.checkpoint) if args.checkpoint else None
    if path is None or not path.exists():
        print(f"error: checkpoint not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_MISSING)
    ckpt = Checkpoint.from_bytes(path.read_bytes())
    world = _build_world(config, args)
    if world_hash(world) != ckpt.world_hash:
        print(f"error: checkpoint was trained on world {ckpt.world_hash}, "
              f"got {world_hash(world)}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return ckpt, world


def _split(world: World, config: dict):
    return split_speakers(world, config["world"]["n_seen"],
                          mix_seed(config["run"]["seed"], config["world"]["split_seed"]))


def _eval_inputs(args):
    """What eval and sweep share: the config, run directory, checkpoint,
    world, the speakers of ``eval.group`` and the evaluation seed."""
    config = _load_config(args)
    group = config["eval"]["group"]
    if group not in ("seen", "unseen"):
        raise ConfigError(f"eval.group must be 'seen' or 'unseen', got {group!r}")
    for key in ("n_scripts", "n_samples", "script_len"):
        if config["eval"][key] < 1:
            raise ConfigError(f"eval.{key} must be >= 1, got {config['eval'][key]}")
    run_dir = _run_dir(config, args)
    ckpt, world = _checkpoint_and_world(config, args)
    if config["eval"]["script_len"] > world.max_len:
        raise ConfigError(f"eval.script_len {config['eval']['script_len']} exceeds the "
                          f"world's max_len {world.max_len}")
    speakers = getattr(_split(world, config), group)
    return (config, run_dir, ckpt, world, speakers,
            mix_seed(config["run"]["seed"], config["eval"]["seed"]))


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    config = _load_config(args)
    run_dir = _run_dir(config, args)
    world = _build_world(config, args)
    out = run_dir / "world.txt"
    out.write_text(dump_world(world), encoding="utf-8")
    print(f"world {world_hash(world)} -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args)
    run_dir = _run_dir(config, args)
    world = _build_world(config, args)
    split = _split(world, config)
    trace: list = []
    ckpt = train_model(world, split, _section_config(config, "train"),
                       _section_config(config, "model"), trace=trace)
    (run_dir / "checkpoint.bin").write_bytes(ckpt.to_bytes())
    _write_jsonl(run_dir / "losses.jsonl", trace)
    vectors, labels = mx.collect_style_vectors(
        world, ckpt.model, split.seen, config["eval"]["per_emotion"],
        config["train"]["utt_len"], mix_seed(config["run"]["seed"], config["eval"]["seed"]))
    (run_dir / "styles.tsv").write_text(mx.styles_tsv(vectors, labels), encoding="utf-8")
    (run_dir / "world.txt").write_text(dump_world(world), encoding="utf-8")
    print(f"checkpoint {mx.checkpoint_hash(ckpt)} (step {ckpt.step}) -> {run_dir}")
    return EXIT_OK


def cmd_train_clf(args) -> int:
    config = _load_config(args)
    run_dir = _run_dir(config, args)
    ckpt, world = _checkpoint_and_world(config, args)
    split = _split(world, config)
    trace: list = []
    train_noisy_classifier(world, split, ckpt.model, _section_config(config, "train"),
                           trace=trace)
    (run_dir / "checkpoint.bin").write_bytes(ckpt.to_bytes())
    _write_jsonl(run_dir / "losses.jsonl", trace)
    print(f"noisy classifier trained -> {run_dir / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_sample(args) -> int:
    config = _load_config(args)
    s = config["sample"]
    if s["n"] < 1:
        raise ConfigError(f"sample.n must be >= 1, got {s['n']}")
    if not s["tokens"] and config["eval"]["script_len"] < 1:
        raise ConfigError(f"eval.script_len must be >= 1 without sample.tokens, "
                          f"got {config['eval']['script_len']}")
    run_dir = _run_dir(config, args)
    ckpt, world = _checkpoint_and_world(config, args)
    speaker = world.check_speaker(s["speaker"])
    emotion = world.check_emotion(s["emotion"])
    seed = mix_seed(config["run"]["seed"], s["seed"])
    rng = np.random.default_rng([seed, 0x5A11])
    # a drawn script obeys max_len like a given one
    tokens = world.check_tokens(s["tokens"] or rng.integers(0, world.vocab,
                                                            size=config["eval"]["script_len"]))
    model = ckpt.model
    records = []
    p_null_never_trained = ckpt.train_config.p_null == 0.0 and s["mode"] != "none"
    for i in range(s["n"]):
        style = model.encoder.encode(neutral_references(world, [speaker], tokens.size, rng))
        trajectory: list | None = [] if s["trajectory"] else None
        frames = mx.sample_frames(model, s["mode"], tokens[None], style,
                                  np.array([emotion]), s["gamma"], s["steps"],
                                  rng.integers(0, 2 ** 63 - 1), s["stochastic"],
                                  trajectory)[0]
        record = {
            "index": i,
            "speaker": s["speaker"],
            "emotion": s["emotion"],
            "mode": s["mode"],
            "gamma": s["gamma"],
            "tokens": [int(t) for t in tokens],
            "frames": [[float(v) for v in row] for row in frames],
        }
        if p_null_never_trained:
            record["warning"] = "null embedding was never trained (p_null was 0)"
        records.append(record)
        if trajectory is not None:
            _write_jsonl(run_dir / f"trajectory_{i}.jsonl", trajectory)
    _write_jsonl(run_dir / "samples.jsonl", records)
    print(f"{s['n']} samples -> {run_dir / 'samples.jsonl'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config, run_dir, ckpt, world, speakers, seed = _eval_inputs(args)
    e = config["eval"]
    gamma = config["sample"]["gamma"]
    row = mx.evaluate_cell(ckpt.model, world, speakers, e["mode"], gamma,
                           e["n_samples"], seed, e["steps"], e["n_scripts"],
                           e["script_len"], e["stochastic"])
    fingerprint = {
        "world_hash": ckpt.world_hash,
        "checkpoint_hash": mx.checkpoint_hash(ckpt),
        "gamma": gamma,
        "mode": e["mode"],
        "group": e["group"],
        "seed": seed,
    }
    reports = [{"metric": metric, "value": getattr(row, metric), "n": row.n,
                "fingerprint": fingerprint}
               for metric in ("eca", "content_error", "secs_mean_frame", "secs_style")]
    result = mx.SweepResult(rows=[row], fingerprint=fingerprint)
    (run_dir / "metrics.csv").write_text(result.to_csv(), encoding="utf-8")
    _write_jsonl(run_dir / "report.jsonl", reports)
    for report in reports:
        print(f"{report['metric']}: {report['value']:.4f} (n={report['n']})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, run_dir, ckpt, world, speakers, seed = _eval_inputs(args)
    e = config["eval"]
    result = mx.guidance_sweep(ckpt, world, speakers, list(e["gammas"]), e["mode"],
                               e["n_samples"], seed, e["steps"], e["n_scripts"],
                               e["script_len"], e["stochastic"])
    (run_dir / "metrics.csv").write_text(result.to_csv(), encoding="utf-8")
    print(result.to_csv(), end="")
    print(f"-> {run_dir / 'metrics.csv'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_all

    config = _load_config(args)
    world = _build_world(config, args)
    m = config["model"]
    schedule = NoiseSchedule(m["beta0"], m["beta1"], m["t_final"], m["t_min"])
    results = run_all(world, schedule)
    for result in results:
        print(result.line())
    if all(r.passed for r in results):
        print("all oracle checks passed")
        return EXIT_OK
    print("oracle checks FAILED", file=sys.stderr)
    return EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="melworld", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen-data": (cmd_gen_data, "generate and serialize a world"),
        "train": (cmd_train, "train the full model"),
        "train-clf": (cmd_train_clf, "train the noisy emotion classifier"),
        "sample": (cmd_sample, "generate samples from a checkpoint"),
        "eval": (cmd_eval, "compute metrics for one configuration cell"),
        "sweep": (cmd_sweep, "metrics across a guidance-scale grid"),
        "verify": (cmd_verify, "run the oracle self-tests"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="configuration file (key = value sections)")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a configuration value")
        p.add_argument("--outdir", help="exact output directory")
        p.add_argument("--runs-root", default="runs",
                       help="parent for hash-named run directories")
        p.add_argument("--world", help="load a serialized world instead of generating")
        if name in ("train-clf", "sample", "eval", "sweep"):
            p.add_argument("--checkpoint", help="path to a checkpoint.bin")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the CLI contract
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MelworldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
