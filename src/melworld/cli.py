"""Experiment runner.

    melworld <subcommand> [--config FILE] [--set section.key=value ...]
                          [--outdir DIR | --runs-root DIR] [...]

Subcommands: gen-data, train, train-clf, sample, eval, sweep, verify.
Artifacts land in a new run directory named by the resolved-config hash plus
a timestamp (or exactly ``--outdir``); the resolved configuration is echoed to
``config.resolved`` so any run can be reproduced byte-for-byte. Nothing is
written until the subcommand has succeeded. Exit codes: 0 success, 1 failed
verification, 2 bad usage, configuration or input file, 3 missing checkpoint
or world file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import config as cfg
from . import metrics as mx
from .autodiff import MelworldError
from .checkpoint import CheckpointError
from .config import ConfigError, config_hash, mix_seed
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


class MissingFileError(MelworldError):
    """A checkpoint or world file that does not exist (exit 3)."""


class OracleCheckError(MelworldError):
    """An oracle self-test that failed (exit 1)."""


@dataclass(frozen=True)
class Run:
    """What a subcommand gets from ``main``: the resolved configuration, the
    world, the checkpoint trained on it (for the subcommands that take one)
    and the run directory's path, which only ``main`` creates."""

    config: dict
    world: World
    ckpt: Checkpoint | None
    dir: Path


def _read(name: str | None, what: str, missing=MissingFileError, binary: bool = False):
    """The bytes, or else the UTF-8 text, of the input file ``name``."""
    path = None if name is None else Path(name)
    if path is None or not path.exists():
        raise missing(f"{what} not found: {path}")
    try:
        return path.read_bytes() if binary else path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MelworldError(f"cannot read {what} {path}: {exc}") from exc


def _section_config(config: dict, section: str):
    """The dataclass that owns ``[section]``, built from its resolved keys;
    a stage seed is mixed with the global seed."""
    cls = cfg.DATACLASSES[section]
    values = {f.name: config[section][f.name] for f in fields(cls)}
    if "seed" in values:
        values["seed"] = mix_seed(config["run"]["seed"], values["seed"])
    return cls(**values)


def _inputs(args) -> Run:
    """Resolve the configuration and read each input file once; the
    checkpoint must have been trained on the world."""
    partial = None
    if args.config is not None:
        partial = cfg.parse_text(_read(args.config, "config file", missing=ConfigError))
    config = cfg.resolve(partial, args.set or [])
    ckpt = None
    if hasattr(args, "checkpoint"):
        ckpt = Checkpoint.from_bytes(_read(args.checkpoint, "checkpoint", binary=True))
    if args.world:
        world = load_world(_read(args.world, "world file"))
    else:
        world = make_world(_section_config(config, "world"),
                           seed=mix_seed(config["run"]["seed"], config["world"]["seed"]))
    if ckpt is not None and world_hash(world) != ckpt.world_hash:
        raise CheckpointError(f"checkpoint was trained on world {ckpt.world_hash}, "
                              f"got {world_hash(world)}")
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_dir = Path(args.outdir or Path(args.runs_root) / f"{config_hash(config)}-{stamp}")
    return Run(config, world, ckpt, run_dir)


def _write_run(run: Run, artifacts: dict, exist_ok: bool) -> None:
    """Create the run directory, which must be new unless ``exist_ok``, then
    write ``config.resolved`` and each artifact (bytes as they are, text as
    UTF-8)."""
    try:
        run.dir.mkdir(parents=True, exist_ok=exist_ok)
        for name, content in {"config.resolved": cfg.render(run.config), **artifacts}.items():
            (run.dir / name).write_bytes(content if isinstance(content, bytes)
                                         else content.encode("utf-8"))
    except OSError as exc:
        raise MelworldError(f"cannot write run directory {run.dir}: {exc}") from exc


def _split(world: World, config: dict):
    return split_speakers(world, config["world"]["n_seen"],
                          mix_seed(config["run"]["seed"], config["world"]["split_seed"]))


def _eval_cell(run: Run) -> dict:
    """What eval and sweep share: the arguments of a metrics cell apart from
    its guidance scale, once the eval sizes are checked."""
    e = run.config["eval"]
    if e["group"] not in ("seen", "unseen"):
        raise ConfigError(f"eval.group must be 'seen' or 'unseen', got {e['group']!r}")
    for key in ("n_scripts", "n_samples", "script_len"):
        if e[key] < 1:
            raise ConfigError(f"eval.{key} must be >= 1, got {e[key]}")
    if e["script_len"] > run.world.max_len:
        raise ConfigError(f"eval.script_len {e['script_len']} exceeds the "
                          f"world's max_len {run.world.max_len}")
    cell = {key: e[key] for key in ("mode", "n_samples", "steps", "n_scripts", "script_len",
                                    "stochastic")}
    return dict(cell, world=run.world, speakers=getattr(_split(run.world, run.config), e["group"]),
                seed=mix_seed(run.config["run"]["seed"], e["seed"]))


def _jsonl(records) -> str:
    return "".join(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
                   for record in records)


# ---------------------------------------------------------------------------
# subcommands: each writes no file itself; it returns its artifacts as {file
# name: text or bytes} and the summary to print once they are written, or
# None when it writes no run directory


def cmd_gen_data(run: Run) -> tuple[dict, str]:
    return ({"world.txt": dump_world(run.world)},
            f"world {world_hash(run.world)} -> {run.dir / 'world.txt'}")


def cmd_train(run: Run) -> tuple[dict, str]:
    config, world = run.config, run.world
    if config["eval"]["per_emotion"] < 1:
        raise ConfigError(f"eval.per_emotion must be >= 1, got {config['eval']['per_emotion']}")
    split = _split(world, config)
    trace: list = []
    ckpt = train_model(world, split, _section_config(config, "train"),
                       _section_config(config, "model"), trace=trace)
    vectors, labels = mx.collect_style_vectors(
        world, ckpt.model, split.seen, config["eval"]["per_emotion"],
        config["train"]["utt_len"], mix_seed(config["run"]["seed"], config["eval"]["seed"]))
    return ({"checkpoint.bin": ckpt.to_bytes(), "losses.jsonl": _jsonl(trace),
             "styles.tsv": mx.styles_tsv(vectors, labels), "world.txt": dump_world(world)},
            f"checkpoint {mx.checkpoint_hash(ckpt)} (step {ckpt.step}) -> {run.dir}")


def cmd_train_clf(run: Run) -> tuple[dict, str]:
    trace: list = []
    train_noisy_classifier(run.world, _split(run.world, run.config), run.ckpt.model,
                           _section_config(run.config, "train"), trace=trace)
    return ({"checkpoint.bin": run.ckpt.to_bytes(), "losses.jsonl": _jsonl(trace)},
            f"noisy classifier trained -> {run.dir / 'checkpoint.bin'}")


def cmd_sample(run: Run) -> tuple[dict, str]:
    config, world, s = run.config, run.world, run.config["sample"]
    if s["n"] < 1:
        raise ConfigError(f"sample.n must be >= 1, got {s['n']}")
    if not s["tokens"] and config["eval"]["script_len"] < 1:
        raise ConfigError(f"eval.script_len must be >= 1 without sample.tokens, "
                          f"got {config['eval']['script_len']}")
    speaker = world.check_speaker(s["speaker"])
    emotion = world.check_emotion(s["emotion"])
    seed = mix_seed(config["run"]["seed"], s["seed"])
    rng = np.random.default_rng([seed, 0x5A11])
    # a drawn script obeys max_len like a given one
    tokens = world.check_tokens(s["tokens"] or rng.integers(0, world.vocab,
                                                            size=config["eval"]["script_len"]))
    model = run.ckpt.model
    records, artifacts = [], {}
    p_null_never_trained = run.ckpt.train_config.p_null == 0.0 and s["mode"] != "none"
    for i in range(s["n"]):
        style = model.encoder.encode(neutral_references(world, [speaker], tokens.size, rng))
        trajectory: list | None = [] if s["trajectory"] else None
        frames = mx.sample_frames(model, s["mode"], tokens[None], style,
                                  np.array([emotion]), s["gamma"], s["steps"],
                                  rng.integers(0, 2 ** 63 - 1), s["stochastic"],
                                  trajectory)[0]
        record = {"index": i, "speaker": s["speaker"], "emotion": s["emotion"],
                  "mode": s["mode"], "gamma": s["gamma"], "tokens": [int(t) for t in tokens],
                  "frames": [[float(v) for v in row] for row in frames]}
        if p_null_never_trained:
            record["warning"] = "null embedding was never trained (p_null was 0)"
        records.append(record)
        if trajectory is not None:
            artifacts[f"trajectory_{i}.jsonl"] = _jsonl(trajectory)
    return ({**artifacts, "samples.jsonl": _jsonl(records)},
            f"{s['n']} samples -> {run.dir / 'samples.jsonl'}")


def cmd_eval(run: Run) -> tuple[dict, str]:
    cell, ckpt, gamma = _eval_cell(run), run.ckpt, run.config["sample"]["gamma"]
    row = mx.evaluate_cell(ckpt.model, gamma=gamma, **cell)
    fingerprint = {"world_hash": ckpt.world_hash, "checkpoint_hash": mx.checkpoint_hash(ckpt),
                   "gamma": gamma, "mode": cell["mode"], "group": run.config["eval"]["group"],
                   "seed": cell["seed"]}
    reports = [{"metric": metric, "value": getattr(row, metric), "n": row.n,
                "fingerprint": fingerprint}
               for metric in ("eca", "content_error", "secs_mean_frame", "secs_style")]
    return ({"metrics.csv": mx.sweep_csv([row]),
             "report.jsonl": _jsonl(reports)},
            "\n".join(f"{r['metric']}: {r['value']:.4f} (n={r['n']})" for r in reports))


def cmd_sweep(run: Run) -> tuple[dict, str]:
    csv = mx.sweep_csv(mx.guidance_sweep(run.ckpt.model, gammas=run.config["eval"]["gammas"],
                                         **_eval_cell(run)))
    return {"metrics.csv": csv}, f"{csv}-> {run.dir / 'metrics.csv'}"


def cmd_verify(run: Run) -> None:
    from .verify import run_all

    results = run_all(run.world, _section_config(run.config, "model").schedule)
    for result in results:
        print(result.line())
    if not all(r.passed for r in results):
        raise OracleCheckError("oracle checks FAILED")
    print("all oracle checks passed")


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
    """One run: resolve the configuration and read the inputs, run the
    subcommand, then write its run directory; every failure is one stderr
    line and an exit code, and a failed run writes nothing."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the CLI contract
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        run = _inputs(args)
        result = args.fn(run)
        if result is not None:
            artifacts, summary = result
            # a hash-named directory is never reused; --outdir may be
            _write_run(run, artifacts, exist_ok=args.outdir is not None)
            print(summary)
        return EXIT_OK
    except MelworldError as exc:
        kind = type(exc)
        prefix = {ConfigError: "configuration error: ", OracleCheckError: ""}.get(kind, "error: ")
        print(f"{prefix}{exc}", file=sys.stderr)
        return {MissingFileError: EXIT_MISSING, OracleCheckError: EXIT_FAIL}.get(kind, EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
