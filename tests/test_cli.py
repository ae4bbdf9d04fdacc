"""CLI contract: subcommands, exit codes, config validation, artifacts,
reproducibility."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import melworld as mw
from melworld import cli
from melworld import config as cfg
from melworld.cli import main
from melworld.config import ConfigError, mix_seed


FAST_TRAIN = [
    "--set", "train.steps=20", "--set", "train.dat_probe_steps=1",
    "--set", "train.clf_steps=20", "--set", "train.batch_size=4",
    "--set", "eval.per_emotion=10",
]


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults_roundtrip():
    config = cfg.resolve()
    text = cfg.render(config)
    assert cfg.resolve(cfg.parse_text(text)) == config


def test_config_unknown_key_has_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        cfg.parse_text("[world]\nbogus = 3\n")


def test_config_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        cfg.parse_text("[nope]\n")


def test_config_bad_value_type():
    with pytest.raises(ConfigError, match="bad int"):
        cfg.parse_text("[world]\nvocab = ten\n")


def test_config_overrides():
    config = cfg.resolve(None, ["train.steps=99", "eval.gammas=0,1.5"])
    assert config["train"]["steps"] == 99
    assert config["eval"]["gammas"] == (0.0, 1.5)
    with pytest.raises(ConfigError):
        cfg.resolve(None, ["nope.key=1"])


_VALUES = {
    "int": st.integers(-2 ** 40, 2 ** 40),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    # the string keys are the sampling mode and the speaker group; beyond
    # their valid names, any text without a comment sign or a line break
    # (control and line-separator characters) survives as well
    "str": st.sampled_from(["none", "cfg", "cg", "seen", "unseen"])
    | st.text(st.characters(blacklist_characters="#",
                            blacklist_categories=("Cc", "Cs", "Zl", "Zp"))).map(str.strip),
    "int_list": st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=5).map(tuple),
    "float_list": st.lists(st.floats(allow_nan=False), max_size=5).map(tuple),
}


def _as_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=50, deadline=None)
@given(st.fixed_dictionaries({f"{section}.{key}": _VALUES[spec[0]]
                              for section, keys in cfg.SCHEMA.items()
                              for key, spec in keys.items()}))
def test_every_override_survives_render_parse_resolve(values):
    config = cfg.resolve(None, [f"{path}={_as_text(v)}" for path, v in values.items()])
    for path, value in values.items():
        section, key = path.split(".")
        assert config[section][key] == value
    assert cfg.resolve(cfg.parse_text(cfg.render(config))) == config


@pytest.mark.parametrize("text", ["a#b", "#", "a\nb", "a\rb", "a\u2028b", "a\x85b"])
def test_override_rejects_a_string_the_file_cannot_hold(text):
    # '#' starts a comment and a line break ends the line, so the rendered
    # config.resolved would re-parse to another value
    with pytest.raises(ConfigError, match="sample.mode cannot hold"):
        cfg.resolve(None, [f"sample.mode={text}"])


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_a_string_override_round_trips_or_is_rejected(text):
    try:
        config = cfg.resolve(None, [f"sample.mode={text}"])
    except ConfigError:
        assert "#" in text or len(text.strip().splitlines()) > 1
        return
    assert config["sample"]["mode"] == text.strip()
    assert cfg.resolve(cfg.parse_text(cfg.render(config))) == config


def test_set_reaches_the_dataclasses_the_cli_builds(tmp_path, monkeypatch):
    # every [world]/[model]/[train] key set with --set, each to a value off
    # its default, must reach the object training receives
    class Captured(Exception):
        pass

    built = {}

    def capture(world, split, train_config, model_config, trace=None):
        built.update(world=world, train=train_config, model=model_config)
        raise Captured

    monkeypatch.setattr(cli, "train_model", capture)
    values = {"run.seed": 3, "world.seed": 8}
    for section, cls in cfg.DATACLASSES.items():
        for f in fields(cls):
            bumped = f.default + 1 if isinstance(f.default, int) else f.default * 1.5
            values[f"{section}.{f.name}"] = bumped
    argv = ["train", "--outdir", str(tmp_path)]
    for path, value in values.items():
        argv += ["--set", f"{path}={value}"]
    with pytest.raises(Captured):
        main(argv)
    for section, cls in cfg.DATACLASSES.items():
        for f in fields(cls):
            expected = values[f"{section}.{f.name}"]
            if f.name == "seed":
                expected = mix_seed(3, expected)
            assert getattr(built[section], f.name) == expected, f"{section}.{f.name}"
    assert built["world"].seed == mix_seed(3, 8)


def test_config_hash_stable_and_sensitive():
    a = cfg.resolve()
    b = cfg.resolve(None, ["train.steps=1"])
    assert cfg.config_hash(a) == cfg.config_hash(cfg.resolve())
    assert cfg.config_hash(a) != cfg.config_hash(b)


# ---------------------------------------------------------------------------
# subcommands


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[world]\nvocab = banana\n")
    code = main(["gen-data", "--config", str(bad), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_checkpoint_exits_3(tmp_path, capsys):
    code = main(["sample", "--checkpoint", str(tmp_path / "nope.bin"),
                 "--outdir", str(tmp_path / "out")])
    assert code == 3


def test_gen_data_writes_world(tmp_path):
    out = tmp_path / "run"
    assert main(["gen-data", "--outdir", str(out)]) == 0
    world = mw.load_world((out / "world.txt").read_text())
    assert world.n_speakers == 10
    assert (out / "config.resolved").exists()


def test_verify_passes_on_fresh_install(tmp_path, capsys):
    assert main(["verify", "--outdir", str(tmp_path / "v"),
                 "--set", "world.n_speakers=4"]) == 0
    out = capsys.readouterr().out
    assert "all oracle checks passed" in out
    assert out.count("[ok]") == 3


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "train"
    code = main(["train", "--outdir", str(out)] + FAST_TRAIN)
    assert code == 0
    return out


def test_train_artifacts(trained_run):
    assert (trained_run / "checkpoint.bin").exists()
    losses = (trained_run / "losses.jsonl").read_text().strip().split("\n")
    assert len(losses) == 20
    record = json.loads(losses[0])
    assert {"step", "total", "recon", "dsm", "dat"} <= set(record)
    tsv = (trained_run / "styles.tsv").read_text().strip().split("\n")
    assert len(tsv) == 1 + 40  # header + 10 per emotion * 4 emotions


@pytest.mark.parametrize("mode", ["none", "cfg", "cg"])
def test_sample_and_trajectory(trained_run, tmp_path, mode):
    out = tmp_path / "samples"
    code = main(["sample", "--checkpoint", str(trained_run / "checkpoint.bin"),
                 "--outdir", str(out), "--set", "sample.n=2",
                 "--set", f"sample.mode={mode}", "--set", "sample.gamma=1.5",
                 "--set", "sample.trajectory=true", "--set", "sample.steps=5"])
    assert code == 0
    records = [json.loads(line) for line in
               (out / "samples.jsonl").read_text().strip().split("\n")]
    assert len(records) == 2
    assert len(records[0]["frames"]) == 8
    trajectory = [json.loads(line) for line in
                  (out / "trajectory_0.jsonl").read_text().strip().split("\n")]
    assert len(trajectory) == 5


@pytest.mark.parametrize("command, setting, truncate", [
    ("eval", "eval.mode=bogus", False),
    ("eval", "eval.group=typo", False),
    ("sweep", "eval.group=typo", False),
    ("sample", "sample.emotion=9", False),
    ("sample", "sample.n=1", True),
    ("sample", "sample.tokens=1,99", False),
    ("sample", "sample.n=-1", False),
    ("sample", "sample.mode=a#b", False),
    ("train", "train.batch_size=0", False),
], ids=["eval-mode", "eval-group", "sweep-group", "sample-emotion", "truncated-checkpoint",
        "sample-tokens", "sample-n", "sample-mode-comment", "train-batch-size"])
def test_bad_input_exits_2_without_traceback(trained_run, tmp_path, command, setting,
                                             truncate):
    checkpoint = trained_run / "checkpoint.bin"
    if truncate:
        raw = checkpoint.read_bytes()
        checkpoint = tmp_path / "truncated.bin"
        checkpoint.write_bytes(raw[:len(raw) // 2])
    checkpoint_args = [] if command == "train" else ["--checkpoint", str(checkpoint)]
    src = str(Path(mw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "melworld.cli", command, *checkpoint_args,
         "--outdir", str(tmp_path / "out"), "--set", setting,
         "--set", "eval.n_samples=4", "--set", "eval.steps=2"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr


def test_sweep_row_count_and_reproducibility(trained_run, tmp_path):
    args = ["sweep", "--checkpoint", str(trained_run / "checkpoint.bin"),
            "--set", "eval.gammas=0,0.5,1.0,1.5,2.0",
            "--set", "eval.n_samples=4", "--set", "eval.steps=5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--outdir", str(out_a)]) == 0
    assert main(args + ["--outdir", str(out_b)]) == 0
    csv_a = (out_a / "metrics.csv").read_bytes()
    csv_b = (out_b / "metrics.csv").read_bytes()
    assert csv_a == csv_b
    lines = csv_a.decode().strip().split("\n")
    assert len(lines) == 6  # header + 5 gammas


def test_eval_reports(trained_run, tmp_path):
    out = tmp_path / "eval"
    code = main(["eval", "--checkpoint", str(trained_run / "checkpoint.bin"),
                 "--outdir", str(out), "--set", "eval.n_samples=4",
                 "--set", "eval.steps=5", "--set", "eval.mode=none"])
    assert code == 0
    reports = [json.loads(line) for line in
               (out / "report.jsonl").read_text().strip().split("\n")]
    metrics = {r["metric"] for r in reports}
    assert {"eca", "content_error", "secs_mean_frame", "secs_style"} <= metrics
    assert all("fingerprint" in r and r["n"] == 4 for r in reports)


def test_train_clf_requires_matching_world(trained_run, tmp_path, capsys):
    out = tmp_path / "clf"
    code = main(["train-clf", "--checkpoint", str(trained_run / "checkpoint.bin"),
                 "--outdir", str(out), "--set", "world.seed=99"] + FAST_TRAIN)
    assert code == 2
    assert "world" in capsys.readouterr().err


def test_train_reproducible_losses(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["train"] + FAST_TRAIN
    assert main(args + ["--outdir", str(out_a)]) == 0
    assert main(args + ["--outdir", str(out_b)]) == 0
    assert (out_a / "losses.jsonl").read_bytes() == (out_b / "losses.jsonl").read_bytes()
    assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()
    assert (out_a / "styles.tsv").read_bytes() == (out_b / "styles.tsv").read_bytes()
