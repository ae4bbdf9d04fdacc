"""CLI contract: subcommands, exit codes, config validation, artifacts,
reproducibility."""

import hashlib
import json
import os
import re
import struct
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
from melworld import metrics as mx
from melworld.cli import main
from melworld.checkpoint import CheckpointError
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


# a section header (known or not), a known key with any value, or any text
_CONFIG_LINE = st.one_of(
    st.sampled_from([*cfg.SCHEMA, "nope"]).map(lambda section: f"[{section}]"),
    st.tuples(st.sampled_from([key for keys in cfg.SCHEMA.values() for key in keys]),
              st.text(max_size=12)).map(" = ".join),
    st.text(max_size=20))


@settings(max_examples=100, deadline=None)
@given(st.text() | st.lists(_CONFIG_LINE, max_size=6).map("\n".join))
def test_parse_text_parses_or_raises_config_error(text):
    try:
        partial = cfg.parse_text(text)
    except ConfigError:
        return
    assert set(partial) <= set(cfg.SCHEMA)


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


@pytest.mark.parametrize("error", [mw.WorldError, mw.TrainingError, mw.DiffusionError,
                                   mw.EvalError, CheckpointError, ConfigError,
                                   mw.GraphError, mw.StyleError])
def test_every_module_error_is_a_melworld_error(error):
    assert issubclass(error, mw.MelworldError)


def test_graph_error_exits_2_in_one_line(tmp_path, capsys, monkeypatch):
    def broken(run):
        raise mw.GraphError("non-finite values in node 'affine#7'")

    monkeypatch.setattr(cli, "cmd_verify", broken)
    assert main(["verify", "--outdir", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err == "error: non-finite values in node 'affine#7'\n"


def test_missing_checkpoint_exits_3(tmp_path, capsys):
    code = main(["sample", "--checkpoint", str(tmp_path / "nope.bin"),
                 "--outdir", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == f"error: checkpoint not found: {tmp_path / 'nope.bin'}\n"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command, setting", [
    ("verify", "model.t_final=0.5"),
    ("verify", "model.t_final=0.015"),
], ids=["verify-t-final-below-1", "verify-t-final-below-0.02"])
def test_good_input_exits_0(tmp_path, command, setting):
    assert main([command, "--outdir", str(tmp_path / "out"), "--set", setting]) == 0


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


@pytest.mark.parametrize("mode", ["none", "cfg", "cg"])
@pytest.mark.parametrize("gamma", ["-1", "nan", "inf"])
def test_a_bad_guidance_scale_is_named(trained_run, tmp_path, capsys, mode, gamma):
    assert main(["sample", "--checkpoint", str(trained_run / "checkpoint.bin"),
                 "--outdir", str(tmp_path / "out"), "--set", f"sample.mode={mode}",
                 "--set", f"sample.gamma={gamma}", "--set", "sample.steps=5"]) == 2
    assert capsys.readouterr().err == (f"error: guidance scale gamma must be finite and >= 0, "
                                       f"got {float(gamma)}\n")
    assert not (tmp_path / "out").exists()


def _edit_meta(pattern: bytes, repl: bytes):
    """A damage that makes one regex substitution in the checkpoint's
    metadata JSON, which starts at byte 16 after its u64 length, and writes
    the new length."""
    def edit(raw):
        (n,) = struct.unpack("<Q", raw[8:16])
        meta, count = re.subn(pattern, repl, raw[16:16 + n], count=1)
        assert count == 1, pattern
        return raw[:8] + struct.pack("<Q", len(meta)) + meta + raw[16 + n:]
    return edit


# each damages a copy of the trained run's checkpoint or world file; the
# checkpoint's metadata JSON starts at byte 16, and the store table holds
# each store name after its u16 length
_CORRUPT = {
    "checkpoint": lambda raw: raw[:len(raw) // 2],
    "checkpoint-json": lambda raw: raw[:16] + b"x" + raw[17:],
    "checkpoint-key": lambda raw: raw.replace(b'"alpha"', b'"alphz"'),
    "checkpoint-store": lambda raw: raw.replace(b"\x08\x00scorenet", b"\x08\x00scorenex"),
    "checkpoint-hidden": _edit_meta(rb'"hidden":(\d+)', rb'"hidden":"\1"'),
    "checkpoint-frame-dim": _edit_meta(rb'"frame_dim":\d+', b'"frame_dim":-1'),
    "checkpoint-step": _edit_meta(rb'"step":\d+', b'"step":"x"'),
    "checkpoint-steps": _edit_meta(rb'"steps":\d+', b'"steps":1.5'),
    "world-truncated": lambda raw: raw[:600],
    "world-header": lambda raw: re.sub(rb"(?m)^tau .*$", b"tau abc", raw),
    "world-entry": lambda raw: re.sub(rb"(speaker_base\n)\S+", rb"\1x", raw),
    "world-vocab": lambda raw: re.sub(rb"(?m)^vocab .*$", b"vocab 0", raw),
    "world-tau-negative": lambda raw: re.sub(rb"(?m)^tau .*$", b"tau -1", raw),
    "world-tau-zero": lambda raw: re.sub(rb"(?m)^tau .*$", b"tau 0", raw),
    "world-max-len": lambda raw: re.sub(rb"(?m)^max_len .*$", b"max_len 0", raw),
    # one more token_effect row, then a garbage line
    "world-trailing": lambda raw: raw + raw.splitlines(keepends=True)[-1] + b"garbage\n",
    "world-not-utf8": lambda raw: b"\xff" + raw,
    "config-not-utf8": lambda raw: b"\xff" + raw,
}


@pytest.mark.parametrize("command, setting, corrupt", [
    ("eval", "eval.mode=bogus", None),
    ("eval", "eval.group=typo", None),
    ("sweep", "eval.group=typo", None),
    ("sample", "sample.emotion=9", None),
    ("sample", "sample.n=1", "checkpoint"),
    ("sample", "sample.tokens=1,99", None),
    ("sample", "sample.n=-1", None),
    ("sample", "sample.mode=a#b", None),
    ("train", "train.batch_size=0", None),
    ("sample", "sample.speaker=99", None),
    ("gen-data", "run.seed=0", "world-truncated"),
    ("gen-data", "run.seed=0", "world-header"),
    ("gen-data", "run.seed=0", "world-entry"),
    ("sample", "sample.steps=0", None),
    ("train", "model.t_min=2", None),
    ("sample", "sample.mode=cg sample.gamma=-1", None),
    ("sample", "sample.n=1", "checkpoint-json"),
    ("sample", "sample.n=1", "checkpoint-key"),
    ("sample", "sample.n=1", "checkpoint-store"),
    ("eval", "eval.n_scripts=0", None),
    ("train", "model.hidden=0", None),
    ("sample", "eval.script_len=0", None),
    ("sample", "sample.mode=cg sample.gamma=1e300", None),
    ("sample", "sample.n=1", "checkpoint-hidden"),
    ("sample", "sample.n=1", "checkpoint-frame-dim"),
    ("sample", "sample.n=1", "checkpoint-step"),
    ("sample", "sample.n=1", "checkpoint-steps"),
    ("sample", "eval.script_len=40", None),
    ("eval", "eval.script_len=40", None),
    ("gen-data", "run.seed=0", "config-dir"),
    ("gen-data", "run.seed=0", "config-not-utf8"),
    ("gen-data", "run.seed=0", "world-dir"),
    ("gen-data", "run.seed=0", "world-not-utf8"),
    ("sample", "sample.n=1", "checkpoint-dir"),
    ("gen-data", "run.seed=0", "outdir-file"),
    ("train", "world.vocab=0", None),
    ("gen-data", "run.seed=0", "world-vocab"),
    ("gen-data", "run.seed=0", "world-tau-negative"),
    ("gen-data", "run.seed=0", "world-tau-zero"),
    ("gen-data", "run.seed=0", "world-max-len"),
    ("train", "eval.per_emotion=-1", None),
    ("sample", "sample.mode=cfg sample.gamma=-1", None),
    ("sample", "sample.mode=cg sample.gamma=nan", None),
    ("train", "train.steps=40 train.clip_norm=-1", None),
    ("train", "train.steps=40 train.clip_norm=nan", None),
    ("train", "train.steps=40 train.lr=-0.01", None),
    ("train", "train.steps=40 train.dat_probe_lr=-0.05", None),
    ("train", "train.steps=40 train.alpha=nan", None),
    ("train", "train.steps=40 train.w_dsm=nan", None),
    ("train", "train.steps=2 model.t_final=inf", None),
    ("verify", "model.t_final=inf", None),
    ("train", "train.steps=2 model.beta1=inf", None),
    ("train", "train.steps=2 train.utt_len=100", None),
    ("gen-data", "run.seed=0", "world-trailing"),
    ("sample", "sample.mode=none sample.gamma=nan", None),
    ("sample", "sample.mode=none sample.gamma=-1", None),
    ("eval", "eval.mode=none sample.gamma=inf", None),
    ("sample", "sample.mode=cfg sample.gamma=1e308 sample.steps=2", None),
    ("eval", "sample.gamma=1e308", None),
], ids=["eval-mode", "eval-group", "sweep-group", "sample-emotion", "truncated-checkpoint",
        "sample-tokens", "sample-n", "sample-mode-comment", "train-batch-size",
        "sample-speaker", "truncated-world", "world-header-value", "world-matrix-entry",
        "sample-steps", "model-t-min", "cg-gamma", "checkpoint-meta-json",
        "checkpoint-config-key", "checkpoint-store-name", "eval-n-scripts", "model-hidden",
        "sample-script-len", "cg-gamma-huge", "checkpoint-hidden-type",
        "checkpoint-frame-dim", "checkpoint-step-type", "checkpoint-steps-float",
        "sample-drawn-script-too-long", "eval-script-too-long", "config-dir",
        "config-not-utf8", "world-dir", "world-not-utf8", "checkpoint-dir", "outdir-file",
        "world-vocab-set", "world-vocab-file", "world-tau-negative", "world-tau-zero",
        "world-max-len", "eval-per-emotion", "cfg-gamma", "gamma-nan", "train-clip-norm",
        "train-clip-norm-nan", "train-lr", "train-dat-probe-lr", "train-alpha-nan",
        "train-w-dsm-nan", "train-t-final-inf", "verify-t-final-inf", "train-beta1-inf",
        "train-utt-len", "world-trailing-content", "none-gamma-nan", "none-gamma-negative",
        "eval-none-gamma-inf", "cfg-gamma-huge", "eval-gamma-huge"])
def test_bad_input_exits_2_without_traceback(trained_run, tmp_path, command, setting,
                                             corrupt):
    # ``setting`` holds one or more space-separated overrides; ``corrupt``
    # names a damaged input file, an input path that is a directory, or an
    # --outdir that is a file
    files = {"checkpoint": trained_run / "checkpoint.bin", "world": trained_run / "world.txt",
             "config": trained_run / "config.resolved"}
    out = tmp_path / "out"
    kind = corrupt.split("-")[0] if corrupt else None
    if corrupt == "outdir-file":
        out.write_text("a file")
    elif corrupt is not None and corrupt.endswith("-dir"):
        files[kind] = tmp_path
    elif corrupt is not None:
        damaged = tmp_path / files[kind].name
        damaged.write_bytes(_CORRUPT[corrupt](files[kind].read_bytes()))
        files[kind] = damaged
    extra = []
    if command in ("eval", "sweep", "sample"):
        extra += ["--checkpoint", str(files["checkpoint"])]
    if command == "gen-data":
        extra += ["--world", str(files["world"])]
    if kind == "config":
        extra += ["--config", str(files["config"])]
    src = str(Path(mw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for override in setting.split():
        extra += ["--set", override]
    proc = subprocess.run(
        [sys.executable, "-m", "melworld.cli", command, *extra, "--outdir", str(out),
         "--set", "eval.n_samples=4", "--set", "eval.steps=2"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    # a failed run writes nothing
    if corrupt == "outdir-file":
        assert out.read_text() == "a file"
    else:
        assert not out.exists()


def test_failed_run_creates_nothing_under_the_default_runs_root(trained_run, tmp_path,
                                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--checkpoint", str(trained_run / "checkpoint.bin"),
                 "--set", "eval.script_len=17"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_runs_root_never_reuses_a_run_directory(tmp_path, monkeypatch, capsys):
    # two runs of one resolved config in the same second get one name
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")
    root = tmp_path / "R"
    assert main(["gen-data", "--runs-root", str(root)]) == 0
    (run_dir,) = root.iterdir()
    (run_dir / "world.txt").write_text("the first run's file")
    capsys.readouterr()
    assert main(["gen-data", "--runs-root", str(root)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and str(run_dir) in err, err
    assert (run_dir / "world.txt").read_text() == "the first run's file"
    assert list(root.iterdir()) == [run_dir]


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_scripts_longer_than_max_len_rejected_before_sampling(trained_run, tmp_path,
                                                              monkeypatch, command):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking eval.script_len")

    monkeypatch.setattr(mx, "sample_frames", no_sampling)
    code = main([command, "--checkpoint", str(trained_run / "checkpoint.bin"),
                 "--outdir", str(tmp_path / "out"), "--set", "eval.script_len=17"])
    assert code == 2


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
    lines = (out / "report.jsonl").read_text().strip().split("\n")
    reports = [json.loads(line) for line in lines]
    # one compact, key-sorted record per line, so equal runs write equal bytes
    assert lines == [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in reports]
    metrics = {r["metric"] for r in reports}
    assert {"eca", "content_error", "secs_mean_frame", "secs_style"} <= metrics
    assert all("fingerprint" in r and r["n"] == 4 for r in reports)


# sha256 of a short CFG sweep and of an unguided, deterministic eval on the
# unseen speakers, both from the FAST_TRAIN checkpoint; each leaves some
# protocol value at other than its default
_EVAL_BYTES = {
    "sweep/metrics.csv": "2dcce70f56355b949dd51860b55aa6c58087aa37570d03cf4356a580e9e4872a",
    "eval/metrics.csv": "0b52c2e58648a8bd4813c177277dcc4a5ce898568af0235fee820979f6f1646d",
    "eval/report.jsonl": "60c8d7aeaa136c78f590203467b19a84e6973b76b48cc46acae6f6a615771f8a",
}


def test_sweep_and_eval_bytes_pinned(trained_run, tmp_path):
    ckpt = ["--checkpoint", str(trained_run / "checkpoint.bin")]
    assert main(["sweep", *ckpt, "--outdir", str(tmp_path / "sweep"),
                 "--set", "eval.gammas=0,1.5", "--set", "eval.n_samples=6",
                 "--set", "eval.steps=5", "--set", "eval.n_scripts=3",
                 "--set", "eval.script_len=5"]) == 0
    assert main(["eval", *ckpt, "--outdir", str(tmp_path / "eval"), "--set", "eval.mode=none",
                 "--set", "eval.n_samples=6", "--set", "eval.steps=5",
                 "--set", "eval.stochastic=false", "--set", "eval.group=unseen"]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in _EVAL_BYTES}
    assert got == _EVAL_BYTES


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


# sha256 of each artifact of a short train -> train-clf -> CG sample flow; a
# refactor that keeps behaviour keeps every byte
_FLOW_BYTES = {
    "train/checkpoint.bin": "4e851a7e2d9b886cd16e752e1dfb660f9796e4cf9999db40dd1a55ba2d27efec",
    "clf/checkpoint.bin": "f09a71fd5a6949a968d0bf6197012f90eeab14f2ccc9aa07e8b476fc70efb979",
    "clf/losses.jsonl": "aeec0bbcffd6b831cf9f890d455d99993f0ad1c09f6048c3bbdfc21c4ec6696d",
    "cg/samples.jsonl": "2bff04f107317033621d0241758e42cebbd6554cfda4efddb46b6a7b5a7cffa7",
}


def test_train_train_clf_and_cg_sample_bytes_pinned(tmp_path):
    # a probe reinitialization every 15 steps, so the reinitialised probe's
    # sizes and seed reach the checkpoint too
    fast = FAST_TRAIN + ["--set", "train.steps=40", "--set", "train.dat_probe_reinit=15"]
    assert main(["train", "--outdir", str(tmp_path / "train")] + fast) == 0
    assert main(["train-clf", "--checkpoint", str(tmp_path / "train" / "checkpoint.bin"),
                 "--outdir", str(tmp_path / "clf")] + fast) == 0
    assert main(["sample", "--checkpoint", str(tmp_path / "clf" / "checkpoint.bin"),
                 "--outdir", str(tmp_path / "cg"), "--set", "sample.mode=cg",
                 "--set", "sample.gamma=50", "--set", "sample.n=2",
                 "--set", "sample.steps=10"]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in _FLOW_BYTES}
    assert got == _FLOW_BYTES


# sha256 of a `train-clf` run whose every step clips the classifier's gradient
_CLIPPED_CLF_BYTES = {
    "checkpoint.bin": "19f57d1dcadc116327ac6ac4104a83b90f654a11edea0f908b394270ee693994",
    "losses.jsonl": "3f8814a75af87daef47388e9b4f0b7c3b43b0262bc7dfc37d7b0ac525ffe326e",
}


def test_clipped_train_clf_bytes_pinned(tmp_path):
    fast = FAST_TRAIN + ["--set", "train.steps=40", "--set", "train.dat_probe_reinit=15"]
    assert main(["train", "--outdir", str(tmp_path / "train")] + fast) == 0
    assert main(["train-clf", "--checkpoint", str(tmp_path / "train" / "checkpoint.bin"),
                 "--outdir", str(tmp_path / "clf"), "--set", "train.clip_norm=0.05"]
                + fast) == 0
    got = {name: hashlib.sha256((tmp_path / "clf" / name).read_bytes()).hexdigest()
           for name in _CLIPPED_CLF_BYTES}
    assert got == _CLIPPED_CLF_BYTES


# sha256 of a short `train` with the adversary off (w_dat = 0), whose probe
# only logs the `dat` column
_NODAT_BYTES = {
    "checkpoint.bin": "b519ef10e0a240c72fb234f670470542cac8339663d7607f59e89c721af59549",
    "losses.jsonl": "ee33ee5dc8a45a089b8a2cdb506fa14103b1bcb594d4a6f1cb11323bf7fda39c",
}


def test_nodat_train_bytes_pinned(tmp_path):
    assert main(["train", "--outdir", str(tmp_path)] + FAST_TRAIN
                + ["--set", "train.steps=40", "--set", "train.w_dat=0"]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in _NODAT_BYTES}
    assert got == _NODAT_BYTES
