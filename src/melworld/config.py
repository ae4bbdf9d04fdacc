"""Experiment configuration: flat key=value sections, strict validation.

The format is deliberately parser-free:

    # comment
    [world]
    tau = 0.3
    n_emotions = 4

The ``world``, ``model`` and ``train`` sections are the fields of
``WorldConfig``, ``ModelConfig`` and ``TrainConfig``, with their names,
types and defaults; only the keys no dataclass owns are declared here.
Unknown sections or keys are rejected with line diagnostics; missing keys
take their defaults. ``render`` produces a canonical serialization
(fixed section and key order) whose hash names the run directory, and a
re-parsed render resolves to the identical configuration.

Every stage seed is mixed with the global ``[run] seed``, so changing the
global seed reseeds the whole pipeline while stage seeds stay overridable.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

from .autodiff import MelworldError
from .training import ModelConfig, TrainConfig
from .world import WorldConfig


class ConfigError(MelworldError):
    """Raised for malformed configuration text or unknown keys."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _list_kind(cast, show):
    """Comma-separated values; empty text is the empty tuple."""
    return (lambda raw: tuple(cast(v) for v in raw.split(",")) if raw.strip() else (),
            lambda value: ",".join(show(v) for v in value))


# per value kind, its parser and the renderer whose text that parser reads back
_KINDS = {
    "int": (int, str),
    "float": (float, lambda value: repr(float(value))),
    "bool": (_parse_bool, lambda value: "true" if value else "false"),
    "str": (lambda s: s.strip(), str),
    "int_list": _list_kind(int, str),
    "float_list": _list_kind(float, repr),
}


# the dataclass that owns each section's fields; cli builds them from a
# resolved config
DATACLASSES = {"world": WorldConfig, "model": ModelConfig, "train": TrainConfig}


def _declared(section: str) -> dict[str, tuple]:
    """Schema entries of a section's dataclass: its field names, types and defaults."""
    return {f.name: (getattr(f.type, "__name__", f.type), f.default)
            for f in fields(DATACLASSES[section])}


# (type, default) per key; section and key order is canonical
SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "seed": ("int", 0),  # global seed mixed into every stage seed
    },
    "world": {
        **_declared("world"),
        "n_seen": ("int", 6),  # speakers in the seen split
        "seed": ("int", 7),  # world construction seed
        "split_seed": ("int", 0),  # seen/unseen split seed
    },
    "model": _declared("model"),
    "train": _declared("train"),
    "sample": {
        "steps": ("int", 100),  # reverse integration steps
        "stochastic": ("bool", True),  # reverse SDE; false: probability-flow ODE
        "mode": ("str", "none"),  # none | cfg | cg
        "gamma": ("float", 0.0),  # guidance scale, also used by eval
        "speaker": ("int", 0),  # target speaker id
        "emotion": ("int", 1),  # target emotion id
        "tokens": ("int_list", ()),  # token sequence; empty draws a random script
        "n": ("int", 4),  # number of samples
        "trajectory": ("bool", False),  # dump per-step trajectory records
        "seed": ("int", 0),  # sampling seed
    },
    "eval": {
        "n_samples": ("int", 200),  # samples per metrics cell
        "n_scripts": ("int", 10),  # distinct token scripts
        "script_len": ("int", 8),  # script length
        "gammas": ("float_list", (0.0, 0.5, 1.0, 1.5, 2.0)),  # sweep guidance scales
        "mode": ("str", "cfg"),  # guidance mode for eval/sweep: none | cfg | cg
        "group": ("str", "seen"),  # speaker group: seen | unseen
        "steps": ("int", 100),  # reverse integration steps
        "stochastic": ("bool", True),  # reverse SDE; false: probability-flow ODE
        "per_emotion": ("int", 200),  # style vectors per emotion for the probe
        "seed": ("int", 0),  # evaluation seed
    },
}


def _parse_value(section: str, key: str, raw: str, where: str):
    """The typed value of ``section.key``; ``where`` prefixes each diagnostic."""
    if section not in SCHEMA:
        raise ConfigError(f"{where}unknown section [{section}]")
    if key not in SCHEMA[section]:
        raise ConfigError(f"{where}unknown key '{key}' in section [{section}]")
    kind = SCHEMA[section][key][0]
    try:
        value = _KINDS[kind][0](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}bad {kind} value for {section}.{key}: "
                          f"{raw.strip()!r} ({exc})") from exc
    # a rendered line must parse back to the same value; only an override
    # can carry these characters this far
    if kind == "str" and ("#" in value or len(value.splitlines()) > 1):
        raise ConfigError(f"{where}{section}.{key} cannot hold a '#' or a line break: "
                          f"{value!r}")
    return value


def parse_text(text: str) -> dict[str, dict]:
    """Parse configuration text into a partial {section: {key: value}} dict."""
    out: dict[str, dict] = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        out[section][key] = _parse_value(section, key, raw_value, f"line {lineno}: ")
    return out


def apply_overrides(config: dict[str, dict], overrides: list[str]) -> None:
    """Apply ``section.key=value`` strings in place."""
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        path, _, raw_value = item.partition("=")
        section, _, key = path.strip().partition(".")
        config[section][key] = _parse_value(section, key, raw_value, f"override {item!r}: ")


def resolve(partial: dict[str, dict] | None = None,
            overrides: list[str] | None = None) -> dict[str, dict]:
    """Merge a partial parse over the defaults and apply overrides."""
    config = {section: {key: spec[1] for key, spec in keys.items()}
              for section, keys in SCHEMA.items()}
    for section, keys in (partial or {}).items():
        config[section].update(keys)
    if overrides:
        apply_overrides(config, overrides)
    return config


def render(config: dict[str, dict]) -> str:
    """Canonical serialization: schema order, one key per line."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, spec in keys.items():
            lines.append(f"{key} = {_KINDS[spec[0]][1](config[section][key])}")
        lines.append("")
    return "\n".join(lines)


def config_hash(config: dict[str, dict]) -> str:
    return hashlib.sha256(render(config).encode("utf-8")).hexdigest()[:12]


def mix_seed(run_seed: int, stage_seed: int) -> int:
    """Deterministic combination of the global seed with a stage seed."""
    return (run_seed * 1_000_003 + stage_seed) % (2 ** 63)
