"""Run configuration: named presets, config-file/flag resolution, hashing.

Precedence is flags > config file > preset. Every run serializes its resolved
config next to its artifacts so a run can be reproduced from that file alone.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

PRESETS: dict[str, dict] = {
    "tiny": {
        "preset": "tiny",
        "seed": 0,
        "encoder": {
            "hidden": 64,
            "ffn": 256,
            "layers": 2,
            "heads": 4,
            "codebook_size": 32,
            "patch_dim": 256,
            "max_time_patches": 512,
            "positional": "learned",
        },
        "training": {
            "updates": 3000,
            "warmup": 150,
            "peak_lr": 1e-3,
            "decay_shape": "linear",
            "batch_seconds": 40.0,
            "mask_ratio": 0.75,
            "beta1": 0.9,
            "beta2": 0.98,
            "eps": 1e-6,
            "weight_decay": 0.01,
            "checkpoint_every": 250,
            "log_every": 1,
        },
        "tokenizer": {
            "layers": 1,
            "predictor_layers": 3,
            "ema_decay": 0.95,
            "updates": 500,
            "warmup": 50,
            "peak_lr": 1e-3,
            "batch_seconds": 40.0,
            "kmeans_samples": 4096,
        },
        "probe": {
            "epochs": 500,
            "lr": 0.05,
            "patience": 60,
            "pooling": "mean",
            "seeds": 3,
            "weight_decay": 1e-4,
        },
        "finetune": {
            "epochs": 10,
            "head_lr": 1e-3,
            "encoder_lr_scale": 0.1,
            "batch_clips": 16,
        },
        "plan": {"iterations": 3},
    },
    "base": {
        "preset": "base",
        "seed": 0,
        "encoder": {
            "hidden": 768,
            "ffn": 3072,
            "layers": 12,
            "heads": 12,
            "codebook_size": 1024,
            "patch_dim": 256,
            "max_time_patches": 512,
            "positional": "learned",
        },
        "training": {
            "updates": 400_000,
            "warmup": 40_000,
            "peak_lr": 5e-4,
            "decay_shape": "linear",
            "batch_seconds": 10_700.0,
            "mask_ratio": 0.75,
            "beta1": 0.9,
            "beta2": 0.98,
            "eps": 1e-6,
            "weight_decay": 0.01,
            "checkpoint_every": 5000,
            "log_every": 20,
        },
        "tokenizer": {
            "layers": 6,
            "predictor_layers": 3,
            "ema_decay": 0.99,
            "updates": 100_000,
            "warmup": 10_000,
            "peak_lr": 5e-4,
            "batch_seconds": 10_700.0,
            "kmeans_samples": 65_536,
        },
        "probe": {
            "epochs": 300,
            "lr": 0.05,
            "patience": 30,
            "pooling": "mean",
            "seeds": 3,
            "weight_decay": 1e-4,
        },
        "finetune": {
            "epochs": 10,
            "head_lr": 1e-4,
            "encoder_lr_scale": 0.1,
            "batch_clips": 16,
        },
        "plan": {"iterations": 3},
    },
}

PRESETS["large"] = copy.deepcopy(PRESETS["base"])
PRESETS["large"]["preset"] = "large"
PRESETS["large"]["encoder"].update(hidden=1024, ffn=4096, layers=24, heads=16)
PRESETS["large"]["training"]["peak_lr"] = 1e-4
PRESETS["large"]["tokenizer"]["peak_lr"] = 1e-4


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])


def _coerce(raw: str, like) -> object:
    if isinstance(like, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot parse {raw!r} as bool")
    if isinstance(like, int) and not isinstance(like, bool):
        return int(raw)
    if isinstance(like, float):
        return float(raw)
    return raw


def apply_override(config: dict, dotted: str) -> None:
    """Apply one ``section.key=value`` override in place; unknown keys rejected."""
    if "=" not in dotted:
        raise ConfigError(f"override {dotted!r} must look like section.key=value")
    path, raw = dotted.split("=", 1)
    keys = path.strip().split(".")
    node = config
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"unknown config key {path!r}")
        node = node[key]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key {path!r}")
    node[leaf] = _coerce(raw, node[leaf])


def _merge_checked(base: dict, update: dict, prefix: str = "") -> None:
    for key, value in update.items():
        if key not in base:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {prefix + key!r} expects a section")
            _merge_checked(base[key], value, prefix + key + ".")
        else:
            base[key] = value


def resolve_config(
    preset: str = "tiny",
    config_file: str | Path | None = None,
    overrides: list[str] | None = None,
    seed: int | None = None,
) -> dict:
    config = preset_config(preset)
    if config_file is not None:
        loaded = json.loads(Path(config_file).read_text())
        if "preset" in loaded and loaded["preset"] != preset:
            config = preset_config(loaded["preset"])
        _merge_checked(config, loaded)
    for dotted in overrides or []:
        apply_override(config, dotted)
    if seed is not None:
        config["seed"] = int(seed)
    return config


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def save_resolved(config: dict, workdir: str | Path) -> Path:
    path = Path(workdir) / "resolved_config.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2, sort_keys=True))
    return path


@dataclass(frozen=True)
class EncoderConfig:
    hidden: int
    ffn: int
    layers: int
    heads: int
    codebook_size: int
    patch_dim: int = 256
    max_time_patches: int = 512
    positional: str = "learned"

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ConfigError(f"heads {self.heads} must divide hidden {self.hidden}")
        if self.codebook_size < 2:
            raise ConfigError(f"codebook size must be >= 2, got {self.codebook_size}")
        if self.positional not in ("learned", "none"):
            raise ConfigError(f"unknown positional scheme {self.positional!r}")

    @classmethod
    def from_dict(cls, section: dict) -> "EncoderConfig":
        return cls(**section)
