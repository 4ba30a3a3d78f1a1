"""Tool configuration: flat key = value files, presets, and secrets.

Config files never hold API keys, only the names of environment variables
that hold them. Unknown keys are rejected so typos fail fast. The optimizer
settings (OPTIMIZER_KEYS) are flat keys in every config file and one nested
OptimizationConfig in every config object.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace

from .clients import ClientConfig
from .errors import ConfigError
from .optimizer import PRESETS, OptimizationConfig

# Adam's constants are fixed; every other optimizer field is a config key.
OPTIMIZER_KEYS = {f.name: f.type for f in fields(OptimizationConfig)
                  if f.name not in ("beta1", "beta2", "epsilon")}


def parse_flat_config(text: str, path: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_value(value: str, kind: str, key: str, path: str):
    """Convert one raw value to kind ('bool', 'int', 'float', else str).

    A value that does not parse is a ConfigError naming the file and key.
    """
    try:
        if kind == "bool":
            lowered = value.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(value)
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        return value
    except ValueError:
        raise ConfigError(f"{path}: key {key!r} has invalid value {value!r}") from None


def split_optimizer_keys(
    mapping: dict[str, str], path: str
) -> tuple[OptimizationConfig, dict[str, str]]:
    """Parse the flat optimizer keys of a config mapping.

    Returns the OptimizationConfig they describe (defaults for absent keys)
    and the mapping's other keys.
    """
    rest = dict(mapping)
    kwargs = {key: parse_value(rest.pop(key), kind, key, path)
              for key, kind in OPTIMIZER_KEYS.items() if key in rest}
    try:
        return OptimizationConfig(**kwargs), rest
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def accepts_optimizer_keywords(cls):
    """Let cls(...) also take the flat optimizer keys as keywords, folded
    into its nested `optimizer`, as config files do."""
    init = cls.__init__

    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        flat = {key: kwargs.pop(key) for key in OPTIMIZER_KEYS if key in kwargs}
        if flat:
            kwargs["optimizer"] = replace(kwargs.get("optimizer", OptimizationConfig()), **flat)
        init(self, *args, **kwargs)

    cls.__init__ = __init__
    return cls


@dataclass(frozen=True)
class ToolConfig:
    """Everything the CLI needs to talk to endpoints and run the optimizer."""

    chat_base_url: str = "https://api.openai.com"
    chat_model: str = "gpt-4.1-nano"
    chat_api_key_env: str = "OPENAI_API_KEY"
    temperature: float = 0.1
    embed_base_url: str = "https://api.openai.com"
    embed_model: str = "text-embedding-3-small"
    embed_api_key_env: str = "OPENAI_API_KEY"
    optimizer: OptimizationConfig = field(default_factory=OptimizationConfig)
    max_subqueries: int = 8
    batch_size: int = 64
    concurrency: int = 4
    timeout: float = 60.0
    max_retries: int = 3

    @classmethod
    def from_mapping(cls, mapping: dict[str, str], path: str = "<config>") -> "ToolConfig":
        optimizer, rest = split_optimizer_keys(mapping, path)
        known = {f.name: f.type for f in fields(cls) if f.name != "optimizer"}
        kwargs = {}
        for key, value in rest.items():
            if key not in known:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            kwargs[key] = parse_value(value, known[key], key, path)
        return cls(optimizer=optimizer, **kwargs)

    @classmethod
    def from_file(cls, path) -> "ToolConfig":
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return cls.from_mapping(parse_flat_config(text, str(path)), str(path))

    def with_preset(self, preset: str) -> "ToolConfig":
        """Apply a named loss-weight preset from optimizer.PRESETS."""
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (expected one of {', '.join(PRESETS)})")
        return replace(self, optimizer=replace(self.optimizer, **PRESETS[preset]))

    def chat_client_config(self) -> ClientConfig:
        return ClientConfig(
            base_url=self.chat_base_url,
            api_key_env=self.chat_api_key_env,
            timeout=self.timeout,
            max_retries=self.max_retries,
        )

    def embed_client_config(self) -> ClientConfig:
        return ClientConfig(
            base_url=self.embed_base_url,
            api_key_env=self.embed_api_key_env,
            timeout=self.timeout,
            max_retries=self.max_retries,
        )
