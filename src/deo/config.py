"""Tool configuration: flat key = value files, presets, and secrets.

Config files never hold API keys, only the names of environment variables
that hold them. Unknown keys are rejected so typos fail fast. The optimizer
settings (OPTIMIZER_KEYS) are flat keys in every config file and one nested
OptimizationConfig in every config object.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import MISSING, dataclass, field, fields, replace

from .errors import ConfigError
from .ioutil import utf8_error
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
    """Convert one raw value to kind: 'bool', 'int', 'float', a comma list
    ('tuple[str, ...]' or 'tuple[int, ...]'), ';'-separated a:b:c triples
    ('tuple[tuple[float, float, float], ...]'), else str.

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
        if kind == "tuple[str, ...]":
            return tuple(item.strip() for item in value.split(",") if item.strip())
        if kind == "tuple[int, ...]":
            return tuple(int(item) for item in value.split(",") if item.strip())
        if kind == "tuple[tuple[float, float, float], ...]":
            triples = [chunk.split(":") for chunk in value.split(";") if chunk.strip()]
            if any(len(parts) != 3 for parts in triples):
                raise ValueError(value)
            return tuple(tuple(float(part) for part in parts) for parts in triples)
        return value
    except ValueError:
        raise ConfigError(f"{path}: key {key!r} has invalid value {value!r}") from None


def read_config(path) -> tuple[dict[str, str], str, str]:
    """The key = value mapping of the file at path, the directory its
    relative paths resolve against, and the 12-hex SHA-256 of its bytes."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigError(str(utf8_error(path))) from None
    return (parse_flat_config(text, path), os.path.dirname(os.path.abspath(path)),
            hashlib.sha256(raw).hexdigest()[:12])


def resolve_path(value: str, base_dir: str) -> str:
    """value against base_dir, unless it is absolute or empty."""
    if not value or os.path.isabs(value):
        return value
    return os.path.normpath(os.path.join(base_dir, value))


def build_config(cls, mapping: dict[str, str], path: str = "<config>", base_dir: str = ".",
                 kind: str = "config", **fixed):
    """cls(...) from a flat key = value mapping.

    Each value is parsed by its field's declared type (parse_value). The
    optimizer keys fold into `optimizer` (cls takes them as keywords, see
    accepts_optimizer_keywords), and a field whose metadata has "path"
    resolves against base_dir. `fixed` fields come from the caller, never
    from the file. Unknown keys, missing required fields and values cls
    rejects (ValueError or ConfigError) are ConfigErrors naming the file.
    """
    known = {f.name: f for f in fields(cls) if f.name != "optimizer" and f.name not in fixed}
    kwargs = dict(fixed)
    for key, value in mapping.items():
        if key in OPTIMIZER_KEYS:
            kwargs[key] = parse_value(value, OPTIMIZER_KEYS[key], key, path)
        elif key in known:
            if known[key].metadata.get("path"):
                value = resolve_path(value, base_dir)
            kwargs[key] = parse_value(value, known[key].type, key, path)
        else:
            raise ConfigError(f"{path}: unknown {kind} key {key!r}")
    missing = [name for name, f in known.items() if name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{path}: missing required keys {sorted(missing)}")
    try:
        return cls(**kwargs)
    except (ValueError, ConfigError) as exc:
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


@accepts_optimizer_keywords
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

    def __post_init__(self) -> None:
        # NaN fails the comparison too; a NaN temperature cannot be sent as JSON
        if not 0 <= self.temperature < float("inf"):
            raise ValueError("temperature must be non-negative and finite")
        if self.max_subqueries < 1:
            raise ValueError("max_subqueries must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str], path: str = "<config>") -> "ToolConfig":
        return build_config(cls, mapping, path)

    @classmethod
    def from_file(cls, path) -> "ToolConfig":
        return cls.from_mapping(read_config(path)[0], os.fspath(path))

    def with_preset(self, preset: str) -> "ToolConfig":
        """Apply a named loss-weight preset from optimizer.PRESETS."""
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (expected one of {', '.join(PRESETS)})")
        return replace(self, optimizer=replace(self.optimizer, **PRESETS[preset]))
