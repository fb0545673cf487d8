"""Pipeline configuration: defaults, key=value files, flag overrides."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple, Union

from .errors import ConfigError


@dataclass(frozen=True)
class PipelineConfig:
    minsup: Union[int, str] = "10%"  # absolute count, or percent of sequences
    minsig: float = 0.01
    minpro: float = 0.39
    w1: float = 0.0
    w2: float = 1.0
    k: int = 9
    zeta: float = 120.0
    min_p: float = 0.25
    segment: str = "by_day"  # or "by_gap:<minutes>"
    seed: int = 0
    y_weights: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    window: float = 60.0
    waits: Optional[str] = None
    max_len: int = 20
    epsilon: float = 1.0
    involvement: float = 0.5

    def validate(self) -> "PipelineConfig":
        _parse_minsup(self.minsup)
        for name in sorted(_FLOAT_KEYS):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not math.isclose(self.w1 + self.w2, 1.0, abs_tol=1e-9):
            raise ConfigError(f"w1 + w2 must equal 1, got {self.w1} + {self.w2}")
        if self.w1 < 0 or self.w2 < 0:
            raise ConfigError("proximity weights must be nonnegative")
        for name in ("minsig", "minpro", "zeta"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not 0.0 <= self.min_p <= 1.0:
            raise ConfigError("min_p must lie in [0, 1]")
        if not 0.0 <= self.involvement <= 1.0:
            raise ConfigError("involvement must lie in [0, 1]")
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if not 0 < self.window < _MAX_MINUTES:
            raise ConfigError(f"window must be positive and below {_MAX_MINUTES:.3g}")
        if self.max_len < 2:
            raise ConfigError("max_len must be at least 2")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if len(self.y_weights) != 3 or not all(
            math.isfinite(w) and w >= 0 for w in self.y_weights
        ):
            raise ConfigError("y_weights must be three finite nonnegative numbers")
        self.segment_policy()
        return self

    def resolve_minsup(self, n_sequences: int) -> int:
        kind, value = _parse_minsup(self.minsup)
        if kind == "absolute":
            return int(value)
        return max(1, math.ceil(value / 100.0 * n_sequences))

    def segment_policy(self) -> Tuple[str, Optional[int]]:
        if self.segment == "by_day":
            return "by_day", None
        if self.segment.startswith("by_gap:"):
            try:
                minutes = float(self.segment.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"bad segment spec {self.segment!r}") from None
            if not 0 <= minutes < _MAX_MINUTES:
                raise ConfigError(f"by_gap minutes must lie in [0, {_MAX_MINUTES:.3g})")
            return "by_gap", int(minutes * 60)
        raise ConfigError(f"unknown segmentation policy {self.segment!r}")

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def parse_y_weights(raw: str) -> Tuple[float, float, float]:
    """Three recognition weights separated by commas or spaces."""
    try:
        weights = tuple(float(p) for p in raw.replace(",", " ").split())
    except ValueError:
        weights = ()
    if len(weights) != 3:
        raise ConfigError(f"y_weights needs three numbers, got {raw!r}")
    return weights


def _parse_minsup(raw) -> Tuple[str, float]:
    if isinstance(raw, str) and raw.endswith("%"):
        try:
            pct = float(raw[:-1])
        except ValueError:
            raise ConfigError(f"bad minsup {raw!r}") from None
        if not 0 < pct <= 100:
            raise ConfigError(f"percent minsup must lie in (0, 100], got {pct}")
        return "percent", pct
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"bad minsup {raw!r}") from None
    if value < 1:
        raise ConfigError(f"absolute minsup must be >= 1, got {value}")
    return "absolute", float(value)


# a length in minutes is turned into whole seconds; above this it overflows
_MAX_MINUTES = sys.float_info.max / 60

_INT_KEYS = {"k", "seed", "max_len"}
_FLOAT_KEYS = {"minsig", "minpro", "w1", "w2", "zeta", "min_p", "window",
               "epsilon", "involvement"}
_STR_KEYS = {"segment", "waits"}


def _coerce(key: str, raw: str):
    if key == "minsup":
        return raw if raw.endswith("%") else int(raw)
    if key == "y_weights":
        return parse_y_weights(raw)
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    if key in _STR_KEYS:
        return raw
    raise ConfigError(f"unknown configuration key {key!r}")


def read_config_file(path) -> dict:
    """Parse `key = value` lines; # starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc.reason}") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            try:
                values[key] = _coerce(key, value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}") from None
    return values


def build_config(file_path=None, overrides: Optional[dict] = None) -> PipelineConfig:
    """Layer defaults, an optional config file, then explicit overrides."""
    config = PipelineConfig()
    if file_path:
        config = replace(config, **read_config_file(file_path))
    cleaned = {k: v for k, v in (overrides or {}).items() if v is not None}
    if cleaned:
        unknown = set(cleaned) - {f.name for f in fields(PipelineConfig)}
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        config = replace(config, **cleaned)
    return config.validate()
