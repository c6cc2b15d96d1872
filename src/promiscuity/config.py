"""Grid configuration shared by the verification suites and the CLI."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_GRID_DENSITY = 26
DEFAULT_RANGE = (0.0, 2.5)


@dataclass(frozen=True)
class GridConfig:
    """Rectangular (a, s) parameter grid, inclusive of its endpoints."""

    a_min: float = DEFAULT_RANGE[0]
    a_max: float = DEFAULT_RANGE[1]
    s_min: float = DEFAULT_RANGE[0]
    s_max: float = DEFAULT_RANGE[1]
    density: int = DEFAULT_GRID_DENSITY

    def __post_init__(self) -> None:
        if self.density < 2:
            raise ValueError(f"grid density must be >= 2, got {self.density}")
        for key in _FLOAT_KEYS:
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"grid bound {key} must be finite, got {value}")
        if not (0 <= self.a_min <= self.a_max and 0 <= self.s_min <= self.s_max):
            raise ValueError("grid ranges must satisfy 0 <= min <= max")

    def a_values(self) -> list[float]:
        return _axis(self.a_min, self.a_max, self.density)

    def s_values(self) -> list[float]:
        return _axis(self.s_min, self.s_max, self.density)


def _axis(lo: float, hi: float, density: int) -> list[float]:
    step = (hi - lo) / (density - 1)
    return [lo + k * step for k in range(density)]


_FLOAT_KEYS = ("a_min", "a_max", "s_min", "s_max")
_INT_KEYS = ("grid_density",)


def load_config(path: str | Path, base: GridConfig | None = None) -> GridConfig:
    """Apply `key = value` overrides from a config file to a GridConfig.

    Recognized keys: grid_density, a_min, a_max, s_min, s_max.  Blank
    lines and '#' comments are ignored; an unreadable file, unknown keys
    or unparseable values raise ValueError.
    """
    cfg = base if base is not None else GridConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            if key in _FLOAT_KEYS:
                cfg = replace(cfg, **{key: float(value)})
            elif key in _INT_KEYS:
                cfg = replace(cfg, density=int(value))
            else:
                raise ValueError(f"unknown config key {key!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return cfg
