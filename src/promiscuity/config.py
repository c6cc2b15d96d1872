"""Grid configuration shared by the verification suites and the CLI."""
from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path

DEFAULT_GRID_DENSITY = 26
DEFAULT_RANGE = (0.0, 2.5)


class GridConfig(namedtuple("GridConfig", "a_min a_max s_min s_max density",
                            defaults=(*DEFAULT_RANGE, *DEFAULT_RANGE, DEFAULT_GRID_DENSITY))):
    """Rectangular (a, s) parameter grid, inclusive of its endpoints."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GridConfig:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            _check_setting(name, value)
        if not (self.a_min <= self.a_max and self.s_min <= self.s_max):
            raise ValueError(f"grid ranges must satisfy min <= max, got {self}")
        return self

    def a_values(self) -> list[float]:
        return _axis(self.a_min, self.a_max, self.density)

    def s_values(self) -> list[float]:
        return _axis(self.s_min, self.s_max, self.density)


def _check_setting(name: str, value) -> None:
    """Check one grid setting against its own rule: density >= 2, bounds finite and >= 0."""
    if name == "density":
        if value < 2:
            raise ValueError(f"grid density must be >= 2, got {value}")
    elif not math.isfinite(value):
        raise ValueError(f"grid bound {name} must be finite, got {value}")
    elif value < 0:
        raise ValueError(f"grid bound {name} must be non-negative, got {value}")


def _axis(lo: float, hi: float, density: int) -> list[float]:
    step = (hi - lo) / (density - 1)
    return [lo + k * step for k in range(density)]


_FLOAT_KEYS = ("a_min", "a_max", "s_min", "s_max")


def load_config(path: str | Path) -> dict:
    """The GridConfig fields that a `key = value` config file sets.

    Recognized keys: grid_density, a_min, a_max, s_min, s_max.  Blank
    lines and '#' comments are ignored.  Each value is checked against its
    own rule; min <= max is left to the GridConfig of the merged settings.
    An unreadable file, unknown keys or broken values raise ValueError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            if key in _FLOAT_KEYS:
                name, number = key, float(value)
            elif key == "grid_density":
                name, number = "density", int(value)
            else:
                raise ValueError(f"unknown config key {key!r}")
            _check_setting(name, number)
            settings[name] = number
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return settings
