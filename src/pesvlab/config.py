"""Strict line-oriented key=value configuration files.

Sections are ``[problem]``, ``[network]``, ``[loss]``, ``[optimizer]`` and
``[bounds]``; unknown sections or keys are hard errors carrying the line
number, as are malformed values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, TypeVar

__all__ = [
    "ConfigError", "RunConfig", "finite", "nonnegative", "parse_config", "parse_widths_spec",
    "positive",
]

_T = TypeVar("_T")

_ALLOWED: dict[str, set[str]] = {
    "problem": {
        "d",
        "n",
        "sigma_eps",
        "seed",
        "teacher_file",
        "teacher_widths",
        "teacher_seed",
    },
    "network": {"widths", "activation"},
    "loss": {"kind", "range_bound"},
    "optimizer": {
        "step_size",
        "max_iters",
        "schedule",
        "tolerance",
        "regularizer",
        "lambda",
        "seed",
    },
    "bounds": {
        "n",
        "d",
        "L",
        "L_sigma",
        "sigma_eps",
        "M",
        "c",
        "C",
        "C1",
        "widths",
        "pattern",
    },
}


class ConfigError(ValueError):
    """Bad configuration; message carries file/line/field diagnostics."""


@dataclass
class RunConfig:
    sections: dict[str, dict[str, str]] = field(default_factory=dict)
    path: str = "<config>"

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    def get_parsed(
        self, section: str, key: str, parse: Callable[[str], _T], default: _T | None = None
    ) -> _T | None:
        """The value read by ``parse``, or ``default`` when the key is absent.
        A ``ValueError`` from ``parse`` becomes a ``ConfigError`` naming the
        file, the section and the key."""
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: [{section}] {key}={raw!r}: {exc}") from None

    def get_int_list(self, section: str, key: str) -> list[int] | None:
        """A comma list of positive integers, such as widths or a width pattern."""
        return self.get_parsed(section, key, _positive_int_list)


def positive(parse: Callable[[str], _T]) -> Callable[[str], _T]:
    """``parse``, rejecting a value that is not finite or not above zero
    with ``ValueError``."""
    return _checked(parse, lambda value: value > 0, "must be positive")


def nonnegative(parse: Callable[[str], _T]) -> Callable[[str], _T]:
    """``parse``, rejecting a value that is not finite or not zero or above
    with ``ValueError``."""
    return _checked(parse, lambda value: value >= 0, "must be nonnegative")


def finite(value: float) -> float:
    """``value``, rejecting ``inf``, ``-inf`` and ``nan`` with ``ValueError``."""
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _checked(
    parse: Callable[[str], _T], accept: Callable[[_T], bool], message: str
) -> Callable[[str], _T]:
    def parse_checked(raw: str) -> _T:
        value = parse(raw)
        if isinstance(value, float):  # an int is never inf or nan
            finite(value)
        if not accept(value):
            raise ValueError(message)
        return value

    return parse_checked


def _positive_int_list(raw: str) -> list[int]:
    items = [v.strip() for v in raw.split(",")]
    if not any(items):
        raise ValueError("needs at least one value")
    if not all(items):
        raise ValueError("has an empty item")
    values = [int(v) for v in items]
    if any(v < 1 for v in values):
        raise ValueError("values must be integers >= 1")
    return values


def parse_config(path: str) -> RunConfig:
    cfg = RunConfig(path=str(path))
    section = None
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if text.startswith("[") and text.endswith("]"):
                section = text[1:-1].strip()
                if section not in _ALLOWED:
                    raise ConfigError(
                        f"{path}:{lineno}: unknown section [{section}]"
                    )
                cfg.sections.setdefault(section, {})
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            if section is None:
                raise ConfigError(f"{path}:{lineno}: key outside any section")
            key, _, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _ALLOWED[section]:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} in section [{section}]"
                )
            if key in cfg.sections[section]:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key!r} in section [{section}]"
                )
            cfg.sections[section][key] = value
    return cfg


def parse_widths_spec(spec: str) -> list[int]:
    """Parse a width grid, either ``lo..hi`` or an explicit comma list, of
    strictly ascending positive widths; a bad grid raises ``ValueError``."""
    if ".." in spec:
        lo_s, _, hi_s = spec.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ValueError("bad width range") from None
        if lo < 1 or hi < lo:
            raise ValueError("bad width range")
        return list(range(lo, hi + 1))
    try:
        widths = _positive_int_list(spec)
    except ValueError as exc:
        raise ValueError(f"bad widths list: {exc}") from None
    if any(b <= a for a, b in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly ascending")
    return widths
