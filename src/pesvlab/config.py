"""Strict line-oriented key=value configuration files.

:data:`KEYS` declares every key of the ``[problem]``, ``[network]``,
``[loss]``, ``[optimizer]`` and ``[bounds]`` sections once, with its parser
and default.  :func:`parse_config` parses each value as it reads the file,
and every error names ``file:line`` (or the file, for a key it lacks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from . import erm, theory
from .netcore import ActivationSpec, load_network

__all__ = [
    "KEYS", "ConfigError", "RunConfig", "finite", "nonnegative", "parse_config",
    "parse_widths_spec", "positive", "sample_count",
]

_T = TypeVar("_T")


class ConfigError(ValueError):
    """Bad configuration; message carries file/line/field diagnostics."""


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


def sample_count(raw: str) -> float:
    """A bound's sample count, which its ``log n`` terms need to be at least 2."""
    n = finite(float(raw))
    if n < 2:
        raise ValueError("must be at least 2")
    return n


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


def _teacher_file(raw: str) -> erm.TeacherSpec:
    """The teacher network that ``save_network`` wrote to the path ``raw``."""
    try:
        params, act = load_network(raw)
    except OSError as exc:
        raise ValueError(exc.strerror or str(exc)) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a saved network ({type(exc).__name__}: {exc})") from None
    return erm.TeacherSpec.create(params, act)


def _loss_kind(raw: str) -> str:
    """A loss spec, checked now and built once the working range is known."""
    erm.LossSpec.parse(raw, 1.0)
    return raw


# (section, key) -> (parser, default).  A parser raises ValueError on a bad
# value.  A default of None means the key has no value unless the file gives
# one; a command that needs it says so.
KEYS: dict[tuple[str, str], tuple[Callable[[str], object], object]] = {
    ("problem", "d"): (positive(int), None),
    ("problem", "n"): (positive(int), None),
    ("problem", "sigma_eps"): (nonnegative(float), 0.0),
    ("problem", "seed"): (nonnegative(int), 0),
    ("problem", "teacher_file"): (_teacher_file, None),
    ("problem", "teacher_widths"): (_positive_int_list, None),
    ("problem", "teacher_seed"): (nonnegative(int), 11),
    ("network", "widths"): (_positive_int_list, None),
    ("network", "activation"): (ActivationSpec.parse, ActivationSpec.relu()),
    ("loss", "kind"): (_loss_kind, "mse"),
    ("loss", "range_bound"): (positive(float), None),  # None: derived from the teacher
    ("optimizer", "step_size"): (positive(float), erm.OptimizerConfig.step_size),
    ("optimizer", "max_iters"): (positive(int), erm.OptimizerConfig.max_iters),
    ("optimizer", "schedule"): (erm.OptimizerConfig.parse_schedule, erm.OptimizerConfig.schedule),
    ("optimizer", "tolerance"): (nonnegative(float), erm.OptimizerConfig.tolerance),
    ("optimizer", "regularizer"): (erm.Penalty.parse, erm.Penalty("pesv")),
    ("optimizer", "lambda"): (nonnegative(float), 0.0),
    ("optimizer", "seed"): (nonnegative(int), 0),
    # [bounds] n, d and sigma_eps fall back to [problem] (RunConfig.bound_config).
    ("bounds", "n"): (sample_count, None),
    ("bounds", "d"): (positive(int), None),
    ("bounds", "L"): (int, None),
    ("bounds", "L_sigma"): (positive(float), theory.BoundConfig.L_sigma),
    ("bounds", "sigma_eps"): (nonnegative(float), None),
    ("bounds", "M"): (nonnegative(float), theory.BoundConfig.M),
    ("bounds", "c"): (positive(float), theory.BoundConfig.c),
    ("bounds", "C"): (positive(float), theory.BoundConfig.C),
    ("bounds", "C1"): (positive(float), theory.BoundConfig.C1),
    ("bounds", "widths"): (parse_widths_spec, None),
    ("bounds", "pattern"): (_positive_int_list, (1,)),
}

_SECTIONS = {section for section, _ in KEYS}


@dataclass
class RunConfig:
    """A parsed config file: the value of each key it gives, and the line
    and text that value came from."""

    path: str = "<config>"
    values: dict[tuple[str, str], object] = field(default_factory=dict)
    given: dict[tuple[str, str], tuple[int, str]] = field(default_factory=dict)

    def __getitem__(self, key: tuple[str, str]):
        """The value of ``(section, key)``: the file's, or else the default."""
        return self.values[key] if key in self.values else KEYS[key][1]

    def error(self, key: tuple[str, str], reason: str) -> ConfigError:
        """An error about the value the file gives ``key``, at its line."""
        line, raw = self.given[key]
        return ConfigError(f"{self.path}:{line}: [{key[0]}] {key[1]}={raw!r}: {reason}")

    def parse(self, key: tuple[str, str], parser: Callable[[str], _T]) -> _T:
        """The file's text for ``key`` read by ``parser``, which raises ``ValueError``."""
        try:
            return parser(self.given[key][1])
        except ValueError as exc:
            raise self.error(key, str(exc)) from None

    def need(self, key: tuple[str, str]):
        """The value of ``key``; a ``ConfigError`` when it has none."""
        value = self[key]
        if value is None:
            raise ConfigError(f"{self.path}: need [{key[0]}] {key[1]}")
        return value

    def teacher(self) -> erm.TeacherSpec:
        """``teacher_file``'s network, or else the documented teacher of
        ``teacher_widths``, ``d`` and ``teacher_seed``."""
        teacher = self["problem", "teacher_file"]
        if teacher is not None:
            for key in ("teacher_widths", "teacher_seed"):
                if ("problem", key) in self.given:
                    raise self.error(("problem", key), "teacher_file gives the teacher")
            d = self["problem", "d"]
            if d is not None and d != teacher.teacher.input_dim:
                raise self.error(
                    ("problem", "d"), f"teacher_file's network has d = {teacher.teacher.input_dim}"
                )
            return teacher
        widths = self["problem", "teacher_widths"]
        if widths is None:
            raise ConfigError(f"{self.path}: need [problem] teacher_file or teacher_widths")
        d = self.need(("problem", "d"))
        return erm.documented_teacher(d, tuple(widths), self["problem", "teacher_seed"])

    def loss(self, teacher: erm.TeacherSpec) -> erm.LossSpec:
        """The ``[loss]`` kind over ``range_bound``, or else over the working
        range derived from ``teacher`` and ``[problem] sigma_eps``."""
        base = self["loss", "range_bound"]
        if base is None:
            base = erm.LossSpec.mse_for(teacher, self["problem", "sigma_eps"]).range_bound
        return erm.LossSpec.parse(self["loss", "kind"], base)

    def optimizer(self) -> erm.OptimizerConfig:
        """The subgradient descent settings of ``[optimizer]``."""
        keys = ("step_size", "max_iters", "tolerance", "schedule")
        return erm.OptimizerConfig(**{key: self["optimizer", key] for key in keys})

    def bound_config(self) -> tuple[theory.BoundConfig, tuple[int, ...]]:
        """The bound settings and the width pattern; the depth is
        ``len(pattern) + 1``.  Without ``[bounds] n``, ``d`` or ``sigma_eps``
        the bound reads ``[problem]``'s, and ``[problem] n`` must then be a
        sample count too."""
        n, d, sigma = (self["bounds", k] for k in ("n", "d", "sigma_eps"))
        if n is None and ("problem", "n") in self.given:
            n = self.parse(("problem", "n"), sample_count)
        d = self["problem", "d"] if d is None else d
        sigma = self["problem", "sigma_eps"] if sigma is None else sigma
        missing = [k for k, v in (("n", n), ("d", d)) if v is None]
        if missing:
            keys = " and ".join(f"[bounds] {k} (or [problem] {k})" for k in missing)
            raise ConfigError(f"{self.path}: bound evaluation needs {keys}")
        pattern = tuple(self["bounds", "pattern"])
        depth = len(pattern) + 1
        if self["bounds", "L"] not in (None, depth):
            raise self.error(
                ("bounds", "L"),
                f"disagrees with pattern={','.join(map(str, pattern))}, which gives depth {depth}",
            )
        consts = {k: self["bounds", k] for k in ("L_sigma", "M", "c", "C", "C1")}
        return theory.BoundConfig(n=n, d=d, L=depth, sigma_eps=sigma, **consts), pattern


def parse_config(path: str) -> RunConfig:
    """Read the config file at ``path``, parsing each value as it is read."""
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
                if section not in _SECTIONS:
                    raise ConfigError(
                        f"{path}:{lineno}: unknown section [{section}]"
                    )
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            if section is None:
                raise ConfigError(f"{path}:{lineno}: key outside any section")
            name, _, value = text.partition("=")
            key = (section, name.strip())
            if key not in KEYS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key[1]!r} in section [{section}]"
                )
            if key in cfg.given:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key[1]!r} in section [{section}]"
                )
            cfg.given[key] = (lineno, value.strip())
            cfg.values[key] = cfg.parse(key, KEYS[key][0])
    return cfg
