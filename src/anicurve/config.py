"""Key-value experiment configuration.

A config is a plain text document of "key = value" lines with "#" comments.
Unknown keys are rejected so that typos cannot silently change a run;
derived quantities (gamma, q, the regime flag) can never be set.
"""

import math
from dataclasses import dataclass, field, fields

from .flow import MODES
from .functionals import critical_offset

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config"]

EXPERIMENTS = ("flow", "soliton", "counterexample", "barriers")

_DERIVED = {
    "gamma": "gamma is derived from k and beta, it cannot be set",
    "q": "q is derived from alpha, k and beta, it cannot be set",
    "regime": "the regime flag is derived, it cannot be set",
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Every config key with its type and default; raw holds each set key's text."""

    experiment: str = "flow"
    N: int = 200
    k: int = 1
    beta: float = 2.0
    alpha: float = -2.0
    f: tuple = ("constant", 1.0)
    mode: str = "volume_normalized"
    initial: tuple = ("round", 1.0)
    t_max: float = 10.0
    tol_conv: float = 1e-8
    R_blowup: float = 50.0
    record_every: int = 50
    c: float = 1.0
    trials: int = 3
    theta: float = 2.0
    samples: int = 1000
    out: str = "out"
    raw: dict = field(default_factory=dict)


# The kinds of each spec key and their arguments: "<path>" is a file path,
# any other a number, and a bracketed one may be left out, when it is 1.
_SPECS = {
    "f": (
        "anisotropy",
        {"constant": ("[v]",), "power-of-linear": ("<eps>", "<s>"), "table": ("<path>",)},
    ),
    "initial": (
        "initial-body",
        {"round": ("<r>",), "translate": ("<eps>",), "spheroid": ("<a>", "<b>"),
         "file": ("<path>",)},
    ),
}
_CHOICES = {"experiment": EXPERIMENTS, "mode": MODES}
_TYPES = {fld.name: fld.type for fld in fields(ExperimentConfig) if fld.name != "raw"}
_SCALARS = {key for key, typ in _TYPES.items() if typ in (int, float)}


def _parse_spec(key: str, spec: str, lineno: int) -> tuple:
    """(kind, *arguments) of an `f` or `initial` value; a kind takes exactly
    its own arguments."""
    name, kinds = _SPECS[key]
    kind, *words = spec.split() or [""]
    if kind not in kinds:
        use = " | ".join(" ".join((k, *args)) for k, args in kinds.items())
        raise ConfigError(f"line {lineno}: unknown {name} kind {kind!r} (use: {use})")
    args = kinds[kind]
    required = [arg for arg in args if not arg.startswith("[")]
    try:
        if not len(required) <= len(words) <= len(args):
            raise ValueError
        values = [word if arg == "<path>" else float(word) for arg, word in zip(args, words)]
    except ValueError:
        raise ConfigError(f"line {lineno}: malformed {name} spec {spec!r}") from None
    return (kind, *values, *[1.0] * (len(args) - len(words)))


def _parse_scalar(key: str, value: str, where: str):
    """The value of a scalar key (or of out) from its text; where prefixes
    the error, a config line or --sweep."""
    try:
        return _TYPES[key](value)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {key} value {value!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and check a key-value config document."""
    cfg = ExperimentConfig()
    seen = set()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _DERIVED:
            raise ConfigError(f"line {lineno}: {_DERIVED[key]}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in _CHOICES:
            if value not in _CHOICES[key]:
                raise ConfigError(
                    f"line {lineno}: unknown {key} {value!r} (one of {', '.join(_CHOICES[key])})"
                )
            setattr(cfg, key, value)
        elif key in _SPECS:
            setattr(cfg, key, _parse_spec(key, value, lineno))
        else:
            setattr(cfg, key, _parse_scalar(key, value, f"line {lineno}"))
        cfg.raw[key] = value
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.N < 16:
        raise ConfigError("N must be at least 16")
    if cfg.k not in (1, 2):
        raise ConfigError("k must be 1 or 2")
    # written so that NaN fails every test
    if not cfg.beta * cfg.k > 1.0:
        raise ConfigError(f"beta must exceed 1/k (beta={cfg.beta:g}, k={cfg.k})")
    if not (math.isfinite(cfg.beta) and math.isfinite(cfg.alpha)):
        raise ConfigError(f"beta and alpha must be finite (beta={cfg.beta:g}, alpha={cfg.alpha:g})")
    if cfg.f[0] == "constant" and cfg.f[1] <= 0:
        raise ConfigError("anisotropy must be positive")
    if not (0 <= cfg.tol_conv < math.inf and 0 < cfg.t_max < math.inf) or cfg.record_every < 1:
        raise ConfigError("stopping configuration must be positive and finite")
    if not cfg.R_blowup > 1.0:
        raise ConfigError(f"R_blowup must exceed 1 (R_blowup={cfg.R_blowup:g})")
    if not 0 < cfg.theta < float("inf"):
        raise ConfigError("theta must be positive and finite")
    if cfg.samples < 2:
        raise ConfigError(f"samples must be at least 2 (samples={cfg.samples})")
    q = critical_offset(cfg.k, cfg.beta, cfg.alpha)
    # the side of the critical line q = 0 that each experiment needs; the
    # exact barriers are the round solutions of the isotropic flow below it
    need, holds = {"soliton": ("<=", q <= 0), "counterexample": (">", q > 0),
                   "barriers": ("<", q < 0)}.get(cfg.experiment, ("", True))
    if not holds:
        raise ConfigError(
            f"{cfg.experiment} experiments need alpha {need} 1 - k*beta "
            f"(alpha={cfg.alpha:g}, 1-k*beta={1.0 - cfg.k * cfg.beta:g})"
        )
    if cfg.experiment == "soliton" and not 0 < cfg.c < float("inf"):
        raise ConfigError("speed constant c must be positive and finite")
    if cfg.experiment == "barriers":
        if cfg.initial[0] != "round":
            raise ConfigError("barriers experiments need initial = round <r>")
        if "mode" in cfg.raw and cfg.mode != "round_normalized":
            raise ConfigError("barriers experiments run mode = round_normalized")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
