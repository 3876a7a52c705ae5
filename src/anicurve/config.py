"""Key-value experiment configuration.

A config is a plain text document of "key = value" lines with "#" comments.
Unknown keys are rejected so that typos cannot silently change a run;
derived quantities (gamma, q, the regime flag) can never be set.
"""

import math
from dataclasses import dataclass, field

from .flow import MODES
from .functionals import critical_offset

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config"]

EXPERIMENTS = ("flow", "soliton", "counterexample", "validate", "barriers")

_DERIVED = {
    "gamma": "gamma is derived from k and beta, it cannot be set",
    "q": "q is derived from alpha, k and beta, it cannot be set",
    "regime": "the regime flag is derived, it cannot be set",
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
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
    dt_min: float = 1e-12
    record_every: int = 50
    c: float = 1.0
    trials: int = 3
    theta: float = 2.0
    samples: int = 1000
    horizon: float = 2.0
    out: str = "out"
    raw: dict = field(default_factory=dict)


def _parse_f(spec: str, lineno: int):
    parts = spec.split()
    kind = parts[0] if parts else ""
    try:
        if kind == "constant":
            value = float(parts[1]) if len(parts) > 1 else 1.0
            return ("constant", value)
        if kind == "power-of-linear":
            return ("power-of-linear", float(parts[1]), float(parts[2]))
        if kind == "table":
            return ("table", parts[1])
    except (IndexError, ValueError):
        raise ConfigError(f"line {lineno}: malformed anisotropy spec {spec!r}") from None
    raise ConfigError(
        f"line {lineno}: unknown anisotropy kind {kind!r} "
        "(use: constant [v] | power-of-linear <eps> <s> | table <path>)"
    )


def _parse_initial(spec: str, lineno: int):
    parts = spec.split()
    kind = parts[0] if parts else ""
    try:
        if kind == "round":
            return ("round", float(parts[1]))
        if kind == "translate":
            return ("translate", float(parts[1]))
        if kind == "spheroid":
            return ("spheroid", float(parts[1]), float(parts[2]))
        if kind == "file":
            return ("file", parts[1])
    except (IndexError, ValueError):
        raise ConfigError(f"line {lineno}: malformed initial-body spec {spec!r}") from None
    raise ConfigError(
        f"line {lineno}: unknown initial-body kind {kind!r} "
        "(use: round <r> | translate <eps> | spheroid <a> <b> | file <path>)"
    )


_SCALARS = {
    "N": int,
    "k": int,
    "record_every": int,
    "trials": int,
    "samples": int,
    "beta": float,
    "alpha": float,
    "t_max": float,
    "tol_conv": float,
    "R_blowup": float,
    "dt_min": float,
    "c": float,
    "theta": float,
    "horizon": float,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a key-value config document."""
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
        if key == "experiment":
            if value not in EXPERIMENTS:
                raise ConfigError(
                    f"line {lineno}: unknown experiment {value!r} (one of {', '.join(EXPERIMENTS)})"
                )
            cfg.experiment = value
        elif key == "mode":
            if value not in MODES:
                raise ConfigError(
                    f"line {lineno}: unknown mode {value!r} (one of {', '.join(MODES)})"
                )
            cfg.mode = value
        elif key == "f":
            cfg.f = _parse_f(value, lineno)
        elif key == "initial":
            cfg.initial = _parse_initial(value, lineno)
        elif key == "out":
            cfg.out = value
        elif key in _SCALARS:
            try:
                setattr(cfg, key, _SCALARS[key](value))
            except ValueError:
                raise ConfigError(f"line {lineno}: cannot parse {key} value {value!r}") from None
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
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
    if not cfg.tol_conv >= 0 or not cfg.t_max > 0 or cfg.record_every < 1:
        raise ConfigError("stopping configuration must be positive")
    if not cfg.R_blowup > 1.0:
        raise ConfigError(f"R_blowup must exceed 1 (R_blowup={cfg.R_blowup:g})")
    if not 0 < cfg.dt_min < float("inf"):
        raise ConfigError("dt_min must be positive and finite")
    if not 0 < cfg.theta < float("inf"):
        raise ConfigError("theta must be positive and finite")
    q = critical_offset(cfg.k, cfg.beta, cfg.alpha)
    if cfg.experiment == "soliton":
        if q > 0:
            raise ConfigError(
                "soliton experiments need alpha <= 1 - k*beta "
                f"(alpha={cfg.alpha:g}, 1-k*beta={1.0 - cfg.k * cfg.beta:g})"
            )
        if cfg.c <= 0:
            raise ConfigError("speed constant c must be positive")
    if cfg.experiment == "counterexample":
        if q <= 0:
            raise ConfigError(
                "counterexample experiments need alpha > 1 - k*beta "
                f"(alpha={cfg.alpha:g}, 1-k*beta={1.0 - cfg.k * cfg.beta:g})"
            )
    if (
        cfg.experiment == "flow"
        and cfg.mode in ("round_normalized", "dual_radial")
        and not (cfg.f[0] == "constant" and cfg.f[1] == 1.0)
    ):
        raise ConfigError(f"{cfg.mode} flow requires f = constant 1")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
