"""Experiment configuration: JSON ingestion, patch/curve spec parsing, defaults.

Patch specs are structured text: name, length, halfwidth, kappa and gauss as
numbers or expression strings in `s` (and `t` for gauss), and the grid.  Curve
specs on the command line use a compact form:

    parallel:<c>          constant graph t = c
    cos:<a>,<m>           graph t = a cos(m * 2 pi s / l)
    expr:<python expr>    graph from an expression in s (numpy namespace)
    csv:<path>            sampled graph, CSV rows "s,xi" (spectral derivatives)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .curves import Curve, trig_curve
from .errors import ConfigError
from .surface import (DEFAULT_GRID, BaseCurve, SurfacePatch, check_grid,
                      solve_warp)

__all__ = ["ExperimentConfig", "load_config", "build_patch_from_spec",
           "parse_grid", "parse_curve_spec", "DEFAULT_GRID",
           "DEFAULT_TOLERANCES"]

DEFAULT_TOLERANCES = {
    "taylor_order": 2.9,
    "radial_factor": 2.0,
    "area_residual": 1e-12,
    "contraction_curvature": 1e-6,
    "contraction_tameness": 5e-3,
    "parabola_residual": 1e-6,
    "monotonicity": 1e-8,
    "comparison": 5e-3,
    "lipschitz_slack": 1e-11,
}

ALL_CHECKS = (
    "warp_taylor",
    "exact_shift",
    "contraction_curvature",
    "contraction_tameness",
    "graph_sandwich",
    "graph_curvature_monotone",
    "fiber_norm_parabola",
    "conformal_tameness",
    "radial_hausdorff",
    "contraction_hausdorff",
)

_SAFE_NAMES = {name: getattr(np, name) for name in (
    "sin", "cos", "tan", "exp", "log", "sqrt", "abs", "sinh", "cosh", "tanh",
    "arctan", "arcsin", "arccos", "pi", "e")}
_SAFE_NAMES["np"] = np


def parse_grid(grid) -> tuple[int, int]:
    """Patch grid (n_s, n_t) from a pair of integers or integer strings; a
    malformed or invalid grid is a ConfigError."""
    try:
        # int(64.9) is 64, int(1e999) an OverflowError, and True is an int
        if any(isinstance(n, (bool, float)) for n in grid):
            raise ValueError("entries must be integers")
        n_s, n_t = (int(n) for n in grid)
        check_grid(n_s, n_t)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid {grid!r}, want [n_s, n_t]: {exc}") from exc
    return n_s, n_t


def _expr_callable(spec, variables):
    """Callable (s, t=None) for a number or an expression in `variables`."""
    if isinstance(spec, (int, float)):
        const = float(spec)
        return lambda s, t=None: const + 0.0 * np.asarray(s, dtype=float)
    if not isinstance(spec, str):
        raise ConfigError(f"expression spec must be a number or string: {spec!r}")
    try:
        code = compile(spec, "<config>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {spec!r}: {exc.msg}") from exc
    for name in code.co_names:
        if name not in _SAFE_NAMES and name not in variables:
            raise ConfigError(f"name {name!r} not allowed in expression {spec!r}")

    def fn(s, t=None):
        # parse_curve_spec and the warp march refuse non-finite values
        with np.errstate(all="ignore"):
            return np.asarray(
                eval(code, {"__builtins__": {}}, {**_SAFE_NAMES, "s": s, "t": t}),
                dtype=float) + 0.0 * np.asarray(s, dtype=float)
    return fn


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "out"
    grid: tuple | None = None  # None: DEFAULT_GRID, or the quick suite's own
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    checks: dict = field(default_factory=lambda: {c: True for c in ALL_CHECKS})
    patches: dict = field(default_factory=dict)
    quick: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        cfg = cls()
        known = {"seed", "out_dir", "grid", "tolerances", "checks", "patches",
                 "quick"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.seed = data.get("seed", cfg.seed)
        # int(1.5) is 1, and True is an int
        if type(cfg.seed) is not int or cfg.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        cfg.out_dir = str(data.get("out_dir", cfg.out_dir))
        cfg.quick = data.get("quick", cfg.quick)
        if "grid" in data:
            cfg.grid = parse_grid(data["grid"])
        tols = data.get("tolerances", {})
        for key, val in tols.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {key!r}")
            if not float(val) >= 0:
                raise ConfigError(f"tolerance {key!r} must be nonnegative")
            cfg.tolerances[key] = float(val)
        for key, val in data.get("checks", {}).items():
            if key not in ALL_CHECKS:
                raise ConfigError(f"unknown check {key!r}")
            cfg.checks[key] = val
        # bool("false") is True: only JSON true/false can switch a flag
        if not all(isinstance(v, bool) for v in (cfg.quick, *cfg.checks.values())):
            raise ConfigError("quick and every checks value must be true or false")
        cfg.patches = {name: dict(spec)
                       for name, spec in data.get("patches", {}).items()}
        return cfg


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    try:
        return ExperimentConfig.from_dict(data)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in {path}: {exc}") from exc


def build_patch_from_spec(spec: dict) -> SurfacePatch:
    """Patch from a structured description: name, length, halfwidth,
    kappa/gauss specs, grid; a spec that defines no band is a ConfigError."""
    try:
        length = float(spec["length"])
        halfwidth = float(spec["halfwidth"])
        kappa = _expr_callable(spec.get("kappa", 0.0), ("s",))
        gauss = _expr_callable(spec.get("gauss", 0.0), ("s", "t"))
        grid = parse_grid(spec.get("grid", DEFAULT_GRID))
        base = BaseCurve(length, kappa, gauss,
                         name=str(spec.get("name", "config")))
        return solve_warp(base, halfwidth, grid)
    except KeyError as exc:
        raise ConfigError(f"patch spec missing {exc}") from exc
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad patch spec: {exc}") from exc


def parse_curve_spec(text: str, patch: SurfacePatch, n: int = 2048) -> Curve:
    """Curve from a command-line spec.  An expression that fails to evaluate,
    samples that are not finite, a curve that leaves the band and a `csv:`
    file whose s column is not the uniform grid on [0, l) are ConfigErrors."""
    try:
        curve = _curve_from_spec(text, patch, n)
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(f"bad curve {text!r}: {exc}") from exc
    if not all(np.all(np.isfinite(v)) for v in (curve.xi, curve.dxi, curve.d2xi)):
        raise ConfigError(f"curve {text!r} has non-finite samples")
    return curve


def _curve_from_spec(text: str, patch: SurfacePatch, n: int) -> Curve:
    kind, _, rest = text.partition(":")
    if kind == "parallel":
        try:
            c = float(rest)
        except ValueError as exc:
            raise ConfigError(f"bad parallel spec {text!r}") from exc
        return Curve.constant(patch, c, n=n)
    if kind == "cos":
        try:
            a_str, m_str = rest.split(",")
            a, m = float(a_str), int(m_str)
        except ValueError as exc:
            raise ConfigError(f"bad cos spec {text!r} (want cos:a,m)") from exc
        return trig_curve(patch, {m: a}, n=n, name=f"cos_m{m}_a{a:g}")
    if kind == "expr":
        fn = _expr_callable(rest, ("s",))
        return Curve.from_callables(patch, fn, n=n, name=f"expr_{rest[:24]}")
    if kind == "csv":
        try:
            data = np.loadtxt(rest, delimiter=",", comments="#")
        except OSError as exc:
            raise ConfigError(f"cannot read curve CSV {rest}: {exc}") from exc
        if data.ndim != 2 or data.shape[1] < 2:
            raise ConfigError(f"curve CSV {rest} must have rows s,xi")
        m = data.shape[0]
        grid = np.arange(m) * (patch.length / m)
        if not np.max(np.abs(data[:, 0] - grid)) <= 1e-9 * patch.length:
            raise ConfigError(f"curve CSV {rest}: s must be the uniform grid "
                              f"k*l/{m} on [0, l), l={patch.length:g}")
        return Curve.from_samples(patch, data[:, 1], name=f"csv_{rest}")
    raise ConfigError(f"unknown curve spec {text!r}")
