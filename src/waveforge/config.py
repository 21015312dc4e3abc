"""Problem configuration files: a small sectioned key-value format.

A config is standard INI text with four or five sections::

    [problem]
    kind = wave-multiple        ; or wave-distinct, heat-product
    n = 3
    m = 1
    speeds = 1.0

    [data]
    f = sin(x1)*cos(t)          ; optional source
    phi0 = sin(x1)              ; phi0 .. phi{2m-1} (wave) or phi{m-1} (heat)

    [domain]
    x1 = -1:1:5                 ; per-axis lo:hi:count evaluation grid
    x2 = 0:0:1
    x3 = 0:0:1
    t = 0:1:3
    box = 3.14159,3.14159       ; presence of box selects the boundary solver
    k_max = 24

    [quadrature]                ; optional overrides
    n_time = 32

    [output]
    path = out.csv

Unknown sections or keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, WaveforgeError
from .expr import parse
from .heat_solver import check_heat
from .ibvp import DEFAULT_K_MAX, check_box
from .problems import KINDS, CauchyProblem, check_counts
from .quadrature import QuadratureSpec, check_sphere

__all__ = ["GridAxis", "ProblemConfig", "load_config", "parse_config", "dump_config"]

_PROBLEM_KEYS = ("kind", "n", "m", "speeds")
_DOMAIN_FIXED = ("t", "box", "k_max")
_QUAD_KEYS = {"n_time", "n_radial", "sphere_degree"}
_OUTPUT_KEYS = {"path", "format"}
# Most output rows, grid points times times: at 2^20 rows a 1-D box heat
# config (k_max 24), an n = 3 wave config (phi0 = sin(x1), one time) and the
# same with f = 0.4 cos(0.9 t) sin(x1 + 0.5 x2) take 2.3, 6.4 and 46 s on one
# x86-64 core, peaking at 256, 160 and 966 MiB, with CSVs of 72, 123, 123 MB
MAX_ROWS = 1 << 20


@dataclass(frozen=True)
class GridAxis:
    lo: float
    hi: float
    count: int

    def points(self):
        if self.count == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class ProblemConfig:
    problem: CauchyProblem
    axes: tuple[GridAxis, ...]  # one per spatial axis
    t_axis: GridAxis
    box: Optional[tuple[float, ...]]
    k_max: int
    quadrature: QuadratureSpec
    output_path: str
    source_text: Optional[str] = None
    data_texts: tuple = ()


def _axis(raw: str, key: str) -> GridAxis:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"domain key '{key}' must be lo:hi:count, got '{raw}'")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad number in domain key '{key}': {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"domain key '{key}': bounds must be finite, got '{raw}'")
    if count < 1:
        raise ConfigError(f"domain key '{key}': count must be >= 1")
    if count > 1 and not lo < hi:
        raise ConfigError(f"domain key '{key}': need lo < hi for count > 1")
    return GridAxis(lo, hi, count)


def _section(cp, name: str, allowed, required=()):
    """The [name] section, or {} if it is absent, once it holds no key
    outside ``allowed`` and every key of ``required``."""
    sec = cp[name] if name in cp else {}
    unknown = set(sec) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown [{name}] keys: {sorted(unknown)}")
    for key in required:
        if key not in sec:
            raise ConfigError(f"missing [{name}] key '{key}'")
    return sec


def parse_config(text: str) -> ProblemConfig:
    """Parse and validate config text into a ready-to-solve description."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    known_sections = {"problem", "data", "domain", "quadrature", "output"}
    extra = set(cp.sections()) - known_sections
    if extra:
        raise ConfigError(f"unknown sections: {sorted(extra)}")
    for required in ("problem", "domain"):
        if required not in cp:
            raise ConfigError(f"missing [{required}] section")

    prob = _section(cp, "problem", _PROBLEM_KEYS, _PROBLEM_KEYS)
    kind = prob["kind"].strip()
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got '{kind}'")
    try:
        n = int(prob["n"])
        m = int(prob["m"])
        speeds = tuple(float(v) for v in prob["speeds"].split(","))
    except ValueError as exc:
        raise ConfigError(f"bad [problem] value: {exc}") from None
    # before n and m size the lists of data and domain keys
    try:
        check_counts(kind, n, m, speeds)
    except WaveforgeError as exc:
        raise ConfigError(str(exc)) from None

    n_data = 2 * m if kind != "heat-product" else m
    data_keys = [f"phi{r}" for r in range(n_data)]
    sec = _section(cp, "data", data_keys + ["f"])
    source_text = sec.get("f")
    data_texts = [sec.get(key) for key in data_keys]

    def parse_expr(txt, label):
        try:
            return parse(txt, n)
        except WaveforgeError as exc:
            raise ConfigError(f"in {label}: {exc}") from None

    source = parse_expr(source_text, "f") if source_text else None
    data = tuple(
        parse_expr(txt, f"phi{r}") if txt else None
        for r, txt in enumerate(data_texts)
    )

    axis_keys = [f"x{i + 1}" for i in range(n)]
    dom = _section(cp, "domain", [*axis_keys, *_DOMAIN_FIXED], [*axis_keys, "t"])
    axes = [_axis(dom[key], key) for key in axis_keys]
    t_axis = _axis(dom["t"], "t")
    rows = math.prod(ax.count for ax in axes) * t_axis.count
    if rows > MAX_ROWS:
        raise ConfigError(f"the grid has {rows} rows (points times times), "
                          f"more than {MAX_ROWS}")
    box = None
    k_max = DEFAULT_K_MAX
    if "box" in dom:
        try:
            box = tuple(float(v) for v in dom["box"].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad box lengths: {exc}") from None
        if len(box) != n:
            raise ConfigError(
                f"box needs {n} side lengths, got {len(box)}"
            )
    if "k_max" in dom:
        if box is None:
            raise ConfigError("k_max only applies to box problems")
        try:
            k_max = int(dom["k_max"])
        except ValueError as exc:
            raise ConfigError(f"bad k_max: {exc}") from None

    sec = _section(cp, "quadrature", _QUAD_KEYS)
    try:
        quad_kwargs = {key: int(sec[key]) for key in sec}
    except ValueError as exc:
        raise ConfigError(f"bad [quadrature] value: {exc}") from None

    sec = _section(cp, "output", _OUTPUT_KEYS)
    output_path = sec.get("path", "out.csv")
    fmt = sec.get("format", "csv")
    if fmt != "csv":
        raise ConfigError(f"only csv output is supported, got '{fmt}'")

    try:
        problem = CauchyProblem(kind, n, m, speeds, source, data)
        quadrature = QuadratureSpec(**quad_kwargs)
        # each solver family's own dimension checks
        if box is not None:
            check_box(box, k_max)
        elif kind == "heat-product":
            check_heat(n)
        else:
            check_sphere(n, quadrature.sphere_degree)
    except WaveforgeError as exc:
        raise ConfigError(str(exc)) from None

    return ProblemConfig(
        problem=problem,
        axes=tuple(axes),
        t_axis=t_axis,
        box=box,
        k_max=k_max,
        quadrature=quadrature,
        output_path=output_path,
        source_text=source_text,
        data_texts=tuple(data_texts),
    )


def load_config(path: str) -> ProblemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def dump_config(cfg: ProblemConfig) -> str:
    """Canonical config text that reparses to an equivalent config."""
    p = cfg.problem
    lines = [
        "[problem]",
        f"kind = {p.kind}",
        f"n = {p.n}",
        f"m = {p.m}",
        "speeds = " + ",".join(repr(v) for v in p.speeds),
        "",
        "[data]",
    ]
    if cfg.source_text:
        lines.append(f"f = {cfg.source_text}")
    for r, txt in enumerate(cfg.data_texts):
        if txt:
            lines.append(f"phi{r} = {txt}")
    lines += ["", "[domain]"]
    for i, ax in enumerate(cfg.axes):
        lines.append(f"x{i + 1} = {ax.lo!r}:{ax.hi!r}:{ax.count}")
    lines.append(f"t = {cfg.t_axis.lo!r}:{cfg.t_axis.hi!r}:{cfg.t_axis.count}")
    if cfg.box is not None:
        lines.append("box = " + ",".join(repr(v) for v in cfg.box))
        lines.append(f"k_max = {cfg.k_max}")
    q = cfg.quadrature
    lines += [
        "",
        "[quadrature]",
        f"n_time = {q.n_time}",
        f"n_radial = {q.n_radial}",
        f"sphere_degree = {q.sphere_degree}",
        "",
        "[output]",
        f"path = {cfg.output_path}",
        "",
    ]
    return "\n".join(lines)
