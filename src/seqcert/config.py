"""Experiment configuration: a sectioned key-value text file.

Grammar (INI-style, parsed by configparser, '#' comments allowed):

    [space]           optional ambient override: tag = sup|ell_p|james|lin,
                      p = ... (ell_p and james only)
    [sequence]        builtin = <name>, n = <int >= 1>   (or csv = <path>)
    [map NAME]        variant = diag_shift|right_shift|bilateral|geometric,
                      theta = <real in (0,1)> (diag_shift only),
                      policy = grow|fold_tail (not bilateral; geometric:
                      fold_tail only)
    [blocks]          sets = 1,2 | 3,4   weights = 1/2,1/2 | 1/2,1/2
    [check NAME]      kind = <a key of seqcert.checks.CHECKS>, plus the
                      parameters that kind declares there
    [orbit]           map = NAME, x = delta:<i>|<coeff list>, y = ...,
                      n_window = <int >= 0>
    [run]             seed = <int >= 0> (mandatory), arithmetic = float|rational

``SECTIONS`` declares the keys of the fixed sections and ``CHECKS`` those of
each check kind, both as schemas that ``checks.parse_params`` reads; names
and choices are case-sensitive.  ``load_config`` adds the rules that tie
keys and sections together.  Scalar literals may be decimal or exact 'p/q'
fractions; coefficient lists are comma separated.  CSV vector files hold one
vector per row, decimal or 'p/q' cells, optional header row.  An unknown
section or key, a missing required value or an unparsable one raises
ConfigError (exit 2) at load.
"""

from __future__ import annotations

import configparser
import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .arithmetic import FLOAT, RATIONAL, Real, coerce, parse_coeff_list, parse_scalar
from .checks import CHECKS, OPTIONAL, Param, count, parse_args, parse_params
from .errors import ConfigError, DependenceError, ParameterError
from .fpmaps import POLICIES, VARIANTS, map_policy
from .sequences import BUILTIN_NAMES, BasicSequence, builtin_sequence
from .spaces import ELL_P, JAMES, NormTag

def _groups(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    """A parser of '|'-separated groups of comma-separated values."""
    return lambda text: tuple(
        tuple(parse(v) for v in group.split(",") if v.strip()) for group in text.split("|")
    )


# The keys of each fixed section, in the schema ``checks.parse_params`` reads.
SECTIONS: Dict[str, Dict[str, Param]] = {
    "run": {"seed": (count, None), "arithmetic": ((FLOAT, RATIONAL), FLOAT)},
    "space": {"tag": (str, None), "p": (str, OPTIONAL)},
    "sequence": {
        "builtin": (BUILTIN_NAMES, OPTIONAL),
        "csv": (str, OPTIONAL),
        "n": (count, "0"),
        "p": (parse_scalar, "2"),
    },
    "map": {
        "variant": (VARIANTS, None),
        "theta": (parse_scalar, OPTIONAL),
        "policy": (POLICIES, OPTIONAL),
    },
    "blocks": {"sets": (_groups(int), None), "weights": (_groups(parse_scalar), None)},
    "orbit": {"map": (str, OPTIONAL), "x": (str, ""), "y": (str, ""), "n_window": (count, "50")},
}


@dataclass(frozen=True)
class MapConfig:
    name: str
    variant: str
    theta: Optional[Real] = None
    policy: Optional[str] = None


@dataclass(frozen=True)
class CheckConfig:
    """A ``[check NAME]`` section: ``params`` as written, ``args`` as parsed."""

    name: str
    kind: str
    params: Dict[str, str] = field(default_factory=dict)
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OrbitConfig:
    map_name: str
    x: str
    y: str
    n_window: int


@dataclass(frozen=True)
class ExperimentConfig:
    space: Optional[NormTag]
    builtin: Optional[str]
    csv_path: Optional[str]
    n: int
    james_p: Real
    maps: Dict[str, MapConfig]
    blocks_sets: Optional[Tuple[Tuple[int, ...], ...]]
    blocks_weights: Optional[Tuple[tuple, ...]]
    checks: List[CheckConfig]
    orbit: Optional[OrbitConfig]
    seed: int
    arithmetic: str
    source_dir: str

    def echo_dict(self) -> dict:
        return {
            "space": self.space.label() if self.space else None,
            "sequence": {
                "builtin": self.builtin,
                "csv": self.csv_path,
                "n": self.n,
                "p": float(self.james_p),
            },
            "maps": {
                m.name: {
                    "variant": m.variant,
                    "theta": None if m.theta is None else float(m.theta),
                    "policy": m.policy,
                }
                for m in self.maps.values()
            },
            "blocks": None
            if self.blocks_sets is None
            else {
                "sets": [list(b) for b in self.blocks_sets],
                "weights": [[str(w) for w in ws] for ws in self.blocks_weights],
            },
            "checks": [
                {"name": c.name, "kind": c.kind, "params": dict(sorted(c.params.items()))}
                for c in self.checks
            ],
            "orbit": None
            if self.orbit is None
            else {
                "map": self.orbit.map_name,
                "x": self.orbit.x,
                "y": self.orbit.y,
                "n_window": self.orbit.n_window,
            },
            "seed": self.seed,
            "arithmetic": self.arithmetic,
        }


def norm_tag(variant: str, p_text: Optional[str]) -> NormTag:
    """The norm tag of a variant name and its p (text; None for sup and lin)."""
    try:
        return NormTag(variant, None if p_text is None else parse_scalar(p_text))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def parse_cli_tag(text: str) -> NormTag:
    """Compact CLI form: sup | lin | ell<p> | james<p>, e.g. ell1, james2."""
    t = text.strip().lower()
    for prefix, variant in (("ell", ELL_P), ("james", JAMES)):
        if t.startswith(prefix):
            return norm_tag(variant, t[len(prefix):])
    return norm_tag(t, None)


def load_vector_csv(path: Path, arithmetic: str) -> List[tuple]:
    """One vector per row; decimal or 'p/q' cells; optional header row."""
    rows: List[tuple] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            cells = [c.strip() for c in row if c.strip()]
            if not cells:
                continue
            try:
                vals = [parse_scalar(c) for c in cells]
            except ParameterError:
                if not rows:
                    continue  # header row
                raise ConfigError(f"unparsable CSV row {row!r} in {path}")
            rows.append(tuple(coerce(v, arithmetic) for v in vals))
    if not rows:
        raise ConfigError(f"no vectors found in {path}")
    return rows


def load_config(path, seed: Optional[int] = None, arithmetic: Optional[str] = None) -> ExperimentConfig:
    """The config at ``path``; a ``seed`` or ``arithmetic`` that is given (the
    command line's) replaces the ``[run]`` value before anything is coerced
    to the run's arithmetic."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep parameter names like L case-sensitive
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    for section in ("run", "sequence"):  # parsed even when absent, for their required keys
        if not parser.has_section(section):
            parser.add_section(section)

    fixed: Dict[str, dict] = {}
    maps: Dict[str, MapConfig] = {}
    checks: List[CheckConfig] = []
    for section in parser.sections():
        body = parser[section]
        head, _, name = section.partition(" ")
        name = name.strip()
        if head == "map" and name:
            m = parse_params(f"[{section}]", SECTIONS["map"], body)
            try:
                map_policy(m["variant"], m["theta"], m["policy"])
            except ParameterError as exc:
                raise ConfigError(f"[{section}]: {exc}") from exc
            maps[name] = MapConfig(name=name, **m)
        elif head == "check" and name:
            kind = body.get("kind", "").strip()
            params = {k: v for k, v in body.items() if k != "kind"}
            checks.append(CheckConfig(name, kind, params, parse_args(name, kind, params)))
        elif section in SECTIONS and section != "map":
            fixed[section] = parse_params(f"[{section}]", SECTIONS[section], body)
        else:
            raise ConfigError(f"unknown section [{section}]")
    run, seq, space = fixed["run"], fixed["sequence"], fixed.get("space")
    overrides = {"seed": seed, "arithmetic": arithmetic}
    run.update({k: v for k, v in overrides.items() if v is not None})
    if (seq["builtin"] is None) == (seq["csv"] is None):
        raise ConfigError("[sequence] needs exactly one of builtin / csv")
    if seq["csv"] is not None and space is None:
        raise ConfigError("CSV sequences require a [space] section")
    if seq["builtin"] is not None and seq["n"] < 1:
        raise ConfigError("truncation n must be >= 1")

    for c in checks:
        if "map" in c.args:
            if c.args["map"] not in maps:
                raise ConfigError(f"[check {c.name}]: unknown map {c.args['map']!r}")
            variant = CHECKS[c.kind].variant
            if variant not in (None, maps[c.args["map"]].variant):
                raise ConfigError(f"[check {c.name}]: {c.kind} requires a {variant} map")
        if c.args.get("on") == "blocks" and "blocks" not in fixed:
            raise ConfigError(f"[check {c.name}]: on = blocks needs a [blocks] section")
    orbit = fixed.get("orbit")
    if orbit is not None:
        if not orbit["map"]:
            if len(maps) != 1:
                raise ConfigError("[orbit] must name exactly one map")
            orbit["map"] = next(iter(maps))
        elif orbit["map"] not in maps:
            raise ConfigError(f"[orbit]: unknown map {orbit['map']!r}")
        if not orbit["x"] or not orbit["y"]:
            raise ConfigError("[orbit] requires both x and y")
        orbit = OrbitConfig(orbit["map"], orbit["x"], orbit["y"], orbit["n_window"])
    blocks = fixed.get("blocks")
    if blocks is not None and len(blocks["sets"]) != len(blocks["weights"]):
        raise ConfigError("[blocks]: sets and weights group counts differ")

    return ExperimentConfig(
        space=None if space is None else norm_tag(space["tag"], space["p"]),
        builtin=seq["builtin"],
        csv_path=seq["csv"],
        n=seq["n"],
        james_p=seq["p"],
        maps=maps,
        blocks_sets=None if blocks is None else blocks["sets"],
        blocks_weights=None
        if blocks is None
        else tuple(tuple(coerce(w, run["arithmetic"]) for w in ws) for ws in blocks["weights"]),
        checks=checks,
        orbit=orbit,
        seed=run["seed"],
        arithmetic=run["arithmetic"],
        source_dir=str(path.parent),
    )


def build_sequence(cfg: ExperimentConfig) -> BasicSequence:
    """Materialize the configured family (builtin or CSV) at truncation n."""
    if cfg.builtin is not None:
        s = builtin_sequence(cfg.builtin, cfg.n, p=cfg.james_p)
        if cfg.space is not None and cfg.space != s.ambient:
            s = BasicSequence(s.matrix(exact=True), cfg.space)
        return s
    rows = load_vector_csv(Path(cfg.source_dir) / cfg.csv_path, cfg.arithmetic)
    try:
        return BasicSequence(rows, cfg.space)
    except DependenceError as exc:
        raise ConfigError(f"[sequence] csv = {cfg.csv_path}: {exc}") from exc


def parse_point(text: str, n: int, arithmetic: str):
    """Orbit point: 'delta:<i>' or an explicit coefficient list, padded to n."""
    from .fpmaps import ConvexCoefficients

    if text.startswith("delta:"):
        try:
            i = int(text[6:])
        except ValueError as exc:
            raise ConfigError(f"bad vertex spec {text!r}") from exc
        if not 1 <= i <= n:
            raise ConfigError(f"vertex index {i} out of 1..{n}")
        return ConvexCoefficients.vertex(i, n, exact=(arithmetic == RATIONAL))
    vals = parse_coeff_list(text, arithmetic)
    if len(vals) > n:
        raise ConfigError(f"point longer than available length {n}")
    vals = vals + (coerce(0, arithmetic),) * (n - len(vals))
    try:
        return ConvexCoefficients.of(vals)
    except ParameterError as exc:
        raise ConfigError(f"orbit point is not a simplex point: {exc}") from exc
