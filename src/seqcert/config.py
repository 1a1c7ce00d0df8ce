"""Experiment configuration: a sectioned key-value text file.

Grammar (INI-style, parsed by configparser, '#' comments allowed):

    [space]           optional ambient override: tag = sup|ell_p|james|lin, p = ...
    [sequence]        builtin = <name>, n = <int>   (or csv = <path>)
    [map NAME]        variant = diag_shift|right_shift|bilateral|geometric,
                      theta = <real in (0,1)> (diag_shift only),
                      policy = grow|fold_tail (not bilateral; geometric:
                      fold_tail only)
    [blocks]          sets = 1,2 | 3,4   weights = 1/2,1/2 | 1/2,1/2
    [check NAME]      kind = <a key of seqcert.checks.CHECKS>, plus the
                      parameters that kind declares there
    [orbit]           map = NAME, x = delta:<i>|<coeff list>, y = ...,
                      n_window = <int>
    [run]             seed = <int> (mandatory), arithmetic = float|rational

Scalar literals may be decimal or exact 'p/q' fractions; coefficient lists
are comma separated.  CSV vector files hold one vector per row, decimal or
'p/q' cells, optional header row.  An unknown section or key, a missing
required value or an unparsable one raises ConfigError (exit 2) at load.
"""

from __future__ import annotations

import configparser
import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .arithmetic import FLOAT, RATIONAL, Real, parse_coeff_list, parse_scalar
from .checks import CHECKS, parse_args
from .errors import ConfigError, ParameterError
from .sequences import BUILTIN_NAMES, BasicSequence, builtin_sequence
from .spaces import NormTag

SECTION_KEYS = {
    "run": {"seed", "arithmetic"},
    "space": {"tag", "p"},
    "sequence": {"builtin", "csv", "n", "p"},
    "map": {"variant", "theta", "policy"},
    "blocks": {"sets", "weights"},
    "orbit": {"map", "x", "y", "n_window"},
}


@dataclass(frozen=True)
class MapConfig:
    name: str
    variant: str
    theta: Optional[Real] = None
    policy: Optional[str] = None


@dataclass(frozen=True)
class CheckConfig:
    name: str
    kind: str
    params: Dict[str, str] = field(default_factory=dict)


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


def _parse_tag(tag: str, p_text: Optional[str]) -> NormTag:
    tag = tag.strip().lower()
    try:
        if tag == "sup":
            return NormTag.sup()
        if tag == "lin":
            return NormTag.lin()
        if tag == "ell_p":
            if p_text is None:
                raise ConfigError("ell_p requires p")
            return NormTag.ell_p(parse_scalar(p_text))
        if tag == "james":
            if p_text is None:
                raise ConfigError("james requires p")
            return NormTag.james(parse_scalar(p_text))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown norm tag {tag!r}")


def parse_cli_tag(text: str) -> NormTag:
    """Compact CLI form: sup | lin | ell<p> | james<p>, e.g. ell1, james2."""
    t = text.strip().lower()
    try:
        if t == "sup":
            return NormTag.sup()
        if t == "lin":
            return NormTag.lin()
        if t.startswith("ell"):
            return NormTag.ell_p(parse_scalar(t[3:]))
        if t.startswith("james"):
            return NormTag.james(parse_scalar(t[5:]))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown norm tag {text!r}")


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
            rows.append(
                tuple(float(v) for v in vals) if arithmetic == FLOAT else tuple(vals)
            )
    if not rows:
        raise ConfigError(f"no vectors found in {path}")
    return rows


def _parse_blocks(sets_text: str, weights_text: str, arithmetic: str):
    groups = [g.strip() for g in sets_text.split("|")]
    wgroups = [g.strip() for g in weights_text.split("|")]
    if len(groups) != len(wgroups):
        raise ConfigError("blocks: sets and weights group counts differ")
    blocks = []
    weights = []
    for g, w in zip(groups, wgroups):
        try:
            blocks.append(tuple(int(i.strip()) for i in g.split(",") if i.strip()))
        except ValueError as exc:
            raise ConfigError(f"blocks: bad index list {g!r}") from exc
        wvals = [parse_scalar(x) for x in w.split(",") if x.strip()]
        weights.append(
            tuple(float(v) for v in wvals) if arithmetic == FLOAT else tuple(wvals)
        )
    return tuple(blocks), tuple(weights)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep parameter names like L case-sensitive
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    for section in parser.sections():
        allowed = SECTION_KEYS.get("map" if section.startswith("map ") else section)
        unknown = sorted(set(parser[section]) - allowed) if allowed is not None else []
        if unknown:
            raise ConfigError(f"[{section}]: unknown key(s) {unknown}; allowed: {sorted(allowed)}")

    if "run" not in parser:
        raise ConfigError("missing [run] section")
    run = parser["run"]
    if "seed" not in run:
        raise ConfigError("seed is mandatory in [run]")
    try:
        seed = int(run["seed"])
    except ValueError as exc:
        raise ConfigError(f"bad seed {run['seed']!r}") from exc
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    arithmetic = run.get("arithmetic", FLOAT).strip().lower()
    if arithmetic not in (FLOAT, RATIONAL):
        raise ConfigError(f"arithmetic must be float or rational, got {arithmetic!r}")

    space = None
    if "space" in parser:
        sp = parser["space"]
        if "tag" not in sp:
            raise ConfigError("[space] requires tag")
        space = _parse_tag(sp["tag"], sp.get("p"))

    if "sequence" not in parser:
        raise ConfigError("missing [sequence] section")
    seq = parser["sequence"]
    builtin = seq.get("builtin")
    csv_path = seq.get("csv")
    if (builtin is None) == (csv_path is None):
        raise ConfigError("[sequence] needs exactly one of builtin / csv")
    if builtin is not None and builtin not in BUILTIN_NAMES:
        raise ConfigError(f"unknown builtin {builtin!r}; choose from {BUILTIN_NAMES}")
    if csv_path is not None and space is None:
        raise ConfigError("CSV sequences require a [space] section")
    try:
        n = int(seq.get("n", "0")) if builtin is not None else int(seq.get("n", "0") or 0)
    except ValueError as exc:
        raise ConfigError(f"bad truncation n {seq.get('n')!r}") from exc
    if builtin is not None and n < 1:
        raise ConfigError("truncation n must be >= 1")
    james_p = parse_scalar(seq.get("p", "2"))

    maps: Dict[str, MapConfig] = {}
    checks: List[CheckConfig] = []
    orbit = None
    blocks_sets = blocks_weights = None
    for section in parser.sections():
        if section.startswith("map "):
            name = section[4:].strip()
            body = parser[section]
            variant = body.get("variant", "").strip()
            if variant not in ("diag_shift", "right_shift", "bilateral", "geometric"):
                raise ConfigError(f"map {name!r}: unknown variant {variant!r}")
            theta = None
            if ("theta" in body) != (variant == "diag_shift"):
                raise ConfigError(f"map {name!r}: diag_shift needs theta, other variants take none")
            if variant == "diag_shift":
                theta = parse_scalar(body["theta"])
                if not 0 < theta < 1:
                    raise ConfigError(f"theta out of (0,1): {body['theta']}")
            policy = body.get("policy")
            if policy is not None:
                policy = policy.strip().lower()
                if policy not in ("grow", "fold_tail"):
                    raise ConfigError(f"map {name!r}: unknown policy {policy!r}")
                if variant == "bilateral" or (variant == "geometric" and policy == "grow"):
                    raise ConfigError(f"map {name!r}: {variant} cannot take policy = {policy}")
            maps[name] = MapConfig(name=name, variant=variant, theta=theta, policy=policy)
        elif section.startswith("check "):
            name = section[6:].strip()
            body = parser[section]
            kind = body.get("kind", "").strip()
            params = {k: v for k, v in body.items() if k != "kind"}
            checks.append(CheckConfig(name=name, kind=kind, params=params))
        elif section == "blocks":
            body = parser[section]
            if "sets" not in body or "weights" not in body:
                raise ConfigError("[blocks] requires sets and weights")
            blocks_sets, blocks_weights = _parse_blocks(
                body["sets"], body["weights"], arithmetic
            )
        elif section == "orbit":
            body = parser[section]
            try:
                n_window = int(body.get("n_window", "50"))
            except ValueError as exc:
                raise ConfigError("bad n_window") from exc
            if n_window < 0:
                raise ConfigError("n_window must be >= 0")
            orbit = OrbitConfig(
                map_name=body.get("map", "").strip(),
                x=body.get("x", "").strip(),
                y=body.get("y", "").strip(),
                n_window=n_window,
            )
        elif section in ("space", "sequence", "run"):
            continue
        else:
            raise ConfigError(f"unknown section [{section}]")

    for c in checks:
        args = parse_args(c.name, c.kind, c.params)
        if "map" in args:
            if args["map"] not in maps:
                raise ConfigError(f"check {c.name!r} references unknown map {args['map']!r}")
            variant = CHECKS[c.kind].variant
            if variant not in (None, maps[args["map"]].variant):
                raise ConfigError(f"check {c.name!r}: {c.kind} requires a {variant} map")
        if args.get("on") == "blocks" and blocks_sets is None:
            raise ConfigError(f"check {c.name!r} targets blocks but no [blocks] section is defined")
    if orbit is not None:
        if not orbit.map_name:
            if len(maps) == 1:
                orbit = OrbitConfig(
                    map_name=next(iter(maps)), x=orbit.x, y=orbit.y, n_window=orbit.n_window
                )
            else:
                raise ConfigError("[orbit] must name exactly one map")
        elif orbit.map_name not in maps:
            raise ConfigError(f"[orbit] references unknown map {orbit.map_name!r}")
        if not orbit.x or not orbit.y:
            raise ConfigError("[orbit] requires both x and y")

    return ExperimentConfig(
        space=space,
        builtin=builtin,
        csv_path=csv_path,
        n=n,
        james_p=james_p,
        maps=maps,
        blocks_sets=blocks_sets,
        blocks_weights=blocks_weights,
        checks=checks,
        orbit=orbit,
        seed=seed,
        arithmetic=arithmetic,
        source_dir=str(path.parent),
    )


def build_sequence(cfg: ExperimentConfig) -> BasicSequence:
    """Materialize the configured family (builtin or CSV) at truncation n."""
    if cfg.builtin is not None:
        s = builtin_sequence(cfg.builtin, cfg.n, p=cfg.james_p)
        if cfg.space is not None and cfg.space != s.ambient:
            s = BasicSequence([v.entries for v in s.vectors], cfg.space)
        return s
    rows = load_vector_csv(Path(cfg.source_dir) / cfg.csv_path, cfg.arithmetic)
    return BasicSequence(rows, cfg.space)


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
    pad: Real = 0 if arithmetic == RATIONAL else 0.0
    vals = vals + (pad,) * (n - len(vals))
    try:
        return ConvexCoefficients.of(vals)
    except ParameterError as exc:
        raise ConfigError(f"orbit point is not a simplex point: {exc}") from exc
