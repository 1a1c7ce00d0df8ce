"""Command line interface: ``norm``, ``certify``, ``orbit``.

Exit codes: 0 all certificates hold (or value printed), 1 some certificate
failed (a partial report is still written, with a failed marker), 2 on
configuration or parse errors.

Reports are JSON with top-level ``config``, ``certificates``, ``meta``.
The certificates block is byte-identical across runs of the same (config,
seed); wall-clock times live only under ``meta``.  Checks run one at a time
in config order.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .arithmetic import FLOAT, RATIONAL, Real, parse_coeff_list, scalar_to_json
from .blocks import ConvexBlockSpec, build_convex_blocks
from .certificates import Certificate
from .checks import CHECKS, count
from .config import CheckConfig, ExperimentConfig, build_sequence, load_config, parse_cli_tag, parse_point
from .errors import BlockSpecError, ConfigError, ParameterError
from .fpmaps import (
    DIAG_SHIFT, AffineMapSpec, ConvexCoefficients, make_alpha_schedule, map_policy, orbit, start_length,
)
from .sampling import SamplingBudget
from .sequences import INEQ_TOL, BasicSequence, Kappa, basis_constant
from .spaces import norm, require_exact, row_array, scalar

KAPPA_SAMPLES = 512


def derive_seed(seed: int, index: int) -> int:
    """Per-check seed, a pure function of (run seed, check index)."""
    return int(np.random.SeedSequence(entropy=[seed, index]).generate_state(1)[0])


def kappa_json(kappa: Kappa) -> dict:
    """A ``meta.kappa`` entry: the endpoints as certificates write them, and the source."""
    lower, upper = map(scalar_to_json, kappa[:2])
    return {"lower": lower, "upper": upper, "source": kappa.source}


class RunContext:
    """Sequence, block sequence, their basis-constant intervals and realized
    maps for one certify run; ``seq`` is the configured family when the
    caller has built it already.  Blocks that cannot be built, and what a
    check's ``CheckKind.rules`` reject, raise ConfigError before any basis
    constant is estimated; what its ``kappa_rules`` reject, right after.
    The context reads no check parameter.  ``setup_times`` holds the wall
    time of each step, in seconds, and ``kappa`` the basis-constant interval
    of each target, keyed by its ``on`` value ("blocks" only with blocks)."""

    def __init__(self, cfg: ExperimentConfig, seq: Optional[BasicSequence] = None):
        self.cfg = cfg
        self.setup_times: Dict[str, float] = {}
        self.seq = seq if seq is not None else self._timed("sequence", build_sequence, cfg)
        if cfg.arithmetic == RATIONAL:
            require_exact(self.seq.ambient)
        self.blocks_seq: Optional[BasicSequence] = None
        if cfg.blocks_sets is not None:
            try:
                spec = ConvexBlockSpec(blocks=cfg.blocks_sets, weights=cfg.blocks_weights)
                self.blocks_seq = self._timed("blocks", build_convex_blocks, self.seq, spec)
            except BlockSpecError as exc:
                raise ConfigError(f"[blocks]: {exc}") from exc
        self._each_check("rules")
        self.kappa: Dict[str, Kappa] = {"sequence": self._kappa("kappa", self.seq, 0)}
        if self.blocks_seq is not None:
            self.kappa["blocks"] = self._kappa("kappa_blocks", self.blocks_seq, 1)
        self._each_check("kappa_rules")
        self.map_specs: Dict[str, AffineMapSpec] = self._timed(
            "maps", lambda: {name: self._realize_map(mc) for name, mc in cfg.maps.items()}
        )

    def _each_check(self, rules: str) -> None:
        """Every check's ``rules`` (a ``CheckKind`` field); a ParameterError names the check."""
        for check in self.cfg.checks:
            try:
                for rule in getattr(CHECKS[check.kind], rules):
                    rule(self, check.args)
            except ParameterError as exc:
                raise ConfigError(f"[check {check.name}]: {exc}") from exc

    def _timed(self, step: str, fn: Callable, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.setup_times[step] = time.perf_counter() - t0
        return out

    def _kappa(self, step: str, s: BasicSequence, index: int) -> Kappa:
        """The run's basis-constant interval for s, timed as ``step``.  Exact
        families get Fraction endpoints (the float-to-Fraction conversion
        loses nothing), so rational theta and claim2 values computed from it
        stay exact."""
        budget = SamplingBudget(count=KAPPA_SAMPLES, seed=derive_seed(self.cfg.seed, index))
        kappa = self._timed(step, basis_constant, s, budget)
        if s.exact:
            return kappa._replace(lower=Fraction(kappa.lower), upper=Fraction(kappa.upper))
        return kappa

    def _realize_map(self, mc) -> AffineMapSpec:
        s, schedule, kappa = self.seq, None, self.kappa["sequence"]
        try:
            if mc.variant == DIAG_SHIFT:
                schedule = make_alpha_schedule(
                    mc.theta, s.a, s.b, kappa.upper, len(s), arithmetic=self.cfg.arithmetic
                )
            return AffineMapSpec(mc.variant, schedule, mc.policy)
        except ParameterError as exc:
            raise ConfigError(f"map {mc.name!r}: {exc}") from exc

    def target(self, on: str) -> BasicSequence:
        return self.blocks_seq if on == "blocks" else self.seq


def run_check(ctx: RunContext, check: CheckConfig, seed: int) -> Certificate:
    return CHECKS[check.kind].run(ctx, check.args, seed)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def run_certify(config_path: str, out_path: Optional[str], seed, arithmetic) -> int:
    t0 = time.perf_counter()
    cfg = load_config(config_path, seed, arithmetic)
    load_s = time.perf_counter() - t0
    ctx = RunContext(cfg)
    done: List[Tuple[str, Certificate]] = []
    wall: Dict[str, float] = {}
    failed_error: Optional[str] = None
    try:
        for idx, check in enumerate(cfg.checks):
            t0 = time.perf_counter()
            cert = run_check(ctx, check, derive_seed(cfg.seed, idx + 2))
            wall[check.name] = time.perf_counter() - t0
            done.append((check.name, cert))
    except Exception as exc:  # partial report with a failed marker
        failed_error = f"{type(exc).__name__}: {exc}"

    certificates = [{"name": name, **cert.to_json_dict()} for name, cert in done]
    report = {
        "config": cfg.echo_dict(),
        "certificates": certificates,
        "meta": {
            "versions": {
                "seqcert": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "setup_times": {"load": load_s, **ctx.setup_times},
            "kappa": {"blocks": None, **{on: kappa_json(k) for on, k in ctx.kappa.items()}},
            "wall_times": wall,
            "failed": failed_error,
        },
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)
    if failed_error is not None:
        print(f"check execution failed: {failed_error}", file=sys.stderr)
        return 1
    return 0 if all(c["holds"] for c in certificates) else 1


def run_orbit(config_path: str, out_path: Optional[str], seed, arithmetic) -> int:
    cfg = load_config(config_path, seed, arithmetic)
    if cfg.orbit is None:
        raise ConfigError("orbit command requires an [orbit] section")
    s = build_sequence(cfg)
    mc = cfg.maps[cfg.orbit.map_name]
    w = cfg.orbit.n_window
    n0 = start_length(mc.variant, map_policy(mc.variant, mc.theta, mc.policy), len(s), max(w, 1))
    x = parse_point(cfg.orbit.x, n0, cfg.arithmetic)
    y = parse_point(cfg.orbit.y, n0, cfg.arithmetic)
    spec = RunContext(cfg, s).map_specs[cfg.orbit.map_name]
    theta = spec.schedule.theta if spec.schedule is not None else None

    def span_dist(u, v) -> Real:  # the shorter point zero-padded
        return s.span_norm(tuple(a - b for a, b in zip_longest(u.t, v.t, fillvalue=0)))

    header = ["n", "distance"]
    if theta is not None:
        header += ["iterate_gap", "gap_lower_bound", "gap_upper_bound"]
    rows = []
    d0 = span_dist(x, y)
    violated = False
    for step, points in enumerate(orbit(spec, row_array([x.t, y.t]), w)):
        # every iterate must be a simplex point
        fx, fy = (ConvexCoefficients(tuple(map(scalar, t))) for t in points)
        row = [step, span_dist(x, fy)]
        if theta is not None:
            gap = span_dist(fx, fy)
            low = (1 - theta) ** step * d0
            high = (1 + theta) ** step * d0
            row += [gap, low, high]
            if not (float(low) - INEQ_TOL <= float(gap) <= float(high) + INEQ_TOL):
                violated = True
        rows.append(row)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        print(text, end="")
    return 1 if violated else 0


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def run_norm(tag_text: str, coeffs_text: str, arithmetic: str) -> int:
    tag = parse_cli_tag(tag_text)
    if arithmetic == RATIONAL:
        require_exact(tag)
    coeffs = parse_coeff_list(coeffs_text, arithmetic)
    value = norm(coeffs, tag)
    if arithmetic == RATIONAL:
        print(value)
    else:
        print(repr(float(value)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqcert",
        description="certify sequence-space norm inequalities and affine map bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="evaluate one norm")
    p_norm.add_argument("--tag", required=True, help="sup | lin | ell<p> | james<p>")
    p_norm.add_argument("--coeffs", required=True, help="comma-separated coefficients")
    p_norm.add_argument("--arithmetic", default=FLOAT, choices=[FLOAT, RATIONAL])

    p_cert = sub.add_parser("certify", help="run a certification suite")
    p_cert.add_argument("--config", required=True)
    p_cert.add_argument("--out", default=None)
    p_cert.add_argument("--seed", type=count, default=None)
    p_cert.add_argument("--arithmetic", default=None, choices=[FLOAT, RATIONAL])

    p_orb = sub.add_parser("orbit", help="emit orbit distances as CSV")
    p_orb.add_argument("--config", required=True)
    p_orb.add_argument("--out", default=None)
    p_orb.add_argument("--seed", type=count, default=None)
    p_orb.add_argument("--arithmetic", default=None, choices=[FLOAT, RATIONAL])

    args = parser.parse_args(argv)
    try:
        if args.command == "norm":
            return run_norm(args.tag, args.coeffs, args.arithmetic)
        if args.command == "certify":
            return run_certify(args.config, args.out, args.seed, args.arithmetic)
        return run_orbit(args.config, args.out, args.seed, args.arithmetic)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
