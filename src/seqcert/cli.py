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
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .arithmetic import FLOAT, RATIONAL, Real, parse_scalar
from .blocks import (
    ConvexBlockSpec,
    build_convex_blocks,
    lemma79_conclusion_check,
    shift_equivalence_constants,
    summing_equivalence_check,
    wuc_constant,
)
from .certificates import Certificate
from .config import (
    CheckConfig,
    ExperimentConfig,
    build_sequence,
    load_config,
    parse_cli_tag,
    parse_coeff_list,
    parse_point,
)
from .errors import ConfigError, ParameterError
from .fpmaps import (
    AffineMapSpec,
    AlphaSchedule,
    apply_map,
    apply_map_batch,
    bilipschitz_estimate,
    make_alpha_schedule,
    make_summing_functional,
    start_length,
    theta_lower_bound_rightshift,
    theta_of_map,
)
from .perturbation import claim2_chain, perturb_toward_next, psp_equivalence_check
from .sampling import SamplingBudget, rational_simplex, simplex_uniform
from .sequences import (
    BasicSequence,
    _scalar,
    _witness,
    basis_constant,
    builtin_sequence,
    domination_constant,
    equivalence_constants,
    gap_bound_check,
    wide_s_certificate,
)
from .spaces import CoordinateVector, norm

KAPPA_SAMPLES = 512


def derive_seed(seed: int, index: int) -> int:
    """Per-check seed, a pure function of (run seed, check index)."""
    return int(np.random.SeedSequence(entropy=[seed, index]).generate_state(1)[0])


def truncate_schedule(sch: AlphaSchedule, k: int) -> AlphaSchedule:
    if k >= len(sch):
        return sch
    return AlphaSchedule(
        alphas=sch.alphas[:k], theta=sch.theta, a=sch.a, b=sch.b, kappa=sch.kappa
    )


def kappa_interval(s: BasicSequence, seed: int) -> Tuple[Real, Real]:
    """The run's basis-constant interval for s.  Exact families get Fraction
    endpoints (the float-to-Fraction conversion loses nothing), so rational
    theta and claim2 values computed from it stay exact."""
    lo, up = basis_constant(s, SamplingBudget(count=KAPPA_SAMPLES, seed=seed))
    return (Fraction(lo), Fraction(up)) if s.exact else (lo, up)


class RunContext:
    """Sequence, block sequence, their basis-constant intervals, and realized
    maps for one certify run."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.seq = build_sequence(cfg)
        if cfg.arithmetic == RATIONAL and not self.seq.ambient.is_polyhedral():
            raise ConfigError(
                f"rational mode requires a piecewise-linear norm, got {self.seq.ambient.label()}"
            )
        self.kappa = kappa_interval(self.seq, derive_seed(cfg.seed, 0))
        self.blocks_seq: Optional[BasicSequence] = None
        self.kappa_blocks: Optional[Tuple[Real, Real]] = None
        if cfg.blocks_sets is not None:
            spec = ConvexBlockSpec(blocks=cfg.blocks_sets, weights=cfg.blocks_weights)
            self.blocks_seq = build_convex_blocks(self.seq, spec)
            self.kappa_blocks = kappa_interval(self.blocks_seq, derive_seed(cfg.seed, 1))
        self.map_specs: Dict[str, AffineMapSpec] = {}
        for name, mc in cfg.maps.items():
            self.map_specs[name] = self._realize_map(mc)

    def _realize_map(self, mc) -> AffineMapSpec:
        try:
            if mc.variant == "diag_shift":
                sch = make_alpha_schedule(
                    mc.theta,
                    self.seq.a,
                    self.seq.b,
                    self.kappa[1],
                    len(self.seq),
                    arithmetic=self.cfg.arithmetic,
                )
                return AffineMapSpec.diag_shift(sch, mc.policy or "grow")
            if mc.variant == "right_shift":
                return AffineMapSpec.right_shift(mc.policy or "grow")
            if mc.variant == "bilateral":
                return AffineMapSpec.bilateral()
            return AffineMapSpec.geometric()
        except ParameterError as exc:
            raise ConfigError(f"map {mc.name!r}: {exc}") from exc

    def target(self, check: CheckConfig) -> BasicSequence:
        if check.params.get("on", "sequence") == "blocks":
            if self.blocks_seq is None:
                raise ConfigError(f"check {check.name!r} targets blocks but none defined")
            return self.blocks_seq
        return self.seq

    def kappa_for(self, check: CheckConfig) -> Tuple[Real, Real]:
        return self.kappa_blocks if self.target(check) is self.blocks_seq else self.kappa

    def map_for(self, check: CheckConfig, variant: Optional[str] = None) -> AffineMapSpec:
        name = check.params.get("map")
        if name is None:
            raise ConfigError(f"check {check.name!r} requires a map parameter")
        spec = self.map_specs[name]
        if variant is not None and spec.variant != variant:
            raise ConfigError(f"check {check.name!r} requires a {variant} map")
        return spec

    def schedule_for(self, check: CheckConfig) -> AlphaSchedule:
        return self.map_for(check, "diag_shift").schedule


def _int_param(check: CheckConfig, key: str, default: Optional[int]) -> int:
    raw = check.params.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"check {check.name!r} requires parameter {key}")
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"check {check.name!r}: bad integer {key}={raw!r}") from exc


def _scalar_param(check: CheckConfig, key: str, default=None):
    raw = check.params.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"check {check.name!r} requires parameter {key}")
        return default
    return parse_scalar(raw)


def _budget(check: CheckConfig, seed: int, default_count: int, key: str = "samples") -> SamplingBudget:
    return SamplingBudget(count=_int_param(check, key, default_count), seed=seed)


def run_check(ctx: RunContext, check: CheckConfig, seed: int) -> Certificate:
    cfg = ctx.cfg
    kind = check.kind
    if kind == "basis_constant":
        target = ctx.target(check)
        budget = _budget(check, seed, 1024)
        lo, up = basis_constant(target, budget)
        return Certificate(
            kind="basis_constant",
            constants={"lower": lo, "upper": up},
            holds=True,
            witness={},
            mode=budget.mode_label(len(target)),
            arithmetic=FLOAT,
            flags=("upper-heuristic",) if up > lo else (),
        )
    if kind == "claim2_chain":
        sch = truncate_schedule(ctx.schedule_for(check), len(ctx.seq) - 1)
        return claim2_chain(ctx.seq, sch, ctx.kappa, arithmetic=cfg.arithmetic)
    if kind == "psp_equivalence":
        sch = truncate_schedule(ctx.schedule_for(check), len(ctx.seq) - 1)
        z = perturb_toward_next(ctx.seq, sch)
        return psp_equivalence_check(
            ctx.seq, z, z.theta, ctx.kappa, _budget(check, seed, 2000), arithmetic=cfg.arithmetic
        )
    if kind == "bilipschitz":
        return bilipschitz_estimate(
            ctx.map_for(check),
            ctx.seq,
            _budget(check, seed, 2000, key="pairs"),
            p_max=_int_param(check, "p_max", 1),
            arithmetic=cfg.arithmetic,
        )
    if kind == "fixed_point_residual":
        return _residual_check(ctx, check, seed)
    if kind == "theta_of_map":
        return theta_of_map(
            ctx.map_for(check),
            ctx.seq,
            _budget(check, seed, 200, key="pairs"),
            n_window=_int_param(check, "n_window", 50),
            tol=float(_scalar_param(check, "tol", 1e-9)),
        )
    if kind == "theta_rightshift_bound":
        return _theta_bound_check(ctx, check, seed)
    if kind == "wide_s":
        return wide_s_certificate(
            ctx.target(check), _budget(check, seed, 2000), arithmetic=cfg.arithmetic
        )
    if kind == "domination":
        other = _other_sequence(ctx, check)
        return domination_constant(
            ctx.target(check), other, _budget(check, seed, 2000), arithmetic=cfg.arithmetic
        )
    if kind == "equivalence":
        other = _other_sequence(ctx, check)
        return equivalence_constants(
            ctx.target(check), other, _budget(check, seed, 2000), arithmetic=cfg.arithmetic
        )
    if kind == "gap_bound":
        return gap_bound_check(ctx.target(check), ctx.kappa_for(check), _budget(check, seed, 2000))
    if kind == "wuc_constant":
        return wuc_constant(
            ctx.target(check), _budget(check, seed, 2000), arithmetic=cfg.arithmetic
        )
    if kind == "summing_equivalence":
        return summing_equivalence_check(
            ctx.target(check),
            _scalar_param(check, "c1"),
            _scalar_param(check, "c2"),
            _budget(check, seed, 2000),
            arithmetic=cfg.arithmetic,
        )
    if kind == "shift_equivalence":
        return shift_equivalence_constants(
            ctx.target(check),
            _int_param(check, "p_max", None),
            _budget(check, seed, 2000),
            arithmetic=cfg.arithmetic,
        )
    if kind == "lemma79":
        lower_raw = check.params.get("lower_c")
        target = ctx.target(check)
        L = _scalar_param(check, "L")
        if lower_raw in (None, "printed"):
            lower_c = None
        elif lower_raw == "symmetric":
            lower_c = 1 / (2 * L) if cfg.arithmetic == RATIONAL else 1.0 / (2.0 * float(L))
        else:
            lower_c = parse_scalar(lower_raw)
        return lemma79_conclusion_check(
            target,
            L,
            lower_c,
            p_max=_int_param(check, "p_max", 1),
            budget=_budget(check, seed, 2000),
            arithmetic=cfg.arithmetic,
        )
    raise ConfigError(f"unhandled check kind {kind!r}")


def _other_sequence(ctx: RunContext, check: CheckConfig) -> BasicSequence:
    name = check.params.get("other")
    if name is None:
        raise ConfigError(f"check {check.name!r} requires parameter other")
    try:
        return builtin_sequence(name, len(ctx.target(check)))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _residual_check(ctx: RunContext, check: CheckConfig, seed: int) -> Certificate:
    spec = ctx.map_for(check)
    s = ctx.seq
    n = start_length(spec, s, 1)
    budget = _budget(check, seed, 1000)
    if ctx.cfg.arithmetic == RATIONAL:
        T = np.array(np.eye(n, dtype=int).tolist() + rational_simplex(n, budget), dtype=object)
    else:
        rng = np.random.default_rng(budget.seed)
        T = np.concatenate([np.eye(n), simplex_uniform(rng, budget.count, n)], axis=0)
    FT = apply_map_batch(spec, T)
    Tp = np.zeros(FT.shape, dtype=T.dtype)
    Tp[:, :n] = T
    res = s.span_norm_batch(FT - Tp)
    i = int(np.argmin(res))
    best = _scalar(res[i])
    return Certificate(
        kind="fixed_point_residual",
        constants={"min_residual": best, "evaluated": len(T)},
        holds=bool(best > 0),
        witness={"argmin": _witness(T[i])},
        mode=budget.mode_label(n),
        arithmetic=ctx.cfg.arithmetic,
    )


def _theta_bound_check(ctx: RunContext, check: CheckConfig, seed: int) -> Certificate:
    spec = ctx.map_for(check, "right_shift")
    s = ctx.seq
    eps = _scalar_param(check, "eps")
    n_window = _int_param(check, "n_window", 50)
    phi_text = check.params.get("phi", "ones")
    if phi_text == "ones":
        phi = (1,) * s.ambient_length
    else:
        phi = parse_coeff_list(phi_text, ctx.cfg.arithmetic)
    functional = make_summing_functional(s, phi)
    bound = theta_lower_bound_rightshift(functional, eps, ctx.kappa[1])
    theta_cert = theta_of_map(
        spec, s, _budget(check, seed, 0, key="pairs"), n_window=n_window
    )
    theta_hat = theta_cert.constants["theta_hat"]
    holds = theta_cert.holds and float(theta_hat) >= float(bound) - 1e-9
    return Certificate(
        kind="theta_rightshift_bound",
        constants={
            "theta_hat": theta_hat,
            "bound": bound,
            "eps": eps,
            "beta": functional.beta,
            "gamma": functional.gamma,
            "norm_phi": functional.norm_phi,
            "n_window": n_window,
        },
        holds=bool(holds),
        witness=theta_cert.witness,
        mode=theta_cert.mode,
        arithmetic=FLOAT,
        flags=theta_cert.flags,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def run_certify(config_path: str, out_path: Optional[str], seed_override, arithmetic_override) -> int:
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg = _override(cfg, seed=seed_override)
    if arithmetic_override is not None:
        cfg = _override(cfg, arithmetic=arithmetic_override)
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
    except ConfigError:
        raise
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


def _override(cfg: ExperimentConfig, **kw) -> ExperimentConfig:
    from dataclasses import replace

    return replace(cfg, **kw)


def run_orbit(config_path: str, out_path: Optional[str], seed_override, arithmetic_override) -> int:
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg = _override(cfg, seed=seed_override)
    if arithmetic_override is not None:
        cfg = _override(cfg, arithmetic=arithmetic_override)
    if cfg.orbit is None:
        raise ConfigError("orbit command requires an [orbit] section")
    ctx = RunContext(cfg)
    spec = ctx.map_specs[cfg.orbit.map_name]
    s = ctx.seq
    w = cfg.orbit.n_window
    n0 = start_length(spec, s, max(w, 1))
    x = parse_point(cfg.orbit.x, n0, cfg.arithmetic)
    y = parse_point(cfg.orbit.y, n0, cfg.arithmetic)
    theta = spec.schedule.theta if spec.schedule is not None else None

    def span_dist(u, v) -> float:
        width = max(len(u.t), len(v.t))
        a = CoordinateVector.of(u.t).padded(width).entries
        b = CoordinateVector.of(v.t).padded(width).entries
        return s.span_norm(tuple(p - q for p, q in zip(a, b)))

    header = ["n", "distance"]
    if theta is not None:
        header += ["iterate_gap", "gap_lower_bound", "gap_upper_bound"]
    rows = []
    fy = y
    fx = x
    d0 = span_dist(x, y)
    violated = False
    for step in range(w + 1):
        if step > 0:
            fy = apply_map(spec, fy)
            fx = apply_map(spec, fx)
        row = [step, span_dist(x, fy)]
        if theta is not None:
            gap = span_dist(fx, fy)
            low = (1 - theta) ** step * d0
            high = (1 + theta) ** step * d0
            row += [gap, low, high]
            if not (float(low) - 1e-9 <= float(gap) <= float(high) + 1e-9):
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
    coeffs = parse_coeff_list(coeffs_text, arithmetic)
    value = norm(CoordinateVector.of(coeffs), tag)
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
    p_cert.add_argument("--seed", type=int, default=None)
    p_cert.add_argument("--arithmetic", default=None, choices=[FLOAT, RATIONAL])

    p_orb = sub.add_parser("orbit", help="emit orbit distances as CSV")
    p_orb.add_argument("--config", required=True)
    p_orb.add_argument("--out", default=None)
    p_orb.add_argument("--seed", type=int, default=None)
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
