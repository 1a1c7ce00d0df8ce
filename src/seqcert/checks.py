"""The check registry: each ``[check NAME]`` kind is declared once, in ``CHECKS``.

A ``CheckKind`` holds the runner, the parameters, the map variant a kind
that reads a map needs (``None``: any) and the kind's load-time rules.
``params`` is a schema that ``parse_params`` reads, the same kind of schema
``config.SECTIONS`` gives the fixed sections.  Parsed values do not depend
on the arithmetic mode, so runners coerce where it matters.  A runner is
``run(ctx, args, seed)`` with the run's ``cli.RunContext``, the parsed
parameters and the check's derived seed.  A rule is ``rule(ctx, args)``: it
raises ParameterError where the runner would fail on the run's families,
found by what the runner or its op calls (``fpmaps.start_length``,
``fpmaps.check_theta_window``, ``blocks.shift_width``,
``summing_functional``, ``builtin_sequence``).  ``cli.RunContext`` runs the
``rules`` once the families are built, before the basis constant is
estimated, and the ``kappa_rules`` right after it, so a config its family
rules out exits 2 with no report.  Rules and runners call ops by module
name, which a span tracer can replace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from .arithmetic import FLOAT, RATIONAL, coerce, parse_coeff_list, parse_scalar
from .blocks import (
    lemma79_conclusion_check, shift_equivalence_constants, shift_width, summing_equivalence_check,
    wuc_constant,
)
from .certificates import Certificate
from .errors import ConfigError, ParameterError
from .fpmaps import (
    DIAG_SHIFT, RIGHT_SHIFT, AlphaSchedule, SummingFunctional, bilipschitz_estimate,
    check_theta_window, make_summing_functional, map_policy, residual_norms, start_length,
    theta_lower_bound_rightshift, theta_of_map,
)
from .perturbation import claim2_chain, perturb_toward_next, perturbation_sum, psp_equivalence_check
from .sampling import EXHAUSTIVE_LIMIT, SamplingBudget, simplex_rows
from .sequences import (
    BUILTIN_NAMES, INEQ_TOL, PM_ONE_LIMIT, _scan, _witness, basis_constant, builtin_sequence,
    domination_constant, equivalence_constants, gap_bound_check, wide_s_certificate,
)
from .spaces import require_exact

# (parser, default).  The parser is a function of the text, or the tuple of
# the allowed values.  The default is config text, parsed like user input;
# None marks a required key, and OPTIONAL a key that parses to None when absent.
Param = Tuple[Union[Callable[[str], object], Tuple[str, ...]], object]
OPTIONAL = object()
Rule = Callable[..., object]


@dataclass(frozen=True)
class CheckKind:
    run: Callable[..., Certificate]
    params: Dict[str, Param]
    variant: Optional[str] = None
    rules: Tuple[Rule, ...] = ()
    kappa_rules: Tuple[Rule, ...] = ()


def parse_params(where: str, schema: Mapping[str, Param], params: Mapping[str, str]) -> dict:
    """``params`` parsed against ``schema``, defaults filled in; ``where``
    names the section in error messages."""
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; allowed: {sorted(schema)}")
    args = {}
    for key, (parse, default) in schema.items():
        text = params.get(key, default)
        if text is None:
            raise ConfigError(f"{where} requires {key}")
        if text is OPTIONAL:
            args[key] = None
        elif isinstance(parse, tuple):
            if text not in parse:
                raise ConfigError(f"{where}: unknown {key} {text!r}; choose from {parse}")
            args[key] = text
        else:
            try:
                args[key] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{where}: bad {key} = {text!r}: {exc}") from exc
    return args


def parse_args(name: str, kind: str, params: Mapping[str, str]) -> dict:
    """The parsed parameters of check ``name``, defaults filled in."""
    if kind not in CHECKS:
        raise ConfigError(f"[check {name}]: unknown kind {kind!r}; choose from {sorted(CHECKS)}")
    return parse_params(f"[check {name}]", CHECKS[kind].params, params)


def count(text: str) -> int:
    """A nonnegative integer."""
    value = int(text)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def positive(text: str) -> int:
    """An integer >= 1."""
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def positive_scalar(text: str):
    """A scalar > 0."""
    value = parse_scalar(text)
    if not value > 0:
        raise ValueError("must be > 0")
    return value


def _phi(text: str):
    return text if text == "ones" else parse_coeff_list(text, RATIONAL)


def _lower_c(text: str):
    return text if text in ("printed", "symmetric") else parse_scalar(text)


def _schedule(ctx, args) -> AlphaSchedule:
    """The map's schedule, cut to the M - 1 steps a length-M family supports."""
    sch, k = ctx.map_specs[args["map"]].schedule, len(ctx.seq) - 1
    return sch if k >= len(sch) else replace(sch, alphas=sch.alphas[:k])


def _basis_constant(ctx, args, seed) -> Certificate:
    kappa = basis_constant(ctx.target(args["on"]), SamplingBudget(args["samples"], seed))
    return Certificate(
        kind="basis_constant",
        constants={"lower": kappa.lower, "upper": kappa.upper},
        holds=True,
        witness={},
        mode=kappa.source,
        arithmetic=FLOAT,
        flags=kappa.flags,
    )


def _claim2_chain(ctx, args, seed) -> Certificate:
    return claim2_chain(ctx.seq, _schedule(ctx, args), ctx.kappa["sequence"], ctx.cfg.arithmetic)


def _psp_equivalence(ctx, args, seed) -> Certificate:
    sch, kappa = _schedule(ctx, args), ctx.kappa["sequence"]
    z = perturb_toward_next(ctx.seq, sch)
    theta, budget = perturbation_sum(ctx.seq, z, sch.kappa), SamplingBudget(args["samples"], seed)
    return psp_equivalence_check(ctx.seq, z, theta, kappa, budget, arithmetic=ctx.cfg.arithmetic)


def _bilipschitz(ctx, args, seed) -> Certificate:
    spec, budget = ctx.map_specs[args["map"]], SamplingBudget(args["pairs"], seed)
    return bilipschitz_estimate(spec, ctx.seq, budget, args["p_max"], ctx.cfg.arithmetic)


def _residual(ctx, args, seed) -> Certificate:
    spec, exact = ctx.map_specs[args["map"]], ctx.cfg.arithmetic == RATIONAL
    n = start_length(spec.variant, spec.policy, len(ctx.seq), 1)
    rows = simplex_rows(n, SamplingBudget(args["samples"], seed), exact=exact)
    [(best, row)] = _scan(rows, [residual_norms(spec, ctx.seq, n, exact)], ctx.cfg.arithmetic, [((1, 0),)])
    return Certificate(
        kind="fixed_point_residual",
        constants={"min_residual": best, "evaluated": rows.size},
        holds=bool(best > 0),
        witness={"argmin": _witness(row)},
        mode=rows.mode,
        arithmetic=ctx.cfg.arithmetic,
    )


def _theta_of_map(ctx, args, seed) -> Certificate:
    spec, budget = ctx.map_specs[args["map"]], SamplingBudget(args["pairs"], seed)
    return theta_of_map(spec, ctx.seq, budget, args["n_window"], float(args["tol"]))


def summing_functional(ctx, args) -> SummingFunctional:
    """The summing functional of the ``phi`` parameter on the run's family ("ones": all ones)."""
    s, phi = ctx.seq, args["phi"]
    if phi == "ones":
        return make_summing_functional(s, (1,) * s.ambient_length)
    return make_summing_functional(s, tuple(coerce(v, ctx.cfg.arithmetic) for v in phi))


def _theta_rightshift_bound(ctx, args, seed) -> Certificate:
    s, functional, kappa = ctx.seq, summing_functional(ctx, args), ctx.kappa["sequence"]
    bound = theta_lower_bound_rightshift(functional, args["eps"], kappa.upper)
    spec, budget = ctx.map_specs[args["map"]], SamplingBudget(args["pairs"], seed)
    theta_cert = theta_of_map(spec, s, budget, n_window=args["n_window"])
    theta_hat = theta_cert.constants["theta_hat"]
    holds = theta_cert.holds and float(theta_hat) >= float(bound) - INEQ_TOL
    return Certificate(
        kind="theta_rightshift_bound",
        constants={
            "theta_hat": theta_hat,
            "bound": bound,
            "eps": float(args["eps"]),
            "beta": functional.beta,
            "gamma": functional.gamma,
            "norm_phi": functional.norm_phi,
            "n_window": args["n_window"],
        },
        holds=bool(holds),
        witness=theta_cert.witness,
        mode=theta_cert.mode,
        arithmetic=FLOAT,
        flags=theta_cert.flags + kappa.flags,
    )


def _wide_s(ctx, args, seed) -> Certificate:
    budget = SamplingBudget(args["samples"], seed)
    return wide_s_certificate(ctx.target(args["on"]), budget, arithmetic=ctx.cfg.arithmetic)


def _domination(ctx, args, seed) -> Certificate:
    target, budget = ctx.target(args["on"]), SamplingBudget(args["samples"], seed)
    other = builtin_sequence(args["other"], len(target), p=ctx.cfg.james_p)
    return domination_constant(target, other, budget, arithmetic=ctx.cfg.arithmetic)


def _equivalence(ctx, args, seed) -> Certificate:
    target, budget = ctx.target(args["on"]), SamplingBudget(args["samples"], seed)
    other = builtin_sequence(args["other"], len(target), p=ctx.cfg.james_p)
    return equivalence_constants(target, other, budget, arithmetic=ctx.cfg.arithmetic)


def _gap_bound(ctx, args, seed) -> Certificate:
    return gap_bound_check(ctx.target(args["on"]), ctx.kappa[args["on"]], ctx.cfg.arithmetic)


def _wuc_constant(ctx, args, seed) -> Certificate:
    budget = SamplingBudget(args["samples"], seed)
    return wuc_constant(ctx.target(args["on"]), budget, arithmetic=ctx.cfg.arithmetic)


def _summing_equivalence(ctx, args, seed) -> Certificate:
    target, budget = ctx.target(args["on"]), SamplingBudget(args["samples"], seed)
    c1, c2 = args["c1"], args["c2"]
    return summing_equivalence_check(target, c1, c2, budget, arithmetic=ctx.cfg.arithmetic)


def _shift_equivalence(ctx, args, seed) -> Certificate:
    target, budget = ctx.target(args["on"]), SamplingBudget(args["samples"], seed)
    return shift_equivalence_constants(target, args["p_max"], budget, arithmetic=ctx.cfg.arithmetic)


def _lemma79(ctx, args, seed) -> Certificate:
    target, budget = ctx.target(args["on"]), SamplingBudget(args["samples"], seed)
    return lemma79_conclusion_check(
        target, args["L"], args["lower_c"], args["p_max"], budget, ctx.cfg.arithmetic
    )


MAP: Dict[str, Param] = {"map": (str, None)}
ON: Dict[str, Param] = {"on": (("sequence", "blocks"), "sequence")}
OTHER: Dict[str, Param] = {"other": (BUILTIN_NAMES, None)}
SAMPLES: Dict[str, Param] = {"samples": (count, "2000")}


def _steps(steps: Callable[[dict], int], least: int = 1) -> Rule:
    """The rule that ``steps(args)`` applications of the check's map leave
    ``least`` start coefficients."""
    def rule(ctx, args) -> None:
        mc = ctx.cfg.maps[args["map"]]
        policy = map_policy(mc.variant, mc.theta, mc.policy)
        start_length(mc.variant, policy, len(ctx.seq), steps(args), least)

    return rule


def _window(ctx, args) -> None:
    check_theta_window(ctx.cfg.maps[args["map"]].variant, len(ctx.seq), args["n_window"])


def _rows(width: Callable[[dict, int], int], enumerated: int = EXHAUSTIVE_LIMIT) -> Rule:
    """The rule that a scan over rows ``width(args, m)`` long, on a target of m
    vectors, has rows: with ``samples = 0`` only the enumerated patterns, up
    to ``enumerated`` coefficients long."""
    def rule(ctx, args) -> None:
        m = width(args, len(ctx.target(args.get("on", "sequence"))))
        if args["samples"] == 0 and m > enumerated:
            raise ParameterError(f"samples = 0 enumerates rows only up to {enumerated} long, not {m}")

    return rule


def _other(ctx, args) -> None:
    """The ``other`` family, built as the runner builds it (at length 1)."""
    other = builtin_sequence(args["other"], 1, p=ctx.cfg.james_p)
    if ctx.cfg.arithmetic == RATIONAL:
        require_exact(other.ambient)


def _eps(ctx, args) -> None:
    theta_lower_bound_rightshift(summing_functional(ctx, args), args["eps"], ctx.kappa["sequence"].upper)


WHOLE = _rows(lambda args, m: m)
SHIFTED = _rows(lambda args, m: shift_width(m, args["p_max"]))
WINDOW = (_steps(lambda args: args["n_window"]), _window)

CHECKS: Dict[str, CheckKind] = {
    "basis_constant": CheckKind(
        _basis_constant, {**ON, "samples": (count, "1024")}, rules=(_rows(lambda args, m: m, PM_ONE_LIMIT),)
    ),
    "claim2_chain": CheckKind(_claim2_chain, MAP, DIAG_SHIFT),
    "psp_equivalence": CheckKind(  # rows as long as the schedule, M - 1
        _psp_equivalence, {**MAP, **SAMPLES}, DIAG_SHIFT, rules=(_rows(lambda args, m: m - 1),)
    ),
    "bilipschitz": CheckKind(
        _bilipschitz, {**MAP, "pairs": (count, "2000"), "p_max": (positive, "1")},
        rules=(_steps(lambda args: args["p_max"], least=2),),
    ),
    "fixed_point_residual": CheckKind(
        _residual, {**MAP, "samples": (count, "1000")}, rules=(_steps(lambda args: 1),)
    ),
    "theta_of_map": CheckKind(
        _theta_of_map,
        {**MAP, "pairs": (count, "200"), "n_window": (positive, "50"),
         "tol": (parse_scalar, "1e-9")},
        rules=WINDOW,
    ),
    "theta_rightshift_bound": CheckKind(
        _theta_rightshift_bound,
        {**MAP, "eps": (positive_scalar, None), "n_window": (positive, "50"), "phi": (_phi, "ones"),
         "pairs": (count, "0")},
        RIGHT_SHIFT,
        (*WINDOW, summing_functional),
        (_eps,),
    ),
    "wide_s": CheckKind(_wide_s, {**ON, **SAMPLES}, rules=(WHOLE,)),
    "domination": CheckKind(_domination, {**ON, **OTHER, **SAMPLES}, rules=(WHOLE, _other)),
    "equivalence": CheckKind(_equivalence, {**ON, **OTHER, **SAMPLES}, rules=(WHOLE, _other)),
    # analytic (a / K from kappa): it draws nothing, and accepts ``samples``,
    # which the james48 bench workloads set, only to ignore it
    "gap_bound": CheckKind(_gap_bound, {**ON, **SAMPLES}),
    "wuc_constant": CheckKind(_wuc_constant, {**ON, **SAMPLES}, rules=(WHOLE,)),
    "summing_equivalence": CheckKind(
        _summing_equivalence,
        {**ON, "c1": (positive_scalar, None), "c2": (positive_scalar, None), **SAMPLES},
        rules=(WHOLE,),
    ),
    "shift_equivalence": CheckKind(
        _shift_equivalence, {**ON, "p_max": (positive, None), **SAMPLES}, rules=(SHIFTED,)
    ),
    "lemma79": CheckKind(
        _lemma79,
        {**ON, "L": (positive_scalar, None), "lower_c": (_lower_c, "printed"),
         "p_max": (positive, "1"), **SAMPLES},
        rules=(SHIFTED,),
    ),
}
