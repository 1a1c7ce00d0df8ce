"""Correctness of certify outputs: failure accounting and witness re-evaluation."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from typing import List, Optional

from seqcert.arithmetic import RATIONAL
from seqcert.blocks import ConvexBlockSpec, build_convex_blocks
from seqcert.cli import RunContext
from seqcert.config import ExperimentConfig, build_sequence, load_config
from seqcert.fpmaps import fixed_point_residual
from seqcert.sequences import builtin_sequence
from seqcert.spaces import summing_basis_norm

FLOAT_TOL = 1e-9


def certificates_bytes(report: dict) -> bytes:
    """The certificates block serialised the way ``seqcert certify`` writes it."""
    return json.dumps(report["certificates"], indent=2, sort_keys=True).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def failure(rc: int, report: Optional[dict], expected: List[str], reference: Optional[bytes]) -> Optional[str]:
    """Why one certify call failed, or None.  ``holds: false`` is a verdict, not a failure."""
    if rc == 2 or report is None:
        return f"exit code {rc}"
    if report["meta"]["failed"] is not None:
        return f"meta.failed: {report['meta']['failed']}"
    names = [c["name"] for c in report["certificates"]]
    if names != expected:
        return f"certificates {names} do not match configured checks {expected}"
    if reference is not None and certificates_bytes(report) != reference:
        return "certificates differ from the first repetition of this seed"
    return None


def load(config_path: str, seed: int) -> ExperimentConfig:
    return replace(load_config(config_path), seed=seed)


def _scalar(x):
    """A certificate scalar back from JSON: floats stay floats, 'p/q' and ints become exact."""
    return Fraction(x) if isinstance(x, (str, int)) else x


def _same(value, reported, rational: bool) -> bool:
    reported = _scalar(reported)
    if rational:
        return Fraction(value) == reported
    return abs(float(value) - float(reported)) <= FLOAT_TOL * max(1.0, abs(float(reported)))


def witness_problems(cfg: ExperimentConfig, report: dict) -> List[str]:
    """Re-evaluate the stored witnesses of the equivalence, wide_s, wuc_constant and
    fixed_point_residual certificates through seqcert's public functions.

    Float certificates must agree within 1e-9 (relative above 1), rational
    ones exactly.  Returns one message per witness that does not reproduce.
    """
    seq = build_sequence(cfg)
    blocks = None
    if cfg.blocks_sets is not None:
        blocks = build_convex_blocks(seq, ConvexBlockSpec(cfg.blocks_sets, cfg.blocks_weights))
    checks = {c.name: c for c in cfg.checks}
    problems = []
    ctx = None
    for cert in report["certificates"]:
        check = checks[cert["name"]]
        target = blocks if check.params.get("on") == "blocks" else seq
        rational = cert["arithmetic"] == RATIONAL
        consts, wit = cert["constants"], cert["witness"]
        coeffs = {role: tuple(_scalar(x) for x in row) for role, row in wit.items()}
        evaluated = []
        if cert["kind"] == "equivalence":
            other = builtin_sequence(check.params["other"], len(target))
            for role, key in (("argmin", "r_min"), ("argmax", "r_max")):
                a = coeffs[role]
                evaluated.append((key, other.span_norm(a) / target.span_norm(a)))
        elif cert["kind"] == "wide_s":
            a = coeffs["argmin"]
            evaluated.append(("d_hat", target.span_norm(a) / summing_basis_norm(a)))
        elif cert["kind"] == "wuc_constant":
            a = coeffs["argmax"]
            evaluated.append(("c2_hat", target.span_norm(a) / max(abs(x) for x in a)))
        elif cert["kind"] == "fixed_point_residual":
            ctx = ctx or RunContext(cfg)
            spec = ctx.map_specs[check.params["map"]]
            evaluated.append(("min_residual", fixed_point_residual(spec, coeffs["argmin"], ctx.seq)))
        for key, value in evaluated:
            if not _same(value, consts[key], rational):
                problems.append(f"{cert['name']}: witness gives {key}={value}, report says {consts[key]}")
    return problems
