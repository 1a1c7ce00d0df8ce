"""Certificate records: a verified or refuted quantitative inequality."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .arithmetic import Real, is_finite, scalar_to_json


@dataclass(frozen=True)
class Certificate:
    """Outcome of one certification op.

    constants holds the named scalars the op reports (d, D, L, c1, c2,
    theta, margins, ...); witness holds the coefficient vector(s) attaining
    the extreme values, keyed by role.  A stored witness re-evaluates to its
    reported constant (within 1e-9 in float mode, exactly in rational mode).
    Lower bounds obtained from evaluated points are certified; any
    heuristic upper bound is named in ``flags``.  A constant that is an inf
    or a nan (an overflow, say) certifies nothing: the certificate then
    fails, with the flag ``non-finite-constant``.
    """

    kind: str
    constants: Dict[str, Real]
    holds: bool
    witness: Dict[str, Tuple[Real, ...]]
    mode: str
    arithmetic: str
    flags: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not all(map(is_finite, self.constants.values())):
            object.__setattr__(self, "holds", False)
            object.__setattr__(self, "flags", (*self.flags, "non-finite-constant"))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "constants": {k: scalar_to_json(v) for k, v in sorted(self.constants.items())},
            "holds": self.holds,
            "witness": {
                k: [scalar_to_json(x) for x in v] for k, v in sorted(self.witness.items())
            },
            "mode": self.mode,
            "arithmetic": self.arithmetic,
            "flags": list(self.flags),
        }
