"""The load-time rules of each check kind cover its runner: a config that
loads either exits 2 before any check runs, or runs every check to the end.

The grid crosses every ``CHECKS`` kind with both arithmetic modes, every
builtin family at n = 1..4, ``[sequence] p`` of 2 and 1, every map variant
and policy, ``on = blocks`` and the edge values of the counting parameters;
a fixed subsample of each kind's part of it runs here.
"""

import itertools
import json
import random

import pytest

from seqcert.checks import CHECKS
from seqcert.cli import main
from seqcert.sequences import BUILTIN_NAMES

MAPS = """
[map diag]
variant = diag_shift
theta = 1/2

[map diag_fold]
variant = diag_shift
theta = 1/2
policy = fold_tail

[map right]
variant = right_shift

[map right_fold]
variant = right_shift
policy = fold_tail

[map bilateral]
variant = bilateral

[map geometric]
variant = geometric
"""
VARIANTS = {"diag": "diag_shift", "diag_fold": "diag_shift", "right": "right_shift",
            "right_fold": "right_shift", "bilateral": "bilateral", "geometric": "geometric"}
# the values each check parameter takes in the grid; parameters not named
# here keep their defaults
VALUES = {
    "on": ("sequence", "blocks"),
    "samples": ("0", "5"),
    "pairs": ("0", "5"),
    "p_max": ("1", "2"),
    "n_window": ("1", "2"),
    "other": BUILTIN_NAMES,
    "phi": ("ones", "1,2"),
    "eps": ("1/100",),
    "c1": ("1/4",),
    "c2": ("3",),
    "L": ("2",),
}
PER_KIND = 40


def grid(kind: str) -> list:
    """Every (arithmetic, builtin, n, p, check parameters) of ``kind``."""
    spec = CHECKS[kind]
    axes = {key: VALUES[key] for key in spec.params if key in VALUES}
    if "map" in spec.params:
        axes["map"] = tuple(m for m, v in VARIANTS.items() if spec.variant in (None, v))
    families = itertools.product(("float", "rational"), BUILTIN_NAMES, range(1, 5), ("2", "1"))
    checks = [dict(zip(axes, values)) for values in itertools.product(*axes.values())]
    return [(*family, args) for family in families for args in checks]


def config(arithmetic: str, builtin: str, n: int, p: str, kind: str, args: dict) -> str:
    blocks = "[blocks]\nsets = 1 | 2\nweights = 1 | 1\n" if args.get("on") == "blocks" else ""
    params = "".join(f"{key} = {value}\n" for key, value in args.items())
    return (
        f"[sequence]\nbuiltin = {builtin}\nn = {n}\np = {p}\n{MAPS}\n{blocks}\n"
        f"[check c]\nkind = {kind}\n{params}\n[run]\nseed = 1\narithmetic = {arithmetic}\n"
    )


CASES = [
    pytest.param(kind, *case, id=f"{kind}-{i}")
    for kind in sorted(CHECKS)
    for i, case in enumerate(random.Random(kind).sample(grid(kind), PER_KIND))
]


@pytest.mark.parametrize("kind,arithmetic,builtin,n,p,args", CASES)
def test_a_loaded_config_exits_2_or_runs_to_the_end(tmp_path, kind, arithmetic, builtin, n, p, args):
    text = config(arithmetic, builtin, n, p, kind, args)
    path, out = tmp_path / "c.cfg", tmp_path / "r.json"
    path.write_text(text)
    code = main(["certify", "--config", str(path), "--out", str(out)])
    if code == 2:
        assert not out.exists()
    else:
        assert json.loads(out.read_text())["meta"]["failed"] is None, text
