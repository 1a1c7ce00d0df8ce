"""Pinned certificate bytes for a rational suite covering every rational-capable check kind.

The sha256 values below are those of the certificates block that ``seqcert
certify`` writes for ``SUITE``; a change to any exact constant, witness, flag
or mode label of these checks changes them.  They were recorded with the
hand-written per-op Fraction loops that the shared numpy scan on exact
object arrays replaced, so they also pin that replacement.
"""

import hashlib
import json

import pytest

from seqcert.cli import main

SUITE = """
[sequence]
builtin = lin_ell1
n = 7

[map f]
variant = diag_shift
theta = 1/2

[blocks]
sets = 1,2 | 3,4 | 5,6
weights = 1/3,2/3 | 1/2,1/2 | 1/4,3/4

[check claim2]
kind = claim2_chain
map = f

[check psp]
kind = psp_equivalence
map = f
samples = 40

[check bilip]
kind = bilipschitz
map = f
p_max = 2
pairs = 40

[check residual]
kind = fixed_point_residual
map = f
samples = 40

[check dom]
kind = domination
other = summing_c0
samples = 40

[check equiv]
kind = equivalence
other = summing_c0
samples = 40

[check wide]
kind = wide_s
samples = 40

[check wuc]
kind = wuc_constant
on = blocks
samples = 40

[check sumeq]
kind = summing_equivalence
on = blocks
c1 = 1/4
c2 = 3
samples = 40

[check shift]
kind = shift_equivalence
p_max = 2
samples = 40

[check lemma]
kind = lemma79
on = blocks
L = 2
lower_c = symmetric
samples = 40

[run]
seed = 1
arithmetic = rational
"""

KINDS = [
    "claim2_chain",
    "psp_equivalence",
    "bilipschitz",
    "fixed_point_residual",
    "domination",
    "equivalence",
    "wide_s",
    "wuc_constant",
    "summing_equivalence",
    "shift_equivalence",
    "lemma79_conclusion",
]

PINNED = {
    1: "98eeed080d967d580886e26bab0840ae19b3c794bf888d7513ddd7bb7e7101cd",
    2: "83a82980059264a665f52c0461173d6a95b9ab847c31a2f8dc11215523bdc1d2",
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_rational_suite_certificates_are_pinned(tmp_path, seed):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(SUITE)
    out = tmp_path / "report.json"
    assert main(["certify", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["meta"]["failed"] is None
    assert [c["kind"] for c in report["certificates"]] == KINDS
    assert all(c["arithmetic"] == "rational" for c in report["certificates"])
    block = json.dumps(report["certificates"], indent=2, sort_keys=True).encode()
    assert hashlib.sha256(block).hexdigest() == PINNED[seed]
