"""Pinned certificate bytes for a rational suite covering every rational-capable check kind,
and for the three smoke benchmark workloads.

The sha256 values below are those of the certificates block that ``seqcert
certify`` writes for ``SUITE``; a change to any exact constant, witness, flag
or mode label of these checks changes them.  They were recorded with the
hand-written per-op Fraction loops that the shared numpy scan on exact
object arrays replaced, so they also pin that replacement.
"""

import hashlib
import json
from pathlib import Path

import pytest

from seqcert.cli import main

SMOKE = Path(__file__).resolve().parent.parent / "bench" / "workloads" / "smoke"

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


# The certificates block of each smoke workload, serialised as
# ``bench/verify.certificates_bytes`` does.  Every family there has a proved
# kappa, so no kappa flag or source change may move these bytes.
SMOKE_PINNED = {
    ("theorem41", 1): "4cbb735135ada0fa150ec813ae6dfb2f3444ad7508368d059e1771739b4fb2ef",
    ("theorem41", 2): "96a69a5cb8bb190c5389989f5cad5bda30f688507644bbd14b24a6f33263d742",
    ("theorem41", 3): "0674c77a9b0144e6f63b6449d667ae02939fa0c816d83f37456a0b471038c549",
    ("james48", 1): "760cadda354410bbc655e608e552a164cb89686bb5a2972b4bbeac65f331e651",
    ("james48", 2): "3b27905adbe15622cfb7b22d1884146e7bc8fbb9e519239593b203da4bcf976d",
    ("james48", 3): "c818e72f6b63a58bcbc0c6da244bf5933a3078ffe620c3c10aa3c4c43be41fdc",
    ("rational_lin9", 1): "cd6ab06baa9c949c92f50ec9dcde0908f89435180bcb15eb96048d04643fe134",
    ("rational_lin9", 2): "199cf008300bc59df61e5b81a03932e0f3cf7ee4222a018a2579ef1a9958a39a",
    ("rational_lin9", 3): "d66a1190bbe8dd924a937bdcb23c2d5b4c867cf3764a72a064c62c0e560599b5",
}


@pytest.mark.parametrize("workload,seed", sorted(SMOKE_PINNED))
def test_smoke_workload_certificates_are_pinned(tmp_path, workload, seed):
    out = tmp_path / "report.json"
    config = str(SMOKE / f"{workload}.cfg")
    assert main(["certify", "--config", config, "--seed", str(seed), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    block = json.dumps(report["certificates"], indent=2, sort_keys=True).encode()
    assert hashlib.sha256(block).hexdigest() == SMOKE_PINNED[workload, seed]
