"""Pinned certificate bytes for a rational suite covering every rational-capable check kind,
and for the three benchmark workloads, at full size and as smoke configs.

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

# Re-recorded when bilipschitz began to report each iterate's c1_p{p} and
# c2_p{p}; with those removed, every block kept its bytes.
# Re-recorded when rational mode began to evaluate the exact images of the
# float draw (``sampling``: integer coefficient rows of largest |entry| 64,
# simplex points on the 2^-10 grid) and bilipschitz all ``pairs`` pairs, not
# half of them: psp's ratio extremes, bilip's constants and witnesses and
# sumeq's margin_upper and worst_upper moved, and residual's mode became
# "vertices(6)+sampled(...)"; every other certificate kept its bytes.
PINNED = {
    1: "2fb066a0207d3009e692578c2e5616839925a042b5b8f659d428cccf0acdcfb5",
    2: "840d142dbf4c440dbb87fa13f3048dc3347268463ac67fbb16dc83e689c69310",
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
# kappa, so no kappa flag or source change may move these bytes.  Re-recorded
# for the per-iterate bilipschitz constants, as ``PINNED`` was, and james48's
# again when float lemma79 began to print its ``L`` and ``lower_c`` as the
# floats its verdict uses ("L": 2.0, not "2/1"); nothing else moved.
# james48 seed 1 again when the map scans began to read coefficient rows
# against the family pushed through f^p (``fpmaps.pushed_families``): the
# float bilipschitz spans round differently in their last bits, so c1_p1
# reads 0.9374999999999999 (was 0.9375), c1_p2 and c1_hat 0.8789062499999999
# (was 0.87890625), L_hat moves with them, and the minimizing pair is now a
# sampled pair instead of the vertex pair (e_1, e_2).
# james48 seeds 1-3 again when gap_bound became analytic (its bound derived
# from kappa): only the ``gap`` certificate moved, which lost ``min_gap`` and
# its head/tail witness and reads mode "analytic"; its bound, kappa_upper,
# verdict and flags kept their bytes.
# theorem41 seeds 1-3 again when the residual check's mode began to count
# the n simplex vertices it evaluates ("vertices(15)+sampled(...)"); no
# other key moved.  rational_lin9 seeds 1-3 again when rational mode began
# to evaluate the exact images of the float draw (see ``PINNED``): bilip's
# c1 constants, L_hat and minimizing pair moved at every seed, and equiv's
# r_min, L_smallest and argmin at seeds 1 and 2.
SMOKE_PINNED = {
    ("theorem41", 1): "6049dcd994299e8ae8436ee6a8bd6f3ddfbf696e9875d4873ec804df8ed09b6b",
    ("theorem41", 2): "f8a41ab7b630cd941ba58ca5bdfd25a5ba56b9d3a53cf8eade2aaeff5836bc8b",
    ("theorem41", 3): "8fa07f167da65ddec1c38127bc8f6580f170d29228805823715cef99f0df6502",
    ("james48", 1): "861538520dccafe0a4fc37154154cae02e0e53f856868a5b33a1d25cdd17cd57",
    ("james48", 2): "a30a73e7c8d1074d2bfce1697464e06889601c6109e8a3e96e416fc7e0f5ee03",
    ("james48", 3): "cfbd56b93c932a8c2d5a09d6dae2a62cb8d94465f93c92927a12f6e7b4533b45",
    ("rational_lin9", 1): "fe0ce7093fd03992413e3436ce044ff9082708785dfdada711e6251435aed0cc",
    ("rational_lin9", 2): "e1288cd2873c0cf065d76d4675358653f63d9a78c48a43a7e0adbbc5fddae232",
    ("rational_lin9", 3): "6a3148036db0efe05ddcd509a7444353763b785cd3bc2df57d20614ce97c5012",
}


@pytest.mark.parametrize("workload,seed", sorted(SMOKE_PINNED))
def test_smoke_workload_certificates_are_pinned(tmp_path, workload, seed):
    out = tmp_path / "report.json"
    config = str(SMOKE / f"{workload}.cfg")
    assert main(["certify", "--config", config, "--seed", str(seed), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    block = json.dumps(report["certificates"], indent=2, sort_keys=True).encode()
    assert hashlib.sha256(block).hexdigest() == SMOKE_PINNED[workload, seed]


# The certificates block of each full-size benchmark workload
# (``bench/workloads/*.cfg``), serialised the same way.  Unlike the smoke
# configs, these cross many ``spaces.BLOCK_CELLS`` row blocks in every float
# scan, so they pin that no bit depends on the blocks.  theorem41 was
# re-recorded for the residual's "vertices(63)+sampled(...)" mode, its only
# moved key, and rational_lin9 for the exact images of the float draw: only
# its bilip certificate moved (every constant and witness), at seeds 1-3.
FULL = SMOKE.parent
FULL_PINNED = {
    ("theorem41", 1): "920e745836077c543fd4c851ccef9f0800621ea042a12e9c84e1a2f767a84c09",
    ("theorem41", 2): "343900e4be78b3fb025e4257946bc9dca8f93987cc83ccc23e6c797ebcbd9692",
    ("theorem41", 3): "747b28d7914983a15fa0c69140c6bbf761bf28f7bc9509c0db9d9317c7eb770c",
    ("james48", 1): "92b4c91c9cc75a2da81913f68a25dd48fc605d7df005b740b24a04b1bd1f803c",
    ("james48", 2): "eb5bf7e92e4c1f068ca6ab5bb866b54cb1e0f0682462d394d10cca60444543f4",
    ("james48", 3): "4ede59741cf6da627e733981842724536ffc97fe18c3ce2f1b2aa3cb5b603368",
    ("rational_lin9", 1): "8e9bb9dda2e02d170191f506da690208a0da3e6274b996e231fa587f0055acca",
    ("rational_lin9", 2): "107f505f839da974da6bbf71b6ebdb1fc871209c1ba553fa2e7f86b72dcdc643",
    ("rational_lin9", 3): "0183108be5a183be0581c36bae72b0dbe70e2acb8356e73a4cfee1257ebfd294",
}


@pytest.mark.parametrize("workload,seed", sorted(FULL_PINNED))
def test_full_workload_certificates_are_pinned(tmp_path, workload, seed):
    out = tmp_path / "report.json"
    config = str(FULL / f"{workload}.cfg")
    assert main(["certify", "--config", config, "--seed", str(seed), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    block = json.dumps(report["certificates"], indent=2, sort_keys=True).encode()
    assert hashlib.sha256(block).hexdigest() == FULL_PINNED[workload, seed]


# A family whose kappa is sampled: ``summing_c0`` is not prefix-shaped, so
# ``basis_constant`` draws rows, and its value reaches ``gap_bound`` and
# ``claim2_chain`` through the run context.  These bytes pin the sampled
# kappa's ratio scan (its lower end and the local-search upper end).
# Re-recorded when gap_bound became analytic: ``gap`` and ``gap_blocks`` lost
# ``min_gap`` and their head/tail witness and read mode "analytic"; their
# bound, kappa_upper, verdict and kappa-upper-heuristic flag kept their bytes.
SAMPLED_KAPPA_SUITE = """
[sequence]
builtin = summing_c0
n = {n}

[map f]
variant = diag_shift
theta = 1/2

[blocks]
sets = 1,2 | 3,4 | 5,6 | 7,8
weights = 1/2,1/2 | 1/2,1/2 | 1/2,1/2 | 1/2,1/2

[check kappa]
kind = basis_constant
samples = 256

[check kappa_blocks]
kind = basis_constant
on = blocks
samples = 256

[check gap]
kind = gap_bound
samples = 200

[check gap_blocks]
kind = gap_bound
on = blocks
samples = 200

[check claim2]
kind = claim2_chain
map = f

[run]
seed = 1
arithmetic = float
"""

SAMPLED_KAPPA_PINNED = {
    (8, 1): "4bf3d3d9601eed1cab7a7e83b418dcb647e133491b830acc7d5695c0a3afbe16",
    (8, 2): "cfd1ba5bf58922073cdbfc34484bf462fc0a97d429fe06bf11f13580db619a38",
    (13, 1): "f4303164c35c3dcc1bc4bec889bab8e77f5c907ee5e78102b2fc76441e7e2860",
    (13, 2): "c58dbbeb4f3cf254088ad12f592d6441cbb028fbf0e00d830f401729ff5b78cd",
}


@pytest.mark.parametrize("n,seed", sorted(SAMPLED_KAPPA_PINNED))
def test_sampled_kappa_certificates_are_pinned(tmp_path, n, seed):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(SAMPLED_KAPPA_SUITE.format(n=n))
    out = tmp_path / "report.json"
    assert main(["certify", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["meta"]["failed"] is None
    kappas = [c for c in report["certificates"] if c["kind"] == "basis_constant"]
    assert len(kappas) == 2 and all(c["mode"] != "proved-monotone" for c in kappas)
    block = json.dumps(report["certificates"], indent=2, sort_keys=True).encode()
    assert hashlib.sha256(block).hexdigest() == SAMPLED_KAPPA_PINNED[n, seed]
