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
PINNED = {
    1: "1bd437d07ff859c7ceacbd681793246778a5c0fb01921c575678638b17f8884b",
    2: "c59bdbbc49d92801d6c84f372fa308fe7b0d8d5610581c8ac983950142726e68",
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
SMOKE_PINNED = {
    ("theorem41", 1): "fe9b993c2bf13704e2bd58c1571b32b84e402a1af0490b716a60b24dc321e1d6",
    ("theorem41", 2): "eb5a251b32ce417f74bee0fb6deeb18e62e8fab955e4d22227ce117c45afcc20",
    ("theorem41", 3): "54fe1ede5a8fb0af8765d33b6d3faea59adbd9cf2a3e8038b3173de35c8e0430",
    ("james48", 1): "861538520dccafe0a4fc37154154cae02e0e53f856868a5b33a1d25cdd17cd57",
    ("james48", 2): "a30a73e7c8d1074d2bfce1697464e06889601c6109e8a3e96e416fc7e0f5ee03",
    ("james48", 3): "cfbd56b93c932a8c2d5a09d6dae2a62cb8d94465f93c92927a12f6e7b4533b45",
    ("rational_lin9", 1): "b792abd81ab8657508879445310bd19ed3c4daee20017b9c5589a160a4328465",
    ("rational_lin9", 2): "d70457473d1cdb0dd592e83abaa519a38c8774842c99c15dfb865f8f0c69ff40",
    ("rational_lin9", 3): "9026d2880b7085de647112565704580c6a025ac137b45bcfb8ba67570ec4dfff",
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
# scan, so they pin that no bit depends on the blocks.
FULL = SMOKE.parent
FULL_PINNED = {
    ("theorem41", 1): "070941084168236772c3b64dff2925e27687bc3a7c7ac692b268013b43d8b42e",
    ("theorem41", 2): "53a9cd9623520456a5e534a0503730ed8b246467df62c81cc539c383f7f11a4a",
    ("theorem41", 3): "a7d42e67c248013dc9ae832e346e1bee0581f3b86153a36e2b7de17ce2e4afed",
    ("james48", 1): "92b4c91c9cc75a2da81913f68a25dd48fc605d7df005b740b24a04b1bd1f803c",
    ("james48", 2): "eb5bf7e92e4c1f068ca6ab5bb866b54cb1e0f0682462d394d10cca60444543f4",
    ("james48", 3): "4ede59741cf6da627e733981842724536ffc97fe18c3ce2f1b2aa3cb5b603368",
    ("rational_lin9", 1): "efd19a76012b9be1c9929e82265fd79be2bfc899b78a56c6a1d70bed32f1b5b3",
    ("rational_lin9", 2): "47e29919ecdf5d07e575fe43ec3ef273351a00ca4032fc314b9afd2be8ca10e4",
    ("rational_lin9", 3): "b791954c66e8c9f879a8e3f22e7a8542bc37a6f0766d57655eaaa81c5f95edaa",
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
