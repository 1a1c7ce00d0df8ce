"""Config grammar, CLI subcommands, exit codes, report determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import seqcert.sequences
from seqcert.certificates import Certificate
from seqcert.checks import CHECKS
from seqcert.cli import RunContext, main
from seqcert.config import load_config, parse_cli_tag, parse_coeff_list
from seqcert.errors import ConfigError, ParameterError
from seqcert.fpmaps import RIGHT_SHIFT, AffineMapSpec, bilipschitz_estimate
from seqcert.sequences import BasicSequence, builtin_sequence
from seqcert.spaces import NormTag, summing_basis_norm_batch

REPO = Path(__file__).resolve().parent.parent
THEOREM41 = REPO / "configs" / "theorem41.cfg"

MINIMAL = """
[sequence]
builtin = ell1_canonical
n = 12

[map f0]
variant = right_shift

[check bc]
kind = basis_constant
samples = 64

[run]
seed = 3
"""


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_theorem41():
    cfg = load_config(THEOREM41)
    assert cfg.builtin == "ell1_canonical"
    assert cfg.n == 64
    assert cfg.seed == 7
    assert [c.kind for c in cfg.checks] == [
        "claim2_chain",
        "psp_equivalence",
        "bilipschitz",
        "fixed_point_residual",
    ]
    assert cfg.maps["f"].variant == "diag_shift"


def test_theta_validation_message(tmp_path):
    bad = MINIMAL.replace("variant = right_shift", "variant = diag_shift\ntheta = 1.5")
    path = write(tmp_path, bad)
    with pytest.raises(ConfigError, match=r"theta out of \(0,1\)"):
        load_config(path)
    assert main(["certify", "--config", path]) == 2


def test_missing_seed(tmp_path):
    path = write(tmp_path, MINIMAL.replace("seed = 3", ""))
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


def test_unknown_builtin(tmp_path):
    path = write(tmp_path, MINIMAL.replace("ell1_canonical", "wat"))
    with pytest.raises(ConfigError, match="unknown builtin"):
        load_config(path)


def test_unknown_check_kind(tmp_path):
    path = write(tmp_path, MINIMAL.replace("kind = basis_constant", "kind = wat"))
    with pytest.raises(ConfigError, match="unknown kind"):
        load_config(path)


def test_missing_config_file():
    assert main(["certify", "--config", "/nonexistent/x.cfg"]) == 2


def test_parse_cli_tags():
    assert parse_cli_tag("sup").variant == "sup"
    assert parse_cli_tag("lin").variant == "lin"
    assert parse_cli_tag("ell1").p == 1
    assert parse_cli_tag("ell1.5").p == 1.5
    assert parse_cli_tag("james2").p == 2
    with pytest.raises(ConfigError):
        parse_cli_tag("wat")
    with pytest.raises(ConfigError):
        parse_cli_tag("james1")


def test_parse_coeff_list_rational():
    assert parse_coeff_list("1/2, 1/2", "rational") == (
        pytest.approx(0.5),
        pytest.approx(0.5),
    )
    assert parse_coeff_list("", "float") == ()


def test_norm_command_outputs(capsys):
    assert main(["norm", "--tag", "lin", "--coeffs", "1,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "0.8888888888888888"
    assert main(["norm", "--tag", "james2", "--coeffs", "1,-1"]) == 0
    assert abs(float(capsys.readouterr().out) - 2**0.5) < 1e-12
    assert main(["norm", "--tag", "sup", "--coeffs", ""]) == 0
    assert float(capsys.readouterr().out) == 0.0
    assert main(["norm", "--tag", "lin", "--coeffs", "1,0,0", "--arithmetic", "rational"]) == 0
    assert capsys.readouterr().out.strip() == "8/9"


def test_norm_command_parse_failure(capsys):
    assert main(["norm", "--tag", "lin", "--coeffs", "1,zap"]) == 2
    assert "error" in capsys.readouterr().err


def test_certify_minimal_and_report_schema(tmp_path):
    path = write(tmp_path, MINIMAL)
    out = tmp_path / "report.json"
    assert main(["certify", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"config", "certificates", "meta"}
    cert = report["certificates"][0]
    assert set(cert) == {
        "name", "kind", "constants", "holds", "witness", "mode", "arithmetic", "flags",
    }
    assert set(report["meta"]) == {"versions", "setup_times", "kappa", "wall_times", "failed"}
    assert report["meta"]["failed"] is None
    assert set(report["meta"]["setup_times"]) == {"load", "sequence", "kappa", "maps"}
    assert report["meta"]["kappa"] == {
        "sequence": {"lower": "1/1", "upper": "1/1", "source": "proved-monotone"},
        "blocks": None,
    }


def test_meta_kappa_names_a_sampled_source(tmp_path):
    """summing_c0 is not prefix-shaped: its kappa is sampled, and meta says how."""
    text = MINIMAL.replace("builtin = ell1_canonical\nn = 12", "builtin = summing_c0\nn = 13")
    out = tmp_path / "report.json"
    assert main(["certify", "--config", write(tmp_path, text), "--out", str(out)]) == 0
    kappa = json.loads(out.read_text())["meta"]["kappa"]
    assert kappa["blocks"] is None
    seq = kappa["sequence"]
    assert seq["source"].startswith("sampled(count=512,seed=")
    assert 1.9 < Fraction(seq["lower"]) <= Fraction(seq["upper"]) <= 2  # exact family: "p/q"


@pytest.mark.parametrize("n", [11, 12])
def test_kappa_source_names_the_pm_one_patterns(tmp_path, n):
    """At 11 and 12 vectors the sampled kappa also evaluates all 2^n +-1
    patterns; meta.kappa and a basis_constant check's mode name them, with
    or without random samples."""
    text = MINIMAL.replace("builtin = ell1_canonical\nn = 12", f"builtin = summing_c0\nn = {n}")
    out = tmp_path / "report.json"
    main(["certify", "--config", write(tmp_path, text.replace("samples = 64", "samples = 0")), "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["meta"]["kappa"]["sequence"]["source"].startswith("pm-one+sampled(count=512,seed=")
    [cert] = report["certificates"]
    assert (cert["mode"], cert["flags"]) == ("pm-one", ["kappa-upper-heuristic"])


SWEEP = """
[sequence]
builtin = {name}
n = {n}

[map f]
variant = diag_shift
theta = 1/2

[map r]
variant = right_shift

[check claim2]
kind = claim2_chain
map = f

[check psp]
kind = psp_equivalence
map = f
samples = 50

[check gap]
kind = gap_bound
samples = 50
{extra}
[run]
seed = 1
"""

SWEEP_THETA = """
[check theta]
kind = theta_rightshift_bound
map = r
eps = 1/100
n_window = {window}
"""

SWEEP_BLOCKS = """
[blocks]
sets = 1,2 | 3,4 | 5,6
weights = 1/3,2/3 | 1/3,2/3 | 1/3,2/3

[check gap_blocks]
kind = gap_bound
on = blocks
samples = 50
"""

KAPPA_CONSUMERS = ("claim2_chain", "psp_equivalence", "gap_bound", "theta_rightshift_bound")


@pytest.mark.parametrize("blocks", [False, True], ids=["sequence", "pair-blocks"])
@pytest.mark.parametrize("n", [6, 13])
@pytest.mark.parametrize("name", ["ell1_canonical", "c0_canonical", "summing_c0", "lin_ell1"])
def test_kappa_flag_follows_the_source_in_meta(tmp_path, name, n, blocks):
    """Every certificate computed from kappa carries kappa-upper-heuristic
    exactly when meta.kappa says its target's kappa was not proved.  (lin has
    no dual norm, so no theta_rightshift_bound there.)"""
    extra = "" if name == "lin_ell1" else SWEEP_THETA.format(window=n - 2)
    extra += SWEEP_BLOCKS if blocks else ""
    out = tmp_path / "report.json"
    main(["certify", "--config", write(tmp_path, SWEEP.format(name=name, n=n, extra=extra)), "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["meta"]["failed"] is None
    kappa = report["meta"]["kappa"]
    certs = [c for c in report["certificates"] if c["kind"] in KAPPA_CONSUMERS]
    assert len(certs) == 3 + (name != "lin_ell1") + blocks
    for cert in certs:
        on = "blocks" if cert["name"] == "gap_blocks" else "sequence"
        sampled = kappa[on]["source"] != "proved-monotone"
        assert ("kappa-upper-heuristic" in cert["flags"]) == sampled, (cert["name"], kappa[on])
        assert sampled == (name == "summing_c0")


def test_certify_determinism_bytes(tmp_path):
    path = write(tmp_path, MINIMAL)
    blocks = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["certify", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        blocks.append(json.dumps(report["certificates"], sort_keys=True))
    assert blocks[0].encode() == blocks[1].encode()


def test_certify_seed_override_changes_sampled_results(tmp_path):
    cfgtext = MINIMAL.replace("kind = basis_constant", "kind = fixed_point_residual\nmap = f0")
    path = write(tmp_path, cfgtext)
    outs = []
    for seed in ("3", "4"):
        out = tmp_path / f"s{seed}.json"
        assert main(["certify", "--config", path, "--out", str(out), "--seed", seed]) == 0
        outs.append(json.loads(out.read_text())["certificates"][0]["constants"]["min_residual"])
    assert outs[0] != outs[1]


def test_certify_failing_certificate_exits_one(tmp_path):
    # lemma79 with an absurd upper constant fails on the canonical family
    text = """
[sequence]
builtin = ell1_canonical
n = 6

[check bad]
kind = lemma79
L = 1/2
p_max = 1
samples = 50

[run]
seed = 3
"""
    path = write(tmp_path, text)
    out = tmp_path / "r.json"
    assert main(["certify", "--config", path, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["certificates"][0]["holds"] is False


def test_certify_csv_sequence(tmp_path):
    csv_path = tmp_path / "vecs.csv"
    csv_path.write_text("c1,c2,c3\n1,0,0\n1/2,1/2,0\n0,0,1\n")
    text = """
[space]
tag = ell_p
p = 1

[sequence]
csv = vecs.csv

[check w]
kind = wide_s
samples = 0

[run]
seed = 5
arithmetic = rational
"""
    path = write(tmp_path, text)
    out = tmp_path / "r.json"
    assert main(["certify", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["certificates"][0]["arithmetic"] == "rational"


OVERFLOW = """
[space]
tag = ell_p
p = 2

[sequence]
csv = big.csv

[check wuc]
kind = wuc_constant
samples = 50

[check shift]
kind = shift_equivalence
p_max = 1
samples = 50

[check eq]
kind = equivalence
other = ell1_canonical
samples = 50

[check wide]
kind = wide_s
samples = 50

[run]
seed = 1
"""


def test_overflowing_spans_fail_their_certificates(tmp_path):
    """Every vector norm of this family is 1e154, so it loads, but the spans
    of most coefficient rows overflow.  A certificate whose constant is inf
    or nan fails with a flag, and the run goes on; wide_s stays finite.  A
    row whose shift ratio is inf / inf has no ratio, so it is neither an
    extreme nor a witness: shift_equivalence reads the rows whose spans stay
    finite.  No RuntimeWarning is raised: neither a division nor a sum whose
    correctly rounded result is inf warns.  Every witness re-evaluates to its
    constant."""
    (tmp_path / "big.csv").write_text("1e154,0,0,0\n0,1e154,0,0\n0,0,1e154,0\n0,0,0,1e154\n")
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["certify", "--config", write(tmp_path, OVERFLOW), "--out", str(out)])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 1
    report = json.loads(out.read_text())
    assert report["meta"]["failed"] is None
    certs = {c["name"]: c for c in report["certificates"]}
    assert certs["wuc"]["constants"]["c2_hat"] == float("inf")
    assert certs["eq"]["constants"]["r_min"] == 0.0
    assert certs["eq"]["constants"]["L_smallest"] == float("inf")
    for name in ("wuc", "eq"):
        assert certs[name]["holds"] is False and certs[name]["flags"] == ["non-finite-constant"], name
    shift = certs["shift"]
    assert shift["holds"] is True and shift["flags"] == []
    assert shift["constants"]["r_min_p1"] == shift["constants"]["r_max_p1"] == shift["constants"]["L_hat"] == 1.0
    wide = certs["wide"]
    assert wide["holds"] is True and wide["flags"] == []
    assert 1e153 < wide["constants"]["d_hat"] < 1e154

    s = BasicSequence(np.diag([1e154] * 4), NormTag.ell_p(2))
    ell1 = builtin_sequence("ell1_canonical", 4)

    def reevaluate(name, key, num, den):
        a = np.array([certs[name]["witness"][key]])
        with np.errstate(over="ignore"):
            return float(num(a)[0] / den(a)[0])

    assert reevaluate("wuc", "argmax", s.span_norm_batch, lambda a: np.max(np.abs(a), axis=1)) == float("inf")
    assert reevaluate("shift", "extreme", lambda a: s.span_norm_batch(a, 1), s.span_norm_batch) == 1.0
    for key, const in (("argmin", "r_min"), ("argmax", "r_max")):
        value = reevaluate("eq", key, ell1.span_norm_batch, s.span_norm_batch)
        assert value == certs["eq"]["constants"][const]
    d_hat = reevaluate("wide", "argmin", s.span_norm_batch, summing_basis_norm_batch)
    assert d_hat == certs["wide"]["constants"]["d_hat"]


def test_a_non_finite_constant_fails_the_certificate():
    def cert(value, flags=("a",)):
        return Certificate("k", {"x": 1, "y": value}, True, {}, "m", "float", flags)

    for value in (float("inf"), float("-inf"), float("nan"), np.float64("inf")):
        assert not cert(value).holds
        assert cert(value).flags == ("a", "non-finite-constant")
    for value in (None, 1.5, Fraction(1, 3), 10**400):
        assert cert(value).holds and cert(value).flags == ("a",)


def test_certify_runtime_failure_writes_partial_report(tmp_path, monkeypatch):
    """A check that raises while the checks run stops the run with exit 1; the
    report keeps the certificates of the checks before it and names the error."""
    text = """
[sequence]
builtin = ell1_canonical
n = 12

[map f0]
variant = right_shift

[check wide]
kind = wide_s
samples = 20

[check bad]
kind = theta_of_map
map = f0
n_window = 8

[run]
seed = 3
"""

    def fails(*args, **kwargs):
        raise ParameterError("theta failed mid-run")

    monkeypatch.setattr("seqcert.checks.theta_of_map", fails)
    path = write(tmp_path, text)
    out = tmp_path / "r.json"
    assert main(["certify", "--config", path, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert [c["name"] for c in report["certificates"]] == ["wide"]
    assert report["meta"]["failed"] == "ParameterError: theta failed mid-run"


def test_theta_bound_eps_beyond_its_limit_exits_2_before_any_check(tmp_path, monkeypatch, capsys):
    """eps < beta / (1 + 2 kappa) needs kappa, so it is checked right after
    kappa, before any check runs: here beta = 1 and kappa = 1, so the limit
    is 1/3."""
    text = """
[sequence]
builtin = ell1_canonical
n = 16

[map r]
variant = right_shift

[check wide]
kind = wide_s
samples = 20

[check bound]
kind = theta_rightshift_bound
map = r
eps = 1/2
n_window = 12

[run]
seed = 1
"""

    def no_check(*args, **kwargs):
        raise AssertionError("a check ran for a malformed config")

    monkeypatch.setattr("seqcert.cli.run_check", no_check)
    out = tmp_path / "r.json"
    assert main(["certify", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert "[check bound]: eps must lie in (0, 0.3333333333333333), got 1/2" in capsys.readouterr().err
    assert not out.exists()


def test_certify_rational_mode_end_to_end(tmp_path):
    text = """
[sequence]
builtin = ell1_canonical
n = 8

[map f]
variant = diag_shift
theta = 1/2

[check claim2]
kind = claim2_chain
map = f

[check psp]
kind = psp_equivalence
map = f
samples = 40

[run]
seed = 3
arithmetic = rational
"""
    path = write(tmp_path, text)
    out = tmp_path / "r.json"
    assert main(["certify", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for cert in report["certificates"]:
        assert cert["arithmetic"] == "rational"
        assert cert["holds"]
    claim2 = report["certificates"][0]["constants"]
    assert claim2["schedule_budget"] == "127/256"


def test_certify_rational_rejects_non_polyhedral_tag(tmp_path):
    text = """
[sequence]
builtin = james_summing
n = 6

[check w]
kind = wide_s
samples = 10

[run]
seed = 3
arithmetic = rational
"""
    path = write(tmp_path, text)
    assert main(["certify", "--config", path]) == 2


def test_certify_blocks_target(tmp_path):
    text = """
[sequence]
builtin = summing_c0
n = 8

[blocks]
sets = 1,2 | 4,5 | 7,8
weights = 1/2,1/2 | 1/2,1/2 | 1/2,1/2

[check wuc_blocks]
kind = wuc_constant
on = blocks
samples = 50

[check shift_blocks]
kind = shift_equivalence
on = blocks
p_max = 1
samples = 50

[run]
seed = 3
"""
    path = write(tmp_path, text)
    out = tmp_path / "r.json"
    assert main(["certify", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {c["name"] for c in report["certificates"]} == {"wuc_blocks", "shift_blocks"}


def test_certify_james_builtin(tmp_path):
    text = """
[sequence]
builtin = james_summing
n = 6
p = 2

[check bc]
kind = basis_constant
samples = 50

[check shift]
kind = shift_equivalence
p_max = 2
samples = 50

[run]
seed = 3
"""
    path = write(tmp_path, text)
    out = tmp_path / "r.json"
    assert main(["certify", "--config", path, "--out", str(out)]) == 0


def test_orbit_right_shift(tmp_path):
    text = """
[sequence]
builtin = ell1_canonical
n = 20

[map f0]
variant = right_shift

[orbit]
map = f0
x = delta:1
y = delta:1
n_window = 3

[run]
seed = 3
"""
    path = write(tmp_path, text)
    out = tmp_path / "orbit.csv"
    assert main(["orbit", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,distance"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert float(rows[0][1]) == 0.0
    assert all(float(r[1]) == 2.0 for r in rows[1:])


def test_orbit_zero_window_single_row(tmp_path):
    text = """
[sequence]
builtin = ell1_canonical
n = 20

[map f0]
variant = right_shift

[orbit]
map = f0
x = delta:1
y = delta:2
n_window = 0

[run]
seed = 3
"""
    path = write(tmp_path, text)
    out = tmp_path / "orbit.csv"
    assert main(["orbit", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) == 2.0


def test_orbit_diag_bounds_columns(tmp_path):
    text = """
[sequence]
builtin = ell1_canonical
n = 24

[map f]
variant = diag_shift
theta = 1/2

[orbit]
map = f
x = delta:1
y = delta:2
n_window = 4

[run]
seed = 3
"""
    path = write(tmp_path, text)
    out = tmp_path / "orbit.csv"
    assert main(["orbit", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,distance,iterate_gap,gap_lower_bound,gap_upper_bound"
    for line in lines[1:]:
        _, _, gap, lo, hi = (float(v) for v in line.split(","))
        assert lo - 1e-9 <= gap <= hi + 1e-9


@pytest.mark.parametrize("x", ["1/2,x", "delta:25", "1/2,1/2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"])
def test_malformed_orbit_point_exits_2_before_kappa(tmp_path, monkeypatch, x):
    def no_kappa(*args, **kwargs):
        raise AssertionError("basis_constant ran for a malformed orbit point")

    monkeypatch.setattr("seqcert.cli.basis_constant", no_kappa)
    text = f"""
[sequence]
builtin = ell1_canonical
n = 24

[map f]
variant = diag_shift
theta = 1/2

[orbit]
map = f
x = {x}
y = delta:2
n_window = 2

[run]
seed = 3
"""
    out = tmp_path / "orbit.csv"
    assert main(["orbit", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert not out.exists()


def test_orbit_requires_section(tmp_path):
    path = write(tmp_path, MINIMAL)
    assert main(["orbit", "--config", path]) == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "seqcert.cli", "norm", "--tag", "ell1", "--coeffs", "1,-2,3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout) == 6.0


def test_run_theorem41_script_summarizes_the_certify_report(tmp_path):
    """``scripts/run_theorem41.py`` prints one line per certificate of the
    report that ``seqcert certify`` writes for the bundled suite."""
    out = tmp_path / "script.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_theorem41.py"), "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    certs = json.loads(out.read_text())["certificates"]
    lines = proc.stdout.splitlines()
    assert lines[-1] == f"report: {out}"
    assert [line.split()[0] for line in lines[:-1]] == [c["name"] for c in certs]
    direct = tmp_path / "direct.json"
    assert main(["certify", "--config", str(THEOREM41), "--seed", "1", "--out", str(direct)]) == 0
    assert json.loads(direct.read_text())["certificates"] == certs


KAPPA_ORDER = """
[space]
tag = ell_p
p = 1

[sequence]
builtin = summing_c0
n = 12

[map f]
variant = diag_shift
theta = 1/2

[check claim2]
kind = claim2_chain
map = f

[check bc]
kind = basis_constant
samples = 64

[check claim2_again]
kind = claim2_chain
map = f

[check gap]
kind = gap_bound

[run]
seed = 3
"""


def test_basis_constant_check_leaves_kappa_alone(tmp_path):
    """A basis_constant check reports its own interval; later checks keep the run's kappa."""
    path = write(tmp_path, KAPPA_ORDER)
    out = tmp_path / "r.json"
    main(["certify", "--config", path, "--out", str(out)])
    certs = json.loads(out.read_text())["certificates"]
    first, again = (dict(c, name=None) for c in (certs[0], certs[2]))
    assert first == again
    assert first["holds"]


STRICT_BASE = """
[sequence]
builtin = ell1_canonical
n = 6

[map f]
variant = diag_shift
theta = 1/2

[map r]
variant = right_shift

[check ok]
kind = wide_s

[run]
seed = 3
"""


@pytest.mark.parametrize(
    "extra",
    [
        "[check c]\nkind = wide_s\nsample = 10",
        "[check c]\nkind = lemma79",
        "[check c]\nkind = bilipschitz\nmap = f\np_max = two",
        "[check c]\nkind = wide_s\non = block",
        "[check c]\nkind = wuc_constant\non = blocks",
        "[check c]\nkind = claim2_chain\nmap = f\non = sequence",
        "[check c]\nkind = claim2_chain\nmap = r",
        "[check c]\nkind = equivalence\nother = wat",
        "arithmetc = rational",
        "[map g]\nvariant = geometric\npolicy = grow",
        "[check c]\nkind = wide_s\nsamples = -5",
        "[check c]\nkind = bilipschitz\nmap = f\npairs = -1",
        "[check c]\nkind = bilipschitz\nmap = f\np_max = 0",
        "[check c]\nkind = theta_of_map\nmap = r\nn_window = 0",
        "[check c]\nkind = theta_of_map\nmap = r",
        "[check c]\nkind = theta_rightshift_bound\nmap = r\neps = 1/100",
        "[check c]\nkind = bilipschitz\nmap = f\np_max = 6",
        "[space]\ntag = lin\n\n[check c]\nkind = theta_rightshift_bound\nmap = r\neps = 1/100\nn_window = 4",
        "[check c]\nkind = theta_rightshift_bound\nmap = r\neps = 1/100\nn_window = 4\nphi = 1,1,1,1,1,1,1",
        "[check c]\nkind = theta_rightshift_bound\nmap = r\neps = 1/100\nn_window = 4\nphi = 1,1,1,1,1",
        "[check c]\nkind = theta_of_map\nmap = r\nn_window = 2",
        "arithmetic = rational\n\n[check c]\nkind = domination\nother = james_summing",
        "arithmetic = rational\n\n[check c]\nkind = equivalence\nother = james_summing",
        "[blocks]\nsets = 1,7\nweights = 1/2,1/2",
        "[blocks]\nsets = 3,4 | 1,2\nweights = 1/2,1/2 | 1/2,1/2",
        "[blocks]\nsets = 1,2\nweights = 1/2,1/3",
        "[blocks]\nsets = 1,2\nweights = 1",
        "[check c]\nkind = shift_equivalence\np_max = 6",
        "[check c]\nkind = lemma79\nL = 2\np_max = 6",
        "[blocks]\nsets = 1,2 | 3,4\nweights = 1/2,1/2 | 1/2,1/2\n\n"
        "[check c]\nkind = shift_equivalence\non = blocks\np_max = 2",
        "[check c]\nkind = summing_equivalence\nc1 = 0\nc2 = 1",
        "[check c]\nkind = summing_equivalence\nc1 = 1\nc2 = -1/2",
        "[check c]\nkind = lemma79\nL = 0",
        "[check c]\nkind = theta_rightshift_bound\nmap = r\neps = 0\nn_window = 4",
        (11, "[check c]\nkind = wide_s\nsamples = 0"),
        (11, "arithmetic = rational\n\n[check c]\nkind = equivalence\nother = c0_canonical\nsamples = 0"),
        (13, "[check c]\nkind = basis_constant\nsamples = 0"),
        (12, "[check c]\nkind = psp_equivalence\nmap = f\nsamples = 0"),
        (13, "[check c]\nkind = lemma79\nL = 2\np_max = 2\nsamples = 0"),
    ],
    ids=[
        "sample-typo",
        "lemma79-without-L",
        "p_max-two",
        "on-block",
        "on-blocks-without-blocks",
        "on-for-claim2",
        "claim2-on-right-shift",
        "other-wat",
        "run-key-typo",
        "geometric-grow",
        "negative-samples",
        "negative-pairs",
        "p_max-zero",
        "theta-window-zero",
        "theta-window-beyond-family",
        "theta-bound-window-beyond-family",
        "bilipschitz-steps-beyond-family",
        "theta-bound-without-dual-norm",
        "theta-bound-phi-beyond-ambient",
        "theta-bound-gamma-zero",
        "theta-window-vertex-pairs-meet",
        "rational-domination-other-not-piecewise-linear",
        "rational-equivalence-other-not-piecewise-linear",
        "block-index-beyond-family",
        "blocks-not-increasing",
        "block-weights-not-summing-to-1",
        "block-weight-count-not-block-size",
        "shift-p_max-not-below-family-length",
        "lemma79-p_max-not-below-family-length",
        "shift-p_max-not-below-block-count",
        "summing-c1-zero",
        "summing-c2-negative",
        "lemma79-L-zero",
        "theta-bound-eps-zero",
        "wide_s-samples-0-on-11-vectors",
        "rational-equivalence-samples-0-on-11-vectors",
        "basis_constant-samples-0-on-13-vectors",
        "psp-samples-0-on-11-schedule-steps",
        "lemma79-samples-0-on-11-shifted-coefficients",
    ],
)
def test_malformed_config_exits_2_before_any_work(tmp_path, monkeypatch, extra):
    """An ``extra`` is config text, or (n, text) for a family of n vectors."""
    def no_kappa(*args, **kwargs):
        raise AssertionError("basis_constant ran for a malformed config")

    monkeypatch.setattr("seqcert.cli.basis_constant", no_kappa)
    monkeypatch.setattr("seqcert.checks.basis_constant", no_kappa)
    n, extra = extra if isinstance(extra, tuple) else (6, extra)
    base = STRICT_BASE.replace("n = 6", f"n = {n}")
    load_config(write(tmp_path, base, "base.cfg"))  # the base alone is valid
    # the [run] section comes last, so a bare key line lands in it
    path = write(tmp_path, base + extra + "\n")
    out = tmp_path / "r.json"
    assert main(["certify", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "n,extra",
    [
        (10, "[check c]\nkind = wide_s\nsamples = 0"),
        (12, "[check c]\nkind = basis_constant\nsamples = 0"),
        (11, "[check c]\nkind = psp_equivalence\nmap = f\nsamples = 0"),
        (12, "[check c]\nkind = lemma79\nL = 2\np_max = 2\nsamples = 0"),
    ],
    ids=["wide_s-10", "basis_constant-12", "psp-10-steps", "lemma79-10-shifted"],
)
def test_zero_samples_run_where_every_row_is_enumerated(tmp_path, n, extra):
    """The widest scans that ``samples = 0`` still fills with sign patterns
    pass the load-time check and run to the end."""
    path = write(tmp_path, STRICT_BASE.replace("n = 6", f"n = {n}") + extra + "\n")
    out = tmp_path / "r.json"
    assert main(["certify", "--config", path, "--out", str(out)]) in (0, 1)
    report = json.loads(out.read_text())
    assert report["meta"]["failed"] is None
    assert [c["name"] for c in report["certificates"]] == ["ok", "c"]


def test_other_family_is_built_with_the_configured_p(tmp_path):
    """``other = james_summing`` on james_summing with p = 3 is the family
    itself, so both constants are 1; the echo's ``sequence.p`` is the p of
    both families."""
    text = """
[sequence]
builtin = james_summing
n = 6
p = 3

[check eq]
kind = equivalence
other = james_summing
samples = 200

[check dom]
kind = domination
other = james_summing
samples = 200

[run]
seed = 1
"""
    out = tmp_path / "r.json"
    assert main(["certify", "--config", write(tmp_path, text), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["sequence"]["p"] == 3.0
    eq, dom = report["certificates"]
    assert eq["constants"]["L_smallest"] == 1.0
    assert dom["constants"]["L_hat"] == 1.0


def test_other_family_the_configured_p_rules_out_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    """The load-time rule builds ``other`` with ``[sequence] p``, as the runner
    does: james_summing needs p > 1, so p = 1 exits 2 with no report."""
    text = """
[sequence]
builtin = ell1_canonical
n = 4
p = 1

[check eq]
kind = equivalence
other = james_summing
samples = 10

[run]
seed = 1
"""

    def no_kappa(*args, **kwargs):
        raise AssertionError("basis_constant ran for a malformed config")

    monkeypatch.setattr("seqcert.cli.basis_constant", no_kappa)
    out = tmp_path / "r.json"
    assert main(["certify", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert "[check eq]: james requires p > 1, got 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["certify", "orbit"])
def test_dependent_csv_family_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command):
    """A CSV family that is not a basic sequence is a config error.  (Not an
    ``extra`` of the test above: its base already has a [sequence].)"""
    def no_kappa(*args, **kwargs):
        raise AssertionError("basis_constant ran for a dependent family")

    monkeypatch.setattr("seqcert.cli.basis_constant", no_kappa)
    (tmp_path / "family.csv").write_text("1,0,0\n0,1,0\n1,1,0\n")
    text = """
[space]
tag = sup

[sequence]
csv = family.csv

[map r]
variant = right_shift

[check ok]
kind = wide_s

[orbit]
x = delta:1
y = delta:2
n_window = 1

[run]
seed = 3
"""
    out = tmp_path / "r.out"
    assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert "linearly dependent" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_csv_family_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    """A family whose float norms overflow is not seminormalized: it is
    rejected at load, not certified with d_hat = inf or divided by mid-run."""
    def no_kappa(*args, **kwargs):
        raise AssertionError("basis_constant ran for a family with infinite norms")

    monkeypatch.setattr("seqcert.cli.basis_constant", no_kappa)
    rows = (",".join("1e200" if j == i else "0" for j in range(4)) for i in range(4))
    (tmp_path / "family.csv").write_text("\n".join(rows) + "\n")
    text = """
[space]
tag = ell_p
p = 2

[sequence]
csv = family.csv

[check wide]
kind = wide_s

[check eq]
kind = equivalence
other = ell1_canonical

[run]
seed = 1
"""
    out = tmp_path / "r.json"
    assert main(["certify", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("arithmetic", ["float", "rational"])
def test_csv_entry_beyond_the_float_range_exits_2(tmp_path, capsys, arithmetic):
    """1e400 has no float: a float run cannot coerce it, and a rational
    family cannot take its float image, so both are input errors."""
    (tmp_path / "family.csv").write_text("1e400,0\n0,1\n")
    text = f"""
[space]
tag = ell_p
p = 1

[sequence]
csv = family.csv

[check wide]
kind = wide_s

[run]
seed = 1
arithmetic = {arithmetic}
"""
    out = tmp_path / "r.json"
    assert main(["certify", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_norm_of_a_coefficient_beyond_the_float_range(capsys):
    """A float norm of 1e400 is an input error; a rational one is exact."""
    assert main(["norm", "--tag", "sup", "--coeffs", "1e400"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert main(["norm", "--tag", "sup", "--coeffs", "1e400", "--arithmetic", "rational"]) == 0
    assert capsys.readouterr().out.strip() == str(10**400)


def test_residual_on_one_vector_exits_2_before_any_work(tmp_path, monkeypatch):
    """One right-shift step leaves no start length on a one-vector family."""
    def no_kappa(*args, **kwargs):
        raise AssertionError("basis_constant ran for a residual the family cannot support")

    monkeypatch.setattr("seqcert.cli.basis_constant", no_kappa)
    text = """
[sequence]
builtin = ell1_canonical
n = 1

[map r]
variant = right_shift

[check res]
kind = fixed_point_residual
map = r

[run]
seed = 3
"""
    out = tmp_path / "r.json"
    assert main(["certify", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert not out.exists()


BILIPSCHITZ_ON_TWO = """
[sequence]
builtin = ell1_canonical
n = 2

[map f]
variant = diag_shift
theta = 1/2
policy = {policy}

[check bip]
kind = bilipschitz
map = f
pairs = {pairs}

[run]
seed = 3
"""


@pytest.mark.parametrize("pairs", [0, 5])
def test_bilipschitz_from_one_start_coefficient_exits_2_before_any_work(tmp_path, monkeypatch, capsys, pairs):
    """One grown diag-shift step leaves a two-vector family one start
    coefficient, where every vertex pair has x = y: the check is rejected
    by name at load, not failed mid-run, and the op raises on its own."""
    def no_kappa(*args, **kwargs):
        raise AssertionError("basis_constant ran for a bilipschitz check with no distinct pairs")

    monkeypatch.setattr("seqcert.cli.basis_constant", no_kappa)
    out = tmp_path / "r.json"
    text = BILIPSCHITZ_ON_TWO.format(policy="grow", pairs=pairs)
    assert main(["certify", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert "[check bip]" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ParameterError, match="2 start coefficients"):
        bilipschitz_estimate(AffineMapSpec.right_shift(), builtin_sequence("ell1_canonical", 2))


@pytest.mark.parametrize("pairs", [0, 5])
def test_bilipschitz_from_two_start_coefficients_runs(tmp_path, pairs):
    """Folding the tail keeps both coefficients: the same family certifies."""
    out = tmp_path / "r.json"
    text = BILIPSCHITZ_ON_TWO.format(policy="fold_tail", pairs=pairs)
    assert main(["certify", "--config", write(tmp_path, text), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["certificates"][0]["holds"] is True


def test_arithmetic_override_coerces_block_weights(tmp_path):
    text = """
[sequence]
builtin = c0_canonical
n = 6

[blocks]
sets = 1,2 | 3,4 | 5,6
weights = 1/3,2/3 | 1/3,2/3 | 1/3,2/3

[check wide]
kind = wide_s
on = blocks
samples = 20

[run]
seed = 3
arithmetic = float
"""
    path = write(tmp_path, text)
    out = tmp_path / "r.json"
    assert main(["certify", "--config", path, "--out", str(out), "--arithmetic", "rational"]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["arithmetic"] == "rational"
    assert report["config"]["blocks"]["weights"] == [["1/3", "2/3"]] * 3
    cert = report["certificates"][0]
    assert cert["arithmetic"] == "rational"
    assert cert["constants"]["d_hat"] == "2/9"  # exact blocks: sup norm 2/3, not 0.666...


def test_negative_seed_override_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    def no_kappa(*args, **kwargs):
        raise AssertionError("basis_constant ran for a negative --seed")

    monkeypatch.setattr("seqcert.cli.basis_constant", no_kappa)
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--config", str(THEOREM41), "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


EVERY_KEY = """
[space]
tag = ell_p
p = 1

[sequence]
builtin = summing_c0
n = 8
p = 3/2

[map d]
variant = diag_shift
theta = 1/3
policy = fold_tail

[map r]
variant = right_shift
policy = grow

[map b]
variant = bilateral

[map g]
variant = geometric
policy = fold_tail

[blocks]
sets = 1,2 | 4,5 | 7,8
weights = 1/2,1/2 | 1/3,2/3 | 1/4,3/4

[check psp]
kind = psp_equivalence
map = d
samples = 40

[check shift]
kind = shift_equivalence
on = blocks
p_max = 1

[orbit]
map = r
x = delta:1
y = 1/2,1/2
n_window = 3

[run]
seed = 11
arithmetic = rational
"""


def test_echo_dict_of_every_section_and_key(tmp_path):
    """The report's config block, as recorded before the sections shared one schema."""
    assert load_config(write(tmp_path, EVERY_KEY)).echo_dict() == {
        "space": "ell_p(1)",
        "sequence": {"builtin": "summing_c0", "csv": None, "n": 8, "p": 1.5},
        "maps": {
            "d": {"variant": "diag_shift", "theta": 0.3333333333333333, "policy": "fold_tail"},
            "r": {"variant": "right_shift", "theta": None, "policy": "grow"},
            "b": {"variant": "bilateral", "theta": None, "policy": None},
            "g": {"variant": "geometric", "theta": None, "policy": "fold_tail"},
        },
        "blocks": {
            "sets": [[1, 2], [4, 5], [7, 8]],
            "weights": [["1/2", "1/2"], ["1/3", "2/3"], ["1/4", "3/4"]],
        },
        "checks": [
            {"name": "psp", "kind": "psp_equivalence", "params": {"map": "d", "samples": "40"}},
            {"name": "shift", "kind": "shift_equivalence", "params": {"on": "blocks", "p_max": "1"}},
        ],
        "orbit": {"map": "r", "x": "delta:1", "y": "1/2,1/2", "n_window": 3},
        "seed": 11,
        "arithmetic": "rational",
    }


BUNDLED = sorted((REPO / "configs").glob("*.cfg")) + sorted((REPO / "bench" / "workloads").rglob("*.cfg"))
REQUIRED_VALUES = {"eps": "1/100", "other": "c0_canonical", "c1": "1/4", "c2": "3", "p_max": "1", "L": "2"}


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: str(p.relative_to(REPO)))
def test_bundled_configs_load(path):
    assert load_config(path).checks


@pytest.mark.parametrize(
    "path",
    [THEOREM41, *sorted((REPO / "bench" / "workloads" / "smoke").glob("*.cfg"))],
    ids=lambda p: str(p.relative_to(REPO)),
)
def test_set_up_draws_no_kappa_rows_on_bundled_families(monkeypatch, path):
    """Every bundled family is prefix-shaped under a monotone norm, so the
    run's kappa is the proved (1, 1) and set-up samples nothing."""
    rows = []
    original = seqcert.sequences.coefficient_rows

    def counted(m, budget, **kw):
        out = original(m, budget, **kw)
        rows.append(len(out.coeffs))
        return out

    monkeypatch.setattr("seqcert.sequences.coefficient_rows", counted)
    ctx = RunContext(load_config(path))
    assert rows == []
    assert set(ctx.kappa) == ({"sequence"} if ctx.blocks_seq is None else {"sequence", "blocks"})
    assert {k.source for k in ctx.kappa.values()} == {"proved-monotone"}
    assert all(float(k.lower) == float(k.upper) == 1.0 for k in ctx.kappa.values())


@pytest.mark.parametrize("kind", sorted(CHECKS))
def test_every_check_kind_runs_with_only_required_parameters(tmp_path, kind):
    spec = CHECKS[kind]
    values = dict(REQUIRED_VALUES, map="r" if spec.variant == RIGHT_SHIFT else "f")
    lines = [f"{key} = {values[key]}" for key, (_, default) in spec.params.items() if default is None]
    check = "\n".join([f"[check c]\nkind = {kind}", *lines])
    # n = 64: the default theta window of 50 steps needs a family longer than 50
    text = STRICT_BASE.replace("n = 6", "n = 64").replace("[check ok]\nkind = wide_s", check)
    path = write(tmp_path, text)
    out = tmp_path / "r.json"
    assert main(["certify", "--config", path, "--out", str(out)]) in (0, 1)
    report = json.loads(out.read_text())
    assert report["meta"]["failed"] is None
    assert [c["name"] for c in report["certificates"]] == ["c"]
    if kind == "theta_rightshift_bound":
        assert isinstance(report["certificates"][0]["constants"]["eps"], float)
