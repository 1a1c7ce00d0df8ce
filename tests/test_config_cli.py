"""Config grammar, CLI subcommands, exit codes, report determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from seqcert.cli import main
from seqcert.config import load_config, parse_cli_tag, parse_coeff_list
from seqcert.errors import ConfigError

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
    assert report["meta"]["failed"] is None
    assert "wall_times" in report["meta"]


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
    cfgtext = MINIMAL.replace("kind = basis_constant", "kind = gap_bound")
    path = write(tmp_path, cfgtext)
    outs = []
    for seed in ("3", "4"):
        out = tmp_path / f"s{seed}.json"
        assert main(["certify", "--config", path, "--out", str(out), "--seed", seed]) == 0
        outs.append(json.loads(out.read_text())["certificates"][0]["constants"]["min_gap"])
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


def test_certify_runtime_failure_writes_partial_report(tmp_path):
    text = """
[sequence]
builtin = ell1_canonical
n = 12

[map f0]
variant = right_shift

[check bad]
kind = theta_rightshift_bound
map = f0
eps = 0.9
n_window = 4

[run]
seed = 3
"""
    path = write(tmp_path, text)
    out = tmp_path / "r.json"
    assert main(["certify", "--config", path, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["meta"]["failed"] is not None
    assert "eps" in report["meta"]["failed"]


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


def test_threads_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SEQCERT_THREADS", "4")
    path = write(tmp_path, MINIMAL)
    out = tmp_path / "r.json"
    assert main(["certify", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["meta"]["threads"] == 4


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


def test_basis_constant_check_leaves_kappa_alone(tmp_path, monkeypatch):
    """A basis_constant check reports its own interval; later checks keep the run's kappa."""
    path = write(tmp_path, KAPPA_ORDER)
    blocks = []
    for threads in ("1", "4"):
        monkeypatch.setenv("SEQCERT_THREADS", threads)
        out = tmp_path / f"r{threads}.json"
        main(["certify", "--config", path, "--out", str(out)])
        certs = json.loads(out.read_text())["certificates"]
        first, again = (dict(c, name=None) for c in (certs[0], certs[2]))
        assert first == again
        assert first["holds"]
        blocks.append(json.dumps(certs, indent=2, sort_keys=True))
    assert blocks[0] == blocks[1]
