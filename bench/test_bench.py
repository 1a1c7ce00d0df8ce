"""Self-test of the benchmark: output format, smoke runs, span accounting, correctness checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_seqcert()

import spans  # noqa: E402
import verify  # noqa: E402
import seqcert.cli  # noqa: E402


def _run(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_benchmark_json_matches_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for workload in run.WORKLOADS:
        assert run.config_path(workload, smoke=False).is_file()
        assert run.config_path(workload, smoke=True).is_file()


def test_theorem41_is_the_bundled_suite():
    bundled = run.ROOT / "configs" / "theorem41.cfg"
    assert run.config_path("theorem41", smoke=False).read_bytes() == bundled.read_bytes()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (3 if trace else 2)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "theorem41", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_self_times_partition_the_root_span():
    rec = spans.Recorder()
    with rec.installed(spans.LAYER_TARGETS):
        argv = ["certify", "--config", str(run.config_path("james48", smoke=True)), "--seed", "2"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert rec.call("cli.main", seqcert.cli.main, argv) == 0
    assert seqcert.cli.run_check.__module__ == "seqcert.cli"  # wrappers removed
    assert not hasattr(seqcert.cli.run_check, "__wrapped__")
    own = spans.self_times(rec.spans)
    root = rec.spans[0]
    assert min(own) >= -1e-9
    assert sum(own) == pytest.approx(root[spans.END] - root[spans.START], rel=1e-9)
    agg = spans.aggregate(rec.spans)
    assert agg["cli.run_check.gap_bound.calls"] == 1
    assert agg["spaces.norm_batch.james.self_s"] > 0
    assert agg["sequences.basis_constant.calls"] == 2  # sequence and blocks
    sampling_spans = sum(s[spans.NAME].startswith(spans.SAMPLING_PREFIX) for s in rec.spans)
    assert 0 < agg["sampling.calls"] < sampling_spans  # nested sampling calls are not counted


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0)  # ten samples beyond the 90th value


def _report(names, holds=True, failed=None):
    certs = [{"name": n, "holds": holds, "constants": {}} for n in names]
    return {"certificates": certs, "meta": {"failed": failed}}


def test_failure_accounting():
    ok = _report(["a", "b"])
    ref = verify.certificates_bytes(ok)
    assert verify.failure(0, ok, ["a", "b"], ref) is None
    assert verify.failure(1, _report(["a", "b"], holds=False), ["a", "b"], None) is None
    assert "exit code 2" in verify.failure(2, None, ["a", "b"], ref)
    assert "meta.failed" in verify.failure(1, _report(["a", "b"], failed="ValueError: x"), ["a", "b"], ref)
    assert "do not match" in verify.failure(0, _report(["a"]), ["a", "b"], ref)
    assert "differ" in verify.failure(1, _report(["a", "b"], holds=False), ["a", "b"], ref)


@pytest.mark.parametrize("workload", ["theorem41", "rational_lin9"])
def test_witness_reevaluation_catches_a_wrong_constant(workload, tmp_path):
    config = run.config_path(workload, smoke=True)
    out = tmp_path / "report.json"
    assert seqcert.cli.main(["certify", "--config", str(config), "--seed", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    cfg = verify.load(str(config), 4)
    assert verify.witness_problems(cfg, report) == []
    kinds = {"fixed_point_residual": "min_residual", "wide_s": "d_hat"}
    cert = next(c for c in report["certificates"] if c["kind"] in kinds)
    key = kinds[cert["kind"]]
    value = cert["constants"][key]
    cert["constants"][key] = value * 1.001 + 1e-6 if isinstance(value, float) else str(Fraction(value) * 2)
    assert len(verify.witness_problems(cfg, report)) == 1
