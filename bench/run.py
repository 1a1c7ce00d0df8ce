#!/usr/bin/env python3
"""seqcert benchmark: closed-loop ``seqcert certify`` workloads.

One client in one process runs back-to-back ``certify`` calls through the
public entry point ``seqcert.cli.main`` on one workload config, checks
every report, and prints its metrics; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

    python3 bench/run.py --workload james48 --seed 3 --seconds 40 --trace 0
    python3 bench/run.py --all                    # every workload, both modes, one table
    python3 bench/run.py --all --smoke --seconds 0   # tiny inputs, a few seconds

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics plus
the tracing overhead.  See bench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SECONDS = 40

# Why each workload exists is documented in bench/README.md.
WORKLOADS = ("theorem41", "james48", "rational_lin9")

END_TO_END = {
    "certify_s": "s",
    "certify_s_tail": "s",
    "setup_s": "s",
    "checks_s": "s",
    "peak_rss_mb": "MB",
}

RUN_CHECK_KINDS = (
    "claim2_chain",
    "psp_equivalence",
    "bilipschitz",
    "fixed_point_residual",
    "theta_of_map",
    "wide_s",
    "equivalence",
    "gap_bound",
    "wuc_constant",
    "shift_equivalence",
    "lemma79",
)


def _layer_metrics() -> Dict[str, str]:
    unit = {"calls": "count", "rows": "count", "cells": "count", "self_s": "s", "total_s": "s"}
    names = [
        "spaces.norm_batch.calls",
        "spaces.norm_batch.rows",
        "spaces.norm_batch.cells",
        "spaces.norm_batch.self_s",
        *(f"spaces.norm_batch.{tag}.self_s" for tag in ("james", "lin", "ell_p", "sup")),
        "spaces.norm.calls",
        "spaces.norm.self_s",
        *(f"spaces.{fn}.{stat}" for fn in ("summing_basis_norm", "summing_basis_norm_batch") for stat in ("calls", "rows", "self_s")),
        *(f"sequences.basis_constant.{stat}" for stat in ("calls", "self_s", "total_s")),
        *(f"sequences.span_norm_batch.{stat}" for stat in ("calls", "rows", "self_s")),
        *(f"sequences.{fn}.{stat}" for fn in ("span_norm", "span_vector", "BasicSequence") for stat in ("calls", "self_s")),
        *(f"sequences.{fn}.self_s" for fn in ("equivalence_constants", "wide_s_certificate", "gap_bound_check")),
        "sequences.rejected_ratio",
        "sampling.calls",
        "sampling.rows",
        "sampling.self_s",
        "sampling.distinct_row_ratio",
        *(f"fpmaps.apply_map_batch.{stat}" for stat in ("calls", "rows", "self_s")),
        "fpmaps.apply_map.calls",
        "fpmaps.apply_map.self_s",
        *(f"fpmaps.{fn}.{stat}" for fn in ("bilipschitz_estimate", "theta_of_map") for stat in ("self_s", "total_s")),
        *(
            f"perturbation.{fn}.{stat}"
            for fn in ("psp_equivalence_check", "claim2_chain", "perturb_toward_next")
            for stat in ("self_s", "total_s")
        ),
        *(
            f"blocks.{fn}.{stat}"
            for fn in ("build_convex_blocks", "wuc_constant", "lemma79_conclusion_check")
            for stat in ("self_s", "total_s")
        ),
        "blocks.shift_equivalence_constants.self_s",
        "config.load_config.total_s",
        "cli.RunContext.total_s",
        *(f"cli.run_check.{kind}.total_s" for kind in RUN_CHECK_KINDS),
        "cli.self_s",
    ]
    out = {name: unit.get(name.rsplit(".", 1)[1], "ratio") for name in names}
    out["trace.overhead_ratio"] = "ratio"
    return out


PER_LAYER = _layer_metrics()


def import_seqcert():
    """Import seqcert from this checkout's src/, with SEQCERT_THREADS cleared."""
    os.environ.pop("SEQCERT_THREADS", None)
    if not (SRC / "seqcert" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no seqcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import seqcert

    if Path(seqcert.__file__).resolve().parent != (SRC / "seqcert").resolve():
        raise SystemExit(f"benchmark: imported seqcert from {seqcert.__file__}, not {SRC}")
    return seqcert


def config_path(workload: str, smoke: bool) -> Path:
    return BENCH / "workloads" / ("smoke" if smoke else "") / f"{workload}.cfg"


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "seqcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> str:
    """OpenBLAS's own thread count when numpy bundles it, else the env settings."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return ",".join(f"{k}={os.environ[k]}" for k in keys if k in os.environ) or "unknown"


def environment() -> str:
    import numpy as np

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"blas_threads={_blas_threads()} commit={_commit()} src_sha256={_src_sha256()[:16]}"
    )


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def tail(values: List[float]):
    """(value, nearest-rank percentile): the highest percentile with at least 10
    samples beyond it.

    With 11 or fewer samples no percentile but the minimum comes close, so the
    minimum is returned; taking the maximum instead would make the metric jump
    when a run's call count crosses 11.
    """
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


class Tally:
    """Failure accounting over every certify call of a run."""

    def __init__(self, expected: List[str]):
        self.expected = expected
        self.attempted = self.failed = self.holds_false = 0
        self.reasons: List[str] = []
        self.reference: Optional[bytes] = None
        self.first_report: Optional[dict] = None

    def record(self, rc: Optional[int], report: Optional[dict], error: Optional[str]) -> None:
        from verify import certificates_bytes, failure

        self.attempted += 1
        reason = error or failure(rc, report, self.expected, self.reference)
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)
            return
        self.holds_false += sum(not c["holds"] for c in report["certificates"])
        if self.reference is None:
            self.reference = certificates_bytes(report)
            self.first_report = report


def certify(main, recorder, config: Path, seed: int):
    """One ``seqcert certify`` call as a root span: (seconds, exit code, report, error)."""
    argv = ["certify", "--config", str(config), "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    recorder.reset()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = recorder.call("cli.main", main, argv)
        except Exception as exc:  # a raising call is a failed call, not a crash of the benchmark
            return time.perf_counter() - t0, None, None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if rc == 2:
        return seconds, rc, None, f"exit code 2: {err.getvalue().strip()}"
    try:
        return seconds, rc, json.loads(out.getvalue()), None
    except json.JSONDecodeError as exc:
        return seconds, rc, None, f"unparsable report: {exc}"


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run the closed loop; returns (result dict, human-readable lines)."""
    from seqcert.cli import main
    import spans as sp
    import verify

    config = config_path(workload, smoke)
    cfg = verify.load(str(config), seed)
    tally = Tally([c.name for c in cfg.checks])
    rec = sp.Recorder()
    setup_names = {name for _, _, name, _ in sp.SETUP_TARGETS}

    def call(targets):
        with rec.installed(targets):
            result = certify(main, rec, config, seed)
        tally.record(*result[1:])
        return result

    call(sp.SETUP_TARGETS)  # warm-up, untimed; its certificates are the reference
    certify_s: List[float] = []
    setup_s: List[float] = []
    checks_s: List[float] = []
    traced_s: List[float] = []
    layers: List[Dict[str, float]] = []
    last_spans: List[list] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        dt, _, report, _ = call(sp.SETUP_TARGETS)
        certify_s.append(dt)
        setup_s.append(sum(s[sp.END] - s[sp.START] for s in rec.spans if s[sp.NAME] in setup_names))
        if report is not None:
            checks_s.append(sum(report["meta"]["wall_times"].values()))
        if trace:
            dt, _, report, _ = call(sp.LAYER_TARGETS)
            traced_s.append(dt)
            agg = sp.aggregate(rec.spans)
            agg["sampling.distinct_row_ratio"] = sp.distinct_row_ratio(rec.sampled)
            rejected = sum(int(c["constants"].get("rejected_denominators", 0)) for c in (report or {}).get("certificates", []))
            rows = agg.get("sequences.span_norm_batch.rows", 0) + agg.get("sequences.span_norm.calls", 0)
            agg["sequences.rejected_ratio"] = rejected / rows if rows else 0.0
            layers.append(agg)
            last_spans = rec.spans
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break

    problems = verify.witness_problems(cfg, tally.first_report) if tally.first_report else ["no successful call"]
    lines = [
        f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)} smoke={int(smoke)} config={config.relative_to(ROOT)}",
        f"# env {environment()}",
        f"# calls attempted={tally.attempted} failed={tally.failed} "
        f"error_rate={tally.failed / tally.attempted:.6g} holds_false={tally.holds_false}",
    ]
    lines += [f"# failure: {r}" for r in tally.reasons[:5]]
    if tally.reference is not None:
        lines.append(f"# certificates_sha256={verify.sha256(tally.reference)}")
    lines.append(f"# witnesses: {'; '.join(problems) if problems else 'all re-evaluated witnesses reproduce'}")

    if trace:
        metrics = {name: statistics.median(agg.get(name, 0.0) for agg in layers) for name in PER_LAYER if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(certify_s)
        units = PER_LAYER
        lines.append(f"# traced certificates identical to untraced: {tally.failed == 0}; {len(layers)} traced calls, medians per call")
        write_spans(workload, last_spans)
    else:
        tail_value, pct = tail(certify_s)
        metrics = {
            "certify_s": statistics.median(certify_s),
            "certify_s_tail": tail_value,
            "setup_s": statistics.median(setup_s),
            "checks_s": statistics.median(checks_s) if checks_s else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        lines.append(f"# certify_s_tail is p{pct:.1f} of {len(certify_s)} timed calls; medians are over the same calls")
    lines += [f"{name:48s} {value:.6g} {units[name]}" for name, value in metrics.items()]
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def write_spans(workload: str, spans: List[list]) -> None:
    """Write the last traced call's spans, one JSON array per line."""
    if not spans:
        return
    OUT.mkdir(exist_ok=True)
    t0 = spans[0][1]
    with open(OUT / f"spans-{workload}.jsonl", "w") as fh:
        for name, start, end, parent, rows, cells, label in spans:
            fh.write(json.dumps([name, start - t0, end - t0, parent, rows, cells, label]) + "\n")


def run_all(args) -> int:
    """Each workload and mode in its own process; one table of every metric."""
    table = []
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= 0 if result["correct"] else 1
            for name, m in result["metrics"].items():
                table.append(f"{workload:14s} {name:48s} {m['value']:.6g} {m['unit']}")
            table.append(f"{workload:14s} {'error_rate' if trace == 0 else 'error_rate(traced run)':48s} {result['failed'] / result['attempted']:.6g} ratio")
    print("\n".join(table))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in both modes")
    parser.add_argument("--seed", type=int, default=1, help="certify seed (taken mod 2^32)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configs from workloads/smoke/")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    import_seqcert()
    if args.all:
        return run_all(args)
    result, lines = measure(args.workload, args.seed % 2**32, args.seconds, bool(args.trace), args.smoke)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
