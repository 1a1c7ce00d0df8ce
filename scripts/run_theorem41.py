#!/usr/bin/env python3
"""Run the bundled diagonal-shift certification suite and summarize it.

Usage:
    python scripts/run_theorem41.py [--out report.json] [--seed 7]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from seqcert.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
CONFIG = REPO / "configs" / "theorem41.cfg"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="report path (default: temp file)")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    out = args.out or str(Path(tempfile.mkdtemp(prefix="seqcert-")) / "report.json")
    argv = ["certify", "--config", str(CONFIG), "--out", out]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    code = cli_main(argv)
    if code == 2:  # configuration error: certify printed it to stderr and wrote no report
        print(f"certify exited with code 2 for {CONFIG}; no report written", file=sys.stderr)
        return code
    report = json.loads(Path(out).read_text())
    for cert in report["certificates"]:
        status = "holds" if cert["holds"] else "FAILED"
        keys = ", ".join(
            f"{k}={v}" for k, v in sorted(cert["constants"].items()) if not k.startswith("p_at")
        )
        print(f"{cert['name']:<10} [{cert['kind']}] {status}: {keys}")
    print(f"report: {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
