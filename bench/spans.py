"""In-memory span recording around seqcert's public functions.

A ``Recorder`` replaces chosen functions and methods of the ``seqcert``
package with timing wrappers, from outside the package: every module
attribute that is the original function object (including the names other
modules, such as ``seqcert.cli``, imported into their own namespace) is
pointed at the wrapper, and ``Recorder.installed`` puts the originals back
on exit.  Each call becomes one span ``[name, start, end, parent, rows,
cells, label]``; a span's self time is its duration minus the time its
direct children cover (calls are nested, the run is single-threaded).
"""

from __future__ import annotations

import contextlib
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

NAME, START, END, PARENT, ROWS, CELLS, LABEL = range(7)
SAMPLING_PREFIX = "sampling."


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _mat_size(index: int, key: str):
    def measure(args, kwargs, out):
        mat = np.asarray(_arg(args, kwargs, index, key))
        return mat.shape[0], mat.size, None

    return measure


def _norm_batch_size(args, kwargs, out):
    mat = np.asarray(_arg(args, kwargs, 0, "mat"))
    return mat.shape[0], mat.size, _arg(args, kwargs, 1, "tag").variant


def _one_row(args, kwargs, out):
    return 1, 0, None


def _check_kind(args, kwargs, out):
    return 0, 0, _arg(args, kwargs, 1, "check").kind


def _sampled_rows(args, kwargs, out):
    return len(out), 0, None


# (module, attribute or Class.method, span name, measure)
Target = Tuple[str, str, str, Optional[Callable]]

# Set-up only: what the untraced run times inside each certify call.
SETUP_TARGETS: Sequence[Target] = (
    ("config", "load_config", "config.load_config", None),
    ("cli", "RunContext.__init__", "cli.RunContext", None),
)

LAYER_TARGETS: Sequence[Target] = (
    *SETUP_TARGETS,
    ("config", "build_sequence", "config.build_sequence", None),
    ("cli", "run_check", "cli.run_check", _check_kind),
    ("spaces", "norm_batch", "spaces.norm_batch", _norm_batch_size),
    ("spaces", "norm", "spaces.norm", None),
    ("spaces", "summing_basis_norm", "spaces.summing_basis_norm", _one_row),
    ("spaces", "summing_basis_norm_batch", "spaces.summing_basis_norm_batch", _mat_size(0, "mat")),
    ("sequences", "BasicSequence.__init__", "sequences.BasicSequence", None),
    ("sequences", "BasicSequence.span_norm_batch", "sequences.span_norm_batch", _mat_size(1, "coeff_mat")),
    ("sequences", "BasicSequence.span_norm", "sequences.span_norm", None),
    ("sequences", "BasicSequence.span_vector", "sequences.span_vector", None),
    ("sequences", "basis_constant", "sequences.basis_constant", None),
    ("sequences", "equivalence_constants", "sequences.equivalence_constants", None),
    ("sequences", "wide_s_certificate", "sequences.wide_s_certificate", None),
    ("sequences", "gap_bound_check", "sequences.gap_bound_check", None),
    *(
        ("sampling", fn, SAMPLING_PREFIX + fn, _sampled_rows)
        for fn in (
            "sign_patterns",
            "pm_one_patterns",
            "gaussian_sphere",
            "simplex_uniform",
            "coefficient_samples",
            "simplex_samples",
            "rational_vectors",
            "rational_simplex",
        )
    ),
    ("fpmaps", "apply_map_batch", "fpmaps.apply_map_batch", _mat_size(1, "mat")),
    ("fpmaps", "apply_map", "fpmaps.apply_map", None),
    ("fpmaps", "bilipschitz_estimate", "fpmaps.bilipschitz_estimate", None),
    ("fpmaps", "theta_of_map", "fpmaps.theta_of_map", None),
    ("fpmaps", "fixed_point_residual", "fpmaps.fixed_point_residual", None),
    ("perturbation", "psp_equivalence_check", "perturbation.psp_equivalence_check", None),
    ("perturbation", "claim2_chain", "perturbation.claim2_chain", None),
    ("perturbation", "perturb_toward_next", "perturbation.perturb_toward_next", None),
    ("blocks", "build_convex_blocks", "blocks.build_convex_blocks", None),
    ("blocks", "wuc_constant", "blocks.wuc_constant", None),
    ("blocks", "lemma79_conclusion_check", "blocks.lemma79_conclusion_check", None),
    ("blocks", "shift_equivalence_constants", "blocks.shift_equivalence_constants", None),
)


class Recorder:
    """Spans of the calls made while its wrappers are installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.sampled: List[object] = []  # outputs of outermost sampling calls
        self._stack: List[int] = []

    def reset(self) -> None:
        self.spans, self.sampled, self._stack = [], [], []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn as a root or child span named ``name``."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name: str, fn: Callable, measure: Optional[Callable]) -> Callable:
        sampling = name.startswith(SAMPLING_PREFIX)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if measure is not None:
                rec[ROWS], rec[CELLS], rec[LABEL] = measure(args, kwargs, out)
            if sampling and (parent < 0 or not spans[parent][NAME].startswith(SAMPLING_PREFIX)):
                self.sampled.append(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: Sequence[Target]):
        """Point seqcert's functions at span-recording wrappers; restore on exit."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "seqcert" or k.startswith("seqcert.")]
        patches = []
        try:
            for module, attr, name, measure in targets:
                mod = sys.modules[f"seqcert.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    patches.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig, measure))
                    continue
                orig = getattr(mod, attr)
                wrapper = self._wrap(name, orig, measure)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            patches.append((m, key, orig))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for obj, key, orig in reversed(patches):
                setattr(obj, key, orig)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def distinct_row_ratio(outputs: List[object]) -> float:
    """Distinct rows over all rows across sampled outputs (rows of equal width compared)."""
    seen = set()
    total = 0
    for out in outputs:
        if isinstance(out, np.ndarray):
            mat = np.ascontiguousarray(out)
            keys = [(mat.shape[1], row.tobytes()) for row in mat]
        else:
            keys = [(len(row), tuple(row)) for row in out]
        total += len(keys)
        seen.update(keys)
    return len(seen) / total if total else 1.0


def aggregate(spans: List[list]) -> Dict[str, float]:
    """Per-name sums of calls, rows, cells, self and total time for one call tree.

    Keys are ``<name>.<stat>`` and, for labelled spans, ``<name>.<label>.<stat>``;
    ``sampling.*`` counts only outermost sampling calls and ``cli.self_s`` is the
    self time of every ``cli.*`` span (orchestration and JSON serialisation).
    """
    own = self_times(spans)
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for i, s in enumerate(spans):
        name = s[NAME]
        total = s[END] - s[START]
        keys = [name] if s[LABEL] is None else [name, f"{name}.{s[LABEL]}"]
        if name.startswith(SAMPLING_PREFIX):
            add("sampling.self_s", own[i])
            parent = s[PARENT]
            if parent >= 0 and spans[parent][NAME].startswith(SAMPLING_PREFIX):
                continue
            keys = ["sampling"]
        if name.startswith("cli."):
            add("cli.self_s", own[i])
        for key in keys:
            add(f"{key}.calls", 1)
            add(f"{key}.rows", s[ROWS])
            add(f"{key}.cells", s[CELLS])
            add(f"{key}.total_s", total)
            if key != "sampling":
                add(f"{key}.self_s", own[i])
    return out
