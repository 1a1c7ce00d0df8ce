"""Every name a ``seqcert`` module imports is used in that module, every
module-level private name is read somewhere in the package, every batch
kernel and float enclosure (a function ``*_batch`` or ``*_enclosure``) is
read by a module of the package, every name the package ``__init__``
re-exports is read by a module of the package, by the acceptance tests or
by a bench script, every script, config and workload path the README names
exists, and so does every batch kernel and float enclosure it names.  Only
``sampling`` writes a certificate's mode: no other module labels a budget or
spells a label word.  ``cli`` reads no check parameter: a kind's load-time
rules live in its ``CHECKS`` entry.  No module but ``sequences`` reads a
family's ``vectors``: a family is its matrix.  Only ``sequences._span_rows``
(every exact product) and ``spaces.norm_enclosure`` (float images) multiply
matrices with ``@``.

The package ``__init__`` is exempt from the first rule, and its reads do not
count for the kernel and re-export rules: its imports are the public
re-exports.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path
from typing import Callable, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "seqcert"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set:
    """Every name read in the module, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_checker_sees_an_unused_import():
    tree = ast.parse(
        "import os\nfrom typing import List, Optional\n\ndef f(x: 'Optional[int]'):\n    return x\n"
    )
    imported, used = imported_names(tree), used_names(tree)
    assert {name for name in imported if name not in used} == {"os", "List"}


def definitions(tree: ast.Module, wanted: Callable[[ast.stmt, str], bool]) -> dict:
    """Each name a module binds at module level by a def, a class or an
    assignment and that ``wanted(node, name)`` accepts, with the (first,
    last) lines of its definition."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if wanted(node, name):
                names[name] = (node.lineno, node.end_lineno)
    return names


def is_private(node: ast.stmt, name: str) -> bool:
    """A private name (``_x``, not a dunder)."""
    return name.startswith("_") and not name.startswith("__")


def is_kernel(node: ast.stmt, name: str) -> bool:
    """A function named ``*_batch`` or ``*_enclosure``."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and name.endswith(("_batch", "_enclosure"))


def read_names(tree: ast.Module, skip: Optional[Tuple[int, int]] = None) -> set:
    """Every name read in the module, as a variable, an attribute or an
    import from a sibling module, outside the (first, last) lines ``skip``."""
    read = set()
    for node in ast.walk(tree):
        if skip and skip[0] <= getattr(node, "lineno", 0) <= skip[1]:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def unread_names(sources: dict, wanted: Callable[[ast.stmt, str], bool]) -> dict:
    """{module: [name, ...]} for every module-level name that ``wanted``
    accepts and that no module of ``sources`` ({module: source text}) reads
    outside its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {module: read_names(tree) for module, tree in trees.items()}
    unread = {}
    for module, tree in trees.items():
        others = set().union(*(r for m, r in reads.items() if m != module))
        for name, span in definitions(tree, wanted).items():
            if name not in others | read_names(tree, span):
                unread.setdefault(module, []).append(name)
    return unread


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unread = unread_names(sources, is_private)
    assert not unread, f"module-level private names nothing in src/seqcert reads: {unread}"


def test_the_checker_sees_an_unread_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n_unused = 4\n\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
            "def _helper():\n    return _LIMIT\n\n"
            "class _Imported:\n    pass\n"
        ),
        "b.py": "from .a import _Imported\nimport a\n\nx = a._helper()\n",
    }
    assert unread_names(sources, is_private) == {"a.py": ["_unused", "_recursive"]}


def test_every_kernel_is_read():
    # the re-exports of __init__ do not count as reads
    sources = {p.name: p.read_text() for p in MODULES}
    unread = unread_names(sources, is_kernel)
    assert not unread, f"batch kernels and enclosures nothing in src/seqcert reads: {unread}"


def test_the_checker_sees_an_unread_kernel():
    sources = {
        "a.py": (
            "norm_batch_size = 3\n\n"
            "def norm_batch(m):\n    return m\n\n"
            "def old_enclosure(m):\n    return old_enclosure(m)\n\n"
            "def span_batch(m):\n    return m\n"
        ),
        "b.py": "from .a import norm_batch\n\nx = norm_batch(1)\n",
    }
    assert unread_names(sources, is_kernel) == {"a.py": ["old_enclosure", "span_batch"]}


def is_export(init_source: str) -> Callable[[ast.stmt, str], bool]:
    """Accepts the names a package ``__init__`` (its source) re-exports from
    its sibling modules."""
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    return lambda node, name: name in exported


def test_every_export_is_read():
    """A re-export that only tests read belongs in those tests, as an oracle."""
    readers = [*MODULES, ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in readers}
    unread = unread_names(sources, is_export((SRC / "__init__.py").read_text()))
    assert not unread, f"re-exports no module, acceptance test or bench script reads: {unread}"


def test_the_checker_sees_an_unread_export():
    init = "from .a import kernel, oracle, _private\nfrom .b import Public\n"
    sources = {
        "a.py": (
            "LIMIT = 3\n\n"
            "def kernel(m):\n    return m\n\n"
            "def oracle(m):\n    return oracle(m)\n\n"
            "def _private():\n    return LIMIT\n"
        ),
        "b.py": "from .a import kernel\n\nclass Public:\n    pass\n",
        "test_acceptance.py": "from seqcert import Public\n",
    }
    assert unread_names(sources, is_export(init)) == {"a.py": ["oracle", "_private"]}


def named_paths(text: str) -> set:
    """Every ``scripts/``, ``configs/`` or ``bench/workloads/`` path in text."""
    return set(re.findall(r"(?<![\w/])(?:scripts|configs|bench/workloads)/[\w./-]*\w", text))


def test_every_path_the_readme_names_exists():
    missing = sorted(p for p in named_paths((ROOT / "README.md").read_text()) if not (ROOT / p).exists())
    assert not missing, f"README.md names paths that do not exist: {missing}"


def test_the_checker_sees_a_named_path():
    text = "Run `python scripts/a.py`, see configs/b.cfg. Not src/configs/c.cfg or bench/workloads/."
    assert named_paths(text) == {"scripts/a.py", "configs/b.cfg"}


def kernel_names(text: str) -> set:
    """The last part of every backticked identifier in text, dotted or not,
    that ends in ``_batch`` or ``_enclosure``."""
    return {m.rpartition(".")[2] for m in re.findall(r"`([\w.]+(?:_batch|_enclosure))`", text)}


def package_names() -> set:
    """Every attribute of a ``seqcert`` module, and of each class one defines."""
    names = set()
    for path in MODULES:
        module = importlib.import_module(f"seqcert.{path.stem}")
        names |= set(vars(module))
        names |= {n for obj in vars(module).values() if inspect.isclass(obj) for n in dir(obj)}
    return names


def test_every_kernel_the_readme_names_exists():
    missing = sorted(kernel_names((ROOT / "README.md").read_text()) - package_names())
    assert not missing, f"README.md names kernels that no seqcert module defines: {missing}"


def test_the_checker_sees_a_kernel_name():
    text = (
        "Kernels `norm_batch`, `spaces.norm_enclosure` and `BasicSequence.span_norm_batch`;"
        " not `batch_size`, `norm` or span_distance_batch unquoted, but `gone_batch` and `old.span_batch`."
    )
    assert kernel_names(text) == {"norm_batch", "norm_enclosure", "span_norm_batch", "span_batch", "gone_batch"}
    assert kernel_names(text) - package_names() == {"span_batch", "gone_batch"}


LABEL_WORDS = ("vertex-pairs(", "vertices(", "sampled(", "exhaustive", "pm-one")


def label_rule_breaches(text: str) -> list:
    """Each label word in text, and each ``.label(`` call on a receiver
    whose source names a budget (``budget``, ``pair_budget``, ``SamplingBudget(...)``)."""
    found = [word for word in LABEL_WORDS if word in text]
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "label":
            if "budget" in ast.unparse(node.func.value).lower():
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", [p for p in SRC.glob("*.py") if p.name != "sampling.py"], ids=lambda p: p.name)
def test_only_sampling_writes_a_mode_label(path):
    """A scan's mode comes from the ``sampling.Rows`` it scanned, whose
    builder labels the rows it built; a label written elsewhere can drift
    from the rows."""
    assert label_rule_breaches(path.read_text()) == [], f"{path.name} writes a mode label"


def test_the_checker_sees_a_mode_label():
    text = (
        "def f(tag, budget, pair_budget, n):\n"
        "    pair_budget.label(f'vertex-pairs({n * n})')\n"
        "    SamplingBudget(3, 1).label()\n"
        "    budget.label()\n"
        "    return tag.label(), 'exhaustive'\n"
    )
    assert label_rule_breaches(text) == [
        "vertex-pairs(",
        "exhaustive",
        "line 2: pair_budget.label(f'vertex-pairs({n * n})')",
        "line 3: SamplingBudget(3, 1).label()",
        "line 4: budget.label()",
    ]
    assert label_rule_breaches((SRC / "sampling.py").read_text())


def parameter_reads(text: str) -> list:
    """Each read by key of a check's parsed parameters in text: a subscript
    of, a ``.get`` on or a membership test in a name ``args`` or an
    attribute ``.args``."""
    def is_args(node: ast.AST) -> bool:
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name == "args"

    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Subscript) and is_args(node.value):
            found.append(node)
        elif isinstance(node, ast.Attribute) and node.attr == "get" and is_args(node.value):
            found.append(node)
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) and is_args(right) for op, right in zip(node.ops, node.comparators)
        ):
            found.append(node)
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in found]


def test_cli_reads_no_check_parameter():
    """What a check's parameters rule out is a rule of its ``CHECKS`` entry;
    the run context passes the parsed parameters on without reading them."""
    assert parameter_reads((SRC / "cli.py").read_text()) == []


def test_the_checker_sees_a_parameter_read():
    text = (
        "def f(ctx, check, args):\n"
        "    run(ctx, check.args, *args)\n"
        "    if 'eps' in args and 'on' not in check.args:\n"
        "        return args['eps'], check.args.get('on'), args.command\n"
    )
    assert parameter_reads(text) == [
        "line 3: 'eps' in args",
        "line 3: 'on' not in check.args",
        "line 4: args['eps']",
        "line 4: check.args.get",
    ]


def vectors_reads(text: str) -> list:
    """Each read of an attribute ``.vectors`` in text."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and node.attr == "vectors"
    ]


@pytest.mark.parametrize("path", [p for p in SRC.glob("*.py") if p.name != "sequences.py"], ids=lambda p: p.name)
def test_only_sequences_reads_a_family_s_vectors(path):
    """A family is its matrix (``BasicSequence.matrix``); its ``vectors``
    are a view made on each read, for callers outside the package."""
    assert vectors_reads(path.read_text()) == [], f"{path.name} reads a family's vectors"


def test_the_checker_sees_a_vectors_read():
    text = (
        "def f(s, vectors):\n"
        "    rows = [v.entries for v in s.vectors]\n"
        "    return vectors, s.matrix(exact=True), len(s.vectors[1:])\n"
    )
    assert vectors_reads(text) == ["line 2: s.vectors", "line 3: s.vectors"]


MATMUL_SITES = {("sequences.py", "_span_rows"), ("spaces.py", "norm_enclosure")}


def matmul_uses(text: str) -> list:
    """Each matrix product in text, ``@`` or ``@=``, as (the module-level
    function or class it sits in, or None at module level; its line)."""
    found = []
    for top in ast.parse(text).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((owner, node.lineno))
    return sorted(found, key=lambda use: use[1])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_span_and_the_float_enclosure_multiply_matrices(path):
    """Every exact product goes through ``sequences._span_rows``, which takes
    it on integer keys; ``spaces.norm_enclosure`` multiplies float images."""
    stray = [(owner, line) for owner, line in matmul_uses(path.read_text()) if (path.name, owner) not in MATMUL_SITES]
    assert stray == [], f"{path.name} multiplies matrices outside {sorted(MATMUL_SITES)}"


def test_the_checker_sees_a_matrix_product():
    text = (
        "g = A @ B\n\n"
        "def f(c, x):\n    y = c @ x\n    y @= x\n    return 'c @ x', y\n\n"
        "class K:\n    def m(self, c):\n        return (lambda v: v @ c)(c)\n"
    )
    assert matmul_uses(text) == [(None, 1), ("f", 4), ("f", 5), ("K", 10)]
    assert [owner for owner, _ in matmul_uses((SRC / "sequences.py").read_text())] == ["_span_rows"] * 3
