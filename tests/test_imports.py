"""No module-level import in the package goes unused, every name of a
module's __all__ is bound in the module, the scan kernel and
the scaled-integer format stay behind `lattice` and a few exhaustive walks,
psi comparisons stay behind `lattice._decide`, the per-point rule of the
walks and of the sorted-centre index, only `lattice.threshold` tells a
threshold value from a psi, exact distances of a
matrix stay behind `ApproxMatrix.dist`, a target is scaled for the filter
only after `ApproxMatrix.target` checks it, gamma_k is computed only by
the counterpart table, only `equidist` imports mpmath and no module touches
mpmath's global precision, nothing imports a thread pool, only `lattice`
refuses a walk over budget, only `ApproxMatrix` and `Line1D` test a shape
for 1 x 1, only `numeric._as_interval`, the one view of every value,
reads a CF enclosure for a verdict, only `numeric` and a few `lattice`
readers test a value for a CF real or an interval, only `numeric` puts values over a common denominator or tests a surd's
sign, only `numeric._field` words the refusal of a second radicand,
only the bracketed psi-sum `limsup._psi_cells` raises a psi enclosure to
a power, only `lattice` names the arc-entry kernel `_arc_entry`, and in the CLI only the subcommand frame exits the process or
loads the --matrix file.

No linter ships with the project, so these AST scans stand in for one.  A
name counts as used when it appears anywhere in the module (string
annotations included).  Names listed in a module's __all__ and the
re-exports of __init__.py are exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diophlab"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every module-level import."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree) | _exported(tree)
    return sorted(f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in used)


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_scanner_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from fractions import Fraction\n"
        "from typing import Optional\n"
        "__all__ = ['Fraction']\n"
        "def f(x: 'Optional[int]'):\n"
        "    return os.sep\n",
        encoding="utf-8",
    )
    assert unused_imports(mod) == ["mod.py:2 system"]


def _bound(body: list[ast.stmt]) -> set[str]:
    """Names that module-level statements bind: imports, defs, classes and
    assignment targets, also inside if, try, with, for and while blocks."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= _imported(ast.Module(body=[node], type_ignores=[])).keys()
        else:
            targets = [*getattr(node, "targets", []), getattr(node, "target", None)]
            targets += [w.optional_vars for w in getattr(node, "items", [])]
            names.update(n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name))
            for block in ("body", "orelse", "finalbody", "handlers"):
                names |= _bound(getattr(node, block, []))
    return names


def stale_exports(path: Path) -> list[str]:
    """Names of the module's __all__ that the module does not bind."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    line = next((n.lineno for n in tree.body if isinstance(n, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in n.targets)), 0)
    return sorted(f"{path.name}:{line} {name}" for name in _exported(tree) - _bound(tree.body))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    assert stale_exports(path) == []


def test_scanner_flags_a_stale_export(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os\n"
        "from fractions import Fraction as F\n"
        "__all__ = ['F', 'Fraction', 'LIMIT', 'a', 'b', 'f', 'C', 'g', 'removed', 'os']\n"
        "LIMIT: int = 64\n"
        "a, (b, _) = 1, (2, 3)\n"
        "def f(x):\n"
        "    g = x\n"
        "    return g\n"
        "class C:\n"
        "    removed = 1\n"
        "try:\n"
        "    from math import lcm as g\n"
        "except ImportError:\n"
        "    pass\n",
        encoding="utf-8",
    )
    # Fraction is imported under another name, and removed is bound only in a class
    assert stale_exports(mod) == ["mod.py:3 Fraction", "mod.py:3 removed"]


# the scaled-integer format of `fastpath`, which only `lattice` may use
SCALED = {"scale_fraction", "threshold_bounds"}
# the only callers of lattice.scan: the filtered and record walks, the
# sorted-centre index of a window, and verify_prop_5_1, which takes from
# it only the indices of its spot checks (its threshold is a walk of
# within); the Weyl sum is a closed form and walks no points
SCAN_CALLERS = {
    ("lattice.py", "within"),
    ("lattice.py", "centre_index"),
    ("lattice.py", "records"),
    ("analysis.py", "verify_prop_5_1"),
}
# the exact psi comparisons, which limsup defines and lattice._decide, the
# one per-point rule of within and of centre_index, alone calls: anywhere
# else a psi threshold would be decided outside the filter
PSI_CALLS = {"compare_value", "lt_value"}
PSI_CALLER = ("lattice.py", "_decide")
# the one place a threshold value is told from a psi: lattice.threshold
# wraps a value as the constant psi, so no walk forks on the kind again
KIND_TELLER = ("lattice.py", "threshold")
# all work is pure-Python exact arithmetic, which threads cannot run in
# parallel under the GIL
THREADS = {"concurrent", "threading"}
# floating point serves only weyl_sum's Dirichlet kernels, in mpmath's
# outward-rounded interval arithmetic; psi is enclosed in integers
MPMATH_USERS = {"equidist.py"}
# mpmath's global working precision: a library call passes precision and
# rounding explicitly instead, so no caller's context can change a result
GLOBAL_PREC = {"workprec", "workdps"}
MP_FIELDS = {"prec", "dps"}
# mpmath's shared contexts: multiprecision, interval and double
MP_CONTEXTS = {"mp", "iv", "fp"}
# gamma_k^(m+n) is computed once per k in the counterpart table, which
# gamma_sequence, b_alpha_test and verify_prop_5_1 read
GAMMA_CALLERS = {("analysis.py", "_counterparts")}
# the exact distance of a matrix is ApproxMatrix.dist's integer model; only
# its CF path, and the tight key inequality of a 1 x 1 CF entry, may build
# Aq from `apply` or take dist_to_int_vec of it.  A target is scaled for the
# filter only where ApproxMatrix.target has just checked it: in the two
# walks, in the query of the sorted-centre index and in dist_enclosure
DIST_CALLERS = {
    "dist_to_int_vec": {("lattice.py", "dist")},
    "apply": {("lattice.py", "dist"), ("analysis.py", "_cf_tight")},
    "scale_target": {
        ("lattice.py", "within"),
        ("lattice.py", "first_hit"),
        ("lattice.py", "records"),
        ("lattice.py", "dist_enclosure"),
    },
}
# the point budget has one owner: lattice counts every window and builds
# every refusal, in one wording
BUDGET_OWNER = "lattice.py"
# and one running count: scan keeps it, check_window states it in closed
# form, and no other function words a refusal of its own
BUDGET_CALLERS = {("lattice.py", "scan"), ("lattice.py", "check_window")}
# the 1 x 1 test of a shape, keyed by module, class and function:
# ApproxMatrix.__init__ sets the line flag `irrational_line` from it and
# Line1D.__init__ its scalar model; anywhere else it forks the line case
# again beside the flag
SHAPE_TESTERS = {("lattice.py", "ApproxMatrix", "__init__"), ("fastpath.py", "Line1D", "__init__")}
# the readers of a CF enclosure, keyed by module, class and function:
# numeric._as_interval, the one view of every value (rational, quadratic,
# Radical, CF real or interval), gives every verdict the CF enclosure with
# its open ends, CFReal.__float__ takes its midpoint and lattice._dot
# scales it into Aq.  Anywhere else a decision would restate which ends
# are open
ENCLOSURE_READERS = {
    ("numeric.py", None, "_as_interval"),
    ("numeric.py", "CFReal", "__float__"),
    ("lattice.py", None, "_dot"),
}
# the one integer model of a quadratic, numeric._surd, and its residue
# loop, numeric._dist_surds: only numeric puts values over a common
# denominator (lcm) or tests the sign or floor of p + w sqrt(d); anywhere
# else the model would be restated
SURD_OWNER = "numeric.py"
# the kind tests of a CF real or an interval: numeric owns them, and reads
# bounds of every kind through its one view, numeric._as_interval.  Beside
# it, keyed by module, class and function, only the matrix's entry check,
# _dot's CF terms, a best-approximation sequence's target field and CSV,
# and the 1 x 1 record walks tell the kinds apart; anywhere else a reader
# would fork on the kind where the view answers for every value
KIND_OWNER = "numeric.py"
KIND_CLASSES = {"CFReal", "RatInterval"}
KIND_TESTERS = {
    ("lattice.py", "ApproxMatrix", "__init__"),
    ("lattice.py", None, "_dot"),
    ("lattice.py", "BestApproxSequence", "_target_field"),
    ("lattice.py", "BestApproxSequence", "csv_rows"),
    ("lattice.py", None, "_line_records"),
    ("lattice.py", None, "_best_approximations_1d"),
}
SURD_NAMES = {"_floor_sqrt_mult", "_sign_surd", "lcm"}
# the one radicand rule, keyed by module, class and function: only
# numeric._field words the refusal of a second field (a docstring may
# quote it)
FIELD_RULE = ("numeric.py", None, "_field")
FIELD_REFUSAL = "mixing radicands"
# the integer power and root of a psi enclosure, which numeric defines and
# the one bracketed psi-sum, limsup._psi_cells, alone calls: anywhere else
# a scaled_bounds summing loop would be restated.  Keyed by module, class
# and function; the kernel's module may import it
POW_OWNER = "numeric.py"
POW_NAME = "_scaled_pow"
POW_KERNEL = ("limsup.py", None, "_psi_cells")
# the arc-entry kernel of a line's inhomogeneous records, which lattice
# defines and calls alone: anywhere else the walk's filter would be
# restated beside the records it must keep
ARC_OWNER = "lattice.py"
ARC_NAME = "_arc_entry"
# the CLI's one subcommand frame: it alone exits the process and loads the
# --matrix file; series, whose matrix is optional, loads its own.  Keyed by
# the top-level function of cli.py the call sits in, at any depth
FRAME_CALLS = {"exit": {"_subcommand"}, "_load_matrix": {"_subcommand", "series"}}


def _tested_classes(name: str | None, args: list[ast.expr]) -> set[str]:
    """The classes an isinstance call names, alone, off a module or in a
    tuple; none for any other call."""
    if name != "isinstance" or len(args) != 2:
        return set()
    classes = args[1].elts if isinstance(args[1], ast.Tuple) else [args[1]]
    return {getattr(c, "id", getattr(c, "attr", None)) for c in classes}


def _tells_kinds_apart(name: str | None, args: list[ast.expr]) -> bool:
    """hasattr(x, "compare_value"), or isinstance(x, ApproxFunction) with
    ApproxFunction named alone, off a module or in a tuple of classes."""
    if name == "hasattr" and len(args) == 2:
        return isinstance(args[1], ast.Constant) and args[1].value == "compare_value"
    return "ApproxFunction" in _tested_classes(name, args)


def _tests_shape(node: ast.Compare) -> bool:
    """A comparison of an (x.m, x.n) tuple with (1, 1), either way round."""
    sides = [node.left, *node.comparators]
    shape = any(isinstance(e, ast.Tuple) and [getattr(x, "attr", None) for x in e.elts] == ["m", "n"] for e in sides)
    one = any(isinstance(e, ast.Tuple) and [getattr(x, "value", None) for x in e.elts] == [1, 1] for e in sides)
    return shape and one


def kernel_leaks(path: Path) -> list[str]:
    """Calls of iter_shell outside lattice.scan, of scan outside
    SCAN_CALLERS, of PSI_CALLS outside limsup and PSI_CALLER, threshold
    kind tests (`_tells_kinds_apart`) outside KIND_TELLER, of
    DIST_CALLERS outside their functions and of _gamma_pow outside
    GAMMA_CALLERS, imports of the scaled-integer helpers
    outside lattice, of mpmath outside MPMATH_USERS, and of
    concurrent.futures or threading, any use of mpmath's global precision
    (GLOBAL_PREC, or .prec and .dps of an mpmath context or of anything
    read off the mpmath module, under any alias), anywhere in the module,
    BudgetExceeded raised outside BUDGET_OWNER, _over_budget called
    outside BUDGET_CALLERS, 1 x 1 shape tests
    (`_tests_shape`) outside SHAPE_TESTERS, .enclosure() calls outside
    ENCLOSURE_READERS, isinstance tests of KIND_CLASSES outside KIND_OWNER
    and KIND_TESTERS, SURD_NAMES imported or named outside SURD_OWNER,
    a FIELD_REFUSAL string outside FIELD_RULE (docstrings and other bare
    strings aside), POW_NAME imported outside POW_OWNER and the module of
    POW_KERNEL or named outside POW_OWNER and POW_KERNEL, ARC_NAME imported
    or named outside ARC_OWNER, and in cli.py the FRAME_CALLS
    outside their top-level functions."""
    found = []
    banned = THREADS if path.name in MPMATH_USERS else THREADS | {"mpmath"}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    contexts, modules = set(MP_CONTEXTS), {"mpmath"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            contexts.update(a.asname or a.name for a in node.names if a.name in MP_CONTEXTS)
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "mpmath" and a.asname)

    def global_field(owner: ast.AST) -> bool:
        if isinstance(owner, ast.Name):
            return owner.id in contexts | modules
        return isinstance(owner, ast.Attribute) and getattr(owner.value, "id", None) in modules

    def visit(node: ast.AST, func: str | None, top: str | None, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if path.name == "cli.py" and name in FRAME_CALLS and top not in FRAME_CALLS[name]:
                    found.append(f"{path.name}:{child.lineno} {name}")
                if name == "iter_shell" and (path.name, func) != ("lattice.py", "scan"):
                    found.append(f"{path.name}:{child.lineno} iter_shell")
                if name == "scan" and (path.name, func) not in SCAN_CALLERS:
                    found.append(f"{path.name}:{child.lineno} scan")
                if name in PSI_CALLS and path.name != "limsup.py" and (path.name, func) != PSI_CALLER:
                    found.append(f"{path.name}:{child.lineno} {name}")
                if _tells_kinds_apart(name, child.args) and (path.name, func) != KIND_TELLER:
                    found.append(f"{path.name}:{child.lineno} {name}")
                if name in DIST_CALLERS and (path.name, func) not in DIST_CALLERS[name]:
                    found.append(f"{path.name}:{child.lineno} {name}")
                if name == "_gamma_pow" and (path.name, func) not in GAMMA_CALLERS:
                    found.append(f"{path.name}:{child.lineno} _gamma_pow")
                if name == "BudgetExceeded" and path.name != BUDGET_OWNER:
                    found.append(f"{path.name}:{child.lineno} BudgetExceeded")
                if name == "_over_budget" and (path.name, func) not in BUDGET_CALLERS:
                    found.append(f"{path.name}:{child.lineno} _over_budget")
                if isinstance(f, ast.Attribute) and name == "enclosure" and (path.name, cls, func) not in ENCLOSURE_READERS:
                    found.append(f"{path.name}:{child.lineno} .enclosure()")
                kinds = sorted(_tested_classes(name, child.args) & KIND_CLASSES)
                if kinds and path.name != KIND_OWNER and (path.name, cls, func) not in KIND_TESTERS:
                    found.append(f"{path.name}:{child.lineno} isinstance {'/'.join(kinds)}")
            elif isinstance(child, ast.Compare):
                if _tests_shape(child) and (path.name, cls, func) not in SHAPE_TESTERS:
                    found.append(f"{path.name}:{child.lineno} (m, n) == (1, 1)")
            elif isinstance(child, ast.ImportFrom):
                if path.name != SURD_OWNER:
                    found.extend(f"{path.name}:{child.lineno} {a.name}" for a in child.names if a.name in SURD_NAMES)
                if path.name != ARC_OWNER:
                    found.extend(f"{path.name}:{child.lineno} {a.name}" for a in child.names if a.name == ARC_NAME)
                if path.name not in (POW_OWNER, POW_KERNEL[0]):
                    found.extend(f"{path.name}:{child.lineno} {a.name}" for a in child.names if a.name == POW_NAME)
                if path.name != "lattice.py":
                    found.extend(f"{path.name}:{child.lineno} {a.name}" for a in child.names if a.name in SCALED)
                if (child.module or "").split(".")[0] in banned:
                    found.append(f"{path.name}:{child.lineno} {child.module}")
                found.extend(f"{path.name}:{child.lineno} {a.name}" for a in child.names if a.name in GLOBAL_PREC)
            elif isinstance(child, ast.Import):
                found.extend(f"{path.name}:{child.lineno} {a.name}" for a in child.names if a.name.split(".")[0] in banned)
            elif isinstance(child, ast.Name) and child.id in GLOBAL_PREC:
                found.append(f"{path.name}:{child.lineno} {child.id}")
            elif isinstance(child, ast.Constant) and not isinstance(node, ast.Expr):
                if FIELD_REFUSAL in str(child.value) and (path.name, cls, func) != FIELD_RULE:
                    found.append(f"{path.name}:{child.lineno} {FIELD_REFUSAL!r}")
            elif isinstance(child, ast.Attribute):
                # the owner of .prec is `iv` in both iv.prec and mpmath.iv.prec
                owner = getattr(child.value, "id", getattr(child.value, "attr", None))
                if child.attr in GLOBAL_PREC:
                    found.append(f"{path.name}:{child.lineno} {child.attr}")
                elif child.attr in MP_FIELDS and global_field(child.value):
                    found.append(f"{path.name}:{child.lineno} {owner}.{child.attr}")
            named = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if named in SURD_NAMES and path.name != SURD_OWNER and isinstance(child, (ast.Name, ast.Attribute)):
                found.append(f"{path.name}:{child.lineno} {named}")
            if named == ARC_NAME and isinstance(child, (ast.Name, ast.Attribute)) and path.name != ARC_OWNER:
                found.append(f"{path.name}:{child.lineno} {named}")
            if named == POW_NAME and isinstance(child, (ast.Name, ast.Attribute)) and path.name != POW_OWNER:
                if (path.name, cls, func) != POW_KERNEL:
                    found.append(f"{path.name}:{child.lineno} {named}")
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(
                child, child.name if is_def else func, top or (child.name if is_def else None),
                child.name if isinstance(child, ast.ClassDef) else cls,
            )

    visit(tree, None, None, None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scan_kernel_and_scaled_format_stay_in_lattice(path):
    assert kernel_leaks(path) == []


def test_scanner_flags_a_kernel_leak(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os, concurrent.futures\n"
        "from threading import Lock\n"
        "def f(n):\n"
        "    from .fastpath import Line1D, threshold_bounds\n"
        "    return [q for s in range(n) for q in lattice.iter_shell(n, s)]\n"
        "def scan(n):\n"
        "    return iter_shell(n, 0)\n"
        "def weyl_sum(n):\n"
        "    return [s for s, _ in scan(1, range(n), 10)]\n"
        "def bad_witness(n):\n"
        "    return min(s for s, _ in lattice.scan(1, range(n), 10))\n",
        encoding="utf-8",
    )
    assert kernel_leaks(mod) == [
        "mod.py:1 concurrent.futures",
        "mod.py:2 threading",
        "mod.py:4 threshold_bounds",
        "mod.py:5 iter_shell",
        "mod.py:7 iter_shell",
        "mod.py:9 scan",
        "mod.py:11 scan",
    ]
    # the allowlist is keyed by module and function
    analysis = tmp_path / "analysis.py"
    analysis.write_text(
        "def verify_prop_5_1(n):\n"
        "    return list(scan(1, range(n), 10))\n"
        "def bad_witness(n):\n"
        "    return list(scan(1, range(n), 10))\n",
        encoding="utf-8",
    )
    assert kernel_leaks(analysis) == ["analysis.py:4 scan"]
    # the Weyl sum is a closed form: a walk inside it is a leak
    equidist = tmp_path / "equidist.py"
    equidist.write_text("def weyl_sum(n):\n    return list(scan(1, range(n), 10))\n", encoding="utf-8")
    assert kernel_leaks(equidist) == ["equidist.py:2 scan"]
    # psi_witness is a walk of within; a scan of its own is a leak
    limsup = tmp_path / "limsup.py"
    limsup.write_text(
        "def psi_witness(n):\n"
        "    return [q for s, shell in scan(1, range(n), 10) for q in shell]\n",
        encoding="utf-8",
    )
    assert kernel_leaks(limsup) == ["limsup.py:2 scan"]
    # psi comparisons: limsup defines them, and lattice._decide alone calls them
    limsup.write_text(
        "def lt_value(self, d, q):\n"
        "    return self.compare_value(d, q)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(limsup) == []
    lattice = tmp_path / "lattice.py"
    lattice.write_text(
        "def _decide(psi, d):\n"
        "    return psi.compare_value(d, 1)\n"
        "def records(psi, d):\n"
        "    return psi.compare_value(d, 1)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == ["lattice.py:4 compare_value"]
    analysis = tmp_path / "analysis.py"
    analysis.write_text(
        "def verify_prop_5_1(psi, d):\n"
        "    return psi.lt_value(d, 1) or compare_value(d, 1)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(analysis) == ["analysis.py:2 lt_value", "analysis.py:2 compare_value"]
    # threshold kinds: lattice.threshold alone tells a value from a psi; the
    # fork copied into a walk or into _hits is a leak, other tests are not
    lattice.write_text(
        "def threshold(A, thr):\n"
        "    return thr if hasattr(thr, 'compare_value') else Constant(thr)\n"
        "def within(A, thr):\n"
        "    psi = thr if hasattr(thr, 'compare_value') else None\n"
        "    return hasattr(thr, 'scaled_bounds') or isinstance(thr, Constant)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == ["lattice.py:4 hasattr"]
    limsup.write_text(
        "def _hits(A, thr):\n"
        "    if isinstance(thr, ApproxFunction):\n"
        "        return isinstance(thr, (Window, limsup.ApproxFunction))\n"
        "    return isinstance(thr, Window)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(limsup) == ["limsup.py:2 isinstance", "limsup.py:3 isinstance"]
    # the budget: lattice alone builds the refusal; a window check copied
    # into limsup is a leak, a BudgetExceeded caught or named there is not
    limsup.write_text(
        "def check_budget(w, n, budget):\n"
        "    total = (2 * w.u + 1) ** n - (2 * w.l + 1) ** n\n"
        "    if total > budget:\n"
        "        raise errors.BudgetExceeded(f'window holds {total} points')\n"
        "    return isinstance(budget, BudgetExceeded)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(limsup) == ["limsup.py:4 BudgetExceeded"]
    lattice.write_text(
        "def _over_budget(total, budget):\n"
        "    return BudgetExceeded(f'enumeration of {total} points exceeds {budget}')\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == []
    # the running count: scan and check_window alone word a refusal; a
    # closed form of its own for a 1 x 1 line is a leak
    lattice.write_text(
        "def scan(dim, shells, budget):\n"
        "    raise _over_budget(total, budget)\n"
        "def check_window(n, shells, budget):\n"
        "    raise _over_budget(window_points(n, shells), budget)\n"
        "def charge_records(s, budget):\n"
        "    if 2 * s > budget:\n"
        "        raise _over_budget(2 * max(budget // 2 + 1, 1), budget)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == ["lattice.py:7 _over_budget"]
    limsup.write_text("def psi_witness(w, budget):\n    raise lattice._over_budget(w, budget)\n", encoding="utf-8")
    assert kernel_leaks(limsup) == ["limsup.py:2 _over_budget"]
    # gamma_k: the counterpart table alone computes it; a recomputation per
    # target or per shell is a leak
    analysis.write_text(
        "def _counterparts(best, m, n):\n"
        "    return [_gamma_pow(best, k, m, n) for k in range(1, 4)]\n"
        "def b_alpha_test(best, k):\n"
        "    return _gamma_pow(best, k, 1, 1)\n"
        "def verify_prop_5_1(best, k, s):\n"
        "    return s < _gamma_pow(best, k, 1, 1)\n"
        "def gamma_sequence(best):\n"
        "    return {k: analysis._gamma_pow(best, k, 1, 1) for k in range(3)}\n",
        encoding="utf-8",
    )
    assert kernel_leaks(analysis) == [
        "analysis.py:4 _gamma_pow",
        "analysis.py:6 _gamma_pow",
        "analysis.py:8 _gamma_pow",
    ]
    # exact distances: ApproxMatrix.dist alone builds them from apply, and
    # _cf_tight alone reads the residues of a CF entry
    lattice.write_text(
        "def dist(self, q):\n"
        "    return dist_to_int_vec(self.apply(q))\n"
        "def records(A, q):\n"
        "    return numeric.dist_to_int_vec(A.apply(q))\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == ["lattice.py:4 dist_to_int_vec", "lattice.py:4 apply"]
    analysis.write_text(
        "def _cf_tight(A, q):\n"
        "    return A.apply(q)[0]\n"
        "def key_inequality_check(A, q):\n"
        "    return dist_to_int_vec(A.apply(q))\n",
        encoding="utf-8",
    )
    assert kernel_leaks(analysis) == ["analysis.py:4 dist_to_int_vec", "analysis.py:4 apply"]
    # scaled targets: only the walks and dist_enclosure, after the rule
    lattice.write_text(
        "def within(A, b):\n"
        "    return A.line.scale_target(A.target(b))\n"
        "def _target(A, b):\n"
        "    return A.line.scale_target(b)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == ["lattice.py:4 scale_target"]
    # the per-point rule lives in _decide, which within and the sorted-centre
    # index feed; the rule copied into a third function is a leak
    lattice.write_text(
        "def _decide(A, psi, d, s):\n"
        "    return psi.compare_value(d, s)\n"
        "def within(A, b, n):\n"
        "    return _decide(A, scan(1, range(n), 10), A.line.scale_target(A.target(b)))\n"
        "def centre_index(A, n):\n"
        "    def first_hit(b):\n"
        "        return _decide(A, A.line.scale_target(A.target(b)), points)\n"
        "    points = list(scan(1, range(n), 10))\n"
        "    return first_hit\n"
        "def first_hits(A, psi, bs, n):\n"
        "    for b in bs:\n"
        "        scaled = A.line.scale_target(A.target(b))\n"
        "        for s, shell in scan(1, range(n), 10):\n"
        "            yield [psi.compare_value(A.dist(q, b), s) for q in shell]\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == [
        "lattice.py:12 scale_target",
        "lattice.py:13 scan",
        "lattice.py:14 compare_value",
    ]
    # mpmath: equidist alone may import it, at any depth
    limsup.write_text(
        "import mpmath\n"
        "def value_bounds(q):\n"
        "    from mpmath import log\n"
        "    return log(q)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(limsup) == ["limsup.py:1 mpmath", "limsup.py:3 mpmath"]
    equidist.write_text("import mpmath\nfrom mpmath import mpf\n", encoding="utf-8")
    assert kernel_leaks(equidist) == []
    # mpmath's global precision, read or set, is a leak even where mpmath
    # may be imported; a local precision argument is not
    equidist.write_text(
        "import mpmath\n"
        "from mpmath import mp, workdps\n"
        "def weyl_sum(t):\n"
        "    with mpmath.workprec(120):\n"
        "        mp.dps = 30\n"
        "        return mpmath.mp.prec + workdps(t)\n"
        "def phase(t, prec):\n"
        "    return mpmath.libmp.mpf_cos_sin(t, prec, 'n', 0, True), t.prec\n",
        encoding="utf-8",
    )
    assert kernel_leaks(equidist) == [
        "equidist.py:2 workdps",
        "equidist.py:4 workprec",
        "equidist.py:5 mp.dps",
        "equidist.py:6 mp.prec",
        "equidist.py:6 workdps",
    ]
    # the interval and double contexts share the state too, under any alias
    equidist.write_text(
        "import mpmath as mm\n"
        "from mpmath import iv, mp as ctx\n"
        "def weyl_sum(t):\n"
        "    iv.prec = 200\n"
        "    mm.iv.dps = 60\n"
        "    ctx.prec = 120\n"
        "    return mm.fp.dps, mpmath.fp.prec\n"
        "def phase(iv, mp):\n"
        "    return mpf_cos_sin(iv, mp.rounding.prec, 'n'), mp.precision\n",
        encoding="utf-8",
    )
    assert kernel_leaks(equidist) == [
        "equidist.py:4 iv.prec",
        "equidist.py:5 iv.dps",
        "equidist.py:6 ctx.prec",
        "equidist.py:7 fp.dps",
        "equidist.py:7 fp.prec",
    ]
    # the CLI frame alone exits and loads the matrix, at any depth inside it
    cli = tmp_path / "cli.py"
    cli.write_text(
        "import sys\n"
        "def _subcommand(name):\n"
        "    def register(body):\n"
        "        def command(**kw):\n"
        "            kw['A'] = _load_matrix(kw.pop('matrix_path'))\n"
        "            sys.exit(body(**kw))\n"
        "        return command\n"
        "    return register\n"
        "def series(emit, matrix_path):\n"
        "    return _load_matrix(matrix_path)\n"
        "def coverage_cmd(emit, matrix_path):\n"
        "    A = _load_matrix(matrix_path)\n"
        "    sys.exit(4)\n"
        "if __name__ == '__main__':\n"
        "    exit(main())\n",
        encoding="utf-8",
    )
    assert kernel_leaks(cli) == ["cli.py:12 _load_matrix", "cli.py:13 exit", "cli.py:15 exit"]
    # the 1 x 1 shape: ApproxMatrix and Line1D test it as they are built and
    # set their flags; a test in a consumer, or in another class's
    # constructor, is a leak, either way round, and a test of another shape
    # is not
    lattice.write_text(
        "class ApproxMatrix:\n"
        "    def __init__(self, rows):\n"
        "        if has_cf and (self.m, self.n) != (1, 1):\n"
        "            raise UnsupportedEntry('1x1 only')\n"
        "        self.irrational_line = (self.m, self.n) == (1, 1)\n"
        "class BestApproxSequence:\n"
        "    def __init__(self, A):\n"
        "        self.line = (A.m, A.n) == (1, 1)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == ["lattice.py:8 (m, n) == (1, 1)"]
    analysis.write_text(
        "def estimate_exponents(A, b):\n"
        "    if (A.m, A.n) == (1, 1):\n"
        "        return (1, 1) != (b.m, b.n) or (A.m, A.n) == (2, 1)\n"
        "    return A.irrational_line\n",
        encoding="utf-8",
    )
    assert kernel_leaks(analysis) == ["analysis.py:2 (m, n) == (1, 1)", "analysis.py:3 (m, n) == (1, 1)"]
    # a CF enclosure: _as_interval reads it for every verdict, beside the
    # midpoint of CFReal.__float__ and the terms of lattice._dot; a floor of
    # its own, or a float of another class, is a leak
    numeric = tmp_path / "numeric.py"
    numeric.write_text(
        "def _as_interval(x):\n"
        "    return (*x.enclosure(), True)\n"
        "class CFReal:\n"
        "    def __float__(self):\n"
        "        return sum(self.enclosure()) / 2\n"
        "class RatInterval:\n"
        "    def __float__(self):\n"
        "        return sum(self.enclosure()) / 2\n"
        "def floor_exact(x):\n"
        "    lo, hi = x.enclosure()\n"
        "    return lo.numerator // lo.denominator, x.dist_enclosure()\n",
        encoding="utf-8",
    )
    assert kernel_leaks(numeric) == ["numeric.py:8 .enclosure()", "numeric.py:10 .enclosure()"]
    lattice.write_text(
        "def _dot(entries, q):\n"
        "    return [e.enclosure() for e in entries]\n"
        "def dist(A, q):\n"
        "    return A.rows[0][0].enclosure()\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == ["lattice.py:4 .enclosure()"]
    # a CF real or an interval: numeric tells them apart and reads every
    # value through its view; a hull or a product forking on the kind
    # elsewhere is a leak, named alone, off a module or in a tuple, and
    # the lattice readers of KIND_TESTERS are not
    analysis.write_text(
        "def _max_pow(x, y):\n"
        "    if isinstance(x, (int, numeric.RatInterval)):\n"
        "        return isinstance(y, CFReal) or isinstance(y, Quadratic)\n"
        "    return isinstance(x, (RatInterval, CFReal))\n",
        encoding="utf-8",
    )
    assert kernel_leaks(analysis) == [
        "analysis.py:2 isinstance RatInterval",
        "analysis.py:3 isinstance CFReal",
        "analysis.py:4 isinstance CFReal/RatInterval",
    ]
    lattice.write_text(
        "def _dot(entries, q):\n"
        "    return [isinstance(e, CFReal) for e in entries]\n"
        "class BestApproxSequence:\n"
        "    def csv_rows(self):\n"
        "        return [isinstance(e.M, RatInterval) for e in self.entries]\n"
        "def scaled_boxes(xs, bits):\n"
        "    return [isinstance(x, RatInterval) for x in xs]\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == ["lattice.py:7 isinstance RatInterval"]
    numeric.write_text(
        "def compare(x, y):\n"
        "    return isinstance(x, (CFReal, RatInterval))\n",
        encoding="utf-8",
    )
    assert kernel_leaks(numeric) == []
    # the integer model: numeric alone scales numerators over an lcm and
    # tests surd signs, so a residue loop or a target model copied into
    # lattice is a leak, imported or reached through a module
    lattice.write_text(
        "from math import lcm\n"
        "from .numeric import _floor_sqrt_mult, _sign_surd, _surd\n"
        "def dist(self, q, b):\n"
        "    E = self.D * lcm(*(x.denominator for x in b))\n"
        "    n = (2 * p + E + numeric._floor_sqrt_mult(2 * w, d)) // (2 * E)\n"
        "    return _sign_surd(p, w, d), math.lcm(2, 3), _surd(b)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == [
        "lattice.py:1 lcm",
        "lattice.py:2 _floor_sqrt_mult",
        "lattice.py:2 _sign_surd",
        "lattice.py:4 lcm",
        "lattice.py:5 _floor_sqrt_mult",
        "lattice.py:6 _sign_surd",
        "lattice.py:6 lcm",
    ]
    numeric.write_text(
        "from math import lcm\n"
        "def _dist_surds(rows, E, d):\n"
        "    return [_sign_surd(p, w, d) + _floor_sqrt_mult(w, d) for p, w in rows], lcm(E, 2)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(numeric) == []
    # the radicand rule: numeric._field alone words the refusal; a field
    # check of its own in a matrix method, a target rule or Quadratic
    # arithmetic is a leak, in any string form, and a docstring is not
    lattice.write_text(
        "class ApproxMatrix:\n"
        "    def check_field(self, x):\n"
        "        'Refuses mixing radicands.'\n"
        "        raise UnsupportedEntry(f'mixing radicands sqrt({self.radicand}) and sqrt({x.d})')\n"
        "def check_target(b, ds):\n"
        "    raise UnsupportedEntry('mixing radicands ' + ' and '.join(ds))\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == ["lattice.py:4 'mixing radicands'", "lattice.py:6 'mixing radicands'"]
    numeric.write_text(
        "def _field(xs, d=None):\n"
        "    raise UnsupportedEntry('mixing radicands sqrt({}) and sqrt({})'.format(d, 2))\n"
        "class Quadratic:\n"
        "    def _coerce(self, other):\n"
        "        raise UnsupportedEntry(f'mixing radicands sqrt({self.d}) and sqrt({other.d})')\n",
        encoding="utf-8",
    )
    assert kernel_leaks(numeric) == ["numeric.py:5 'mixing radicands'"]
    # psi^s: numeric defines the integer power and root, and the bracketed
    # psi-sum alone calls it; a series or diameter loop of its own is a
    # leak, imported or reached through a module
    analysis.write_text(
        "from .numeric import _scaled_pow\n"
        "from .limsup import _psi_cells\n"
        "def _partial_sum_bounds(psi, qs, s):\n"
        "    return [_scaled_pow(lo, hi, s, 64) for lo, hi in psi.scaled_bounds(qs, 64)], _psi_cells(psi, [], s, 64)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(analysis) == ["analysis.py:1 _scaled_pow", "analysis.py:4 _scaled_pow"]
    limsup.write_text(
        "from .numeric import _scaled_pow\n"
        "def _psi_cells(psi, qs, s, shift, c=1):\n"
        "    return [_scaled_pow(c * lo, c * hi, s, shift) for lo, hi in psi.scaled_bounds(qs, shift)]\n"
        "def diameter_sum(psi, w, s):\n"
        "    return sum(numeric._scaled_pow(2 * lo, 2 * hi, s, 60)[0] for lo, hi in psi.scaled_bounds(w.shells, 60))\n",
        encoding="utf-8",
    )
    assert kernel_leaks(limsup) == ["limsup.py:5 _scaled_pow"]
    numeric.write_text(
        "def _scaled_pow(lo, hi, e, shift):\n"
        "    return lo, hi\n"
        "def _root_bounds(x, e):\n"
        "    return _scaled_pow(x, x, e, 64)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(numeric) == []
    # the arc-entry kernel: lattice's record walk alone jumps to a line's
    # next point near b; a search of its own elsewhere is a leak, imported
    # or reached through a module
    analysis.write_text(
        "from .lattice import _arc_entry\n"
        "def first_entry(line, b, r):\n"
        "    return _arc_entry(line.a_lo, b, r, 1, line.mod), lattice._arc_entry(line.a_lo, -b, r, 1, line.mod)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(analysis) == ["analysis.py:1 _arc_entry", "analysis.py:3 _arc_entry", "analysis.py:3 _arc_entry"]
    lattice.write_text(
        "def _arc_entry(a, B, R, s0, mod):\n"
        "    return s0\n"
        "def _arc_points(line, B, R):\n"
        "    return _arc_entry(line.a_lo, B, R, 1, line.mod)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(lattice) == []
