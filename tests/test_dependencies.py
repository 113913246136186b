import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_are_the_imported_ones():
    # the one test that reads pyproject.toml, so the one a missing parser skips
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: the same parser as the tomli package
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
                for d in project["dependencies"]}
    used = set()
    for path in sorted((ROOT / "src" / "driftlab").glob("*.py")):
        used |= imported_modules(path)
    third_party = used - set(sys.stdlib_module_names) - {"driftlab"}
    assert third_party and third_party == declared


def test_no_unused_imports():
    # every name a module imports is used in it or exported by its __all__
    unused = []
    for path in sorted((ROOT / "src" / "driftlab").glob("*.py")):
        imported, used = {}, set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_solver_reads_the_stencil_only_through_the_operator():
    # SparseOperator._perron_step makes the Perron checks, the memory count
    # and the step; eigen.py reads no stencil array or fact of its own
    src = ROOT / "src" / "driftlab"
    tree = ast.parse((src / "eigen.py").read_text())
    stencil = {"diag", "off", "min_offdiag", "is_metzler", "_shifted_solver", "_CyclicFactor"}
    reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    imports = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for a in node.names}
    assert sorted(reads & stencil) == [] and "_CyclicFactor" not in imports
    defined = ["%s:%d" % (path.name, node.lineno)
               for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "is_irreducible"]
    assert defined == []


def test_only_expr_reads_the_harmonics():
    # expr.py is the one module that knows the Fourier form: every other
    # module samples, bounds or restricts a field through TrigExpr methods
    reads = []
    for path in sorted((ROOT / "src" / "driftlab").glob("*.py")):
        if path.name == "expr.py":
            continue
        reads += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr == "harmonics"]
        if "cmath" in imported_modules(path):
            reads.append("%s imports cmath" % path.name)
    assert reads == []


def test_every_constant_is_read():
    # a module-level UPPER_CASE name that no code in src loads is a dead
    # setting; tests reading it do not count
    src = ROOT / "src" / "driftlab"
    defined, loaded = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += ["%s %s" % (path.name, t.id) for node in tree.body
                    if isinstance(node, ast.Assign) for t in node.targets
                    if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)]
        loaded |= {node.id for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert defined and [d for d in defined if d.split()[1] not in loaded] == []


def test_only_expr_knows_what_a_number_is():
    # expr._is_int and expr._is_real hold the rule for a numeric argument, a
    # number that is not a bool: no other module spells it out
    spelled = []
    for path in sorted((ROOT / "src" / "driftlab").glob("*.py")):
        if path.name == "expr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(n, ast.Name) and n.id == "bool"
                            for n in ast.walk(node.args[1]))):
                spelled.append("%s:%d isinstance(..., bool)" % (path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr in ("integer", "floating"):
                spelled.append("%s:%d %s" % (path.name, node.lineno, node.attr))
        if "numbers" in imported_modules(path):
            spelled.append("%s imports numbers" % path.name)
    assert spelled == []


def test_operator_samples_fields_only_through_on_grid():
    # one grid sampler: of TrigExpr's public methods, assembly names only
    # on_grid, for the samples, and abs_sum, for the overflow bound
    src = ROOT / "src" / "driftlab"
    trig = next(node for node in ast.parse((src / "expr.py").read_text()).body
                if isinstance(node, ast.ClassDef) and node.name == "TrigExpr")
    public = {node.name for node in trig.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    named = {node.attr for node in ast.walk(ast.parse((src / "operator.py").read_text()))
             if isinstance(node, ast.Attribute)}
    assert "on_grid" in public and sorted(named & public) == ["abs_sum", "on_grid"]


def test_only_expr_reads_array_dtypes():
    # expr._real_array and expr._check_row hold the rule for an array
    # argument: no other module reads a dtype or flags, converts with
    # astype or asks iscomplexobj
    reads = []
    for path in sorted((ROOT / "src" / "driftlab").glob("*.py")):
        if path.name == "expr.py":
            continue
        reads += ["%s:%d %s" % (path.name, node.lineno, node.attr)
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("dtype", "flags", "astype", "iscomplexobj")]
    assert reads == []


def names_in(node):
    """Every identifier node names: variables, attributes and imports."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            | {a.name for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))
               for a in n.names})


def test_one_memory_rule():
    # operator._check_memory is the one place a grid is refused for its
    # memory, and operator.py the one module that names the byte budget
    raised, named = [], []

    def visit(path, node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Raise) and node.exc is not None
                and "GridTooLargeError" in names_in(node.exc)):
            raised.append("%s %s" % (path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(path, child, function)

    for path in sorted((ROOT / "src" / "driftlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        visit(path, tree, None)
        if "MAX_BYTES" in names_in(tree):
            named.append(path.name)
    assert raised == ["operator.py _check_memory"] and named == ["operator.py"]


def test_scenario_reads_the_torus_from_expr():
    # expr.py holds the torus's geometry, its dimension rule and grid
    # angles: scenario.py imports no stencil or solver, and the package is
    # two branches on expr, operator <- eigen and diophantine <- scenario
    graph = {}
    for path in sorted((ROOT / "src" / "driftlab").glob("*.py")):
        if path.name != "__init__.py":
            graph[path.stem] = sorted(
                {node.module for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.level == 1} - {"errors"})
    assert graph == {"diophantine": ["expr"], "eigen": ["expr", "operator"], "errors": [],
                     "expr": [], "operator": ["expr"], "scenario": ["diophantine", "expr"]}


def test_only_expr_knows_the_dimension_range():
    # expr._dim is the one rule for a dimension, an integer in 1..3: no other
    # module compares a dim with a literal other than 1 or 2 (the 1D step,
    # the 2-torus) or with a literal tuple, list or set, or names _NVARS
    def is_dim(node):
        return (isinstance(node, ast.Name) and node.id == "dim"
                or isinstance(node, ast.Attribute) and node.attr == "dim")

    spelled = []
    for path in sorted((ROOT / "src" / "driftlab").glob("*.py")):
        if path.name == "expr.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for a, b in zip(operands, operands[1:]):
                for side, other in ((a, b), (b, a)):
                    if is_dim(side) and (
                            isinstance(other, (ast.Tuple, ast.List, ast.Set))
                            or isinstance(other, ast.Constant) and other.value not in (1, 2)):
                        spelled.append("%s:%d %s" % (path.name, node.lineno, ast.unparse(node)))
        if "_NVARS" in names_in(tree):
            spelled.append("%s names _NVARS" % path.name)
    assert spelled == []
