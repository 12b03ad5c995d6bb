"""``import qglab`` loads no module, the benchmark's set-up line loads only
the two layers it calls, the closed-form layer imports nothing of the
resolvent layer, and the closed-form verbs load no scipy module.

The closed forms need only numpy; scipy is imported inside the calls that
use it (the FEM oracle), and no module imports ``scipy.optimize``.  Each
module check runs in a fresh interpreter with ``PYTHONPATH=src``, so no
module imported by another test can hide an import at module level.
"""

import ast
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# the benchmark's set-up line: a fresh interpreter's import and one fiber
# point, which needs only graphs and mmatrix
SETUP = (
    "import qglab\n"
    "from qglab.graphs import build_example\n"
    "from qglab.mmatrix import FiberParams, m_blocks_closed\n"
    "m_blocks_closed(build_example('ex0'), FiberParams(0.1, 1.0, 2 + 1j))\n"
    "rc = 0\n"
)
VERB = (
    "import contextlib, io\n"
    "from qglab.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = main([{verb!r}])\n"
)
REPORT = (
    "import json, sys\n"
    "loaded = {p: sorted(n for n in sys.modules if n.split('.')[0] == p)\n"
    "          for p in ('qglab', 'numpy', 'scipy')}\n"
    "print(json.dumps([rc, loaded]))\n"
)


def _fresh(code: str) -> tuple[int, dict[str, list[str]]]:
    """(exit status of the code, the qglab, numpy and scipy modules it left
    loaded, by package), from a new interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", code + REPORT], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    ).stdout
    rc, loaded = json.loads(out.splitlines()[-1])
    return rc, loaded


def test_import_qglab_loads_no_module():
    # the package holds its docstring and version only: each caller imports
    # a name from the module that defines it
    assert _fresh("import qglab\nrc = 0\n") == (0, {"qglab": ["qglab"], "numpy": [], "scipy": []})


def test_setup_line_loads_only_graphs_and_mmatrix():
    rc, loaded = _fresh(SETUP)
    assert (rc, loaded["qglab"]) == (0, ["qglab", "qglab.graphs", "qglab.mmatrix"])


def test_import_and_one_fiber_point_load_no_scipy():
    rc, loaded = _fresh(SETUP)
    assert (rc, loaded["scipy"]) == (0, [])


@pytest.mark.parametrize("verb", ["mmatrix", "dispersion", "line", "verify-appendix", "converge"])
def test_closed_form_verbs_load_no_scipy(verb):
    rc, loaded = _fresh(VERB.format(verb=verb))
    assert (rc, loaded["scipy"]) == (0, [])


@pytest.mark.parametrize("verb", ["bands", "resolvent"])
def test_fem_verbs_load_scipy_where_they_call_it(verb):
    # the FEM oracle needs scipy.sparse.linalg; the band scan refines its
    # roots by dispersion's own false position, so scipy.optimize (171
    # modules and about 17 MB) stays unloaded
    rc, loaded = _fresh(VERB.format(verb=verb))
    scipy_modules = loaded["scipy"]
    assert rc == 0
    assert "scipy.sparse.linalg" in scipy_modules
    assert [m for m in scipy_modules if m.split(".")[:2] == ["scipy", "optimize"]] == []


CLOSED_FORMS = ("graphs", "mmatrix", "triples", "dispersion", "realline")
RESOLVENT_LAYER = {"krein", "effective", "fdsolver", "lab"}


def _qglab_imports(module: str) -> set[str]:
    """The qglab modules that ``module`` imports anywhere in its source."""
    tree = ast.parse((SRC / "qglab" / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # from . import x / from .x import y
                found |= {base} if base else {alias.name for alias in node.names}
            elif base == "qglab":
                found |= {alias.name for alias in node.names}
            elif base.startswith("qglab."):
                found.add(base.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("qglab.")
            }
    return found


@pytest.mark.parametrize("module", CLOSED_FORMS)
def test_closed_forms_import_no_resolvent_module(module):
    # a static check: it sees an import inside a function too, which the
    # fresh interpreter below runs only if the function is called
    assert _qglab_imports(module) & RESOLVENT_LAYER == set()


@pytest.mark.parametrize("module", CLOSED_FORMS)
def test_closed_form_module_alone_loads_no_resolvent_module(module):
    # what the module pulls in at import, through every module it imports
    rc, loaded = _fresh(f"import qglab.{module}\nrc = 0\n")
    assert rc == 0 and f"qglab.{module}" in loaded["qglab"]
    assert {n.split(".")[1] for n in loaded["qglab"] if "." in n} & RESOLVENT_LAYER == set()


# the library's public entry points, each named where it is defined; the
# check stays on these, since the per-edge krein.EdgeKernel takes the
# weights and a grid of its workspace by design
ENTRY_POINTS = (
    "dispersion.band_roots", "dispersion.k_closed", "dispersion.k_series",
    "dispersion.verify_sum_identities",
    "effective.EffectiveModel", "effective.PsiEmbedding",
    "fdsolver.DiscretizedOperator", "fdsolver.FemLayout",
    "graphs.EdgeSpec", "graphs.MetricGraph", "graphs.ParameterError", "graphs.PoleError",
    "graphs.build_example", "graphs.datta_weights",
    "krein.ResolventWorkspace",
    "lab.EXPERIMENT_TAGS", "lab.Check", "lab.ExperimentResult", "lab.SlopeFit",
    "lab.fit_slope", "lab.operator_norm_diff", "lab.parse_config", "lab.run_experiment",
    "mmatrix.FiberParams", "mmatrix.MMatrixSet", "mmatrix.check_additivity",
    "mmatrix.herglotz_min_eig", "mmatrix.m_blocks_closed", "mmatrix.m_general",
    "realline.LineGrid", "realline.difference_symbol", "realline.differential_symbol_ex1",
    "realline.gaussian_packet", "realline.make_line_grid", "realline.psi_k_apply",
    "triples.b_eff", "triples.b_matrix", "triples.beff_deviation", "triples.btilde_closed_ex0",
    "triples.btilde_numeric", "triples.delta_fn", "triples.delta_limit",
    "triples.projection_transform", "triples.rotate_triple", "triples.rotation_x",
    "triples.second_swap",
)


def test_fiber_layers_take_no_weights():
    # each fiber layer derives its Datta weights from (graph, fiber.tau), and
    # each resolvent object its sample grid from (component, resolution), so
    # no public callable or method takes either, and the harness builds
    # neither; the real-line models' ``grid`` is their LineGrid, not a
    # component's sample grid
    takes, takes_grid, missing = [], [], []
    for name in ENTRY_POINTS:
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"qglab.{module}"), attr, None)
        if obj is None:
            missing.append(name)
            continue
        members = [(name, obj)] if callable(obj) else []
        if inspect.isclass(obj):
            members += [
                (f"{name}.{attr}", fn)
                for attr, fn in inspect.getmembers(obj, inspect.isfunction)
            ]
        for where, fn in members:
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):  # a builtin without a signature
                continue
            if "weights" in params:
                takes.append(where)
            takes_grid += [
                f"{where}({p.name})" for p in params.values()
                if p.name in ("grid", "full_grid") and p.annotation != "LineGrid"
            ]
    assert missing == []
    assert len(ENTRY_POINTS) == len(set(ENTRY_POINTS)) == 46
    assert takes == []
    assert takes_grid == []
    lab = (SRC / "qglab" / "lab.py").read_text()
    assert "datta_weights" not in lab
    assert "make_grid" not in lab


def _scipy_imports(module: str, package: str = "scipy") -> list[int]:
    """Lines where ``module`` imports ``package`` or one of its submodules
    (``from scipy import optimize`` included), at module level, in a
    function or under TYPE_CHECKING."""
    tree = ast.parse((SRC / "qglab" / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == package or n.startswith(package + ".") for n in names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("module", ["lab", "krein", "effective", "dispersion"])
def test_resolvent_layer_imports_no_scipy_anywhere(module):
    # a static check: the structured resolvents, the power iteration and the
    # band scan (with its own refinement) need only numpy, so neither
    # a module-level nor an in-function import (nor a type-checking one) of
    # scipy appears; only fdsolver's FEM oracle loads scipy
    assert _scipy_imports(module) == []


def test_no_module_imports_scipy_optimize():
    modules = sorted(p.stem for p in (SRC / "qglab").glob("*.py"))
    assert "dispersion" in modules
    assert {m: _scipy_imports(m, "scipy.optimize") for m in modules} == {m: [] for m in modules}


def _hidden_caches(module: str) -> list[str]:
    """Where ``module`` imports or uses functools' ``cache``/``lru_cache``,
    or binds an empty container at module level (a store that would outlive
    one run)."""
    tree = ast.parse((SRC / "qglab" / f"{module}.py").read_text())
    memo = {"cache", "lru_cache"}
    found = [
        f"{module}:{node.lineno}" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        and any(alias.name in memo for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr in memo
        and isinstance(node.value, ast.Name) and node.value.id == "functools"
    ]
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        empty = (
            isinstance(value, ast.Dict) and not value.keys
            or isinstance(value, ast.List) and not value.elts
            or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "set", "list") and not value.args and not value.keywords
        )
        if empty:
            found.append(f"{module}:{node.lineno}")
    return found


def test_no_module_level_caches():
    # what a sweep shares lives in one store per row of one run: the dict
    # of a model's full-graph workspace, which its soft part (the one
    # ``kernels`` of every eps of the row) and the workspace's at_eps
    # siblings share, keyed by what each value depends on beside tau and
    # the resolution.  No module keeps a cache that could carry one run's,
    # or one row's, values into another
    modules = sorted(p.stem for p in (SRC / "qglab").glob("*.py"))
    assert "krein" in modules
    assert [where for m in modules for where in _hidden_caches(m)] == []


def _linalg_solves(module: str) -> list[tuple[str, ast.Call, ast.AST]]:
    """(enclosing function, call, function node) of every ``<...>.linalg.solve``
    call in ``module``; a bare ``solve`` imported from a linalg module fails
    the test outright."""
    tree = ast.parse((SRC / "qglab" / f"{module}.py").read_text())
    imported = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
        and any(alias.name == "solve" for alias in node.names)
    ]
    assert imported == [], f"{module} imports a linalg solve by name"
    found = []

    def visit(node, where, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
                visit(child, inner, child if isinstance(child, ast.FunctionDef) else fn)
                continue
            if (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr == "solve" and isinstance(child.func.value, ast.Attribute)
                and child.func.value.attr == "linalg"
            ):
                found.append((where, child, fn))
            visit(child, where, fn)

    visit(tree, "", None)
    return found


def _raises_pole_error(node) -> bool:
    return any(
        isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
        and getattr(n.exc.func, "id", None) == "PoleError"
        for n in ast.walk(node)
    )


def test_every_dense_solve_is_guarded():
    # a singular system is a FAIL line, not a traceback: np.linalg.solve's
    # LinAlgError is a ValueError, which a sweep lets through.  So each
    # dense solve runs behind one of two guards: the cond check of the
    # generalised resolvent, which raises PoleError before it solves, or
    # the effective layer's ``_solve``, which turns LinAlgError into one
    modules = sorted(p.stem for p in (SRC / "qglab").glob("*.py"))
    solves = {(m, where): (call, fn) for m in modules for where, call, fn in _linalg_solves(m)}
    assert set(solves) == {
        ("krein", "ResolventWorkspace.generalized_resolvent"), ("effective", "_solve")
    }
    call, fn = solves[("krein", "ResolventWorkspace.generalized_resolvent")]
    conds = [
        n.lineno for n in ast.walk(fn)
        if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "cond"
    ]
    guards = [n for n in fn.body if isinstance(n, ast.If) and _raises_pole_error(n)]
    assert conds and guards and max(conds) < guards[0].lineno < call.lineno
    call, fn = solves[("effective", "_solve")]
    (guard,) = [n for n in fn.body if isinstance(n, ast.Try)]
    assert any(call is n for n in ast.walk(ast.Module(body=guard.body, type_ignores=[])))
    (handler,) = guard.handlers
    assert ast.unparse(handler.type) == "np.linalg.LinAlgError"
    assert _raises_pole_error(handler)


def _edge_trig_calls(module: str) -> list[str]:
    """The enclosing class.function of every sin/cos/tan call in ``module``
    whose argument reads both a ``kappa`` and an edge's ``length``."""
    tree = ast.parse((SRC / "qglab" / f"{module}.py").read_text())
    found = []

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
        }

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("sin", "cos", "tan")
                and {"kappa", "length"} <= set().union(*map(names, child.args))
            ):
                found.append(where)
            visit(child, where)

    visit(tree, "")
    return found


def test_edge_trig_is_evaluated_only_in_the_edge_record():
    # EdgeKernel is the one record of an edge at (speed, z): M(z), the grid
    # products and the effective layer's boundary rows and fields read its
    # end scalars and samples, so no other code in the resolvent layer
    # evaluates a trig function of kappa and an edge length
    calls = {m: _edge_trig_calls(m) for m in ("krein", "effective")}
    assert calls["effective"] == []
    assert calls["krein"] and all(where.startswith("EdgeKernel.") for where in calls["krein"])


def _name_sites(module: str, name: str) -> list[str]:
    """The enclosing class.function (or ``<module>``) of every place where
    ``module`` names ``name``: an import of it, a bare name or an attribute."""
    tree = ast.parse((SRC / "qglab" / f"{module}.py").read_text())
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if (
                isinstance(child, ast.alias) and name in (child.name, child.asname)
                or isinstance(child, ast.Name) and child.id == name
                or isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.append(f"{module}:{where or '<module>'}")
            visit(child, where)

    visit(tree, "")
    return found


def test_eigsh_runs_only_where_its_arpack_state_is_freed():
    # scipy's eigsh leaves each call's ARPACK state in a reference cycle,
    # which DiscretizedOperator.eigenvalues frees as the call returns; a
    # second call site would bring back the growth of about 0.4 MB per
    # call, and only the FEM oracle touches the garbage collector
    modules = sorted(p.stem for p in (SRC / "qglab").glob("*.py"))
    sites = {where for m in modules for where in _name_sites(m, "eigsh")}
    assert sites == {"fdsolver:DiscretizedOperator.eigenvalues"}
    gc_users = {where.split(":")[0] for m in modules for where in _name_sites(m, "gc")}
    assert gc_users == {"fdsolver"}



def test_one_trig_kernel():
    # cot and csc of one argument come from mmatrix.cot_csc alone: no module
    # defines, imports or calls the separate kernels it replaced
    former = {"ccot", "ccsc"}
    found = []
    for path in sorted((SRC / "qglab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                names = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name for a in node.names} | {a.asname for a in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if names & former:
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []
    mmatrix = ast.parse((SRC / "qglab" / "mmatrix.py").read_text())
    assert "cot_csc" in {n.name for n in mmatrix.body if isinstance(n, ast.FunctionDef)}
