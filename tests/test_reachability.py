"""Every function defined in qglab is reached by some CLI run.

The seven verbs run at cheap configs, with ``--config`` and ``--out``, under
``sys.setprofile``; each function that no call reaches must be named in
``UNREACHED`` with the reason it stays.  A function only tests call is test
code living in the library, so it moves to the tests or goes; an
``UNREACHED`` entry that a run does reach is stale and goes too.
"""

import ast
import contextlib
import io
import pathlib
import sys

import qglab
from qglab.cli import VERB_TAGS, main

SRC = pathlib.Path(qglab.__file__).parent

UNREACHED = {
    "realline.psi_k_apply": "the public solution operator Psi_K of the paper; line_models "
                            "measures its distance on the Fourier side",
    "lab.fit_slope": "the one-row fit that carries R^2, which the run record is to hold",
}

# cheap configs that still reach every cell, route and CSV of each verb
CONFIGS = {
    "mmatrix": "eps_list = 0.3, 0.1\ntau_count = 2\nz_list = 2+1i\n",
    "resolvent": "resolutions = 32, 64\n",
    "converge": "eps_list = 0.2, 0.1, 0.05, 0.025\ntau_list = 1.0\nresolution = 16\n",
    "bands": "tau_count = 3\nresolution = 256\nn_bands = 2\n",
    "dispersion": "tau_count = 2\nz_list = 2+1i\ntau_list = 0.3\n",
    "line": "grid_size = 256\nhalf_width = 16\nz_list = 2+1i\n",
    "verify-appendix": "tau_count = 2\ntau_list = 0.3, 1.0\n",
}


def _defined() -> dict[tuple[str, int], str]:
    """(file, first line) -> module-qualified name of every function in the
    package; a decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(str(path), first)] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), path.stem)
    return found


def test_every_library_function_is_reached_by_a_cli_run(tmp_path):
    assert set(CONFIGS) == set(VERB_TAGS)
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    for verb, text in CONFIGS.items():
        cfg = tmp_path / f"{verb}.txt"
        cfg.write_text(text)
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main([verb, "--config", str(cfg), "--out", str(tmp_path / verb)]))
        finally:
            sys.setprofile(None)
    assert codes == [0] * len(CONFIGS)
    files = {path: str(pathlib.Path(path).resolve()) for path, _ in reached}
    reached = {(files[path], line) for path, line in reached}
    unreached = {name for where, name in _defined().items() if where not in reached}
    assert sorted(unreached - set(UNREACHED)) == [], "reached by no CLI run"
    assert sorted(set(UNREACHED) - unreached) == [], "reached, so no longer UNREACHED"
