"""The public surface of `pseudoknots`, and no second paths behind it.

Every module-level function, class or constant in `src/pseudoknots/` is
either exported in `pseudoknots.__all__`, read from another place in the
library, or named by the benchmark harness in `perfbench/`.  Code that
only tests call lives in `tests/` as a reference (`oracle.py`,
`numpy_engine.py`, `pdmoves.py`, `chordflype.py`, `gaussref.py`).
"""

import ast
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pseudoknots

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pseudoknots"
PERFBENCH = ROOT / "perfbench"

PUBLIC_API = [
    "DecoratedChordDiagram",
    "DiagramTooLargeError",
    "FlypeError",
    "FlypeSite",
    "GaussError",
    "KnotName",
    "KnotTable",
    "LaurentPolynomial",
    "MoveError",
    "MoveSite",
    "PDError",
    "PseudoGaussDiagram",
    "PseudoPD",
    "ResolvedPD",
    "Unknown",
    "WereSet",
    "alternating_resolution",
    "apply_move",
    "canonical_form",
    "canonical_hex",
    "classify",
    "compute_i",
    "counterexample_pair",
    "enumerate_flype_sites",
    "evenness_check",
    "family",
    "family_site",
    "i_equal",
    "jones",
    "kauffman_bracket",
    "load_table",
    "mirror",
    "parse_gauss",
    "parse_pd",
    "pd_to_gauss",
    "prechord_diagram",
    "rebuild_table",
    "resolve",
    "scramble",
    "shadow_flype_pd",
    "standard_diagrams",
    "twist_shadow",
    "unknot",
    "wereset",
    "wereset_equal",
    "writhe",
]


def test_public_api_is_pinned():
    assert sorted(pseudoknots.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(pseudoknots, name) is not None, name


def _fresh(code: str):
    """The JSON value `code` prints last, run in a fresh interpreter: the
    package loads most of its modules on first use, so what this process
    has already imported would hide how it behaves."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


SUBMODULES = sorted(path.stem for path in SRC.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("order", [SUBMODULES, SUBMODULES[::-1]])
def test_wereset_stays_the_function_whatever_is_imported(order):
    # importing a submodule binds it on the package, unless the package
    # already binds that name
    assert "cli" in order and "wereset" in order
    imports = "\n".join(f"import pseudoknots.{m}" for m in order)
    code = (f"import json\n{imports}\nimport pseudoknots\n"
            "from pseudoknots import wereset\n"
            "print(json.dumps([type(pseudoknots.wereset).__name__, type(wereset).__name__]))")
    assert _fresh(code) == ["function", "function"]


def test_star_import_and_dir_list_every_public_name():
    code = ("import json, pseudoknots\n"
            "listed = dir(pseudoknots)\n"
            "names = {}\n"
            "exec('from pseudoknots import *', names)\n"
            "print(json.dumps([sorted(set(names) - {'__builtins__'}), listed]))")
    bound, listed = _fresh(code)
    assert bound == PUBLIC_API
    assert set(PUBLIC_API) <= set(listed)


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        pseudoknots.no_such_name
    assert not hasattr(pseudoknots, "no_such_name")


def _names_read(tree: ast.AST) -> Counter:
    """How often each name, attribute name or imported name occurs in `tree`."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function or class, or
    the plain names an assignment binds, dunders excepted."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = []
    for target in targets:
        elts = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [e.id for e in elts if isinstance(e, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_private_name_has_a_caller():
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"  # its imports are the exports
    }
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    perfbench = "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))
    public = set(pseudoknots.__all__)
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                if name in public:
                    continue
                # a recursive call, a class naming itself, or a constant's
                # own assignment is no caller
                if read[name] > _names_read(node)[name]:
                    continue
                if re.search(rf"\b{re.escape(name)}\b", perfbench):
                    continue
                uncalled.append(f"{module}.{name}")
    assert uncalled == []
