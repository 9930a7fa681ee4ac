"""The public surface of `pseudoknots`, and no second paths behind it.

Every module-level function, class or constant in `src/pseudoknots/` is
either exported in `pseudoknots.__all__`, read from another place in the
library, or named by the benchmark harness in `perfbench/`; a private
one is read in the library itself, outside its own body.  For a public
function or class and for a private name, being the value of a
module-level alias is no read, since the alias is what its readers read.
Every public method, property and classmethod of a class there is read
as an attribute in the library or the harness, outside its own body, or
is kept API that README names (`KEPT_MEMBERS`).  Code that only tests call lives in
`tests/` as a reference (`oracle.py`, `numpy_engine.py`, `pdmoves.py`,
`chordflype.py`, `gaussref.py`).
"""

import ast
import importlib
import inspect
import json
import re
import subprocess
import sys
import typing
from collections import Counter
from functools import cached_property
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


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read in `tree` as a name or an attribute, or
    named by a string (the harness looks its names up with `getattr`); an
    import is no read."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _reader_counts(trees) -> Counter:
    """How often each name is read in `trees` (see `_reads`), less once for
    each module-level alias (`alias = name`) whose value it is."""
    read = Counter()
    for tree in trees:
        read += _reads(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                read[node.value.id] -= 1
    return read


def test_every_public_function_and_class_has_a_reader():
    """A module-level public function or class in `src/` is exported in
    `__all__`, or read in `src/` or `perfbench/` outside its own body.  The
    value of a module-level alias (`alias = name`) is no read: the alias is
    what its readers read, so a function that only an alias names has no
    reader of its own."""
    paths = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in paths if path.name != "__init__.py"}  # its imports are the exports
    read = _reader_counts(trees.values())
    public = set(pseudoknots.__all__)
    unread = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items() if path.parent == SRC
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in public
        and read[node.name] <= _reads(node)[node.name]
    ]
    assert unread == []


def test_every_private_name_has_a_reader_in_src():
    """A private module-level function, class or constant in `src/` is read
    in `src/` outside its own body, where the value of a module-level alias
    is no read.  A read from the tests or the harness does not count, so no
    helper stays in the library for the tests alone."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    read = _reader_counts(trees.values())
    unread = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for node in tree.body
        for name in _defined_names(node)
        if name.startswith("_") and not name.endswith("__")  # a module hook is no helper
        and read[name] <= _reads(node)[name]
    ]
    assert unread == []


# Members nothing in the library or the harness reads, kept as documented
# API; README's kept-API paragraph names each with its reason.
KEPT_MEMBERS = {
    "WereSet.mirrored",  # documented API, read by the acceptance tests
    "KnotTable.to_text",  # writes the bundled data/knot_table.txt that from_text reads
}


def _attributes_read(tree: ast.AST) -> Counter:
    """How often each attribute name is read in `tree`."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_every_public_member_has_a_reader():
    """The rule matches members by name, so a member that shares its name
    with a member of another class is seen as read when either is: a
    `to_text` or `classical_ids` passes whichever class's is read.  Such
    members are checked by hand: `PseudoPD.classical_ids` had no reader
    (the CLI reads the Gauss diagram's) and is gone, `WereSet.to_json_dict`
    had none once the CLI printed `WereSet.to_json` (the CLI reads the
    other classes') and is gone, and `KnotTable.to_text` is kept API."""
    paths = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    read = sum((_attributes_read(tree) for tree in trees.values()), Counter())
    members, unread = set(), []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                member = f"{cls.name}.{node.name}"
                members.add(member)
                # a member reading itself, as a recursive call does, is no reader
                if member in KEPT_MEMBERS or read[node.name] > _attributes_read(node)[node.name]:
                    continue
                unread.append(member)
    assert unread == []
    assert KEPT_MEMBERS <= members


def _annotated(module):
    """(name, object) for every function, class, method, property and
    classmethod that `module` defines; a property or cached property is
    given by its getter."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, cached_property):
                    member = member.func
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", ["pseudoknots", *(f"pseudoknots.{m}" for m in SUBMODULES)])
def test_every_annotation_resolves(module):
    """The submodules write their annotations as strings (`from
    __future__ import annotations`), so a name that is not bound where it
    is read fails only when `typing.get_type_hints` evaluates it, as
    documentation and runtime type tools do."""
    mod = importlib.import_module(module)
    broken = []
    for name, obj in _annotated(mod):
        try:
            typing.get_type_hints(obj)
        except (NameError, TypeError) as exc:  # an unbound name, or a bad expression
            broken.append(f"{module}.{name}: {exc!r}")
    assert broken == []
