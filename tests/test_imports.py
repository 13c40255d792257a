"""Lint guards, all but the last four written with ast alone: every name a
package or test module imports is used, every name a package module's
__all__ lists is defined in it (so each public name has one owning
module), every top-level def or class of a package module is exported or
read by package code, no package module computes with floats, only
presets and cli build a SurfaceGeometry, no package module imports
dataclasses, only ns_lattice's aliases _set and _new name
object.__setattr__ and a __new__ and no module reads a slot's __set__,
the kernel modules and no others read ns_lattice.reduced, the one
unchecked constructor of a num/den value, only ns_lattice's NumDen
defines + - neg and only ns_lattice reads math.lcm, the package runs no
exec, eval or compile, every functools cache is bounded, no package
module holds an assert statement (python -O strips them), cli reads
argparse by its public names alone and parses through argparse at one site, cli imports none of the
library's counting, class-making or pairing functions, cli.encode reads no
view of a vector or class, cli declares each
flag once, the package namespace is the modules' __all__ lists, every
public class other than an exception or an enum is a Frozen value,
pyproject.toml takes the version from higgsnum.__version__, and every
function the benchmark's tracer wraps by name is there to wrap."""

import ast
import enum
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import higgsnum
from higgsnum.ns_lattice import Frozen

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "higgsnum"
# the acceptance gate's bytes are fixed, an unused import included
FIXED = {"test_acceptance.py"}


def unused_imports(path):
    """Names bound by an import that no Name node reads and __all__ does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used - exported)


def test_package_modules_have_no_unused_imports():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    found = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_test_modules_have_no_unused_imports():
    modules = [p for p in sorted(TESTS.glob("*.py")) if p.name not in FIXED]
    found = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def float_uses(path):
    """Float and complex literals, the name float, and math imports other
    than gcd and lcm, each as "<file>:<line>: <source>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            bad = type(node.value) in (float, complex)
        elif isinstance(node, ast.Name):
            bad = node.id == "float"
        elif isinstance(node, ast.Import):
            bad = any(a.name.split(".")[0] == "math" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = node.module == "math" and any(a.name not in ("gcd", "lcm") for a in node.names)
        else:
            bad = False
        if bad:
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_package_modules_compute_without_floats():
    found = [use for p in sorted(PACKAGE.glob("*.py")) for use in float_uses(p)]
    assert found == []


def unbound_exports(path):
    """Names in __all__ that no top-level def, class or assignment binds.

    A name bound by an import is a re-export, owned by another module.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                exported = set(ast.literal_eval(node.value))
            bound |= names
    return sorted(exported - bound)


def test_package_modules_bind_every_exported_name():
    found = {p.name: unbound_exports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def unread_definitions(paths):
    """Top-level defs and classes that their module's __all__ does not list
    and no module of paths reads by name or attribute, as "<file>: <name>"."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
                exported = set(ast.literal_eval(node.value))
        found += [
            f"{name}: {node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in exported | read
        ]
    return found


def test_package_definitions_are_exported_or_read():
    assert unread_definitions(sorted(PACKAGE.glob("*.py"))) == []


# the one module that builds a surface, in its function surface, which the
# presets and cli's surface-file reader call
SURFACE_BUILDERS = {"presets.py"}


def surface_constructions(path):
    """Calls SurfaceGeometry(...) in a module, as "<file>:<line>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno}" for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "SurfaceGeometry"
    ]


def test_only_presets_surface_builds_surfaces():
    found = [use for p in sorted(PACKAGE.glob("*.py")) for use in surface_constructions(p)]
    assert [use.partition(":")[0] for use in found] == sorted(SURFACE_BUILDERS)
    tree = ast.parse((PACKAGE / "presets.py").read_text(encoding="utf-8"))
    builder = next(node for node in tree.body if getattr(node, "name", None) == "surface")
    assert builder.lineno <= int(found[0].partition(":")[2]) <= builder.end_lineno


# ns_lattice's aliases of object.__setattr__ and object.__new__
ALIASES = {"_set", "_new"}


def frozen_workarounds(path):
    """Imports of dataclasses, mentions of object.__setattr__, reads of any
    __new__ (object.__new__ among them) and of a slot descriptor's __set__,
    and imports or attribute reads of ns_lattice's aliases _set and _new,
    as "<file>: <source>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad = any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = node.module == "dataclasses" or any(a.name in ALIASES for a in node.names)
        elif isinstance(node, ast.Attribute):
            bad = (ast.unparse(node) == "object.__setattr__"
                   or node.attr in ALIASES | {"__new__", "__set__"})
        else:
            bad = False
        if bad:
            found.append(f"{path.name}: {ast.unparse(node)}")
    return found


def test_package_modules_have_one_frozen_value_type():
    """The one way past Frozen.__setattr__ is the top-level alias
    _set = object.__setattr__ of ns_lattice, with _new = object.__new__ for
    the unchecked constructor; no other module reaches either."""
    found = [use for p in sorted(PACKAGE.glob("*.py")) for use in frozen_workarounds(p)]
    assert found == ["ns_lattice.py: object.__new__", "ns_lattice.py: object.__setattr__"]
    tree = ast.parse((PACKAGE / "ns_lattice.py").read_text(encoding="utf-8"))
    body = [ast.unparse(n) for n in tree.body]
    assert "_set = object.__setattr__" in body and "_new = object.__new__" in body


def test_frozen_lint_catches_workarounds(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import dataclasses\n"
        "from .ns_lattice import _set, _new\n"
        "object.__setattr__(v, 'deg0', 1)\n"
        "v = object.__new__(ChowClass)\n"
        "ChowClass.deg0.__set__(v, 1)\n"
        "put = vars(ChowClass)['deg2'].__set__\n"
        "ns_lattice._set(v, 'deg0', 1)\n"
        "ns_lattice._new(ChowClass)\n"
        "v = ChowClass.__new__(ChowClass)\n"
    )
    assert sorted(use.split(": ")[1] for use in frozen_workarounds(path)) == sorted([
        "import dataclasses", "from .ns_lattice import _set, _new", "object.__setattr__",
        "object.__new__", "ChowClass.deg0.__set__", "vars(ChowClass)['deg2'].__set__",
        "ns_lattice._set", "ns_lattice._new", "ChowClass.__new__"])


# the kernel modules, which build results from checked parts; outside
# input arrives in cli, presets, verify, hitchin_criterion and hn_branches
KERNEL_MODULES = {"ns_lattice.py", "surface_chow.py", "proj_bundle.py", "spectral.py"}


def unchecked_reductions(path):
    """Imports and reads of ns_lattice.reduced, which brings numerators to
    lowest terms and builds the value unchecked, as "<file>:<line>: <source>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.alias) and node.name == "reduced"
            or isinstance(node, ast.Name) and node.id == "reduced"
            or isinstance(node, ast.Attribute) and node.attr == "reduced"]


def test_only_the_kernel_reduces_values_unchecked():
    modules = sorted(PACKAGE.glob("*.py"))
    found = [use for p in modules if p.name not in KERNEL_MODULES
             for use in unchecked_reductions(p)]
    assert found == []
    assert {p.name for p in modules if unchecked_reductions(p)} == KERNEL_MODULES


def test_reduction_lint_catches_every_read(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from .ns_lattice import reduced as r\n"
        "from . import ns_lattice\n"
        "v = ns_lattice.reduced(NSVector, (1,), 2)\n"
        "f = reduced\n"
        "ok = reduce, reduced_form, 'reduced'\n"
    )
    assert sorted(int(use.split(":")[1]) for use in unchecked_reductions(path)) == [1, 3, 4]


# the operators whose one definition is NumDen's, for every num/den type
ARITHMETIC = {"__add__", "__sub__", "__neg__"}


def arithmetic_owners(path):
    """Definitions of __add__, __sub__ or __neg__ in a class body, by def or
    assignment, as "<file>: <class>.<name>", and imports and attribute reads
    of math.lcm, as "<file>: <source>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                else:
                    names = [t.id for t in getattr(item, "targets", []) if isinstance(t, ast.Name)]
                found += [f"{path.name}: {node.name}.{n}" for n in names if n in ARITHMETIC]
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(a.name == "lcm" for a in node.names)
              or isinstance(node, ast.Attribute) and node.attr == "lcm"
              and ast.unparse(node.value) == "math"):
            found.append(f"{path.name}: {ast.unparse(node)}")
    return found


def test_numden_owns_the_sums_and_ns_lattice_the_lcm():
    """NSVector, ChowClass and YClass take + - neg from NumDen, and the lcm of
    denominators is taken in ns_lattice alone, by lcm_form."""
    found = [use for p in sorted(PACKAGE.glob("*.py")) for use in arithmetic_owners(p)]
    assert found == ["ns_lattice.py: from math import gcd, lcm", "ns_lattice.py: NumDen.__add__",
                     "ns_lattice.py: NumDen.__sub__", "ns_lattice.py: NumDen.__neg__"]


def test_arithmetic_lint_catches_every_owner(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import math\n"
        "from math import gcd, lcm as l\n"
        "class A:\n    def __add__(self, o): pass\n    __sub__ = __rsub__ = __add__\n"
        "def f():\n    class B:\n        def __neg__(self): pass\n    return math.lcm(2, 3)\n"
        "class C:\n    def __mul__(self, k): pass\n    __radd__ = __add__\n"
        "ok = gcd(2, 3), lcm_form, x.lcm\n"
    )
    assert arithmetic_owners(path) == [
        "m.py: from math import gcd, lcm as l", "m.py: A.__add__", "m.py: A.__sub__",
        "m.py: B.__neg__", "m.py: math.lcm"]


# the builtins that run or compile source text
DYNAMIC = {"exec", "eval", "compile"}


def dynamic_code(path):
    """Reads of exec, eval or compile, by name or on builtins, as
    "<file>: <top-level def, class or ''>: <source>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}: {getattr(top, 'name', '')}: {ast.unparse(node)}"
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id in DYNAMIC
            or isinstance(node, ast.Attribute) and node.attr in DYNAMIC
            and ast.unparse(node.value) == "builtins"]


def test_package_runs_source_text_at_one_site():
    """No code in the package is built from text: it reads no exec, eval or
    compile, so the count of such sites is zero."""
    found = [use for p in sorted(PACKAGE.glob("*.py")) for use in dynamic_code(p)]
    assert found == []


def test_dynamic_code_lint_catches_every_read(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import builtins, re\n"
        "exec('x = 1')\n"
        "def f(s):\n    return eval(s)\n"
        "class C:\n    code = compile('1', '<m>', 'eval')\n"
        "run = builtins.exec\n"
        "ok = re.compile('x'), pattern.compile, evaluate(1), 'exec'\n"
    )
    assert dynamic_code(path) == [
        "m.py: : exec", "m.py: f: eval", "m.py: C: compile", "m.py: : builtins.exec"]


CACHES = {"cache", "lru_cache"}


def unbounded_caches(path):
    """Uses of functools.cache or lru_cache that may grow without bound, as
    "<file>:<line>: <source>": all but a decorator on a function with no
    parameters and an lru_cache(maxsize=<int literal>), as a decorator or a call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(a.asname or a.name for a in node.names if a.name in CACHES)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if not (args.posonlyargs or args.args or args.vararg or args.kwonlyargs
                    or args.kwarg):
                allowed.update(id(d) for d in node.decorator_list)
        elif isinstance(node, ast.Call) and [k.arg for k in node.keywords] == ["maxsize"]:
            size = node.keywords[0].value
            if not node.args and isinstance(size, ast.Constant) and type(size.value) is int:
                allowed.add(id(node.func))
    return [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in CACHES
            and isinstance(node.value, ast.Name) and node.value.id in modules
            or isinstance(node, ast.Name) and node.id in names)
        and id(node) not in allowed
    ]


def test_package_caches_are_bounded():
    """No cache that can grow without bound: a cached function takes no
    arguments, or its lru_cache has an integer maxsize."""
    found = [use for p in sorted(PACKAGE.glob("*.py")) for use in unbounded_caches(p)]
    assert found == []


def test_cache_lint_catches_unbounded_caches(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import functools\n"
        "import functools as ft\n"
        "from functools import lru_cache as lc\n"
        "@functools.cache\ndef a(x): pass\n"
        "@functools.lru_cache\ndef b(x): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef c(x): pass\n"
        "@ft.lru_cache(None)\ndef d(x): pass\n"
        "e = functools.cache(len)\n"
        "f = lc(maxsize=SIZE)(len)\n"
        "@lc\ndef g(*x): pass\n"
        "@functools.cache\ndef ok1(): pass\n"
        "@lc(maxsize=8)\ndef ok2(x): pass\n"
        "ok3 = ft.lru_cache(maxsize=8)(len)\n"
        "cache = {}\n"
    )
    assert sorted(int(use.split(":")[1]) for use in unbounded_caches(path)) == [
        4, 6, 8, 10, 12, 13, 14]



def assert_statements(path):
    """assert statements, which python -O strips, as "<file>:<line>: <source>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def test_package_modules_check_without_assert():
    """A check the package relies on raises explicitly, so it runs under python -O too."""
    found = [use for p in sorted(PACKAGE.glob("*.py")) for use in assert_statements(p)]
    assert found == []


def test_assert_lint_catches_assert_statements(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "assert x\n"
        "def f(y):\n    assert y > 0, 'positive'\n    return y\n"
        "if not x:\n    raise AssertionError('kept under -O')\n"
        "assertion = True\n"
    )
    assert assert_statements(path) == ["m.py:1: assert x", "m.py:3: assert y > 0, 'positive'"]

# argparse's private tables, which cli's plain read must not lean on
ARGPARSE_PRIVATE = {"_actions", "_defaults", "_option_string_actions", "_registries"}


def private_argparse_reads(path):
    """Reads of an argparse._* name, by attribute or import, and of an
    attribute named in ARGPARSE_PRIVATE, as "<file>:<line>: <source>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            bad = node.attr in ARGPARSE_PRIVATE or (
                ast.unparse(node.value) == "argparse" and node.attr.startswith("_"))
        elif isinstance(node, ast.ImportFrom):
            bad = node.module == "argparse" and any(a.name.startswith("_") for a in node.names)
        else:
            bad = False
        if bad:
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_cli_reads_only_public_argparse_names():
    """The plain read of an argv stays on the documented Action attributes
    (option_strings, dest, nargs, type, choices, required, default)."""
    assert private_argparse_reads(PACKAGE / "cli.py") == []


def test_argparse_lint_catches_private_reads(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import argparse\n"
        "from argparse import _StoreAction, Action\n"
        "a = argparse._StoreAction\n"
        "b = p._actions\n"
        "c = p._option_string_actions['-r']\n"
        "d = p._defaults, p._registries\n"
        "ok = argparse.Action, argparse.SUPPRESS, p.get_default('x'), a.option_strings\n"
    )
    assert [int(use.split(":")[1]) for use in private_argparse_reads(path)] == [2, 3, 4, 5, 6, 6]


# argparse's parse methods: cli's one pass is a parse_args behind its plain read
PARSE_METHODS = {"parse_args", "parse_known_args", "parse_intermixed_args",
                 "parse_known_intermixed_args"}


def argparse_passes(path):
    """Each read of an attribute named in PARSE_METHODS, called or not, as
    "<method>:<line>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{node.attr}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in PARSE_METHODS]


def test_cli_parses_through_argparse_at_one_site():
    """An argv the plain read declines takes the top parser's parse_args, and
    no other pass: never a partial parse_known_args or intermixed parse."""
    assert [use.split(":")[0] for use in argparse_passes(PACKAGE / "cli.py")] == ["parse_args"]


def test_parse_lint_catches_every_pass(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "a = p.parse_args(argv)\n"
        "b = p.parse_args\n"
        "c = p.parse_known_args(argv[1:], ns)\n"
        "d = p.parse_intermixed_args(argv), p.parse_known_intermixed_args(argv)\n"
        "ok = p.format_usage(), p.error, p.tables\n"
    )
    assert sorted(argparse_passes(path)) == [
        "parse_args:1", "parse_args:2", "parse_intermixed_args:4", "parse_known_args:3",
        "parse_known_intermixed_args:4"]


# the library's arithmetic that cli leaves to the library's reports
LIBRARY_ONLY = {"partition_count", "component_betas", "pair_num", "ratio"}


def imported_names(path):
    """Each name a module imports, by import or from-import, as "<name>:<line>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{a.name.split('.')[-1]}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names]


def test_cli_leaves_the_arithmetic_to_the_library():
    """cli maps the fields of the library's reports to keys: it imports none
    of the functions that count components, make their classes or pair."""
    found = [use for use in imported_names(PACKAGE / "cli.py")
             if use.split(":")[0] in LIBRARY_ONLY]
    assert found == []


def test_import_lint_sees_every_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import json\n"
        "from .hn_branches import (\n    branches_report,\n    partition_count,\n)\n"
        "from .ns_lattice import pair_num as pn, ratio\n"
    )
    assert imported_names(path) == [
        "json:1", "branches_report:2", "partition_count:2", "pair_num:6", "ratio:6"]


# the views of a vector, a Chow class and a class on the threefold: each
# builds a vector, a class or a Fraction that the text does not need
VIEWS = {"deg0", "deg1", "deg2", "alpha", "beta", "coords"}


def view_reads(path, name="encode"):
    """Reads of an attribute named in VIEWS in the top-level function name of
    a module and in each top-level function it calls by name, however deep,
    as "<function>:<line>: <source>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, seen, found = [name], set(), []
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(defs[fn]):
            if isinstance(node, ast.Attribute) and node.attr in VIEWS:
                found.append(f"{fn}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.Name) and node.id in defs:
                todo.append(node.id)
    return sorted(found)


def test_cli_encode_reads_no_view():
    """encode writes each exact leaf from its num and den, with one gcd per
    coordinate, and builds no vector, Chow class or Fraction to do it."""
    assert view_reads(PACKAGE / "cli.py") == []


def test_view_lint_catches_every_view(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def encode(v):\n"
        "    return v.deg0, v.deg1, helper(v), {'deg2': v.num}\n"
        "def helper(v):\n"
        "    return v.deg2, v.alpha, v.beta.num, v.coords, helper(v)\n"
        "def other(v):\n"
        "    return v.deg0, encode(v)\n"
    )
    assert view_reads(path) == [
        "encode:2: v.deg0", "encode:2: v.deg1", "helper:4: v.alpha", "helper:4: v.beta",
        "helper:4: v.coords", "helper:4: v.deg2"]


def flag_declarations(path):
    """Each flag declaration in a module, as ((option strings, keywords), line):
    a call whose positional arguments are all option strings ("-" and one
    character more at least), or a pair of a tuple of option strings and a
    dict; the keywords as sorted (name, value) sources, "**" for an unpacking."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            names = node.args
            keywords = [(repr(k.arg) if k.arg else "**", k.value) for k in node.keywords]
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
              and isinstance(node.elts[0], ast.Tuple) and isinstance(node.elts[1], ast.Dict)):
            names, spec = node.elts[0].elts, node.elts[1]
            keywords = [(ast.unparse(k) if k else "**", v) for k, v in zip(spec.keys, spec.values)]
        else:
            continue
        strings = tuple(n.value for n in names if isinstance(n, ast.Constant)
                        and type(n.value) is str and n.value[:1] == "-" and len(n.value) > 1)
        if names and len(strings) == len(names):
            keys = tuple(sorted((k, ast.unparse(v)) for k, v in keywords))
            found.append(((strings, keys), node.lineno))
    return found


def repeated_flag_declarations(path):
    """The flags declared more than once with the same keywords, as
    "<option strings>: <lines>"."""
    lines = {}
    for key, line in flag_declarations(path):
        lines.setdefault(key, []).append(line)
    return sorted(f"{'/'.join(key[0])}: {', '.join(map(str, sorted(found)))}"
                  for key, found in lines.items() if len(found) > 1)


def test_cli_declares_each_flag_once():
    """A flag that several subcommands take is one spec in cli, named in each
    subcommand's row of the table, not written out again for each."""
    assert repeated_flag_declarations(PACKAGE / "cli.py") == []


def test_flag_lint_catches_repeated_declarations(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "add('-r', '--rank', type=int, required=True)\n"
        "add('-r', '--rank', required=True, type=int)\n"
        "add('-r', '--rank', type=int, required=True, help='cover degree')\n"
        "_C2 = ('--c2',), {'type': int, 'required': True}\n"
        "p.add_argument('--c2', required=True, type=int)\n"
        "_F = ('--format',), {'choices': ('json', 'table'), **EXTRA}\n"
        "_G = ('--format',), {'choices': ('json', 'table'), **EXTRA}\n"
        "ok = text.startswith('-'), text.split(','), p.add_argument(*names, **kwargs)\n"
        "ok = ('--c1',), {'required': True}\n"
        "ok = add('--c1', required=False), ('x', '-y'), {'a': 1}\n"
    )
    assert repeated_flag_declarations(path) == [
        "--c2: 4, 5", "--format: 6, 7", "-r/--rank: 1, 2"]


# the math modules whose __all__ the package re-exports
REEXPORTED = ("ns_lattice", "surface_chow", "proj_bundle", "spectral", "hitchin_criterion",
              "hn_branches")


def test_package_namespace_is_the_modules_all():
    """higgsnum's public names other than its submodules are the re-exported
    __all__ lists, each the owning module's object, and no name has two owners."""
    modules = [importlib.import_module(f"higgsnum.{name}") for name in REEXPORTED]
    exported = [name for m in modules for name in m.__all__]
    assert len(exported) == len(set(exported))
    public = {name for name, value in vars(higgsnum).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(exported)
    for m in modules:
        assert all(getattr(higgsnum, name) is getattr(m, name) for name in m.__all__)


def test_public_classes_are_frozen_values():
    """Each class a package module's __all__ lists is an exception, an enum or a Frozen."""
    modules = [importlib.import_module(f"higgsnum.{p.stem}") for p in sorted(PACKAGE.glob("*.py"))
               if p.stem not in ("__init__", "__main__")]
    public = {f"{m.__name__}.{name}": getattr(m, name) for m in modules for name in m.__all__}
    classes = {name: cls for name, cls in public.items() if isinstance(cls, type)}
    assert len(classes) > 12
    found = [name for name, cls in classes.items()
             if not issubclass(cls, (BaseException, enum.Enum, Frozen))]
    assert found == []


def test_pyproject_takes_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    with open(TESTS.parent / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "higgsnum.__version__"}


def traced_layers():
    """The (module, attr, span) triples of LAYERS in perfbench/tracer.py, read with ast."""
    tree = ast.parse((TESTS.parent / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


LAYERS = traced_layers()
# the tracer still names the validation method that NSLattice.__init__ replaced
STALE_LAYER = ("ns_lattice", "NSLattice.__post_init__")


@pytest.mark.parametrize("module, attr", [
    pytest.param(module, attr, marks=pytest.mark.xfail(
        strict=True, reason="the tracer's ns_lattice.validate span names NSLattice.__post_init__, "
                            "gone since validation moved to NSLattice.__init__"))
    if (module, attr) == STALE_LAYER else (module, attr)
    for module, attr, _ in LAYERS
], ids=[span for _, _, span in LAYERS])
def test_every_traced_layer_resolves(module, attr):
    """A rename of a traced function would drop its per-layer span silently."""
    owner = importlib.import_module(f"higgsnum.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
