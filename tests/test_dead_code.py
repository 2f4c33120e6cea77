"""Every public top-level function and class in src/gpl, and every private
top-level function, has a caller outside the tests: somewhere in the
package, scripts/ or perfbench/ names it other than its own definition. The
package's __init__ re-exports do not count.
Every defaulted parameter of a public src/gpl function is passed by some
call outside the tests, and omitted by some other, so no default serves only
the tests. And no module in src/gpl, tests/ or scripts/
imports a name it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _unread(root, wanted):
    """file:name for each top-level definition in src/gpl that wanted(stmt)
    picks and that nothing but its own body names."""
    defined, used = {}, set()
    for path in sorted((root / "src" / "gpl").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and wanted(stmt):
                defined[stmt.name] = path.name
                used.update(n for n in _names(stmt) if n != stmt.name)
            else:
                used.update(_names(stmt))
    for folder in ("scripts", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            used.update(_names(ast.parse(path.read_text(encoding="utf-8"))))
    return sorted(f"{defined[k]}:{k}" for k in defined if k not in used)


def unused_public_names(root=ROOT):
    return _unread(root, lambda stmt: not stmt.name.startswith("_"))


def unused_private_functions(root=ROOT):
    """file:name for each private top-level function in src/gpl that no code
    outside the tests calls."""
    return _unread(root, lambda stmt: isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_"))


def _option_passes(root):
    """{file:function:parameter: whether each call passes it} for each
    defaulted parameter of a public top-level function in src/gpl, over the
    calls in the package, scripts/ and perfbench/, by keyword or by position.
    A call is matched by the function's name; one that splats *args or
    **kwargs passes everything."""
    options, calls = {}, []
    paths = sorted((root / "src" / "gpl").glob("*.py"))
    for folder in ("scripts", "perfbench"):
        paths += sorted((root / folder).rglob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        if path.parent.name != "gpl":
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                a = stmt.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                opts = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
                opts += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                options[stmt.name] = (path.name, opts)
    passes = {f"{file}:{fn}:{param}": [] for fn, (file, opts) in sorted(options.items()) for _, param in opts}
    for call in calls:
        f = call.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name not in options:
            continue
        keywords = {k.arg for k in call.keywords}
        splat = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
        file, opts = options[name]
        for i, param in opts:
            passes[f"{file}:{name}:{param}"].append(
                splat or param in keywords or (i is not None and i < len(call.args)))
    return passes


def unpassed_options(root=ROOT):
    """Each defaulted parameter that no call outside the tests passes."""
    return [key for key, passed in _option_passes(root).items() if not any(passed)]


def always_passed_options(root=ROOT):
    """Each defaulted parameter that every call outside the tests passes, so
    only tests use its default. A function no call names is left to
    unused_public_names."""
    return [key for key, passed in _option_passes(root).items() if passed and all(passed)]


def unused_imports(root=ROOT):
    """path:name for each name an import statement binds and its module never
    reads. The package __init__ (re-exports) and __future__ imports are skipped."""
    paths = [p for p in sorted((root / "src" / "gpl").glob("*.py")) if p.name != "__init__.py"]
    for folder in ("tests", "scripts"):
        paths += sorted((root / folder).rglob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        rel = path.relative_to(root).as_posix()
        found += [f"{rel}:{name}" for name in bound if name not in read]
    return found


def test_every_public_name_has_a_caller_outside_tests():
    assert unused_public_names() == []


def test_scan_reports_a_name_only_its_own_body_and_init_use(tmp_path):
    pkg = tmp_path / "src" / "gpl"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .a import dead, used\n")
    (pkg / "a.py").write_text("def dead(n):\n    return dead(n - 1)\n\n\ndef used():\n    pass\n\n\n"
                              "class _Private:\n    pass\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "s.py").write_text("import gpl.a\ngpl.a.used()\n")
    assert unused_public_names(tmp_path) == ["a.py:dead"]


def test_every_private_function_has_a_caller_outside_tests():
    assert unused_private_functions() == []


def test_scan_reports_a_private_function_only_its_own_body_and_tests_use(tmp_path):
    pkg = tmp_path / "src" / "gpl"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("def _dead(n):\n    return _dead(n - 1)\n\n\n"
                              "def _used():\n    pass\n\n\n"
                              "def run():\n    _used()\n\n\n"
                              "class _Kept:\n    pass\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("from gpl.a import _dead\n_dead(1)\n")
    assert unused_private_functions(tmp_path) == ["a.py:_dead"]


def test_no_unused_imports():
    assert unused_imports() == []


def test_import_scan_reports_a_name_nothing_reads(tmp_path):
    pkg = tmp_path / "src" / "gpl"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .a import unread\n")
    (pkg / "a.py").write_text("from __future__ import annotations\n\nimport os.path\n"
                              "import json as js\nfrom math import pi, tau\n\n"
                              "print(os.path.sep, pi)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_b.py").write_text("import io\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "s.py").write_text("import sys\nsys.exit()\n")
    assert unused_imports(tmp_path) == ["src/gpl/a.py:js", "src/gpl/a.py:tau", "tests/test_b.py:io"]


def test_every_option_is_passed_outside_tests():
    assert unpassed_options() == []


def test_option_scan_reports_a_default_no_call_passes(tmp_path):
    pkg = tmp_path / "src" / "gpl"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("def f(x, y=1, z=2, *, k=3, must):\n    pass\n\n\n"
                              "def g(a=0):\n    pass\n\n\n"
                              "def h(b=0):\n    pass\n\n\n"
                              "def _private(c=0):\n    pass\n\n\n"
                              "f(0, 5, must=1)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("import gpl.a\ngpl.a.f(0, k=4, must=1)\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "p.py").write_text("import gpl.a\ngpl.a.g(**{})\n")
    assert unpassed_options(tmp_path) == ["a.py:f:z", "a.py:f:k", "a.py:h:b"]


def test_every_default_is_omitted_by_some_call_outside_tests():
    assert always_passed_options() == []


def test_default_scan_reports_a_default_every_call_passes(tmp_path):
    pkg = tmp_path / "src" / "gpl"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("def f(x, y=1, z=2, *, k=3):\n    pass\n\n\n"
                              "def g(a=0):\n    pass\n\n\n"
                              "def h(b=0):\n    pass\n\n\n"
                              "def _private(c=0):\n    pass\n\n\n"
                              "f(0, 5, k=4)\nf(0, y=6)\n_private(c=1)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("import gpl.a\ngpl.a.f(0)\ngpl.a.g()\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "s.py").write_text("import gpl.a\ngpl.a.g(a=1)\n")
    assert always_passed_options(tmp_path) == ["a.py:f:y", "a.py:g:a"]
