"""Every imported name is used in its file, every private function is used
in the package, every public function or class is used in the package or
the benchmark or is a listed test-reference helper, no function in the
package calls itself by name, only one bisection reads Descartes counts, one
pack and one signed-digit reader serve the determinant and the gcd, one
function takes resultants, and no cache in the package is unbounded.
`from __future__` imports are directives, so they are exempt from the
first."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = [*(ROOT / "src" / "syzcx").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    assert len(files) > 10
    unused = [u for f in sorted(files) for u in unused_imports(f)]
    assert unused == []


def unreferenced_private_functions(files) -> list[str]:
    """Module-level functions and methods named `_x` (dunders aside) that no
    name or attribute in `files` refers to."""
    defined, used = {}, set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        scopes = [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]
        for scope in scopes:
            for node in scope.body:
                if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                        and not node.name.endswith("__")):
                    defined[node.name] = f"{path.relative_to(ROOT)}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{where}: {name}" for name, where in defined.items()
            if name not in used]


def test_no_unreferenced_private_functions():
    files = sorted((ROOT / "src" / "syzcx").glob("*.py"))
    assert len(files) > 10
    assert unreferenced_private_functions(files) == []


def self_calls(files) -> list[str]:
    """Functions, nested ones and methods included, whose body calls the
    function by its own name, as `f(...)` or `self.f(...)`."""
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if ((isinstance(f, ast.Name) and f.id == fn.name)
                        or (isinstance(f, ast.Attribute) and f.attr == fn.name
                            and isinstance(f.value, ast.Name)
                            and f.value.id == "self")):
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {fn.name}")
    return found


def test_no_function_calls_itself():
    """Deep inputs (a relation thousands of arrows long) must not run into
    the interpreter's recursion limit, so no function in the package recurses
    by name."""
    files = sorted((ROOT / "src" / "syzcx").glob("*.py"))
    assert len(files) > 10
    assert self_calls(files) == []


def callers_of(name, files) -> set[str]:
    """Functions, nested ones and methods included, that call `name`, in
    their own body or in a function nested in it."""
    found = set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == name for n in ast.walk(fn)):
                found.add(fn.name)
    return found


def test_one_root_bisection():
    """Root isolation is one bisection by Descartes counts. Sign variations
    are read only by `_root_intervals`, the one loop over the tree, and by
    `certify_largest_root`, which reads one cell without a loop; a second
    loop is to be folded into `_root_intervals`, not added."""
    files = sorted((ROOT / "src" / "syzcx").glob("*.py"))
    assert len(files) > 10
    assert callers_of("_sign_variations", files) == {"_root_intervals",
                                                     "certify_largest_root"}
    assert callers_of("_shift_by_one", files) == {"_root_intervals"}
    tree = ast.parse((ROOT / "src" / "syzcx" / "polynomials.py").read_text(
        encoding="utf-8"))
    certify = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                   and n.name == "certify_largest_root")
    assert not any(isinstance(n, (ast.For, ast.While, ast.comprehension))
                   for n in ast.walk(certify))


def test_one_elimination():
    """Determinants over Z and over Z[x] are one Bareiss loop, `_bareiss`,
    which only `det_bareiss_poly` calls, on the packed entries or on the
    polynomials themselves; a second elimination is to be folded into it,
    not added."""
    files = sorted((ROOT / "src" / "syzcx").glob("*.py"))
    assert len(files) > 10
    assert callers_of("_bareiss", files) == {"det_bareiss_poly"}


def test_one_resultant():
    """Resultants are taken in one place: `_eliminate`, the tail that the
    sum and product closures share, is the one caller of `resultant_y`; a
    square is Graeffe's product s(x) s(-x), not an elimination."""
    files = sorted((ROOT / "src" / "syzcx").glob("*.py"))
    assert len(files) > 10
    assert callers_of("resultant_y", files) == {"_eliminate"}
    assert callers_of("_eliminate", files) == {"product_polynomial",
                                               "sum_polynomial"}


def test_one_packing():
    """Polynomials go to integers at x = 2^w by one `_pack` and come back by
    one signed-digit reader, `_signed_digits`, which only `det_bareiss_poly`
    and `poly_gcd_q` call; a third copy is to be folded into them, not
    added."""
    files = sorted((ROOT / "src" / "syzcx").glob("*.py"))
    assert len(files) > 10
    for name in ("_pack", "_signed_digits"):
        assert callers_of(name, files) == {"det_bareiss_poly", "poly_gcd_q"}


def cached_functions(files):
    """(path, function node, decorator name, maxsize arguments) for each
    function, method included, decorated with `functools.cache` or
    `lru_cache`, bare or called."""
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in fn.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                target = call.func if call else dec
                name = (target.attr if isinstance(target, ast.Attribute)
                        else getattr(target, "id", None))
                if name in ("cache", "lru_cache"):
                    maxsize = ([*call.args[:1], *(
                        k.value for k in call.keywords if k.arg == "maxsize")]
                               if call else [])
                    yield path, fn, name, maxsize


def unbounded_caches(files) -> list[str]:
    """Functions with parameters, methods included, decorated with
    `functools.cache` or `lru_cache(maxsize=None)`: such a cache keeps every
    distinct argument for the life of the process."""
    found = []
    for path, fn, name, maxsize in cached_functions(files):
        a = fn.args
        if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs
                or a.kwarg):
            continue
        if name == "cache" or any(isinstance(m, ast.Constant)
                                  and m.value is None for m in maxsize):
            found.append(f"{path.name}:{fn.lineno}: {fn.name}")
    return found


def test_unbounded_caches_are_found(tmp_path):
    src = tmp_path / "caches.py"
    src.write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(x): pass\n"
        "@lru_cache(None)\ndef b(x): pass\n"
        "@functools.cache\ndef c(*x): pass\n"
        "@cache\ndef d(*, x): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef e(**x): pass\n"
        "@lru_cache(maxsize=None)\ndef no_parameters(): pass\n"
        "@lru_cache(maxsize=8)\ndef bounded(x): pass\n"
        "@lru_cache\ndef default_bound(x): pass\n", encoding="utf-8")
    assert [f.split()[-1] for f in unbounded_caches([src])] == list("abcde")
    assert [fn.name for _, fn, _, _ in cached_functions([src])] == [
        *"abcde", "no_parameters", "bounded", "default_bound"]


def test_no_unbounded_cache():
    """A memo in a long-lived process must not grow with every distinct
    input: each cache of a function with parameters has a finite size."""
    files = sorted((ROOT / "src" / "syzcx").glob("*.py"))
    assert len(files) > 10
    assert unbounded_caches(files) == []


# Every function memo of the package, as module.function: a new memo fails
# the test below until it is listed here on purpose.
FUNCTION_MEMOS = {"polynomials.count_real_roots_open",
                  "polynomials.squarefree_part", "spectra.perron_root"}


def test_every_function_memo_is_listed():
    files = sorted((ROOT / "src" / "syzcx").glob("*.py"))
    assert len(files) > 10
    assert {f"{path.stem}.{fn.name}"
            for path, fn, _, _ in cached_functions(files)} == FUNCTION_MEMOS


# Public helpers that only tests call, each to check a claim of the paper.
TEST_REFERENCE_HELPERS = {"algebraic_real", "contiguous_subpaths",
                          "empirical_class_check", "subdivide",
                          "xyz_local_expected_dims"}

# Public methods that only tests call: criterion 5 divides by `divmod_q`,
# and `dense`, the one numpy view of an oracle action, is how tests read
# actions until it goes with numpy.
TEST_ONLY_MEMBERS = {"IntPolynomial.divmod_q", "TableRepresentation.dense"}


def unnamed_public_definitions(package, others) -> set[str]:
    """Module-level public functions and classes of `package`, and the
    public methods and properties of its public classes (as `Class.name`),
    that no name, attribute or import in `package` or `others` refers to."""
    defined, named = {}, set()
    for path in [*package, *others]:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path in package:
            for n in tree.body:
                if (isinstance(n, (ast.FunctionDef, ast.ClassDef))
                        and not n.name.startswith("_")):
                    defined[n.name] = n.name
                    if isinstance(n, ast.ClassDef):
                        defined.update(
                            (f"{n.name}.{m.name}", m.name) for m in n.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return {where for where, name in defined.items() if name not in named}


def test_unnamed_public_definitions_include_methods(tmp_path):
    src = tmp_path / "defs.py"
    src.write_text(
        "class Used:\n"
        "    def called(self): return self.prop\n"
        "    @property\n    def prop(self): return 1\n"
        "    @property\n    def unread(self): return 2\n"
        "    def _private(self): pass\n"
        "class _Hidden:\n    def never(self): pass\n"
        "def unused(): return Used().called()\n", encoding="utf-8")
    assert unnamed_public_definitions([src], []) == {"Used.unread", "unused"}


def test_public_definitions_are_used_or_test_references():
    """Delete what nothing uses: a new public helper, method or property that
    only tests call fails here until it is deleted or listed above."""
    package = sorted((ROOT / "src" / "syzcx").glob("*.py"))
    others = sorted((ROOT / "perfbench").glob("*.py"))
    assert len(package) > 10 and len(others) > 5
    assert unnamed_public_definitions(package, others) == (
        TEST_REFERENCE_HELPERS | TEST_ONLY_MEMBERS)


def test_test_reference_helpers_serve_an_acceptance_criterion():
    """A helper that only tests call is kept for an acceptance criterion:
    tests/test_acceptance.py imports each listed one."""
    path = ROOT / "tests" / "test_acceptance.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert TEST_REFERENCE_HELPERS <= imported
