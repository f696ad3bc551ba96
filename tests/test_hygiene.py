"""Every name a package module imports is referenced in that module, every
module-level private function, every __slots__ entry and every method of a
class the package does not export is read somewhere in the package, no
invariant rests on assert, no module converts a sign away from its int, no
module eliminates rows' stacked layers for a kernel, and no two test modules
define the same helper."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "preorderspace"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    assert unused_imports("from .errors import SingularMatrix, RangeError\nRangeError\n") == \
        ["SingularMatrix (line 1)"]


def dead_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions never named, slots never read, and
    methods of unexported classes never read, in any source.

    A function counts as referenced by a name or attribute load anywhere (its
    own body included); a slot by an attribute load, since a slot that is
    only ever assigned holds nothing anyone uses.  A class that the `_EXPORTS`
    table of `__init__` does not name is internal, so each of its methods
    must be read by an attribute load (a call, say) somewhere; without that
    table no class is known to be internal.  A `__x__` function
    (such as a PEP 562 `__getattr__`) is a hook that Python calls itself, not
    a private helper.
    """
    def hook(name):
        return name.startswith("__") and name.endswith("__")

    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded_names, loaded_attrs, exported = set(), set(), None
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded_names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded_attrs.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
                exported = {name for names in ast.literal_eval(node.value).values()
                            for name in names}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") \
                    and not hook(node.name) and node.name not in loaded_names | loaded_attrs:
                dead.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                dead += [f"{module}.{node.name}.{stmt.name}" for stmt in node.body
                         if exported is not None and node.name not in exported
                         and isinstance(stmt, ast.FunctionDef)
                         and not hook(stmt.name) and stmt.name not in loaded_attrs]
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and any(
                            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                        for slot in ast.literal_eval(stmt.value):
                            if slot not in loaded_attrs:
                                dead.append(f"{module}.{node.name}.{slot}")
    return sorted(dead)


def test_no_dead_private_functions_or_slots():
    assert dead_names({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []


def test_the_scan_finds_dead_functions_and_slots():
    snippet = (
        "def _used():\n    pass\n"
        "def _unused():\n    pass\n"
        "def public():\n    return _used()\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
        "class C:\n"
        "    __slots__ = ('read', 'written')\n"
        "    def __init__(self):\n        self.read = self.written = 1\n"
        "    def get(self):\n        return self.read\n"
    )
    assert dead_names({"m": snippet}) == ["m.C.written", "m._unused"]


def test_the_scan_finds_unread_methods_of_unexported_classes():
    snippet = (
        "class Public:\n    def never(self):\n        pass\n"
        "class Internal:\n"
        "    @classmethod\n    def of(cls):\n        return cls()\n"
        "    def never(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "Internal.of()\n"
    )
    assert dead_names({"__init__": "_EXPORTS = {'m': ('Public',)}\n", "m": snippet}) == \
        ["m.Internal.never"]


def test_only_realfield_clears_denominators():
    # a rational enters integer arithmetic only through realfield.cleared
    importers = [p.stem for p in MODULES
                 if any(isinstance(node, ast.ImportFrom) and node.module == "math"
                        and any(alias.name == "lcm" for alias in node.names)
                        for node in ast.walk(ast.parse(p.read_text())))]
    assert importers == ["realfield"]


def bare_rational_reads(source: str) -> list[int]:
    """Lines that call Fraction (or its alias Q) on one argument that is not a
    literal number: a read of an arbitrary value as a rational."""
    def literal(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant)

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("Fraction", "Q") and len(node.args) == 1
                  and not node.keywords and not literal(node.args[0]))


def test_only_realfield_reads_a_bare_rational():
    # a value of unknown type becomes a rational only through realfield
    # (cleared), which turns an unreadable one into RangeError
    readers = [p.stem for p in MODULES if bare_rational_reads(p.read_text())]
    assert readers == ["realfield"]


def test_the_scan_finds_bare_rational_reads():
    snippet = ("a = Q(0)\nb = Fraction(-1)\nc = Q(1, den)\n"
               "d = Q(c)\ne = Fraction(rng.randint(1, 3))\nf = Q('1/2')\n")
    assert bare_rational_reads(snippet) == [4, 5]


READ_BACKS = ("basis", "layers", "coeffs", "matrix")


def rational_read_backs(source: str) -> list[int]:
    """Lines that load one of the Fraction read-backs (RationalSubspace.basis,
    FieldVector.layers, FieldElement.coeffs, Automorphism.matrix) of a value
    stored as integers over one den."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr in READ_BACKS)


def test_no_module_reads_its_integers_back_as_fractions():
    # the read-backs serve callers outside the package; inside it, values
    # stay the integers they are stored as
    readers = [p.stem for p in MODULES if rational_read_backs(p.read_text())]
    assert readers == []


def test_the_scan_finds_rational_read_backs():
    snippet = ("a = w.basis\nb = list(v.layers())\nc = x.coeffs[0]\nd = phi.matrix\n"
               "e = w.ints\nf = v.int_layers()\ndef basis(self):\n    pass\n"
               "self.matrix = m\n")
    assert rational_read_backs(snippet) == [1, 2, 3, 4]


def inline_vector_reads(source: str) -> list[int]:
    """Lines that call cleared on a one-item list literal: a vector read inline,
    where realfield.rational_vector would check its shape."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "cleared"
                  and len(node.args) == 1 and isinstance(node.args[0], ast.List)
                  and len(node.args[0].elts) == 1)


def test_only_realfield_reads_a_vector_inline():
    # a vector is read, and its shape checked, by realfield.rational_vector
    readers = [p.stem for p in MODULES if inline_vector_reads(p.read_text())]
    assert readers == ["realfield"]


def test_the_scan_finds_inline_vector_reads():
    snippet = ("(w,), den = cleared([u])\nints, den = cleared(rows)\n"
               "(u, v), _ = cleared([u, v])\n[[c]], d = rf.cleared([[c]])\n")
    assert inline_vector_reads(snippet) == [1, 4]


def direct_region_builds(source: str) -> list[int]:
    """Lines that build a linalg.Columns region directly, by Columns(...) or
    Columns._make(...), rather than through Columns.of."""
    def names_columns(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "Columns"

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (names_columns(node.func) or isinstance(node.func, ast.Attribute)
                       and node.func.attr == "_make" and names_columns(node.func.value)))


def test_only_linalg_builds_a_region_directly():
    # box_signs trusts a region's bound, so every region outside linalg comes
    # from Columns.of, whose caller names the box it lies in
    builders = [p.stem for p in MODULES if direct_region_builds(p.read_text())]
    assert set(builders) <= {"linalg"}


def test_the_scan_finds_direct_region_builds():
    snippet = ("a = Columns.of(points, 2, 3)\nb = Columns(1, cols, 3)\n"
               "c = linalg.Columns(1, cols, 3)\nd = Columns._make((1, cols, 3))\n"
               "e = region._replace(bound=0)\nf = Column(1)\n")
    assert direct_region_builds(snippet) == [2, 3, 4]


def sign_conversions(source: str) -> list[int]:
    """Lines that build a Sign (a call of Sign) or read .flip or .symbol: a sign
    converted away from the int in {-1, 0, 1} that every table holds."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Sign"
                  or isinstance(node, ast.Attribute) and node.attr in ("flip", "symbol"))


def test_no_module_converts_a_sign():
    # sign_of, compare and fingerprints answer with the table's int; Sign
    # only names the three values for callers
    converters = [p.stem for p in MODULES if sign_conversions(p.read_text())]
    assert converters == []


def test_the_scan_finds_sign_conversions():
    snippet = ("a = Sign(s)\nb = preorder.Sign(-1)\nc = s.flip()\nd = s.symbol\n"
               "e = Sign.POS\nf = sign(x)\ng = int(s)\nclass Sign(enum.IntEnum):\n    NEG = -1\n")
    assert sign_conversions(snippet) == [1, 2, 3, 4]


def kernel_of_rows_calls(source: str) -> list[int]:
    """Lines that call linalg.rational_kernel, the kernel of rows' stacked layers."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and getattr(
                      node.func, "id", getattr(node.func, "attr", None)) == "rational_kernel")


def test_no_module_eliminates_the_stacked_row_layers():
    # residue groups and flags are read off the rows' stored bases
    # (Preorder.residue_group, Preorder.flag); rational_kernel is the tests' oracle
    callers = [p.stem for p in MODULES if kernel_of_rows_calls(p.read_text())]
    assert callers == []


def test_the_scan_finds_kernel_of_rows_calls():
    snippet = ("a = rational_kernel(p.rows, n)\nb = linalg.rational_kernel(rows[:1], 3)\n"
               "c = RationalSubspace.kernel(bases, n)\nd = rational_kernel\n"
               "def rational_kernel(rows, n):\n    pass\n")
    assert kernel_of_rows_calls(snippet) == [1, 2]


def test_only_realfield_reads_the_interval():
    # the isolating interval stays inside the field layer: other modules reach
    # it through NumberField.enclosure and sign_of_coeffs
    readers = [p.stem for p in MODULES
               if any(isinstance(node, ast.Attribute) and node.attr == "_interval"
                      for node in ast.walk(ast.parse(p.read_text())))]
    assert readers == ["realfield"]


def test_only_linalg_reads_the_row_slots():
    # a row is stored once, as integer layers over one denominator, inside
    # linalg: other modules read it through int_layers(), den and layers()
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    slots = next(ast.literal_eval(stmt.value) for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "FieldVector"
                 for stmt in node.body if isinstance(stmt, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets))
    private = {slot for slot in slots if slot.startswith("_")}
    assert private
    readers = [p.stem for p in MODULES
               if any(isinstance(node, ast.Attribute) and node.attr in private
                      for node in ast.walk(ast.parse(p.read_text())))]
    assert readers == ["linalg"]


def assertions(source: str) -> list[int]:
    """Lines of assert statements and of raise AssertionError (bare or called)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_assertions_in_the_package(path):
    # invariants are real checks with typed errors, which python -O keeps
    assert assertions(path.read_text()) == []


def test_the_scan_finds_assertions():
    snippet = ("assert x\n"
               "def f():\n    raise AssertionError('no')\n"
               "def g():\n    raise AssertionError\n"
               "def h():\n    raise ValueError('fine')\n")
    assert assertions(snippet) == [1, 3, 5]


TESTS = pathlib.Path(__file__).resolve().parent


def duplicated_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level functions that two or more modules define with the same name
    and the same body, a docstring aside: each is one helper, written once."""
    defined: dict[tuple[str, str], list[str]] = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                body = node.body[ast.get_docstring(node) is not None:]
                key = (node.name, ast.dump(ast.Module(body, [])))
                defined.setdefault(key, []).append(module)
    return sorted(f"{name}: {', '.join(modules)}"
                  for (name, _), modules in defined.items() if len(modules) > 1)


def test_no_two_test_modules_define_the_same_helper():
    # shared fixtures live in conftest, shared builders in shared
    assert duplicated_helpers({p.stem: p.read_text() for p in sorted(TESTS.glob("*.py"))}) == []


def test_the_scan_finds_duplicated_helpers():
    snippets = {
        "a": "def fv(x):\n    return x\ndef lex(x):\n    return [x]\ndef one():\n    return 1\n",
        "b": "def fv(y):\n    '''same body'''\n    return x\ndef lex(x):\n    return (x,)\n",
        "c": "@fixture\ndef one():\n    return 1\ndef other():\n    return 1\n",
    }
    assert duplicated_helpers(snippets) == ["fv: a, b", "one: a, c"]
