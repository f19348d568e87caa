"""Import hygiene of the package: every imported name is used or exported,
every exported name is used, every class member is read, and the basis
is tabulated, the hypothesis ledger read and a field constructed in one
place.

There is no linter among the package's dependencies, so this reads each
module's syntax tree: a name bound by an import statement must appear as
a name in the module, or in its ``__all__``; a name in a module's
``__all__`` must be referenced somewhere in the package, apart from the
few reference routes that only the tests compare against; and so must
every method, property and dataclass field a class defines.  Members are
matched by name, so a member shares the reads of any other member or
variable of the same name.  The tabulation routines of ``basis``, the
ledger routines of ``spectrum`` and the ``ScalarField`` constructor are
called only from their own module and from the few callers listed in
``SINGLE_PLACE``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conformal_lab"


# independent routes kept for the tests to compare the package against
TEST_REFERENCES = {"apply_P_pointwise", "green_pair", "apply_L", "run_suite"}

# class members only the tests read: the grouped spectrum a summary is
# computed from
TEST_MEMBERS = {"eigenvalues"}


def exported(tree) -> set[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def referenced(tree) -> set[str]:
    """Names read as ``name`` or as ``obj.name``; imports, definitions and
    assignments do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported(tree))


def unused_exports(sources: dict) -> dict:
    """Per module, the ``__all__`` names no module of ``sources`` reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = set().union(*(referenced(t) for t in trees.values()))
    out = {name: sorted(exported(t) - used - TEST_REFERENCES)
           for name, t in trees.items()}
    return {name: names for name, names in out.items() if names}


def test_every_package_import_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {k: v for k, v in unused.items() if v} == {}


def test_an_unused_import_is_caught():
    source = ("from . import fields as F\nimport csv, json\n"
              "__all__ = ['F']\njson.dumps(1)\n")
    assert unused_imports(source) == ["csv"]


def test_every_exported_name_is_used_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_exports(sources) == {}


def test_an_unused_export_is_caught():
    # g is imported but never read, h is only defined, apply_L is exempt
    sources = {"a.py": "__all__ = ['f', 'g', 'apply_L']\ndef f(): pass\n"
                       "def g(): pass\ndef apply_L(): pass\n",
               "b.py": "from .a import f, g\n__all__ = ['h']\n"
                       "def h(): return f()\n"}
    assert unused_exports(sources) == {"a.py": ["g"], "b.py": ["h"]}


def members(tree) -> set[str]:
    """Methods, properties and dataclass fields of the classes in ``tree``;
    dunder methods are left out, Python itself calls them."""
    out = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        is_dataclass = any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
            == "dataclass" for d in cls.decorator_list)
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                out.add(node.name)
            elif is_dataclass and isinstance(node, ast.AnnAssign):
                out.add(node.target.id)
    return out


def unused_members(sources: dict) -> dict:
    """Per module, the class members no module of ``sources`` reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = set().union(*(referenced(t) for t in trees.values()))
    out = {name: sorted(members(t) - used - TEST_MEMBERS)
           for name, t in trees.items()}
    return {name: names for name, names in out.items() if names}


def test_every_class_member_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_members(sources) == {}


def test_an_unused_member_is_caught():
    # only b.f, c.value and the dunder are read; eigenvalues is exempt, and
    # a plain class's annotations are not fields
    sources = {"a.py": "from dataclasses import dataclass\n"
                       "@dataclass(frozen=True)\nclass A:\n"
                       "    value: int\n    spare: int = 0\n"
                       "    def f(self): return self.value\n"
                       "    @property\n    def g(self): return 1\n"
                       "    def __len__(self): return 0\n"
                       "    def eigenvalues(self): pass\n",
               "b.py": "@dataclass\nclass B:\n    kept: int\n"
                       "class C:\n    hint: int\n"
                       "def h(b, c): return b.f() + c.value\n"}
    assert unused_members(sources) == {"a.py": ["g", "spare"],
                                       "b.py": ["kept"]}


# where each single-place routine may be called, as ``module`` or
# ``module.top-level definition``: fields prepares every table it
# contracts in one place and only basis tabulates zonal polynomials;
# spectrum builds the hypothesis ledger and verify._ledger keeps one per
# backend, which the suite wrapper reads for every report and assertion
# rule, and two suite bodies only for the data they check; the catalog
# listing prints lambda1(L), and the eigen expansions test for a zero
# mode against the ledger's curvature scale; a field is built only by
# the constructors and transforms of fields
SINGLE_PLACE = {
    "polar_values": {"basis", "fields._prepare"},
    "circle_values": {"basis", "fields._prepare"},
    "polar_jets": {"basis", "fields._prepare"},
    "circle_jets": {"basis", "fields._prepare"},
    "polar_tables": {"basis", "fields._prepare"},
    "circle_tables": {"basis", "fields._prepare"},
    "zonal_polynomials": {"basis"},
    "lambda1_L": {"spectrum", "cli.list_catalog"},
    "zero_threshold": {"spectrum", "green.green_eigen_expansion"},
    "paneitz_spectrum_check": {"verify._ledger"},
    "_ledger": {"verify.Suite", "verify.check_sign_theorems",
                "verify.check_spectrum_claims"},
    "ScalarField": {"fields"},
    "broadcast_arrays": {"fields._prepare"},
}


def stray_calls(sources: dict) -> list[str]:
    """``module.definition: name`` for every call of a ``SINGLE_PLACE``
    name outside the places allowed for it."""
    out = []
    for name, src in sources.items():
        module = name.removesuffix(".py")
        for top in ast.parse(src).body:
            scope = module + "." + getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                called = getattr(node.func, "attr",
                                 getattr(node.func, "id", None))
                if called in SINGLE_PLACE \
                        and not SINGLE_PLACE[called] & {module, scope}:
                    out.append(f"{scope}: {called}")
    return sorted(out)


def test_the_basis_is_tabulated_in_one_place():
    """And the ledger is built, kept and read where SINGLE_PLACE says."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert stray_calls(sources) == []


def test_a_second_tabulation_is_caught():
    sources = {"basis.py": "def _polar_tables(b): return b.polar_values(0)\n",
               "fields.py": "def _prepare(b, t):\n"
                            "    return b.polar_values(t), b.circle_tables()\n"
                            "def analyze(b): return b.polar_tables()\n"
                            "def frame_jets(f, s): return f.circle_jets(s)\n",
               "green.py": "from .basis import zonal_polynomials\n"
                           "class _Kernel:\n"
                           "    def f(self): return zonal_polynomials(2, 3, 0)\n"
                           "def sign_scan(t): return zonal_polynomials(2, 3, t)\n"
                           "zonal_polynomials(2, 3, 1.0)\n"}
    assert stray_calls(sources) == [
        "fields.analyze: polar_tables", "fields.frame_jets: circle_jets",
        "green.<module>: zonal_polynomials",
        "green._Kernel: zonal_polynomials",
        "green.sign_scan: zonal_polynomials"]


def test_a_stray_ledger_call_is_caught():
    sources = {"spectrum.py": "def lambda1_L(m): pass\n"
                              "def zero_threshold(m): pass\n"
                              "def paneitz_spectrum_check(m):\n"
                              "    return lambda1_L(m), zero_threshold(m)\n",
               "verify.py": "from . import spectrum\n"
                            "def _ledger(m):\n"
                            "    return spectrum.paneitz_spectrum_check(m)\n"
                            "def check(m): return spectrum.lambda1_L(m)\n"
                            "class Suite:\n"
                            "    def f(self, m): return _ledger(m)\n"
                            "def check_green_compare(m):\n"
                            "    return _ledger(m).theorems_hold\n",
               "cli.py": "def list_catalog(m): return lambda1_L(m)\n"
                         "def run(m): return paneitz_spectrum_check(m)\n",
               "green.py": "def green_eigen_expansion(m):\n"
                           "    return zero_threshold(m)\n"
                           "def sign_scan(m): return zero_threshold(m)\n"}
    assert stray_calls(sources) == [
        "cli.run: paneitz_spectrum_check", "green.sign_scan: zero_threshold",
        "verify.check: lambda1_L", "verify.check_green_compare: _ledger"]


def test_a_stray_field_construction_is_caught():
    sources = {"fields.py": "class ScalarField: pass\n"
                            "def synthesize(b, c): return ScalarField(b, c)\n",
               "operators.py": "from . import fields as F\n"
                               "def apply_P(m, f):\n"
                               "    return F.ScalarField(m.basis, None, f)\n"}
    assert stray_calls(sources) == ["operators.apply_P: ScalarField"]
