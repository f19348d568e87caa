"""Import hygiene of the package: every imported name is used or exported,
every exported name is used, every class member is read, and the basis
is tabulated, the hypothesis ledger read, a field constructed and the
blow-up Ricci formed in one place.

There is no linter among the package's dependencies, so this reads each
module's syntax tree: a name bound by an import statement must appear as
a name in the module, or in its ``__all__``; a name in a module's
``__all__`` must be referenced somewhere in the package, apart from the
few reference routes that only the tests compare against; and so must
every method, property and dataclass field a class defines.  Members are
matched by name, so a member shares the reads of any other member or
variable of the same name.  The tabulation routines of ``basis``, the
ledger routines of ``spectrum``, the ``ScalarField`` constructor and the
Ricci-from-jets routine of ``geometry`` are called only from their own
module and from the few callers listed in ``SINGLE_PLACE``, the flat
kernel coefficients of ``green`` only from ``green.green_field``, and
the pole rule of ``quadrature`` only from its three readers.  Whether a
circle multiplies a backend's sphere is asked only by the four
definitions of ``BACKEND_READERS``, only the suites of
``RANDOM_READERS`` read numpy.random, and the modules' relative
imports, at module level or inside a function, form no cycle.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conformal_lab"


# independent routes kept for the tests to compare the package against
TEST_REFERENCES = {"apply_P_pointwise", "green_pair", "apply_L"}

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
# contracts in one place, only basis tabulates zonal polynomials and
# their derivatives, which it caches at the nodes, and a field is
# differentiated only on the grid, by fields, the one ``jets`` of the
# conformal factor base class and the pointwise P route;
# spectrum builds the hypothesis ledger and verify._ledger keeps one per
# backend, which the suite wrapper reads for every report and assertion
# rule, and two suite bodies only for the data they check; the catalog
# listing prints lambda1(L), and green_field tests every kernel for a
# zero mode against the ledger's curvature scale; a field is built only
# by the constructors and transforms of fields; the blow-up Ricci of G_L
# comes from green.blowup_density alone, from the split jets of the
# kernel, geometry forms every other Ricci tensor from jets, and the
# Ricci tensor of a changed metric is
# read only through geometry.conformal_curvature; green_field alone
# picks the flat kernel c r^(-2q) of an operator, for every kernel; the
# graded pole rule is read by the pairing and the one blow-up pass, which
# the identities, the Ricci defect and the mass read
SINGLE_PLACE = {
    "polar_values": {"basis", "fields._prepare"},
    "circle_values": {"basis", "fields._prepare"},
    "polar_jets": {"basis"},
    "circle_jets": {"basis"},
    "frame_jets": {"fields", "geometry.ConformalFactor",
                   "operators.apply_P_pointwise"},
    "polar_tables": {"basis", "fields._prepare"},
    "circle_tables": {"basis", "fields._prepare"},
    "zonal_polynomials": {"basis", "green._ProductImageKernel"},
    "lambda1_L": {"spectrum", "cli.list_catalog"},
    "zero_threshold": {"spectrum", "green.green_field"},
    "paneitz_spectrum_check": {"verify._ledger"},
    "_ledger": {"verify.Suite", "verify.check_sign_theorems",
                "verify.check_spectrum_claims"},
    "ScalarField": {"fields"},
    "broadcast_arrays": {"fields._prepare"},
    "ricci_from_jets": {"geometry", "green.blowup_density"},
    "conformal_ricci": {"geometry"},
    "split_jets": {"green.blowup_density"},
    "flat_L_coefficient": {"green.green_field"},
    "flat_P_coefficient": {"green.green_field"},
    "pole_blocks": {"quadrature", "green.green_pair", "green.blowup_slabs"},
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


def test_an_off_grid_differentiation_is_caught():
    """Derivative tables at points outside basis, and field jets taken
    past fields, the factor base class and the pointwise P route."""
    sources = {"fields.py": "def _prepare(b, t): return b.polar_jets(t)\n"
                            "def frame_jets(f): return f\n"
                            "def gradient_components(f):\n"
                            "    return frame_jets(f)[1]\n",
               "geometry.py": "class ConformalFactor:\n"
                              "    def jets(self):\n"
                              "        return F.frame_jets(self.w_grid)\n"
                              "    def w_at(self, *p):\n"
                              "        return F.frame_jets(self.w, *p)[0]\n"
                              "class FieldFactor(ConformalFactor):\n"
                              "    def jets(self):\n"
                              "        return F.frame_jets(self.w)\n"
                              "class MoebiusFactor(ConformalFactor):\n"
                              "    def jets(self): return F.frame_jets(0)\n",
               "operators.py": "def apply_P_pointwise(m, f):\n"
                               "    return F.frame_jets(f)\n"
                               "def apply_P(m, f): return F.frame_jets(f)\n",
               "green.py": "def values_at(gf, *p):\n"
                           "    return F.frame_jets(gf.w, *p)[0]\n"}
    assert stray_calls(sources) == [
        "fields._prepare: polar_jets", "geometry.FieldFactor: frame_jets",
        "geometry.MoebiusFactor: frame_jets", "green.values_at: frame_jets",
        "operators.apply_P: frame_jets"]


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
               "green.py": "def green_field(m):\n"
                           "    return zero_threshold(m)\n"
                           "def sign_scan(m): return zero_threshold(m)\n"}
    assert stray_calls(sources) == [
        "cli.run: paneitz_spectrum_check", "green.sign_scan: zero_threshold",
        "verify.check: lambda1_L", "verify.check_green_compare: _ledger"]


def test_a_second_blowup_ricci_is_caught():
    """And a changed metric's Ricci tensor read past conformal_curvature."""
    sources = {"geometry.py": "def conformal_ricci(m, f):\n"
                              "    return ricci_from_jets(m, *f.jets()[1:])\n"
                              "def conformal_curvature(m, f):\n"
                              "    return conformal_ricci(m, f)\n",
               "operators.py": "from .geometry import conformal_ricci\n"
                               "def conformal_quadratic_form_E(m, f, u, v):\n"
                               "    return conformal_ricci(m, f)\n",
               "green.py": "def blowup_density(gf, *p):\n"
                           "    jets = gf.kernel.split_jets(*p)\n"
                           "    return G.ricci_from_jets(gf.manifold, 0, 0)\n"
                           "def sign_scan(gf, *p):\n"
                           "    return gf.kernel.split_jets(*p)\n",
               "verify.py": "from .geometry import ricci_from_jets\n"
                            "def _law(m, gL, pts):\n"
                            "    _, (g, h), _ = gL.kernel.split_jets(pts)\n"
                            "    return ricci_from_jets(m, g, h)\n"}
    assert stray_calls(sources) == [
        "green.sign_scan: split_jets",
        "operators.conformal_quadratic_form_E: conformal_ricci",
        "verify._law: ricci_from_jets", "verify._law: split_jets"]


def test_a_kernel_reading_its_own_coefficient_is_caught():
    sources = {"green.py": "def flat_L_coefficient(n): return 1.0 / n\n"
                           "def flat_P_coefficient(n): return 2.0 / n\n"
                           "class _ProductImageKernelP:\n"
                           "    def __init__(self, m):\n"
                           "        self.c = -4.0 * flat_P_coefficient(3)\n"
                           "def green_field(m, operator):\n"
                           "    return (flat_L_coefficient(m.n),\n"
                           "            flat_P_coefficient(m.n))\n"
                           "def comparison_constant(n):\n"
                           "    return flat_L_coefficient(n)\n",
               "verify.py": "from . import green\n"
                            "def _law(m): return green.flat_P_coefficient(5)\n"}
    assert stray_calls(sources) == [
        "green._ProductImageKernelP: flat_P_coefficient",
        "green.comparison_constant: flat_L_coefficient",
        "verify._law: flat_P_coefficient"]


def test_a_stray_field_construction_is_caught():
    sources = {"fields.py": "class ScalarField: pass\n"
                            "def synthesize(b, c): return ScalarField(b, c)\n",
               "operators.py": "from . import fields as F\n"
                               "def apply_P(m, f):\n"
                               "    return F.ScalarField(m.basis, None, f)\n"}
    assert stray_calls(sources) == ["operators.apply_P: ScalarField"]


def test_a_second_pole_rule_reader_is_caught():
    sources = {"quadrature.py": "def pole_blocks(m, p): return _blocks(m)\n"
                                "def _blocks(m): return pole_blocks(m, 0)\n",
               "green.py": "from . import quadrature as Q\n"
                           "def green_pair(gf, f): return Q.pole_blocks(gf, 0)\n"
                           "def blowup_slabs(gf): return Q.pole_blocks(gf, 0)\n"
                           "def extract_mass(m):\n"
                           "    return [b for b in Q.pole_blocks(m, 0)]\n",
               "verify.py": "def _pole_identity(m):\n"
                            "    return [b for b in Q.pole_blocks(m, 0)]\n"}
    assert stray_calls(sources) == ["green.extract_mass: pole_blocks",
                                    "verify._pole_identity: pole_blocks"]


# the definitions that may ask whether a circle S^1(l) multiplies a
# backend's sphere, the ``circle`` of its row of ``basis.BACKENDS``, as
# ``module.name`` or ``module.Class.name``: the frame, the chart, the
# kernel choice and the pole rule.  Everything else reads the row's facts
# (its test functions, poles, tolerance class, Moebius family), or none:
# a sphere is the one-row case of every mode table and the one-side case
# of the pole rule.
BACKEND_READERS = {"fields.frame_weights",
                   "geometry.ManifoldModel.grid_points",
                   "green.green_field", "quadrature.pole_blocks"}
# the question, and the name it had before the row answered it
BACKEND_QUESTIONS = {"circle", "is_product"}


def definitions(sources: dict):
    """``(label, node)`` for every top-level statement and class member,
    labelled ``module.name`` or ``module.Class.name`` (the first target
    of an assignment)."""
    for name, src in sources.items():
        module = name.removesuffix(".py")
        for top in ast.parse(src).body:
            if isinstance(top, ast.ClassDef):
                prefix, defs = f"{module}.{top.name}", top.body
            else:
                prefix, defs = module, [top]
            for node in defs:
                label = getattr(node, "name", None) or next(
                    (t.id for t in getattr(node, "targets", ())
                     if isinstance(t, ast.Name)), node.lineno)
                yield f"{prefix}.{label}", node


def backend_readers(sources: dict) -> list[str]:
    """The definitions that read a name of ``BACKEND_QUESTIONS``,
    decorators and lambdas included."""
    return sorted(label for label, node in definitions(sources)
                  if BACKEND_QUESTIONS & referenced(node))


def test_spheres_take_the_product_code_path():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert len(BACKEND_READERS) <= 4
    assert backend_readers(sources) == sorted(BACKEND_READERS)


def test_a_backend_branch_is_caught():
    sources = {"basis.py": "class ModeBasis:\n"
                           "    @property\n"
                           "    def circle_mode_count(self):\n"
                           "        return 1 if self.is_product else 0\n"
                           "    def volume(self): return self.length\n",
               "verify.py": "LAWS = {'t': lambda m: m.backend.circle}\n"
                            "@Suite('mass', lambda m: not m.backend.circle)\n"
                            "def check_mass(m): return m.backend.moebius\n"
                            "def _draw(m): return m.basis.fourier_max\n",
               "green.py": "def green_field(m):\n"
                           "    return 1 if m.backend.circle else 0\n"}
    assert backend_readers(sources) == ["basis.ModeBasis.circle_mode_count",
                                        "green.green_field", "verify.LAWS",
                                        "verify.check_mass"]


# the suites that draw: numpy.random is imported lazily, on first use, so
# a run of the identity and total-Q suites, whose test functions are
# fixed, never pays for its import
RANDOM_READERS = {"verify.check_covariance", "verify.check_sign_theorems",
                  "verify.check_mass"}


def reads_numpy_random(node) -> bool:
    """Whether ``node`` reads ``np.random`` or ``numpy.random``, or
    imports it."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "random" \
                and getattr(sub.value, "id", None) in ("np", "numpy"):
            return True
        if isinstance(sub, ast.Import) and any(
                a.name.startswith("numpy.random") for a in sub.names):
            return True
        if isinstance(sub, ast.ImportFrom) and (
                (sub.module or "").startswith("numpy.random")
                or sub.module == "numpy"
                and any(a.name == "random" for a in sub.names)):
            return True
    return False


def random_readers(sources: dict) -> list[str]:
    """The definitions that read or import numpy.random."""
    return sorted(label for label, node in definitions(sources)
                  if reads_numpy_random(node))


def test_only_the_drawing_suites_read_numpy_random():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert random_readers(sources) == sorted(RANDOM_READERS)


def test_a_stray_numpy_random_read_is_caught():
    sources = {"verify.py": "import numpy as np\n"
                            "def check_covariance(m, seed):\n"
                            "    return np.random.default_rng(seed)\n"
                            "def default_test_functions(m):\n"
                            "    return np.random.default_rng(0)\n"
                            "def check_mass(m): return np.linalg.norm(m)\n",
               "fields.py": "from numpy import random\n"
                            "class Draw:\n"
                            "    def normal(self):\n"
                            "        import numpy.random\n"
                            "        return numpy.random.normal()\n",
               "basis.py": "from numpy.random import default_rng\n"
                           "RNG = default_rng(0)\n"}
    assert random_readers(sources) == [
        "basis.1", "fields.1", "fields.Draw.normal",
        "verify.check_covariance", "verify.default_test_functions"]


def import_cycles(sources: dict) -> list[list[str]]:
    """The groups of modules whose relative imports, at module level or
    inside a function, lead from each back to itself."""
    graph = {name.removesuffix(".py"): set() for name in sources}
    for name, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = ([node.module.split(".")[0]] if node.module
                           else [a.name for a in node.names])
                graph[name.removesuffix(".py")] |= set(targets) & set(graph)

    def reachable(start):
        seen, todo = set(), list(graph[start])
        while todo:
            module = todo.pop()
            if module not in seen:
                seen.add(module)
                todo += graph[module]
        return seen

    reach = {module: reachable(module) for module in graph}
    groups = {frozenset(b for b in reach[a] if a in reach[b]) for a in graph}
    return sorted(sorted(g) for g in groups if g)


def test_the_package_imports_form_no_cycle():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert import_cycles(sources) == []


def test_an_import_cycle_is_caught():
    # a deferred import closes a cycle too; an absolute import is no edge
    sources = {"geometry.py": "from . import fields as F\n"
                              "def conformal_q(m):\n"
                              "    from . import operators\n"
                              "    return operators.apply_P(m)\n",
               "operators.py": "from .geometry import ConformalFactor\n",
               "fields.py": "import verify\nfrom .basis import ModeBasis\n",
               "basis.py": "from math import pi\n",
               "cli.py": "from .verify import run_suite\n",
               "verify.py": "from . import basis, cli\n"}
    assert import_cycles(sources) == [["cli", "verify"],
                                      ["geometry", "operators"]]
