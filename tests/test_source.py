"""Checks on the package source and on the names the benchmark patches."""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import cyclosc

PACKAGE = Path(cyclosc.__file__).resolve().parent

# Imported but not referenced on purpose: bench/tracing.py wraps these names
# in these modules.
TRACED_IMPORTS = {
    ("cli", "propagate_exponential"),
    ("cli", "propagate_inverse_linear"),
    ("cli", "propagate_power_law"),
    ("cli", "propagate_ode"),
    ("cli", "propagate_forced"),
    ("cli", "random_cycle_gain"),
    ("cli", "multimode_from_hamiltonian"),
    ("cavity", "solve_ivp"),
    ("cycles", "propagate_inverse_linear"),
}


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":  # a star import re-exports its module's __all__
                    imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return {(path.stem, name) for name in imported - used}


def test_every_module_level_import_is_referenced():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        unused |= _unused_imports(path)
    assert unused == TRACED_IMPORTS


def test_bench_tracer_installs_and_restores_every_site():
    # bench/tracing.py wraps module attributes by name (SPAN_SITES and its
    # counters); a refactor that drops one crashes the traced benchmark run.
    # The file is only read here, not imported from bench/.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tracing = types.ModuleType("bench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing.__dict__)
    sites = [(module, attr) for module, attr, _ in tracing.SPAN_SITES]
    before = {site: getattr(importlib.import_module(site[0]), site[1]) for site in sites}
    with tracing.installed(tracing.Tracer()):
        for site in sites:
            assert getattr(importlib.import_module(site[0]), site[1]) is not before[site]
    for site in sites:
        assert getattr(importlib.import_module(site[0]), site[1]) is before[site]


def test_det_tolerance_is_referenced_only_in_core():
    # the symplectic contract is written once, in core; __init__ re-exports
    # the constant, and no other module imports or reads it
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "DET_TOL_INPUT"
            or isinstance(node, ast.Attribute) and node.attr == "DET_TOL_INPUT"
        ]
        imports = [
            alias for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in ("DET_TOL_INPUT", "*")
        ]
        if path.stem == "core":
            assert reads, path.name
        else:
            assert not reads, path.name
            assert not imports or path.stem == "__init__", path.name


def test_moments_are_real_and_one_contract_covers_one_and_n_modes():
    # the multimode layer carries real second moments (core.Covariance), not
    # a complex mode map; the 2N x 2N symplectic check lives next to the 2x2
    # one in core, and both read DET_TOL_INPUT
    tree = ast.parse((PACKAGE / "cavity.py").read_text(encoding="utf-8"))
    complex_literals = [
        node for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, complex)
    ]
    conj = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "conj"]
    assert complex_literals == [] and conj == []
    tree = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    readers = {
        f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
        for node in ast.walk(f) if isinstance(node, ast.Name) and node.id == "DET_TOL_INPUT"
    }
    assert {"is_symplectic", "evolved"} <= readers


def test_each_closed_form_is_called_only_from_the_leg_dispatcher():
    # the family -> closed form choice is written once, in cycles._closed_legs,
    # whose inverse-linear legs go through the array formula itself, not
    # through propagate_inverse_linear
    names = ["_inverse_linear_entries", "propagate_exponential", "propagate_power_law"]
    tree = ast.parse((PACKAGE / "cycles.py").read_text(encoding="utf-8"))
    dispatcher = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_closed_legs")

    def calls(root):
        return sorted(
            node.func.id for node in ast.walk(root)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names + ["propagate_inverse_linear"]
        )

    assert calls(tree) == calls(dispatcher) == names


def _call_sites(name):
    """(module, enclosing function) of every call to `name` in the package."""
    calls = []

    def visit(node, module, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            calls.append((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return calls


def test_one_oscillator_system_is_all_that_solve_ivp_integrates():
    # Hill legs, forced drives and multimode couplings are all lanes of
    # ode._Oscillators: solve_ivp has one call site, in ode's lane runner,
    # and no other class anywhere has a system's terms or rhs
    systems = {
        (path.stem, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and {"terms", "rhs"} & {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
    }
    assert _call_sites("solve_ivp") == [("ode", "_run_lanes")]
    assert systems == {("ode", "_Oscillators")}


def test_every_hill_and_forced_run_is_split_and_folded_in_one_place():
    # propagate_ode_batch and propagate_forced_batch both go through
    # ode._propagate; the lane runner's only other caller is the multimode batch
    assert _call_sites("_run_lanes") == [
        ("cavity", "multimode_from_hamiltonian_batch"), ("ode", "_propagate")
    ]


def test_libm_is_reached_per_element_only_through_one_helper():
    # numpy picks its exp, log, cosh, sinh, sin, cos and power kernels by the
    # host's instruction set, and the AVX-512 ones differ from libm in the
    # last bit.  The inverse-linear formula and the ODE step control take
    # libm's values per element through core._libm_each, use none of those
    # numpy functions (nor ** on arrays), and nothing lifts a scalar function
    # to arrays any other way.  The formula takes ln lam from its callers:
    # propagate_inverse_linear per leg, the leg dispatcher per run of equal lam.
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "frompyfunc" not in text and "vectorize" not in text, path.name
    assert sorted(_call_sites("_libm_each")) == [
        ("closed_form", "_cosh_sinch"), ("closed_form", "_cosh_sinch"),
        ("closed_form", "propagate_inverse_linear"), ("closed_form", "propagate_inverse_linear"),
        ("cycles", "_closed_legs"), ("ode", "solve_ivp"),
    ]
    host_dependent = {"exp", "expm1", "exp2", "log", "log1p", "log2", "log10", "cosh", "sinh",
                      "tanh", "cos", "sin", "tan", "power", "float_power", "geomspace", "logspace"}
    checked = {"closed_form": {"_cosh_sinch", "_inverse_linear_entries", "propagate_inverse_linear"},
               "cycles": {"_closed_legs"}, "ode": {"solve_ivp"}}
    for module, names in checked.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in names]
        assert {f.name for f in functions} == names
        for f in functions:
            numpy_names = {
                node.attr for node in ast.walk(f)
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np"
            }
            assert not numpy_names & host_dependent, (module, f.name)
            assert not [node for node in ast.walk(f) if isinstance(node, ast.Pow)], (module, f.name)


def test_every_package_2x2_is_an_evolution_matrix():
    # numpy's @ runs OpenBLAS's kernel for the CPU, and its FMA kernels round
    # differently from plain products.  The Bessel frames, their Wronskian
    # map and the orthogonality check are EvolutionMatrix arithmetic on
    # Python floats, and nothing in the package builds one from an array.
    checked = {"closed_form": {"_bessel_frame", "_bessel_leg", "_power_law_frame", "_exponential_frame",
                               "propagate_power_law", "propagate_exponential"},
               "core": {"is_orthogonal"}}
    for module, names in checked.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in names]
        assert {f.name for f in functions} == names
        for f in functions:
            numpy_names = [
                node.attr for node in ast.walk(f)
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np"
            ]
            assert numpy_names == [], (module, f.name)
    assert _call_sites("from_array") == []


def test_one_bessel_leg_serves_both_families():
    # one frame formula calls scipy's Bessel functions, for the power-law
    # order 1/k and the exponential order 0; one assembly inverts the frames
    assert _call_sites("jv") == _call_sites("yv") == [("closed_form", "_bessel_frame")]
    assert sorted(_call_sites("_bessel_frame")) == [
        ("closed_form", "_exponential_frame"), ("closed_form", "_power_law_frame"),
    ]
    assert sorted(_call_sites("_bessel_leg")) == [
        ("closed_form", "propagate_exponential"), ("closed_form", "propagate_power_law"),
    ]
    # the order bound is stated once: cycles asks closed_form, not the constant
    readers = {
        path.stem for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "MAX_BESSEL_ORDER"
        or isinstance(node, ast.alias) and node.name == "MAX_BESSEL_ORDER"
    }
    assert readers == {"closed_form"}


def test_core_writes_the_energy_form_once():
    # (omega_f^2 (a^2 + b^2) + c^2 + d^2)/2 from products x * x; R is its
    # value at omega_f = 1, read by the symplectic check, gain_factor,
    # final_energy and the cycle fold
    tree = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_energy_form" not in functions
    assert not [node for node in ast.walk(functions["gain_factor"]) if isinstance(node, ast.Pow)]
    assert sorted(_call_sites("_energy_ratio")) == [
        ("core", "_require_symplectic"), ("core", "final_energy"), ("core", "gain_factor"),
        ("core", "is_symplectic"), ("cycles", "_fold"),
    ]


def test_one_fold_multiplies_the_cycles():
    # every closed cycle, repeated or not, in build_cycle, build_cycles and
    # scan_gain, is the product _fold forms: no other function in cycles.py
    # multiplies evolution matrices, by @ or by compose, or reads their gain
    tree = ast.parse((PACKAGE / "cycles.py").read_text(encoding="utf-8"))

    def products(root):
        return [
            node for node in ast.walk(root)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "compose"
            or isinstance(node, ast.Attribute) and node.attr == "_energy_ratio"
        ]

    fold = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_fold")
    assert products(fold) and len(products(fold)) == len(products(tree))


def test_package_exports_match_the_submodules():
    # every exported name resolves, and every library submodule's exports
    # are the package's too (cli is the front end: `import cyclosc` skips it)
    missing = [name for name in cyclosc.__all__ if not hasattr(cyclosc, name)]
    assert missing == []
    unexported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "cli"):
            continue
        module = importlib.import_module(f"cyclosc.{path.stem}")
        for name in getattr(module, "__all__", ()):
            if name not in cyclosc.__all__ or getattr(cyclosc, name) is not getattr(module, name):
                unexported.add((path.stem, name))
    assert unexported == set()


def test_package_declares_each_public_name_once():
    # each library module's __all__ is its public surface; __init__ star-
    # imports the modules and binds only __version__ and the concatenation
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.ImportFrom) and node.level == 1
               and [alias.name for alias in node.names] == ["*"] for node in imports)
    modules = [node.module for node in imports]
    library = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "cli"}
    assert sorted(modules) == sorted(library)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    assert bound == {"__version__", "__all__"}
    declared = [importlib.import_module(f"cyclosc.{module}").__all__ for module in modules]
    assert cyclosc.__all__ == ["__version__", *(name for names in declared for name in names)]


def test_perturbation_elements_take_no_matrix_product():
    # column n of x^N is a ladder walk in Python floats: no BLAS product
    # (np.linalg, @, matmul), whose kernel the host picks at run time
    tree = ast.parse((PACKAGE / "perturbation.py").read_text(encoding="utf-8"))
    products = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in ("linalg", "matmul", "dot", "matrix_power")
        or isinstance(node, ast.Name) and node.id in ("linalg", "matmul")
    ]
    assert products == []
