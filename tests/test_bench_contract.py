"""The package names that the benchmark under bench/ reads must exist.

The benchmark wraps functions by name, dispatches requests by name and calls
module attributes directly, so deleting or renaming one of them breaks it.
This check reads bench/ (and writes nothing there) so that such a change
fails here first.
"""

import ast
import importlib
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("classify", "cli", "geometry", "linalg", "oracles", "symmetry")


def _module(name):
    return importlib.import_module(f"schmidt_cone.{name}")


def _resolves(name, path):
    obj = _module(name)
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _attribute_chains():
    """Every dotted read rooted at a package module name, from every bench/*.py.

    ``symmetry.InvariantState.matrix`` gives ("symmetry", ("InvariantState",
    "matrix")), and ``from schmidt_cone.linalg import schmidt_spectrum`` gives
    ("linalg", ("schmidt_spectrum",)).
    """
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("schmidt_cone."):
                name = node.module.split(".", 1)[1]
                chains.update((path.name, name, (alias.name,)) for alias in node.names)
            if not isinstance(node, ast.Attribute):
                continue
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in MODULES:
                chains.add((path.name, node.id, tuple(reversed(attrs))))
    return chains


def _literal(filename, name):
    """The literal value of a top-level assignment in a bench file."""
    tree = ast.parse((BENCH / filename).read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name
    )


def test_every_traced_function_exists():
    targets = _literal("tracing.py", "_TARGETS")
    assert set(targets) <= set(MODULES)
    missing = [f"{mod}.{attr}" for mod, attrs in targets.items() for attr in attrs
               if not callable(getattr(_module(mod), attr, None))]
    assert not missing


def test_every_classifier_function_the_bench_calls_by_name_exists():
    mix = json.loads((BENCH / "mix.json").read_text())
    funcs = {func for func, *_ in mix["requests"]} | {func for func, *_ in mix["grids"]}
    funcs |= set(_literal("workloads.py", "QUERY_FUNCS"))
    funcs |= set(_literal("workloads.py", "_SCALAR").values())
    assert len(funcs) >= 5  # the scan sees the bench's requests
    assert not [f for f in sorted(funcs) if not callable(getattr(_module("classify"), f, None))]


def test_every_module_attribute_the_bench_reads_exists():
    chains = _attribute_chains()
    assert len(chains) > 20  # the scan sees the bench's calls
    missing = [f"{src}: {mod}.{'.'.join(path)}" for src, mod, path in sorted(chains)
               if not _resolves(mod, path)]
    assert not missing


def test_the_bench_reads_conic_coefficients_and_the_shared_classifier():
    from schmidt_cone import classify, geometry, oracles

    conic = geometry.kpos_conic(4, 3, exact=True)
    assert conic.coefficients() == tuple(conic)
    # the tracer patches is_k_positive in every module that holds it
    assert oracles.is_k_positive is classify.is_k_positive


def test_every_traced_numpy_kernel_is_still_called_by_the_package():
    # the bench wraps np.linalg.<name> for each kernel and requires a count > 0
    # from each, so moving the last caller onto another kernel breaks it
    src = Path(_module("linalg").__file__).resolve().parent
    called = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            f = getattr(node, "func", None)
            if (isinstance(node, ast.Call) and isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Attribute) and f.value.attr == "linalg"
                    and isinstance(f.value.value, ast.Name) and f.value.value.id == "np"):
                called.add(f.attr)
    kernels = _literal("tracing.py", "_KERNELS")
    assert kernels and not set(kernels) - called


def test_the_dual_ellipse_is_fitted_once_through_the_traced_name(monkeypatch):
    # the bench counts calls of geometry.conic_through_five_points, wrapped on
    # the module global, and needs that count above 0; every dual accessor
    # reads one cached record, so one case-3 (d, k) costs exactly one fit
    geometry = _module("geometry")
    calls = []
    fit = geometry.conic_through_five_points

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(geometry, "conic_through_five_points", counted)
    geometry._dual.cache_clear()
    geometry.dual_conic.cache_clear()
    d, k = 7, 5
    geometry.dual_tangency_points(d, k)
    geometry.dual_tangency_points(d, k, exact=False)
    geometry.dual_tangent_lines(d, k)
    geometry.dual_conic(d, k, exact=True)
    geometry.dual_conic(d, k, exact=False)
    assert len(calls) == 1
