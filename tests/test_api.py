"""The public surface: its settable parameters and its library callers.

A parameter with a default is a value callers may tune. Each one should
have callers that set it differently; a value with one setting in use is a
module constant instead. Adding a knob means naming it here. Constructor
defaults (dataclass fields, exception payloads) are data, not knobs, and
are not listed.

A public function or method should have a caller in the library itself.
One that only tests reach is named in ``TEST_ONLY`` with the reason it
stays.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import sigeo

SETTABLE = {
    "acceptance.check_cramer_rao(seed)",
    "acceptance.check_data_processing(seed)",
    "acceptance.check_fisher_oracles(seed)",
    "acceptance.check_hausdorff_jeffrey(seed)",
    "acceptance.check_hausdorff_monotonicity(seed)",
    "acceptance.check_metric_axioms(seed)",
    "acceptance.check_singularity(seed)",
    "acceptance.check_speed_jump(seed)",
    "acceptance.check_sphere_oracle(seed)",
    "acceptance.check_tv_lower_bound(pairs)",
    "acceptance.check_tv_lower_bound(seed)",
    "acceptance.check_weak_demo(seed)",
    "acceptance.run_all(only)",
    "acceptance.run_all(seed)",
    "cli.main(argv)",
    "distance.fisher_distance(interior_nodes)",
    "estimation.cramer_rao_gap(sampling)",
    "estimation.shrinkage_estimator(lam)",
    "estimation.shrinkage_estimator(offset)",
    "hausdorff.cloud_from_params(mode)",
    "hausdorff.covering_profile(k)",
    "hausdorff.flat_region_dimension_estimate(seed)",
    "hausdorff.hausdorff_measure_estimate(enforce_density)",
    "measures.grid1d_space(npts)",
    "models.gaussian_location2d_family(panels)",
    "models.gaussian_location_family(panels)",
    "models.gaussian_location_scale_family(panels)",
    "models.gaussian_mixture(panels)",
    "models.get_model(panels)",
    "models.reparameterized_model(name)",
    "models.weak_oscillatory_model(panels)",
    "models.weak_oscillatory_velocity(space)",
}


def _public_callables():
    """(qualified name, function) for the public functions of every sigeo
    module and the public methods of its public classes."""
    for info in pkgutil.iter_modules(sigeo.__path__):
        mod = importlib.import_module(f"sigeo.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    meth = getattr(meth, "__func__", meth)  # static and class methods
                    if not meth_name.startswith("_") and inspect.isfunction(meth):
                        yield f"{info.name}.{name}.{meth_name}", meth


def test_settable_surface_is_the_named_set():
    found = {
        f"{qualname}({p.name})"
        for qualname, fn in _public_callables()
        for p in inspect.signature(fn).parameters.values()
        if p.default is not inspect.Parameter.empty
    }
    assert found == SETTABLE
    assert len(SETTABLE) == 32


TEST_ONLY = {
    "distance.curve_length": "length of a given polyline; tests check fisher_distance against it",
    "fisher.fisher_inner": "the paper's Fisher inner product of tangent vectors",
    "hausdorff.greedy_cover": "one greedy cover with its set diameters; covering_profile runs the same loop, "
                              "sorting once for all its scales; tests check covers against it",
    "markov.binning_kernel": "the paper's deterministic coarse-graining kernel",
    "markov.compose": "composition of kernels; tests check that pushforwards compose",
    "markov.pushforward_tangent": "the paper's pushforward of one tangent vector; the per-draw reference of the "
                                  "batched monotonicity gaps, and a traced benchmark entry point",
    "measures.integrate": "the integral of a function against a measure, reached through fisher_inner; tests "
                          "check its quadrature and its handling of non-finite values",
    "measures.TangentVector.velocity_measure": "the velocity measure of a tangent, reached through pushforward_tangent",
    "models.tangent_at": "the paper's tangent vector of a model at one point; tests check its log_rep and "
                         "the batched monotonicity gaps against it",
}


def _library_references():
    """Names and attributes the sigeo modules refer to, outside ``np.`` and
    ``math.`` and outside the bodies of the ``TEST_ONLY`` functions."""
    names = set()

    def visit(node, qualname):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}"
            if qualname in TEST_ONLY:
                return
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in ("np", "math")):
                names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, qualname)

    for path in pathlib.Path(sigeo.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return names


def test_every_public_function_has_a_library_caller():
    referenced = _library_references()
    unreached = {
        qualname for qualname, _ in _public_callables()
        if qualname.rsplit(".", 1)[1] not in referenced
    }
    assert unreached == set(TEST_ONLY)
