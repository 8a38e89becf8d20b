import sys

import numpy as np
import pytest

import tracing
from sigeo import distance, fisher, models


def sigeo_bindings():
    """(module, attribute, value) for every attribute of every sigeo module."""
    for key, mod in list(sys.modules.items()):
        if key == "sigeo" or key.startswith("sigeo."):
            for attr, value in vars(mod).items():
                yield key, attr, value
    for attr, value in vars(models.ParamModel).items():
        yield "sigeo.models.ParamModel", attr, value


def test_patch_leaves_no_original_and_restore_leaves_no_wrapper():
    originals = tracing.originals()
    assert len(originals) == len(tracing.ENTRY_POINTS) + len(tracing.METHODS)
    ids = {id(obj): name for name, obj in originals}
    bound_before = {(m, a) for m, a, v in sigeo_bindings() if id(v) in ids}
    # directional_form is imported by name into four modules.
    assert {m for m, a in bound_before if a == "directional_form"} >= {
        "sigeo.fisher", "sigeo.distance", "sigeo.hausdorff", "sigeo.markov",
    }

    with tracing.patched(tracing.Tracer()):
        leaked = [(m, a) for m, a, v in sigeo_bindings() if id(v) in ids]
        assert leaked == []
        wrapped = {(m, a) for m, a, v in sigeo_bindings() if hasattr(v, tracing.WRAPPER_MARK)}
        assert wrapped == bound_before

    left = [(m, a) for m, a, v in sigeo_bindings() if hasattr(v, tracing.WRAPPER_MARK)]
    assert left == []
    assert {(m, a) for m, a, v in sigeo_bindings() if id(v) in ids} == bound_before


def test_restores_after_an_exception():
    with pytest.raises(ZeroDivisionError):
        with tracing.patched(tracing.Tracer()):
            1 / 0
    assert not any(hasattr(v, tracing.WRAPPER_MARK) for _, _, v in sigeo_bindings())


def test_spans_nest_and_count():
    model = models.bernoulli_family()
    tracer = tracing.Tracer()
    tracer.request = "r1"
    with tracing.patched(tracer):
        res = distance.fisher_distance(model, [0.2], [0.7])
    c = tracer.counts
    assert c["distance.fisher_distance.calls"] == 1
    assert c["distance.iterations"] == res.iterations
    assert c["fisher.directional_form.calls"] == c["distance.form_calls"] > 0
    # every directional_form call evaluates density and Jacobian once
    assert c["models.density_calls"] >= c["fisher.directional_form.calls"]
    assert c["models.node_evals"] == c["models.rows"] * model.space.size
    names = [s[0] for s in tracer.spans]
    root = names.index("distance.fisher_distance")
    assert tracer.spans[root][3] == -1
    assert all(s[3] >= root for s in tracer.spans[root + 1:])
    assert {s[4] for s in tracer.spans} == {"r1"}
    self_s = tracer.self_seconds()
    total = tracer.spans[root][2] - tracer.spans[root][1]
    assert sum(self_s.values()) == pytest.approx(total, rel=1e-9)
    assert min(self_s.values()) >= 0.0


def test_counts_rows_of_list_and_array_inputs():
    model = models.categorical_family(3)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        model.density([0.2, 0.3])
        fisher.directional_form(model, np.full((5, 2), 0.2), np.ones((5, 2)))
    assert tracer.counts["fisher.directional_form.rows"] == 5
    assert tracer.counts["models.rows"] == 1 + 5 + 5
