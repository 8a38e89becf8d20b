import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sigeo import acceptance, distance, fisher
from sigeo.distance import (
    _arc_objective,
    _energy_path,
    _segment_lengths,
    _straight_path,
    curve_length,
    fisher_distance,
    metric_axiom_check,
)
from sigeo.errors import UsageError
from sigeo.measures import QUAD_TOL
from sigeo.models import (
    EPS_BOUNDARY,
    CurveInModel,
    bernoulli_family,
    ParamModel,
    categorical_family,
    gaussian_mixture,
    get_model,
)

BERN = bernoulli_family()
CAT3 = categorical_family(3)

ARC = 2 * (math.asin(math.sqrt(0.75)) - math.asin(math.sqrt(0.25)))  # = pi/3


def sphere_distance(th1, th2):
    p = np.array([th1[0], th1[1], 1 - th1[0] - th1[1]])
    q = np.array([th2[0], th2[1], 1 - th2[0] - th2[1]])
    return 2 * math.acos(min(1.0, float(np.sum(np.sqrt(p * q)))))


# -- curve_length ----------------------------------------------------------------

def test_constant_curve_has_zero_length():
    assert curve_length(BERN, CurveInModel(BERN, [[0.4], [0.4]])) == pytest.approx(0.0, abs=1e-12)


def test_bernoulli_straight_line_length():
    # integral dp / sqrt(p(1-p)) from 1/4 to 3/4 = 2(arcsin sqrt(3/4) - arcsin sqrt(1/4))
    curve = CurveInModel(BERN, [[0.25], [0.75]])
    assert curve_length(BERN, curve) == pytest.approx(ARC, abs=1e-9)


def test_curve_length_reversal_invariance():
    curve = CurveInModel(CAT3, [[0.2, 0.3], [0.4, 0.15], [0.5, 0.3]])
    fwd = curve_length(CAT3, curve)
    bwd = curve_length(CAT3, CurveInModel(CAT3, curve.nodes[::-1]))
    assert abs(fwd - bwd) < 1e-10


def test_curve_length_invariant_under_node_respacing():
    # same polyline traced with unevenly spaced nodes
    a, b = np.array([0.2]), np.array([0.7])
    even = CurveInModel(BERN, np.linspace(a, b, 9))
    ts = np.array([0.0, 0.05, 0.15, 0.35, 0.5, 0.62, 0.78, 0.9, 1.0])[:, None]
    uneven = CurveInModel(BERN, a + (b - a) * ts)
    assert curve_length(BERN, even) == pytest.approx(curve_length(BERN, uneven), abs=1e-6)


def test_curve_length_checks_segments_across_the_degenerate_line():
    # The one segment crosses the mixture's b = 0, where the speed has a
    # kink; the fixed 8-point rule read 1.5226355 (6.9e-5 high). Reference:
    # the 8-point rule summed over 1024 equal sub-segments.
    mix = get_model("mixture")
    curve = CurveInModel(mix, [[0.8, -2.0], [0.1, 0.5]])
    assert curve_length(mix, curve) == pytest.approx(1.5225306796831728, rel=1e-8)


# -- fisher_distance ---------------------------------------------------------------

def test_distance_same_point_is_zero():
    res = fisher_distance(BERN, [0.37], [0.37])
    assert res.length == 0.0
    assert res.lower_bound_tv == 0.0
    assert res.converged


def test_distance_1d_equals_straight_line():
    res = fisher_distance(BERN, [0.25], [0.75])
    assert res.length == pytest.approx(ARC, abs=1e-6)
    assert res.lower_bound_tv == pytest.approx(1.0, abs=1e-12)


def test_distance_1d_bernoulli_is_the_arcsine_distance():
    # 1-parameter paths skip the optimizer: the evenly spaced straight segment
    res = fisher_distance(BERN, [0.9], [0.12])
    arc = 2 * (math.asin(math.sqrt(0.9)) - math.asin(math.sqrt(0.12)))
    assert res.length == pytest.approx(arc, rel=1e-6)
    assert res.iterations == 0 and res.converged
    np.testing.assert_array_equal(res.nodes, np.linspace([0.9], [0.12], 10))


def test_distance_1d_gauss_location_is_the_parameter_gap():
    res = fisher_distance(get_model("gauss-location"), [-1.3], [0.9])
    assert res.length == pytest.approx(2.2, rel=1e-9)
    assert res.iterations == 0 and res.converged


def test_distance_1d_across_the_friedrich_speed_jump():
    # the metric speed jumps at t = 0; the straight path still has a finite
    # length that dominates the TV lower bound
    res = fisher_distance(get_model("friedrich"), [-0.4], [0.5])
    assert math.isfinite(res.length)
    assert res.length >= res.lower_bound_tv
    assert res.iterations == 0 and res.converged


def test_distance_categorical_matches_sphere_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        th1 = np.clip(rng.dirichlet([2, 2, 2])[:2], 0.05, 0.9)
        th2 = np.clip(rng.dirichlet([2, 2, 2])[:2], 0.05, 0.9)
        if th1.sum() > 0.93 or th2.sum() > 0.93:
            continue
        res = fisher_distance(CAT3, th1, th2)
        oracle = sphere_distance(th1, th2)
        assert res.length == pytest.approx(oracle, rel=0.01)
        assert res.length >= oracle - 1e-9  # upper estimate


def test_distance_refinement_does_not_increase_length():
    th1, th2 = np.array([0.15, 0.2]), np.array([0.55, 0.3])
    coarse = fisher_distance(CAT3, th1, th2, interior_nodes=4)
    fine = fisher_distance(CAT3, th1, th2, interior_nodes=8)
    assert fine.length <= coarse.length + 1e-4 * coarse.length


# Results recorded when the arc solver's first iteration took over the
# acceptance of the energy path: each pair keeps its energy path. Any
# speedup of the optimizer must reach the same results: equal iteration
# counts and convergence, lengths to rounding. Re-pinned when the energy
# phase began at the graph start and mixture moved to 26 panels: each
# length moved by at most 5e-11 relative (1.0858011742454372,
# 0.2536927975104585 and 0.3199876965555892 before).
GOLDEN_PATHS = [
    ("categorical:3", [0.320054408997409, 0.5680633552141084],
     [0.7278255530465946, 0.09557675416392925], 1, 1.0858011742048816),
    ("gauss-loc-scale", [1.101536511956994, 1.4022236167928308],
     [0.8629361302183645, 1.2364608149753948], 1, 0.2536927975130376),
    ("mixture", [0.3955540028033345, -2.0253777850274055],
     [0.5201560316069069, -2.35002094715215], 1, 0.319987696571503),
]


@pytest.mark.parametrize(
    "model_id, th1, th2, iterations, length", GOLDEN_PATHS, ids=[g[0] for g in GOLDEN_PATHS]
)
def test_distance_trajectory_is_pinned(model_id, th1, th2, iterations, length):
    res = fisher_distance(get_model(model_id), th1, th2)
    assert res.iterations == iterations
    assert res.converged and res.warm_start
    assert res.length == pytest.approx(length, rel=1e-12, abs=0.0)


def loc_scale_distance(th1, th2):
    """sqrt(2) times the hyperbolic distance between (mu/sqrt(2), sigma) points."""
    (m1, s1), (m2, s2) = th1, th2
    chord2 = (m1 - m2) ** 2 / 2 + (s1 - s2) ** 2
    return math.sqrt(2) * math.acosh(1 + chord2 / (2 * s1 * s2))


def test_pinned_paths_match_their_closed_forms():
    (_, c1, c2, _, _), (_, l1, l2, _, _), _ = GOLDEN_PATHS
    cat = fisher_distance(CAT3, c1, c2)
    oracle = sphere_distance(c1, c2)
    assert cat.length >= oracle - QUAD_TOL
    assert cat.length == pytest.approx(oracle, rel=2e-4)
    assert cat.lower_bound_angle == pytest.approx(oracle, abs=1e-12)
    loc = fisher_distance(get_model("gauss-loc-scale"), l1, l2)
    oracle = loc_scale_distance(l1, l2)
    assert loc.length >= oracle - QUAD_TOL
    assert loc.length == pytest.approx(oracle, rel=2e-4)


# A mixture pair whose energy path the arc solver's first iteration rejects.
FALLBACK_PAIR = ([0.37871316923558307, -2.98634693799304], [0.2553746123112095, -1.4237405052020229])


def test_rejected_warm_start_falls_back_to_the_arc_solver():
    # The first iteration from this pair's energy path still shortens it by
    # more than the stop rule allows, so the arc solver runs on and the pin
    # is the solver's own result. Re-pinned with the graph start and the
    # 26-panel mixture grid (0.7650323159154074 before, also 51 iterations).
    res = fisher_distance(get_model("mixture"), *FALLBACK_PAIR)
    assert not res.warm_start
    assert res.iterations == 51 and res.converged
    assert res.length == pytest.approx(0.7650323391764561, rel=1e-12, abs=0.0)


def _phase_trace(monkeypatch):
    """Per arc-solver iteration, whether its L-BFGS direction was
    preconditioned (True) or plain (False)."""
    direction = distance._lbfgs_direction
    phases = []
    monkeypatch.setattr(
        distance, "_lbfgs_direction", lambda g, pairs, inverse: phases.append(inverse is not None) or direction(g, pairs, inverse)
    )
    return phases


@pytest.mark.parametrize("preconditioner", ["gauss-newton", "one-coordinate"])
def test_preconditioned_stall_hands_over_to_the_plain_phase(monkeypatch, preconditioner):
    # The first iteration is plain; then the preconditioned phase runs until
    # it stalls, and only the plain phase, with a stall window of its own,
    # may end the solve as converged. A preconditioner that moves almost
    # only the first coordinate stalls early, and the plain phase must still
    # reach the unpatched solve's length.
    mix = get_model("mixture")
    reference = fisher_distance(mix, *FALLBACK_PAIR)
    if preconditioner == "one-coordinate":
        monkeypatch.setattr(distance, "_preconditioner", lambda m, nodes: np.diag([1.0] + [1e-12] * 15))
    phases = _phase_trace(monkeypatch)
    res = fisher_distance(mix, *FALLBACK_PAIR)
    assert res.converged and not res.warm_start and len(phases) == res.iterations
    first_plain = phases.index(False, 1)
    assert phases[0] is False and all(phases[1:first_plain])
    assert not any(phases[first_plain:])
    assert res.iterations - first_plain >= distance.STALL_ITERATIONS
    assert res.length == pytest.approx(reference.length, rel=1e-4)


def _two_loop_reference(g, pairs, inverse):
    """The L-BFGS two-loop recursion over a list of (s, y, rho), oldest
    first, in Python, as the solver ran it before its pairs were stacked."""
    q = g.ravel().copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    s, y, rho = pairs[-1]
    if inverse is None:
        q *= 1.0 / (rho * float(y @ y))
    else:
        q = (1.0 / (rho * float(y @ (inverse @ y)))) * (inverse @ q)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return q.reshape(g.shape)


def test_stacked_lbfgs_direction_is_the_two_loop_recursion():
    # up to twice the memory, so the oldest pairs are dropped, and clears
    rng = np.random.default_rng(11)
    metric = rng.normal(size=(16, 16))
    metric = metric @ metric.T + np.eye(16)
    listed, stacked = [], distance._CurvaturePairs(16)
    for step in range(2 * distance.LBFGS_MEMORY + 5):
        if step == 7:
            listed.clear()
            stacked.clear()
        s = rng.normal(size=16)
        y = s + 0.3 * rng.normal(size=16)
        listed = (listed + [(s, y, 1.0 / float(s @ y))])[-distance.LBFGS_MEMORY:]
        stacked.append(s, y, 1.0 / float(s @ y))
        assert len(stacked) == len(listed)
        g = rng.normal(size=(8, 2))
        for inverse in (None, metric):
            got = distance._lbfgs_direction(g, stacked, inverse)
            np.testing.assert_allclose(got, _two_loop_reference(g, listed, inverse), rtol=0, atol=1e-12 * np.max(np.abs(got)))
    stacked.clear()
    g = rng.normal(size=(8, 2))
    np.testing.assert_array_equal(distance._lbfgs_direction(g, stacked, metric), g)


def _arc_objective_reference(model, nodes):
    """The arc objective as one fresh array per step, the formula before
    its work arrays were reused, in jets of 13 rows."""
    rows = distance._arc_rows(nodes)
    R = 13
    blocks = [slice(i, i + R) for i in range(0, rows.shape[0], R)]
    jets = [model.jet(rows[b]) for b in blocks]
    sw = np.sqrt(model.space.weights)
    u = np.empty((rows.shape[0], sw.size))
    scales = []
    for b, (P, _) in zip(blocks, jets):
        root = np.sqrt(np.maximum(P, 0.0))
        psi = root * sw
        norm = np.sqrt(np.einsum("rx,rx->r", psi, psi))[:, None]
        np.divide(psi, norm, out=u[b])
        scales.append(sw / (2.0 * norm * np.maximum(root, np.sqrt(distance.DOMINANCE_TOL))))
    chords = u[:-1] - u[1:]
    r = np.sqrt(np.einsum("rx,rx->r", chords, chords) + distance.CHORD_SMOOTHING)
    h = np.minimum(0.5 * r, 1.0)
    length = 4.0 * float(np.sum(np.arcsin(h)))
    chords *= (2.0 / (r * np.sqrt(np.maximum(1.0 - h * h, 1e-300))))[:, None]
    du = np.zeros_like(u)
    du[:-1] = chords
    du[1:] -= chords
    drows = []
    for b, (_, J), scale in zip(blocks, jets, scales):
        tangent = du[b] - np.einsum("rx,rx->r", du[b], u[b])[:, None] * u[b]
        drows.append(np.einsum("rnx,rx->rn", J, tangent * scale))
    drows = np.concatenate(drows)
    K, n = nodes.shape[0] - 2, nodes.shape[1]
    t = np.arange(distance.ARC_SAMPLES) / distance.ARC_SAMPLES
    per_segment = drows[:-1].reshape(K + 1, distance.ARC_SAMPLES, n)
    grad = np.einsum("j,sjn->sn", 1.0 - t, per_segment[1:]) + np.einsum("j,sjn->sn", t, per_segment[:-1])
    return length, grad


ARC_ENDS = [
    ("mixture", ([0.3, -1.5], [0.7, 2.0])),
    ("gauss-loc-scale", ([-1.0, 0.7], [1.2, 1.6])),
    ("categorical:3", ([0.2, 0.3], [0.6, 0.1])),
]


@pytest.mark.parametrize("model_id, ends", ARC_ENDS)
def test_arc_objective_is_bitwise_the_same_for_every_jet_block(model_id, ends, monkeypatch):
    # 8 interior nodes make 37 sample rows, one jet of each of these models by default
    model = get_model(model_id)
    nodes = np.linspace(*ends, 8 + 2)
    nodes[1:-1, 0] += 0.01 * np.sin(np.arange(1, 9))
    assert distance._arc_buffers(model, nodes)["block"].shape[0] == 37
    results = []
    for rows in (1, 13, 37):
        monkeypatch.setattr(fisher, "JET_ENTRY_BUDGET", rows * model.space.size)
        buffers = distance._arc_buffers(model, nodes)
        assert buffers["block"].shape[0] == rows
        results.append(_arc_objective(model, nodes, buffers))
    for length, grad in results[1:]:
        assert length == results[0][0]
        np.testing.assert_array_equal(grad, results[0][1])


@pytest.mark.parametrize("model_id, ends", ARC_ENDS)
def test_arc_objective_with_reused_buffers_is_the_reference_bitwise(model_id, ends):
    model = get_model(model_id)
    first = np.linspace(*ends, 8 + 2)
    second = first.copy()
    second[1:-1, 0] += 0.01 * np.sin(np.arange(1, 9))
    buffers = distance._arc_buffers(model, first)
    for nodes in (first, second, first):
        length, grad = _arc_objective(model, nodes, buffers)
        ref_length, ref_grad = _arc_objective_reference(model, nodes)
        assert length == ref_length
        np.testing.assert_array_equal(grad, ref_grad)
        assert not any(np.shares_memory(grad, buf) for buf in buffers.values())
    kept = grad.copy()
    _arc_objective(model, second, buffers)
    np.testing.assert_array_equal(grad, kept)


def test_energy_path_gaining_little_in_one_sweep_still_goes_to_the_arc_solver():
    # Mixture pair 22 of tv-lower-bound: one coordinate-descent sweep gains
    # only 7.1e-7 relative on its energy path (0.26718056830676085), yet a
    # far shorter path exists; the arc solver's first step gains more than
    # the tolerance, so the solver must run on.
    res = fisher_distance(
        get_model("mixture"),
        [0.7574540708494671, 0.0380529084349317],
        [0.5693686586280279, -0.41897873650727036],
    )
    assert not res.warm_start and res.converged
    assert res.length <= 0.26718056830676085 * (1.0 - 2e-3)


NEAR_FACE_PAIR = ([0.4999995, 0.4999995], [0.49964265, 0.49964265])


@pytest.mark.parametrize(
    "model_id, th1, th2",
    [g[:3] for g in GOLDEN_PATHS] + [("categorical:3", *NEAR_FACE_PAIR)],
    ids=[g[0] for g in GOLDEN_PATHS] + ["near-face"],
)
def test_accepted_warm_start_is_the_energy_or_the_straight_path(monkeypatch, model_id, th1, th2):
    # Accepting costs the objective at the energy path, one curvature probe
    # and one trial step; the energy path from the graph start then stands
    # unmodified, unless the straight path is shorter (near-face).
    objective = distance._arc_objective
    calls = []
    monkeypatch.setattr(distance, "_arc_objective", lambda *args: calls.append(1) or objective(*args))
    model = get_model(model_id)
    res = fisher_distance(model, th1, th2)
    assert res.warm_start and res.iterations == 1 and res.converged
    assert len(calls) <= 3
    straight = np.linspace(th1, th2, 8 + 2)
    start, graph_length = distance._graph_start(model, np.array(th1), np.array(th2), 8 + 2)
    assert graph_length == res.graph_length
    assert any(np.array_equal(res.nodes, path) for path in (_energy_path(model, start), straight))


def test_capped_arc_solver_reports_no_convergence(monkeypatch):
    mix = get_model("mixture")
    monkeypatch.setattr(distance, "MAX_ITER", 5)
    res = fisher_distance(mix, *FALLBACK_PAIR)
    assert not res.warm_start
    assert res.iterations == 5 and not res.converged
    straight = CurveInModel(mix, np.linspace(*FALLBACK_PAIR, 8 + 2))
    assert res.length <= curve_length(mix, straight)


def test_fallback_never_imports_scipy_optimize():
    # The preconditioner is inverted and the graph start's shortest paths
    # are solved with numpy alone: importing scipy.linalg costs several MB
    # of resident memory in every process that solves, and scipy.sparse
    # about 10 MB more.
    code = (
        "import sys; from sigeo.distance import fisher_distance; from sigeo.models import get_model; "
        f"res = fisher_distance(get_model('mixture'), *{FALLBACK_PAIR!r}); "
        "assert not res.warm_start and res.graph_length is not None; "
        "print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules, 'scipy.sparse' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False False"


@pytest.mark.parametrize("model_id, ends", [
    ("mixture", ([0.3, -1.5], [0.7, 2.0])),  # crosses the degenerate line b = 0
    ("gauss-loc-scale", ([-1.0, 0.7], [1.2, 1.6])),
])
def test_arc_gradient_matches_central_differences(model_id, ends):
    model = get_model(model_id)
    nodes = np.linspace(*ends, 8 + 2)
    nodes[1:-1, 0] += 0.05 * np.sin(np.arange(1, 9))
    _, grad = _arc_objective(model, nodes)
    h = 1e-6
    numeric = np.zeros_like(grad)
    for k, d in np.ndindex(grad.shape):
        up, down = nodes.copy(), nodes.copy()
        up[k + 1, d] += h
        down[k + 1, d] -= h
        numeric[k, d] = (_arc_objective(model, up)[0] - _arc_objective(model, down)[0]) / (2 * h)
    assert np.linalg.norm(grad - numeric) <= 1e-6 * np.linalg.norm(grad)


def test_fallback_is_never_longer_than_the_straight_path():
    # Near the simplex face a fixed quadrature rule understates segments, so
    # an optimizer can move nodes toward that error and lengthen the true
    # path; the shortest checked candidate is returned instead. This pair's
    # energy path stands, but is 4.6e-10 longer than the straight path.
    th1, th2 = NEAR_FACE_PAIR
    res = fisher_distance(CAT3, th1, th2)
    assert res.length <= curve_length(CAT3, CurveInModel(CAT3, np.linspace(th1, th2, 8 + 2)))
    assert res.length >= sphere_distance(th1, th2) - QUAD_TOL


def test_segment_lengths_do_not_depend_on_the_stack():
    rng = np.random.default_rng(5)
    mix = get_model("mixture")
    nodes = np.column_stack([rng.uniform(0.05, 0.95, 50), rng.uniform(-3.0, 3.0, 50)])  # 49 segments
    for quad_points in (4, 8):
        full = _segment_lengths(mix, nodes, quad_points)
        single = [_segment_lengths(mix, nodes[i:i + 2], quad_points)[0] for i in range(49)]
        np.testing.assert_array_equal(full, single)


def test_curve_length_across_b_zero_is_pinned():
    # Each segment crosses the mixture's b = 0, so the halving check halves
    # two levels deep; the checked length is pinned bitwise.
    mix = get_model("mixture")
    nodes = np.array([[0.5, -0.37], [0.6, 0.81], [0.2, -0.55], [0.8, 1.3]])
    calls = []

    def counting(model, stack, quad_points):
        calls.append(stack.shape)
        return _segment_lengths(model, stack, quad_points)

    length = 2.395465234869941  # 2.395465234869829 on the 112-panel grid
    assert _segment_lengths(mix, nodes, 8).sum() != length
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "_segment_lengths", counting)
        assert curve_length(mix, CurveInModel(mix, nodes)) == length
    # the rule and its halves in one stack, then two calls per deeper level
    assert calls == [(9, 2, 2), (4, 2, 2), (4, 2, 2), (2, 2, 2), (2, 2, 2)]


@st.composite
def _near_face_point(draw):
    """A categorical:3 parameter within 1e-3 of the face sum(theta) = 1 - eps."""
    total = 1.0 - EPS_BOUNDARY - draw(st.floats(0.0, 1e-3))
    share = draw(st.floats(0.05, 0.95))
    return np.array([total * share, total * (1.0 - share)])


@settings(max_examples=20, deadline=None)
@given(_near_face_point(), _near_face_point())
# The fixed 8-point rule put this pair's path below the great circle.
@example(np.array([0.4999995, 0.4999995]), np.array([0.49964265, 0.49964265]))
# Both endpoints on the face: np.linspace rounds nodes 3 and 4 of the
# straight path to a sum of 0.9999990000000001, outside the domain.
@example(np.array([0.9206914365519517, 0.07930756344804826]), np.array([0.9243527293368478, 0.0756462706631522]))
def test_paths_near_the_simplex_face_stay_in_the_domain(th1, th2):
    assume(CAT3.domain.contains(th1) and CAT3.domain.contains(th2))
    assume(not np.array_equal(th1, th2))
    straight = _straight_path(CAT3, th1, th2, 8 + 2)  # fisher_distance's default nodes
    energy = _energy_path(CAT3, straight)
    res = fisher_distance(CAT3, th1, th2)
    for theta in np.vstack([straight, energy, res.nodes]):
        assert CAT3.domain.contains(theta)
    assert res.length >= sphere_distance(th1, th2) - QUAD_TOL
    assert res.length >= res.lower_bound_angle - QUAD_TOL


def test_distance_flags_degenerate_segments():
    # single segment whose midpoint sits exactly on the rank-drop line b=0
    mix = gaussian_mixture()
    res = fisher_distance(mix, [0.3, -0.1], [0.3, 0.1], interior_nodes=0)
    assert res.degenerate_segments == (0,)


@pytest.mark.parametrize("nodes", [-1, 1.5, True, "8"])
def test_interior_nodes_must_be_a_count(nodes):
    with pytest.raises(UsageError, match=r"interior_nodes needs an integer >= 0"):
        fisher_distance(CAT3, [0.2, 0.3], [0.5, 0.1], interior_nodes=nodes)


def test_no_interior_nodes_is_the_straight_segment():
    mix = gaussian_mixture()
    a, b = np.array([0.3, -1.0]), np.array([0.6, 1.2])
    res = fisher_distance(mix, a, b, interior_nodes=0)
    np.testing.assert_array_equal(res.nodes, [a, b])
    assert (res.iterations, res.converged) == (0, True)
    assert res.length == curve_length(mix, CurveInModel(mix, np.array([a, b])))
    assert fisher_distance(mix, a, b, interior_nodes=np.int64(0)).length == res.length


# -- the graph start -----------------------------------------------------------------

def _counted_builds(monkeypatch):
    """The models whose shortest-path graph is built from now on."""
    build = distance._build_path_graph
    built = []
    monkeypatch.setattr(distance, "_build_path_graph", lambda model: built.append(model) or build(model))
    return built


def test_path_graph_is_built_once_per_model(monkeypatch):
    built = _counted_builds(monkeypatch)
    first, second = categorical_family(3), categorical_family(3)
    for model in (first, first, second):
        res = fisher_distance(model, [0.2, 0.3], [0.6, 0.1])
        assert res.graph_length is not None
    assert len(built) == 2 and built[0] is first and built[1] is second
    fisher_distance(first, [0.1, 0.1], [0.3, 0.6])
    assert len(built) == 2


def test_path_graph_is_never_built_for_one_or_three_parameters(monkeypatch):
    built = _counted_builds(monkeypatch)
    for model, a, b in ((bernoulli_family(), [0.2], [0.7]), (categorical_family(4), [0.2, 0.3, 0.1], [0.1, 0.2, 0.5])):
        res = fisher_distance(model, a, b)
        assert res.graph_length is None
        assert "_path_graph" not in vars(model)
    assert fisher_distance(CAT3, [0.2, 0.3], [0.6, 0.1], interior_nodes=0).graph_length is None
    assert built == []


def test_zero_length_graph_path_starts_straight():
    # a = 0 is one distribution for every b: the graph's path along that
    # face has length 0, so there is nothing to space nodes by
    res = fisher_distance(get_model("mixture"), [0.0, -1.3], [0.0, 1.1])
    assert res.graph_length is None
    assert res.length == 0.0 and res.converged


def test_path_graph_lattice_and_edges():
    # 11 x 25 nodes on a box, walls included, all linked; categorical's
    # simplex keeps the nodes with sum <= 1 - eps
    mix = gaussian_mixture(panels=8)
    graph = mix._path_graph
    assert graph.nodes.shape == (275, 2) and graph.metrics.shape == (275, 2, 2)
    assert graph.next_hop.dtype == np.int16
    assert int(np.sum(np.isfinite(graph.lengths))) == 275 * 275
    assert np.all(graph.nodes[[0, -1]] == [[0.0, -6.0], [1.0, 6.0]])
    cat = categorical_family(3)._path_graph
    assert np.all(CAT3.domain.contains_rows(cat.nodes)) and 0 < cat.nodes.shape[0] < 275


def test_all_pairs_are_the_shortest_paths():
    # Floyd-Warshall against scipy's Dijkstra, and every next-hop path
    # adds up to its length
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    rng = np.random.default_rng(7)
    count = 40
    starts, ends = np.nonzero(np.triu(rng.random((count, count)) < 0.1, 1))  # each edge once
    weights = rng.random(starts.size)
    weights[:5] = 0.0  # the mixture's face a = 0 has edges of length 0
    lengths, next_hop = distance._all_pairs(count, starts, ends, weights)
    matrix = np.full((count, count), np.inf)
    matrix[starts, ends] = matrix[ends, starts] = weights
    # a sparse graph holds no explicit zeros, so zero edges go in as 1e-300
    reference = dijkstra(csr_matrix(np.where(np.isfinite(matrix), np.maximum(matrix, 1e-300), 0.0)), directed=False)
    np.testing.assert_allclose(lengths, reference, rtol=1e-14, atol=1e-15)
    graph = distance._PathGraph(np.zeros((count, 2)), np.zeros((count, 2, 2)), lengths, next_hop, np.ones(2))
    for i, j in zip(rng.integers(0, count, 60), rng.integers(0, count, 60)):
        hops = graph.path(i, j)
        if not np.isfinite(lengths[i, j]):
            assert hops == []
            continue
        assert hops[0] == i and hops[-1] == j
        assert sum(matrix[a, b] for a, b in zip(hops[:-1], hops[1:])) == pytest.approx(lengths[i, j], rel=1e-14, abs=1e-15)


def test_graph_start_is_a_lookup(monkeypatch):
    # once the graph exists, a pair's start evaluates no model: its end
    # segments use the Fisher matrices stored at their lattice nodes
    mix = get_model("mixture")
    mix._path_graph
    monkeypatch.setattr(ParamModel, "jet", lambda *args: pytest.fail("a jet ran"))
    a, b = np.array(FALLBACK_PAIR[0]), np.array(FALLBACK_PAIR[1])
    nodes, length = distance._graph_start(mix, a, b, 10)
    assert nodes.shape == (10, 2) and np.all(nodes[[0, -1]] == [a, b])
    assert np.all(mix.domain.contains_rows(nodes))
    assert length > 0.0


def _criterion_pairs(family):
    """The seed-0 pairs of the tv-lower-bound criterion for one family."""
    rng = np.random.default_rng(3)
    drawn = {name: [acceptance._random_pair(name, rng)[1:] for _ in range(25)] for name in acceptance._TV_MODELS}
    return drawn[family]


def test_mixture_lengths_are_stable_under_grid_refinement():
    # The Fisher matrices of 52 panels differ from the default's by up to
    # 7.8e-11 relative; the graph start keeps the solver in the same
    # minimum, so the lengths agree to 1e-5 (7.0e-6 measured). Started
    # from the straight path, 40 panels against 112 moved them by up to
    # 7.5e-4.
    default, fine = get_model("mixture"), get_model("mixture", panels=52)
    for a, b in _criterion_pairs("mixture"):
        coarse = fisher_distance(default, a, b)
        refined = fisher_distance(fine, a, b)
        assert coarse.converged and refined.converged
        assert refined.length == pytest.approx(coarse.length, rel=1e-5)


# -- tv bound -----------------------------------------------------------------------

def test_tv_bound_bernoulli():
    res = fisher_distance(BERN, [0.25], [0.75])
    assert res.lower_bound_tv == pytest.approx(1.0, abs=1e-12)
    assert res.length == pytest.approx(ARC, abs=1e-6)
    assert res.tv_holds


def test_tv_bound_same_point():
    res = fisher_distance(BERN, [0.4], [0.4])
    assert res.tv_holds
    assert res.lower_bound_tv == 0.0


def test_tv_bound_mixture_pair():
    mix = gaussian_mixture()
    res = fisher_distance(mix, [0.5, 1.0], [0.5, 2.0])
    assert res.tv_holds
    assert res.length > 0
    assert res.converged
    assert res.iterations > 0


# -- axiom checks ---------------------------------------------------------------------

def test_axioms_bernoulli_triple():
    report = metric_axiom_check(BERN, [[0.2], [0.5], [0.8]])
    assert report.all_pass
    # 1-d distances are additive along the line: the triangle is tight
    d12 = fisher_distance(BERN, [0.2], [0.5]).length
    d23 = fisher_distance(BERN, [0.5], [0.8]).length
    d13 = fisher_distance(BERN, [0.2], [0.8]).length
    assert d13 == pytest.approx(d12 + d23, abs=1e-8)


def test_axioms_with_duplicate_points():
    report = metric_axiom_check(BERN, [[0.3], [0.3], [0.6]])
    assert report.max_identity == 0.0
    assert report.all_pass


def test_axioms_triangle_excess_is_the_triple_loop(monkeypatch):
    # Distances read from a table by point index, against the loop over distinct triples
    rng = np.random.default_rng(4)
    for M in (3, 4, 7):
        for table in (rng.random((M, M)), np.abs(np.subtract.outer(np.arange(M), np.arange(M))) * 0.1):
            np.fill_diagonal(table, 0.0)
            monkeypatch.setattr(
                distance, "fisher_distance",
                lambda model, a, b, t=table: SimpleNamespace(length=t[int(a[0]), int(b[0])]),
            )
            loop = 0.0
            for i in range(M):
                for j in range(M):
                    for k in range(M):
                        if len({i, j, k}) == 3:
                            loop = max(loop, table[i, k] - table[i, j] - table[j, k])
            assert metric_axiom_check(BERN, np.arange(M, dtype=float)[:, None]).max_triangle_violation == loop


def test_axioms_categorical_triple():
    report = metric_axiom_check(CAT3, [[0.2, 0.3], [0.4, 0.2], [0.25, 0.5]])
    assert report.all_pass
    assert report.max_asymmetry <= report.axiom_tol
