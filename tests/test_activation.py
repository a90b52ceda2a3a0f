"""Meta-activations: max-over-time pooling, tables, GELU, the gate."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from cotn import activation
from cotn.activation import (
    _bracket,
    GatedLeeActivation,
    GeluActivation,
    MetaActivationTable,
    build_table,
    fixed_step_activation,
    gated_activation,
    gelu,
    gelu_grad,
    gelu_value_and_slope,
    mot_activation_exact,
    table_eval,
    table_for_type,
    table_grad,
    write_table,
)
from cotn.model import ActivationMode
from cotn.oscillator import builtin_params, builtin_type_ids, simulate

from helpers import (
    IdentityActivation,
    TanhActivation,
    gated_grad,
    node_spacing,
    read_table_file,
    reference_table_lookup,
    table_segment,
)


@functools.lru_cache(maxsize=None)
def small_table(type_id=4, lo=-2.0, hi=2.0, n=201):
    """A builtin type tabulated on a small grid, built once per grid."""
    return build_table(builtin_params(type_id), lo, hi, n, type_id=type_id)


class TestMaxOverTime:
    def test_type4_oracle(self):
        got = mot_activation_exact(0.5, builtin_params(4))
        assert got == pytest.approx(0.4629034384647431, abs=0)

    def test_equals_trajectory_max(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = int(rng.integers(1, 9))
            x = float(rng.uniform(-3, 3))
            p = builtin_params(t)
            assert mot_activation_exact(x, p) == simulate(x, p, 100).max()

    def test_zero_input_gives_zero(self):
        for t in builtin_type_ids():
            assert mot_activation_exact(0.0, builtin_params(t)) == 0.0

    def test_dominates_every_fixed_step(self):
        rng = np.random.default_rng(13)
        for t in (1, 6):
            p = builtin_params(t)
            for _ in range(5):
                x = float(rng.uniform(-2, 2))
                m = mot_activation_exact(x, p)
                steps = [fixed_step_activation(x, p, s) for s in range(1, 101)]
                assert all(m >= v for v in steps)
                assert m == max(steps)

    def test_fixed_step_bounds(self):
        p = builtin_params(1)
        with pytest.raises(ValueError):
            fixed_step_activation(0.1, p, 0)
        with pytest.raises(ValueError):
            fixed_step_activation(0.1, p, 101)

    def test_fixed_step_matches_trajectory_entry(self):
        p = builtin_params(2)
        traj = simulate(0.7, p, 100)
        for t in (1, 15, 35, 100):
            assert fixed_step_activation(0.7, p, t) == traj[t - 1]


class TestTableBuild:
    def test_nodes_reproduce_exact_activation(self):
        tab = small_table()
        p = builtin_params(4)
        for idx in (0, 1, 57, 100, 200):
            x = float(tab.nodes[idx])
            assert tab.values[idx] == mot_activation_exact(x, p)

    @pytest.mark.parametrize("type_id", range(1, 9))
    def test_every_node_equals_the_scalar_reference(self, type_id):
        p = builtin_params(type_id)
        tab = build_table(p, type_id=type_id)
        want = np.array([mot_activation_exact(float(x), p) for x in tab.nodes])
        assert np.array_equal(tab.values.view(np.int64), want.view(np.int64))

    def test_default_grid(self):
        tab = table_for_type(3)
        assert tab.x_min == -4.0 and tab.x_max == 4.0
        assert tab.n_nodes == 4001
        assert node_spacing(tab) == pytest.approx(0.002, rel=1e-12)

    def test_cache_returns_same_object(self):
        assert table_for_type(4) is table_for_type(4)

    def test_validation(self):
        p = builtin_params(1)
        with pytest.raises(ValueError):
            build_table(p, 1.0, -1.0, 11)
        with pytest.raises(ValueError):
            build_table(p, -1.0, 1.0, 1)
        # Finite bounds whose linspace overflows are refused unsimulated.
        with pytest.raises(ValueError, match="finite x_max - x_min"):
            build_table(p, -1e308, 1e308, 5)

    def test_endpoints_are_the_first_and_last_node(self):
        tab = MetaActivationTable(0, -1.5, 2.5, np.zeros(9))
        assert (tab.x_min, tab.x_max) == (-1.5, 2.5)
        assert (tab.nodes[0], tab.nodes[-1]) == (-1.5, 2.5)
        assert type(tab.x_min) is float and type(tab.x_max) is float

    def test_nodes_are_the_linspace_of_the_bounds(self):
        # The grid is derived, so no table holds another: build_table's
        # table has the nodes it simulated.
        tab = small_table()
        assert tab.nodes.tobytes() == np.linspace(-2.0, 2.0, 201).tobytes()
        assert tab.n_nodes == tab.values.size == 201

    @pytest.mark.parametrize("x_min,x_max,n,message", [
        (math.nan, 1.0, 3, "x_min: expected a finite number, got nan"),
        (-math.inf, 1.0, 3, "x_min: expected a finite number, got -inf"),
        (0.0, math.inf, 3, "x_max: expected a number > x_min (0.0) with a finite "
                           "x_max - x_min, got inf"),
        (0.0, math.nan, 3, "x_max: expected a number > x_min (0.0) with a finite "
                           "x_max - x_min, got nan"),
        (1.0, 1.0, 3, "x_max: expected a number > x_min (1.0) with a finite "
                      "x_max - x_min, got 1.0"),
        (1.0, -1.0, 3, "x_max: expected a number > x_min (1.0) with a finite "
                       "x_max - x_min, got -1.0"),
        (-1e308, 1e308, 3, "x_max: expected a number > x_min (-1e+308) with a "
                           "finite x_max - x_min, got 1e+308"),
        (0.0, 1.0, 1, "values: expected a 1-d array of >= 2 entries, got shape (1,)"),
    ])
    def test_bounds_and_size_are_checked(self, x_min, x_max, n, message):
        with pytest.raises(ValueError) as err:
            MetaActivationTable(0, x_min, x_max, np.zeros(n))
        assert str(err.value) == message

    def test_values_must_be_finite_1d(self):
        with pytest.raises(ValueError) as err:
            MetaActivationTable(0, 0.0, 1.0, np.array([0.0, math.inf, math.nan]))
        assert str(err.value) == "values: expected finite numbers, got inf"
        with pytest.raises(ValueError, match=r"got shape \(\)"):
            MetaActivationTable(0, 0.0, 1.0, np.array(0.5))

    def test_equal_tables_compare_by_identity(self):
        # Comparing two tables' arrays elementwise would raise; tables are
        # distinct objects, hashable by identity.
        a = MetaActivationTable(0, -1.0, 1.0, np.arange(5.0))
        b = MetaActivationTable(0, -1.0, 1.0, np.arange(5.0))
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_grid_too_fine_for_the_bracket_rejected(self):
        # A strictly ascending linspace grid whose spacing is subnormal:
        # its inverse overflows, so the scaled guess is useless.
        x_min, x_max = 9.046800706458055e-301, 9.046800706458122e-301
        nodes = np.linspace(x_min, x_max, 38)
        assert np.all(np.diff(nodes) > 0) and nodes[-1] == x_max
        with pytest.raises(ValueError,
                           match="^x_max: expected a node spacing that float64 resolves"):
            MetaActivationTable(0, x_min, x_max, np.zeros(38))


class TestTableEval:
    def test_all_nodes_bit_exact(self):
        tab = small_table()
        out = table_eval(tab, tab.nodes)
        assert np.array_equal(out, tab.values)

    def test_linear_between_nodes(self):
        tab = small_table()
        rng = np.random.default_rng(5)
        j = rng.integers(0, tab.n_nodes - 1, size=50)
        w = rng.uniform(0.0, 1.0, size=50)
        x = tab.nodes[j] + w * (tab.nodes[j + 1] - tab.nodes[j])
        want = tab.values[j] + (x - tab.nodes[j]) / (
            tab.nodes[j + 1] - tab.nodes[j]
        ) * (tab.values[j + 1] - tab.values[j])
        np.testing.assert_allclose(table_eval(tab, x), want, rtol=0, atol=1e-15)

    def test_clamping(self):
        tab = small_table()
        got = table_eval(tab, np.array([-10.0, 10.0, tab.x_min, tab.x_max]))
        assert np.array_equal(got, tab.values[[0, -1, 0, -1]])

    def test_shape_follows_the_input(self):
        # The tape passes (batch, time, width) arrays; each element is
        # looked up as it would be in a flat array.
        tab = small_table()
        xs = np.array([-3.0, -0.013, 0.0, 0.4117, 2.0, 5.0])
        flat_value, flat_slope = table_eval(tab, xs), table_grad(tab, xs)
        for shape in ((6,), (2, 3), (1, 3, 2)):
            x = xs.reshape(shape)
            assert np.array_equal(table_eval(tab, x), flat_value.reshape(shape))
            assert np.array_equal(table_grad(tab, x), flat_slope.reshape(shape))
            assert gelu(x).shape == gated_activation(x, 0.5, tab).shape == shape

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(min_value=-2.0, max_value=2.0,
                       allow_nan=False, allow_infinity=False))
    def test_bounded_by_segment_endpoints(self, x):
        tab = small_table()
        j = min(int(np.searchsorted(tab.nodes, x, side="right")) - 1,
                tab.n_nodes - 2)
        j = max(j, 0)
        lo = min(tab.values[j], tab.values[j + 1])
        hi = max(tab.values[j], tab.values[j + 1])
        assert lo - 1e-12 <= table_eval(tab, np.array([x]))[0] <= hi + 1e-12


class TestTableGrad:
    def test_segment_slope(self):
        tab = small_table()
        j = 77
        mid = 0.5 * (tab.nodes[j] + tab.nodes[j + 1])
        want = (tab.values[j + 1] - tab.values[j]) / (tab.nodes[j + 1] - tab.nodes[j])
        assert table_grad(tab, np.array([mid]))[0] == pytest.approx(want, rel=1e-12)

    def test_zero_outside_range(self):
        tab = small_table()
        x = np.array([tab.x_min - 1.0, tab.x_max, tab.x_max + 1.0])
        assert np.array_equal(table_grad(tab, x), np.zeros(3))

    def test_interior_node_uses_right_segment(self):
        tab = small_table()
        j = 120
        want = (tab.values[j + 1] - tab.values[j]) / (tab.nodes[j + 1] - tab.nodes[j])
        assert table_grad(tab, tab.nodes[j : j + 1])[0] == pytest.approx(want, rel=1e-12)

    def test_matches_finite_difference_off_nodes(self):
        tab = small_table()
        rng = np.random.default_rng(3)
        h = node_spacing(tab) / 16
        j = rng.integers(0, tab.n_nodes - 1, size=30)
        x = tab.nodes[j] + node_spacing(tab) * rng.uniform(0.2, 0.8, size=30)
        fd = (table_eval(tab, x + h) - table_eval(tab, x - h)) / (2 * h)
        np.testing.assert_allclose(table_grad(tab, x), fd, rtol=1e-9, atol=1e-12)


class TestTableSegment:
    def test_ids_partition_the_line(self):
        tab = small_table()
        assert table_segment(tab, tab.x_min - 1.0)[0] == 0
        assert table_segment(tab, tab.x_min)[0] == 1
        assert table_segment(tab, tab.x_max)[0] == tab.n_nodes
        assert table_segment(tab, tab.x_max + 1.0)[0] == tab.n_nodes

    def test_crossing_a_node_changes_id(self):
        tab = small_table()
        eps = node_spacing(tab) / 50
        for j in (1, 50, 199):
            x = float(tab.nodes[j])
            lo = table_segment(tab, x - eps)[0]
            hi = table_segment(tab, x + eps)[0]
            assert hi == lo + 1

    def test_same_segment_same_id(self):
        tab = small_table()
        a = tab.nodes[10] + 0.2 * node_spacing(tab)
        b = tab.nodes[10] + 0.9 * node_spacing(tab)
        assert table_segment(tab, a)[0] == table_segment(tab, b)[0]


class TestGelu:
    def test_known_values(self):
        got = gelu(np.array([0.0, 1.0, -1.0]))
        assert got[0] == 0.0
        assert got[1] == pytest.approx(0.8413447460685429, abs=1e-15)
        assert got[2] == pytest.approx(-0.15865525393145707, abs=1e-15)

    def test_matches_erf_formula(self):
        x = np.linspace(-5, 5, 101)
        want = x * 0.5 * (1.0 + erf(x / math.sqrt(2)))
        np.testing.assert_allclose(gelu(x), want, rtol=0, atol=0)

    def test_grad_matches_finite_difference(self):
        x = np.linspace(-4, 4, 41)
        h = 1e-6
        fd = (gelu(x + h) - gelu(x - h)) / (2 * h)
        np.testing.assert_allclose(gelu_grad(x), fd, rtol=0, atol=1e-9)

    def test_asymptotes(self):
        np.testing.assert_allclose(gelu(np.array([10.0, -10.0])), [10.0, 0.0],
                                   rtol=0, atol=1e-12)


class TestGate:
    def test_lambda_one_is_gelu(self):
        tab = small_table()
        rng = np.random.default_rng(17)
        x = rng.uniform(-3, 3, size=1000)
        got = gated_activation(x, 1.0, tab)
        np.testing.assert_allclose(got, gelu(x), rtol=0, atol=1e-15)

    def test_lambda_zero_is_table(self):
        tab = small_table()
        rng = np.random.default_rng(19)
        x = rng.uniform(-3, 3, size=1000)
        got = gated_activation(x, 0.0, tab)
        np.testing.assert_allclose(got, table_eval(tab, x), rtol=0, atol=1e-15)

    def test_affine_in_lambda(self):
        tab = small_table()
        x = np.linspace(-2, 2, 101)
        g, t = gelu(x), table_eval(tab, x)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            got = gated_activation(x, lam, tab)
            np.testing.assert_allclose(got, lam * g + (1 - lam) * t,
                                       rtol=0, atol=1e-15)

    def test_grad_blends_the_same_way(self):
        tab = small_table()
        x = np.linspace(-1.5, 1.5, 67)
        got = gated_grad(x, 0.3, tab)
        want = 0.3 * gelu_grad(x) + 0.7 * table_grad(tab, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_type_mismatch_rejected(self):
        tab = small_table(type_id=4)
        with pytest.raises(ValueError, match="type_id"):
            ActivationMode("gated", 3).build(tab)

    def test_lambda_range_enforced(self):
        for lam in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match="lam"):
                ActivationMode("gated", 1, lam)

    @pytest.mark.parametrize("type_id", [0, 9, -1])
    def test_type_range_enforced(self, type_id):
        for kind in ("gated", "gelu"):
            with pytest.raises(ValueError, match=f"type_id: expected 1..8, got {type_id}"):
                ActivationMode(kind=kind, type_id=type_id)


class TestTableIO:
    def test_round_trip_bit_exact(self, tmp_path):
        tab = small_table(type_id=4)
        path = tmp_path / "tab.txt"
        write_table(tab, path)
        header, nodes, values = read_table_file(path)
        assert header == {"type_id": "4", "x_min": "-2", "x_max": "2", "n_nodes": "201"}
        assert nodes.tobytes() == tab.nodes.tobytes()
        assert values.tobytes() == tab.values.tobytes()


class TestHandles:
    def test_identity_and_tanh(self):
        x = np.linspace(-2, 2, 9)
        assert np.array_equal(IdentityActivation().value(x), x)
        assert np.array_equal(IdentityActivation().value_and_slope(x)[1], np.ones(9))
        np.testing.assert_allclose(TanhActivation().value(x), np.tanh(x))
        np.testing.assert_allclose(TanhActivation().value_and_slope(x)[1],
                                   1 - np.tanh(x) ** 2)

    def test_gelu_handle_matches_functions(self):
        x = np.linspace(-3, 3, 31)
        h = GeluActivation()
        assert np.array_equal(h.value(x), gelu(x))
        assert np.array_equal(h.value_and_slope(x)[1], gelu_grad(x))

    def test_gated_handle_matches_functions(self):
        tab = small_table()
        lam = 0.5
        h = GatedLeeActivation(lam, tab)
        x = np.linspace(-3, 3, 31)
        assert np.array_equal(h.value(x), gated_activation(x, lam, tab))
        assert np.array_equal(h.value_and_slope(x)[1], gated_grad(x, lam, tab))
        assert "type=4" in h.name


# -- constant-time bracket and the fused value/slope call ----------------------

_SPECIALS = np.array([
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1e300, -1e300,
])


def _grid(name):
    """The default 4001-node grid, the 201-node test grid, a 2-node grid."""
    if name == "default":
        return table_for_type(1)
    if name == "test":
        return small_table()
    return small_table(4, -1.0, 1.0, 2)


_GRIDS = ("default", "test", "two")


def _searchsorted_bracket(tab, x):
    j = np.searchsorted(tab.nodes, x, side="right") - 1
    return np.clip(j, 0, tab.n_nodes - 2)


def _reference_lookup(tab, x):
    """Binary-search lookup and slope, written as separate passes."""
    xq = np.atleast_1d(np.asarray(x, dtype=np.float64))
    j = _searchsorted_bracket(tab, xq)
    left, right = tab.nodes[j], tab.nodes[j + 1]
    w = (xq - left) / (right - left)
    out = tab.values[j] + w * (tab.values[j + 1] - tab.values[j])
    out = np.where(xq == left, tab.values[j], out)
    out = np.where(xq <= tab.x_min, tab.values[0], out)
    out = np.where(xq >= tab.x_max, tab.values[-1], out)
    slope = (tab.values[j + 1] - tab.values[j]) / (right - left)
    slope = np.where((xq < tab.x_min) | (xq >= tab.x_max), 0.0, slope)
    return out, slope


def _reference_gelu(x):
    value = x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    phi = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return value, 0.5 * (1.0 + erf(x / math.sqrt(2.0))) + x * phi


def _same(a, b):
    """Equal element for element, NaN included, with equal signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _edge_inputs(tab):
    """Every node, 1 ulp either side of it, and the special values."""
    return np.concatenate([
        tab.nodes, np.nextafter(tab.nodes, np.inf),
        np.nextafter(tab.nodes, -np.inf), _SPECIALS,
    ])


_FLOATS = st.one_of(st.floats(), st.floats(min_value=-5.0, max_value=5.0))
_INPUTS = st.lists(_FLOATS, min_size=1, max_size=40).map(np.array)


# inf and +-1e300 inputs overflow intermediate terms by design.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestConstantTimeBracket:
    @pytest.mark.parametrize("grid", _GRIDS)
    def test_matches_searchsorted_on_nodes_ulps_and_specials(self, grid):
        tab = _grid(grid)
        x = _edge_inputs(tab)
        assert np.array_equal(_bracket(tab, x), _searchsorted_bracket(tab, x))

    def test_nan_lands_on_the_last_segment(self):
        tab = small_table()
        assert _bracket(tab, np.array([math.nan]))[0] == tab.n_nodes - 2

    @settings(max_examples=200, deadline=None)
    @given(grid=st.sampled_from(_GRIDS), x=_INPUTS)
    def test_matches_searchsorted_on_random_floats(self, grid, x):
        tab = _grid(grid)
        assert np.array_equal(_bracket(tab, x), _searchsorted_bracket(tab, x))

    def test_forward_and_backward_do_not_binary_search(self, monkeypatch):
        tab = small_table()
        handle = GatedLeeActivation(0.5, tab)

        def refuse(*args, **kwargs):
            raise AssertionError("np.searchsorted called")

        monkeypatch.setattr(np, "searchsorted", refuse)
        x = _edge_inputs(tab)
        handle.value(x)
        handle.value_and_slope(x)
        table_grad(tab, x)


# inf and +-1e300 inputs overflow intermediate terms by design.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFusedValueAndSlope:
    @pytest.mark.parametrize("grid", _GRIDS)
    def test_table_matches_reference_on_edges(self, grid):
        tab = _grid(grid)
        x = _edge_inputs(tab)
        want_value, want_slope = _reference_lookup(tab, x)
        assert _same(table_eval(tab, x), want_value)
        assert _same(table_grad(tab, x), want_slope)

    @settings(max_examples=200, deadline=None)
    @given(grid=st.sampled_from(_GRIDS), x=_INPUTS)
    def test_table_matches_reference_on_random_floats(self, grid, x):
        tab = _grid(grid)
        want_value, want_slope = _reference_lookup(tab, x)
        assert _same(table_eval(tab, x), want_value)
        assert _same(table_grad(tab, x), want_slope)

    def test_gelu_special_values(self):
        x = np.array([0.3, -2.5, 0.0, -0.0, math.inf, -math.inf, math.nan])
        want_value, want_slope = _reference_gelu(x)
        value, slope = gelu_value_and_slope(x)
        assert _same(value, want_value) and _same(slope, want_slope)
        assert _same(gelu(x), want_value) and _same(gelu_grad(x), want_slope)

    @settings(max_examples=200, deadline=None)
    @given(x=_INPUTS)
    def test_gelu_and_gate_match_reference(self, x):
        tab = small_table()
        lam = 0.3
        g_value, g_slope = _reference_gelu(x)
        value, slope = gelu_value_and_slope(x)
        assert _same(value, g_value) and _same(slope, g_slope)
        t_value, t_slope = _reference_lookup(tab, x)
        value, slope = GatedLeeActivation(lam, tab).value_and_slope(x)
        assert _same(value, 0.3 * g_value + 0.7 * t_value)
        assert _same(slope, 0.3 * g_slope + 0.7 * t_slope)

    @pytest.mark.parametrize("kind", ["gelu", "gated", "tanh", "identity"])
    @settings(max_examples=100, deadline=None)
    @given(x=_INPUTS)
    def test_handles_return_value_and_their_slope(self, kind, x):
        tab = small_table()
        lam = 0.5
        handle, slope_of = {
            "gelu": (GeluActivation(), gelu_grad),
            "gated": (GatedLeeActivation(lam, tab), lambda v: gated_grad(v, lam, tab)),
            "tanh": (TanhActivation(), lambda v: 1.0 - np.tanh(v) * np.tanh(v)),
            "identity": (IdentityActivation(), np.ones_like),
        }[kind]
        value, slope = handle.value_and_slope(x)
        assert _same(value, handle.value(x))
        assert _same(slope, slope_of(x))

    @pytest.mark.parametrize("grid", _GRIDS)
    def test_value_only_paths_equal_the_fused_value(self, grid):
        # Nodes, 1 ulp either side, NaN, +-inf, +-0, subnormals and inputs
        # clamped on both sides of the grid.
        tab = _grid(grid)
        lam = 0.3
        x = np.concatenate([_edge_inputs(tab), [tab.x_min - 1.0, tab.x_max + 1.0]])
        assert _same(table_eval(tab, x), activation._table_lookup(tab, x, True)[0])
        handle = GatedLeeActivation(lam, tab)
        assert _same(gated_activation(x, lam, tab), handle.value_and_slope(x)[0])
        assert _same(handle.value(x), handle.value_and_slope(x)[0])

    def test_value_only_paths_skip_the_slope(self, monkeypatch):
        tab = small_table()
        handle = GatedLeeActivation(0.5, tab)
        x = _edge_inputs(tab)
        want = handle.value(x)

        def refuse(*args, **kwargs):
            raise AssertionError("slope computed on a value-only path")

        monkeypatch.setattr(activation, "_gelu_slope", refuse)
        assert _same(handle.value(x), want)
        table_eval(tab, x)
        gelu(x)


# inf and +-1e300 inputs overflow intermediate terms by design.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestStoredDiffs:
    """The lookup gathers each segment's step and rise from the table's
    stored diffs, with the bits of subtracting two gathered nodes and two
    gathered values."""

    @pytest.mark.parametrize("grid", _GRIDS)
    def test_diffs_are_derived_from_the_grid(self, grid):
        tab = _grid(grid)
        assert np.array_equal(tab.steps, np.diff(tab.nodes))
        assert np.array_equal(tab.rises, np.diff(tab.values))
        assert "steps" not in repr(tab) and "rises" not in repr(tab)
        again = MetaActivationTable(tab.type_id, tab.x_min, tab.x_max, tab.values.copy())
        for name in ("nodes", "values", "steps", "rises"):
            assert np.array_equal(getattr(again, name), getattr(tab, name))

    @pytest.mark.parametrize("grid", _GRIDS)
    @pytest.mark.parametrize("with_slope", [True, False])
    def test_matches_gathered_differences_on_edges(self, grid, with_slope):
        # Nodes, the floats just below and above them, the specials (NaN,
        # +-inf, +-0, subnormals) and inputs clamped on both sides.
        tab = _grid(grid)
        x = np.concatenate([_edge_inputs(tab), [tab.x_min - 1.0, tab.x_max + 1.0]])
        value, slope = activation._table_lookup(tab, x, with_slope)
        want_value, want_slope = reference_table_lookup(tab, x, with_slope)
        assert _same(value, want_value)
        assert slope is None if not with_slope else _same(slope, want_slope)

    @settings(max_examples=200, deadline=None)
    @given(grid=st.sampled_from(_GRIDS), x=_INPUTS)
    def test_matches_gathered_differences_on_random_floats(self, grid, x):
        tab = _grid(grid)
        value, slope = activation._table_lookup(tab, x, True)
        want_value, want_slope = reference_table_lookup(tab, x, True)
        assert _same(value, want_value) and _same(slope, want_slope)
