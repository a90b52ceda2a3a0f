"""Oscillator dynamics: builtin parameters, step rules, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotn import oscillator
from cotn.oscillator import (
    LorsParams,
    OscState,
    ZERO_STATE,
    bifurcation_sweep,
    builtin_params,
    builtin_type_ids,
    lors_step,
    simulate,
    simulate_many,
    stimulus_signal,
    write_bifurcation_csv,
)

# All 13 fields for each builtin type, written out once more by hand so a
# typo in the library table cannot hide.
EXPECTED_BUILTINS = {
    1: dict(a1=0.0, a2=5.0, a3=5.0, a4=1.0, b1=0.0, b2=-1.0, b3=1.0, b4=0.0,
            mu=5.0, k=500.0, xi_e=0.0, xi_i=0.0, e=0.001),
    2: dict(a1=0.5, a2=0.55, a3=0.55, a4=-0.5, b1=0.5, b2=-0.55, b3=-0.55,
            b4=-0.5, mu=1.0, k=50.0, xi_e=0.0, xi_i=0.0, e=0.001),
    3: dict(a1=0.5, a2=0.6, a3=0.55, a4=0.5, b1=-0.5, b2=-0.6, b3=-0.55,
            b4=0.5, mu=1.0, k=50.0, xi_e=0.0, xi_i=0.0, e=0.001),
    4: dict(a1=-0.5, a2=0.55, a3=0.55, a4=-0.5, b1=-0.5, b2=-0.55, b3=-0.55,
            b4=0.5, mu=1.0, k=50.0, xi_e=0.0, xi_i=0.0, e=0.001),
    5: dict(a1=-0.9, a2=0.9, a3=0.9, a4=-0.9, b1=0.9, b2=-0.9, b3=-0.9,
            b4=0.9, mu=1.0, k=50.0, xi_e=0.0, xi_i=0.0, e=0.001),
    6: dict(a1=-0.9, a2=0.9, a3=0.9, a4=-0.9, b1=0.9, b2=-0.9, b3=-0.9,
            b4=0.9, mu=1.0, k=300.0, xi_e=0.0, xi_i=0.0, e=0.001),
    7: dict(a1=-5.0, a2=5.0, a3=5.0, a4=-5.0, b1=1.0, b2=-1.0, b3=-1.0,
            b4=1.0, mu=1.0, k=50.0, xi_e=0.0, xi_i=0.0, e=0.001),
    8: dict(a1=-5.0, a2=5.0, a3=5.0, a4=-5.0, b1=1.0, b2=-1.0, b3=-1.0,
            b4=1.0, mu=1.0, k=300.0, xi_e=0.0, xi_i=0.0, e=0.001),
}


def ref_lors_trajectory(x, p, n_steps):
    """Straight-line reference recurrence, written independently."""
    if x > 0:
        s = x + p.e
    elif x < 0:
        s = x - p.e
    else:
        s = 0.0
    e = i = out = 0.0
    vals = []
    for _ in range(n_steps):
        e_n = math.tanh(p.mu * (p.a1 * out + p.a2 * e - p.a3 * i + p.a4 * s - p.xi_e))
        i_n = math.tanh(p.mu * (p.b1 * out - p.b2 * e - p.b3 * i + p.b4 * s - p.xi_i))
        om_n = math.tanh(p.mu * s)
        out = (e_n - i_n) * math.exp(-p.k * s * s) + om_n
        e, i = e_n, i_n
        vals.append(out)
    return np.array(vals)


class TestBuiltins:
    def test_type_ids(self):
        assert builtin_type_ids() == (1, 2, 3, 4, 5, 6, 7, 8)

    @pytest.mark.parametrize("type_id", sorted(EXPECTED_BUILTINS))
    def test_all_fields_exact(self, type_id):
        p = builtin_params(type_id)
        for name, want in EXPECTED_BUILTINS[type_id].items():
            assert getattr(p, name) == want, f"type {type_id} field {name}"

    def test_unknown_type_rejected(self):
        for bad in (0, 9, -1, "1"):
            with pytest.raises(ValueError):
                builtin_params(bad)


class TestParamValidation:
    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            LorsParams(0, 1, 1, 1, 0, 1, 1, 0, mu=0.0, k=50.0)

    def test_k_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            LorsParams(0, 1, 1, 1, 0, 1, 1, 0, mu=1.0, k=-1.0)

    def test_e_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            LorsParams(0, 1, 1, 1, 0, 1, 1, 0, mu=1.0, k=50.0, e=-0.001)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LorsParams(math.nan, 1, 1, 1, 0, 1, 1, 0, mu=1.0, k=50.0)
        with pytest.raises(ValueError):
            OscState(e=math.nan)


class TestStimulusSignal:
    def test_sign_shaping(self):
        assert stimulus_signal(0.3, 0.001) == 0.3 + 0.001
        assert stimulus_signal(-0.3, 0.001) == -0.3 - 0.001

    def test_zero_input_stays_zero(self):
        assert stimulus_signal(0.0, 0.001) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            stimulus_signal(math.nan, 0.001)


class TestLorsStep:
    def test_first_step_type1_oracle(self):
        # From rest at raw input 1 (S = 1.001): E' = tanh(5 * 1.001),
        # I' = 0, Omega' = tanh(5 * 1.001); the Gaussian factor is ~5e-218
        # so L' equals Omega' after rounding.
        st1 = lors_step(ZERO_STATE, 1.0, builtin_params(1))
        assert st1.e == pytest.approx(0.9999101076546714, abs=0)
        assert st1.i == 0.0
        assert st1.omega == st1.e
        assert st1.out == pytest.approx(0.9999101076546714, abs=0)

    def test_zero_input_fixed_point(self):
        state = ZERO_STATE
        for _ in range(5):
            state = lors_step(state, 0.0, builtin_params(3))
        assert state == OscState(0.0, 0.0, 0.0, 0.0)

    def test_matches_reference_all_types(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            type_id = int(rng.integers(1, 9))
            x = float(rng.uniform(-2.0, 2.0))
            n = int(rng.integers(1, 12))
            p = builtin_params(type_id)
            ref = ref_lors_trajectory(x, p, n)
            got = simulate(x, p, n)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_step_and_simulate_bit_identical(self):
        p = builtin_params(5)
        state = ZERO_STATE
        stepped = []
        for _ in range(40):
            state = lors_step(state, 0.37, p)
            stepped.append(state.out)
        traj = simulate(0.37, p, 40)
        assert np.array_equal(np.array(stepped), traj)

    def test_retrograde_feedback_enters_update(self):
        # a1/b1 couple the previous output back in: zeroing them must
        # change the second step whenever the first output is nonzero.
        p = builtin_params(2)
        p0 = LorsParams(0.0, p.a2, p.a3, p.a4, 0.0, p.b2, p.b3, p.b4,
                        mu=p.mu, k=p.k, e=p.e)
        assert simulate(0.05, p, 2)[1] != simulate(0.05, p0, 2)[1]


class TestSimulate:
    def test_length_and_dtype(self):
        traj = simulate(0.3, builtin_params(2), 17)
        assert traj.shape == (17,)
        assert traj.dtype == np.float64

    def test_recorded_states_align_with_values(self):
        p = builtin_params(4)
        state = ZERO_STATE
        for v in simulate(-0.4, p, 9):
            state = lors_step(state, -0.4, p)
            assert state.out == v

    def test_bad_step_count(self):
        with pytest.raises(ValueError):
            simulate(0.1, builtin_params(1), 0)

    @settings(max_examples=60, deadline=None)
    @given(
        type_id=st.integers(min_value=1, max_value=8),
        x=st.floats(min_value=-4.0, max_value=4.0,
                    allow_nan=False, allow_infinity=False),
    )
    def test_states_stay_bounded(self, type_id, x):
        p = builtin_params(type_id)
        assert np.all(np.isfinite(simulate(x, p, 30)))
        s = ZERO_STATE
        for _ in range(30):
            s = lors_step(s, x, p)
            assert abs(s.e) <= 1.0 and abs(s.i) <= 1.0 and abs(s.omega) <= 1.0
            assert abs(s.out) <= 3.0

    def test_envelope_far_from_origin_type1(self):
        # With k=500 the Gaussian kills the E-I term beyond |x| ~ 0.15, so
        # the settled output collapses onto tanh(mu * S).
        p = builtin_params(1)
        for x in (0.5, -0.5, 1.3, -2.0):
            s = x + math.copysign(p.e, x)
            tail = simulate(x, p, 200)[-50:]
            assert np.max(np.abs(tail - math.tanh(p.mu * s))) <= 1e-3

    def test_chaotic_band_near_origin_type1(self):
        tail = simulate(0.05, builtin_params(1), 300)[-100:]
        assert tail.max() - tail.min() > 0.01


class TestBifurcation:
    def test_shapes_and_grid(self):
        grid, outputs = bifurcation_sweep(builtin_params(1), -1.0, 1.0, n_x=21,
                                          n_steps=120, keep_last=30)
        assert grid.shape == (21,)
        assert outputs.shape == (21, 30)
        assert grid[0] == -1.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)

    def test_single_point_grid(self):
        grid, outputs = bifurcation_sweep(builtin_params(2), 0.3, 0.3, n_x=1,
                                          n_steps=50, keep_last=5)
        assert grid.shape == (1,)
        assert outputs.shape == (1, 5)

    def test_rows_match_simulate_tail(self):
        p = builtin_params(6)
        grid, outputs = bifurcation_sweep(p, -0.2, 0.2, n_x=5, n_steps=80, keep_last=11)
        for x, row in zip(grid, outputs):
            assert np.array_equal(row, simulate(float(x), p, 80)[-11:])

    def test_validation(self):
        p = builtin_params(1)
        with pytest.raises(ValueError):
            bifurcation_sweep(p, 1.0, -1.0, n_x=5)
        with pytest.raises(ValueError):
            bifurcation_sweep(p, -1.0, 1.0, n_x=0)
        with pytest.raises(ValueError):
            bifurcation_sweep(p, -1.0, 1.0, n_x=5, n_steps=10, keep_last=11)

    def test_csv_round_trip(self, tmp_path):
        grid, outputs = bifurcation_sweep(builtin_params(3), -0.5, 0.5, n_x=4,
                                          n_steps=40, keep_last=6)
        path = tmp_path / "bif.csv"
        write_bifurcation_csv(grid, outputs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,lors"
        assert len(lines) == 1 + 4 * 6
        parsed = np.array([[float(a) for a in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(parsed[:, 1].reshape(4, 6), outputs)
        assert np.array_equal(parsed[::6, 0], grid)


def _bits(a):
    # Bit patterns, so that 0.0 and -0.0 count as different.
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _reference_rows(inputs, p, n_steps=100):
    return np.array([simulate(float(x), p, n_steps) for x in inputs])


DEFAULT_GRID = np.linspace(-4.0, 4.0, 4001)
SPECIAL_INPUTS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.05, -0.05]


def _frozen(x, p):
    # simulate_many's freeze rule, restated with scalar libm calls: the
    # Gaussian factor times |E - I| <= 2 stays below half the gap from
    # |Omega| down to the next float.
    s = stimulus_signal(x, p.e)
    mag = abs(math.tanh(p.mu * s))
    decay = math.exp(-p.k * s * s)
    return 2.0 * decay < 0.5 * (mag - math.nextafter(mag, 0.0))


def _freeze_edge(p, sign):
    # The smallest x > 0 (by bisection on bit patterns) whose sign * x is
    # frozen, or None when not even 1e300 is.
    lo, hi = 0, int(np.float64(1e300).view(np.int64))
    if not _frozen(sign * 1e300, p):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _frozen(sign * float(np.int64(mid).view(np.float64)), p):
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


def _around_freeze_edges(p):
    # Inputs just inside and just outside each sign's freeze edge, and a
    # few percent inside it, where a looser rule would freeze rows whose
    # E - I term still moves the output.
    inputs = []
    for sign in (1.0, -1.0):
        edge = _freeze_edge(p, sign)
        if edge is None:
            continue
        near = [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf),
                edge * 1.01]
        near += [edge * (1.0 - f) for f in (0.001, 0.003, 0.01, 0.02, 0.03, 0.05)]
        inputs += [sign * x for x in near]
    return inputs


_PARAM = st.floats(min_value=-6.0, max_value=6.0)
_LORS_PARAMS = st.builds(
    LorsParams,
    a1=_PARAM, a2=_PARAM, a3=_PARAM, a4=_PARAM,
    b1=_PARAM, b2=_PARAM, b3=_PARAM, b4=_PARAM,
    mu=st.floats(min_value=0.0, max_value=6.0, exclude_min=True),
    k=st.floats(min_value=0.0, max_value=600.0),
    xi_e=st.floats(min_value=-1.0, max_value=1.0),
    xi_i=st.floats(min_value=-1.0, max_value=1.0),
    e=st.floats(min_value=0.0, max_value=0.01),
)


class TestSimulateMany:
    @pytest.mark.parametrize("type_id", range(1, 9))
    def test_rows_equal_simulate_on_the_default_grid(self, type_id):
        p = builtin_params(type_id)
        got = simulate_many(DEFAULT_GRID, p)
        assert got.shape == (4001, 100)
        assert np.array_equal(_bits(got), _bits(_reference_rows(DEFAULT_GRID, p)))

    @pytest.mark.parametrize("n_steps", [1, 2, 100, 300])
    def test_special_inputs_and_run_lengths(self, n_steps):
        for type_id in builtin_type_ids():
            p = builtin_params(type_id)
            got = simulate_many(SPECIAL_INPUTS, p, n_steps)
            assert got.shape == (len(SPECIAL_INPUTS), n_steps)
            assert np.array_equal(_bits(got),
                                  _bits(_reference_rows(SPECIAL_INPUTS, p, n_steps)))

    def test_settled_rows_next_to_moving_ones(self):
        # Under type 3, 0.05 is still moving after 100 steps while 0.5 and
        # 2.0 settle at different steps and 0.0 rests from the start.
        p = builtin_params(3)
        inputs = [0.05, 2.0, 0.5, 0.0, -0.05]
        got = simulate_many(inputs, p)
        assert np.array_equal(_bits(got), _bits(_reference_rows(inputs, p)))
        # Type 1's chaotic band never settles; its zero input rests.
        p = builtin_params(1)
        inputs = [0.05, 0.0, 0.01]
        assert np.array_equal(_bits(simulate_many(inputs, p)),
                              _bits(_reference_rows(inputs, p)))

    def test_only_unfrozen_rows_step(self, monkeypatch):
        # The loop invariants take two libm calls per row once; each of
        # the 100 steps takes two per row that is not frozen.
        calls = []
        real = oscillator._libm

        def counting(fn, a):
            calls.append(a.size)
            return real(fn, a)

        monkeypatch.setattr(oscillator, "_libm", counting)
        n = DEFAULT_GRID.size
        for type_id in builtin_type_ids():
            p = builtin_params(type_id)
            live = sum(not _frozen(float(x), p) for x in DEFAULT_GRID)
            assert 0 < live <= 0.25 * n, (type_id, live)
            calls.clear()
            simulate_many(DEFAULT_GRID, p)
            assert sum(calls) == 2 * n + 200 * live, type_id

    @settings(max_examples=40, deadline=None)
    @given(p=_LORS_PARAMS, n_steps=st.sampled_from([1, 7, 100]))
    def test_freeze_rule_keeps_the_bits(self, p, n_steps):
        inputs = _around_freeze_edges(p) + SPECIAL_INPUTS[:6]
        got = simulate_many(inputs, p, n_steps)
        assert np.array_equal(_bits(got), _bits(_reference_rows(inputs, p, n_steps)))

    @pytest.mark.parametrize("type_id", range(1, 9))
    def test_rows_straddling_the_first_frozen_node(self, type_id):
        p = builtin_params(type_id)
        first = min(x for x in DEFAULT_GRID if x > 0 and _frozen(float(x), p))
        side = np.linspace(0.9 * first, 1.1 * first, 100)
        inputs = np.concatenate([-side, side])
        assert not all(_frozen(float(x), p) for x in inputs)
        assert any(_frozen(float(x), p) for x in inputs)
        assert np.array_equal(_bits(simulate_many(inputs, p)),
                              _bits(_reference_rows(inputs, p)))

    def test_validation(self):
        p = builtin_params(2)
        with pytest.raises(ValueError, match="n_steps"):
            simulate_many([0.1], p, 0)
        with pytest.raises(ValueError, match="finite"):
            simulate_many([0.1, math.nan], p)
        with pytest.raises(ValueError, match="1-d"):
            simulate_many(np.zeros((2, 2)), p)
        assert simulate_many([], p).shape == (0, 100)
