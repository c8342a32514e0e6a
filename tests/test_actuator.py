import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from oracles import closed_loop_matrix_poles, routh_hurwitz_2nd_order
from paractl import (ActuatorModel, ControllerGains, closed_loop_poles,
                     feedforward_step, open_loop_command, pd_gains,
                     simulate_single_actuator, stability_check)
from paractl.actuator import discretize

IDEAL = ActuatorModel.ideal(0.0)


def integral_gains(kp, kd, ki, back_emf=0.0, no_load_mass=0.1):
    return ControllerGains(A=np.zeros((1, 1)), B=np.ones((1, 1)),
                           C=np.array([[ki]]), D=np.array([[kp, kd]]),
                           back_emf=back_emf, no_load_mass=no_load_mass)


def test_pd_poles_critically_damped():
    poles = closed_loop_poles(pd_gains(4.0, 4.0), IDEAL, 1.0)
    np.testing.assert_allclose(sorted(poles.real), [-2.0, -2.0], atol=1e-9)
    assert np.max(np.abs(poles.imag)) <= 1e-9


def test_undamped_gains_marginal():
    gains = ControllerGains(A=np.zeros((0, 0)), B=np.zeros((0, 1)),
                            C=np.zeros((1, 0)), D=np.array([[1.0, 0.0]]))
    poles = closed_loop_poles(gains, IDEAL, 1.0)
    np.testing.assert_allclose(np.sort(poles.imag), [-1.0, 1.0], atol=1e-9)
    report = stability_check(gains, IDEAL, [0.05, 1.0, np.inf])
    assert not report.passed


def test_back_emf_adds_damping():
    gains = pd_gains(4.0, 4.0, back_emf=0.5)
    poles = closed_loop_poles(gains, ActuatorModel.ideal(0.5), 1.0)
    expected = np.roots([1.0, 4.5, 4.0])
    np.testing.assert_allclose(np.sort(poles.real), np.sort(expected),
                               atol=1e-9)


def test_pd_gains_reject_nonpositive():
    with pytest.raises(ValueError):
        pd_gains(0.0, 1.0)
    with pytest.raises(ValueError):
        pd_gains(1.0, -2.0)


def test_open_loop_command():
    gains = pd_gains(1.0, 1.0, back_emf=0.5, no_load_mass=0.5)
    assert open_loop_command(gains, 2.0, [0.0, 0.0, 0.0]) == 0.0
    assert open_loop_command(gains, 2.0, [0.0, 2.0, 1.0]) == pytest.approx(3.0)
    gains0 = pd_gains(1.0, 1.0, back_emf=0.0, no_load_mass=0.7)
    assert open_loop_command(gains0, 0.7, [0.0, 0.0, 1.0]) \
        == pytest.approx(0.7)
    with pytest.raises(ValueError):
        open_loop_command(gains, 0.2, [0.0, 0.0, 1.0])


def test_feedforward_pure_reference_tracking():
    gains = pd_gains(4.0, 4.0, back_emf=0.6)
    accel, state = feedforward_step(gains, np.zeros(0), np.zeros(2),
                                    [1.0, 2.0, 3.0], 2.0, 1e-3)
    assert accel == pytest.approx(3.0 + 0.3 * 2.0)
    assert state.size == 0


def test_feedforward_pd_error_example():
    gains = pd_gains(4.0, 4.0)
    accel, _ = feedforward_step(gains, np.zeros(0), [0.1, 0.0],
                                [0.0, 0.0, 0.0], 1.0, 1e-3)
    assert accel == pytest.approx(0.4)


def test_feedforward_integral_state_exact_discretization():
    gains = integral_gains(4.0, 4.0, 1.5)
    state = np.zeros(1)
    accel, state = feedforward_step(gains, state, [0.2, 0.0],
                                    [0.0, 0.0, 0.0], 1.0, 0.25)
    # A = 0: the state integrates the error exactly over the tick
    assert state[0] == pytest.approx(0.25 * 0.2)
    accel2, state = feedforward_step(gains, state, [0.2, 0.0],
                                     [0.0, 0.0, 0.0], 1.0, 0.25)
    assert state[0] == pytest.approx(0.5 * 0.2)
    assert accel2 == pytest.approx(4.0 * 0.2 + 1.5 * 0.05)


def test_feedforward_reduces_to_open_loop():
    gains = pd_gains(3.0, 2.0, back_emf=0.4, no_load_mass=0.3)
    mass = 1.7
    ref = np.array([0.5, 1.1, -0.7])
    accel, _ = feedforward_step(gains, np.zeros(0), np.zeros(2), ref,
                                mass, 1e-3)
    assert accel * mass == pytest.approx(open_loop_command(gains, mass, ref)
                                         + (0.0))
    # identical up to the mass scaling used for forces vs accelerations
    assert accel == pytest.approx(ref[2] + gains.back_emf / mass * ref[1])


def test_feedforward_dimension_mismatch():
    gains = pd_gains(4.0, 4.0)
    with pytest.raises(ValueError):
        feedforward_step(gains, np.zeros(0), [0.1, 0.0, 0.0],
                         [0.0, 0.0, 0.0], 1.0, 1e-3)


def test_stability_check_pd_passes_all_masses():
    gains = pd_gains(4.0, 4.0, back_emf=0.5, no_load_mass=0.1)
    report = stability_check(gains, ActuatorModel.ideal(0.5),
                             [0.1, 0.2, 1.0, 10.0, np.inf])
    assert report.passed
    assert report.worst() < -1e-9


def test_stability_check_negative_kp_fails():
    gains = ControllerGains(A=np.zeros((0, 0)), B=np.zeros((0, 1)),
                            C=np.zeros((1, 0)), D=np.array([[-1.0, 4.0]]),
                            no_load_mass=0.1)
    report = stability_check(gains, IDEAL, [0.1, np.inf])
    assert not report.passed
    assert all(r > -1e-9 for r in report.max_real_parts)


def test_stability_check_requires_no_load_and_clamped():
    gains = pd_gains(4.0, 4.0, no_load_mass=0.1)
    with pytest.raises(ValueError):
        stability_check(gains, IDEAL, [0.1, 1.0])
    with pytest.raises(ValueError):
        stability_check(gains, IDEAL, [1.0, np.inf])


@settings(max_examples=120, deadline=None)
@given(st.floats(-10, 10).filter(lambda v: abs(v) > 1e-3),
       st.floats(-10, 10).filter(lambda v: abs(v) > 1e-3),
       st.floats(0, 2.0),
       st.floats(0.05, 50.0) | st.just(np.inf))
def test_stability_check_agrees_with_routh_hurwitz(kp, kd, k0, mass):
    gains = ControllerGains(A=np.zeros((0, 0)), B=np.zeros((0, 1)),
                            C=np.zeros((1, 0)), D=np.array([[kp, kd]]),
                            back_emf=k0, no_load_mass=0.05)
    model = ActuatorModel.ideal(k0)
    # keep clear of the marginal boundary the two methods resolve
    # differently at floating precision
    damping = kd + (k0 / mass if np.isfinite(mass) else 0.0)
    if abs(damping) < 1e-3 or abs(kp) < 1e-3:
        return
    report = stability_check(gains, model, [0.05, mass, np.inf])
    expected = all(routh_hurwitz_2nd_order(kp, kd, k0, m)
                   for m in (0.05, mass, np.inf))
    assert report.passed == expected


def test_higher_order_model_poles():
    # force lag c2: plant (1 + c2 s) f-side; poles from the cubic
    model = ActuatorModel(rate_coeffs=(0.0,), force_deriv_coeffs=(0.05,))
    gains = pd_gains(4.0, 4.0)
    poles = closed_loop_poles(gains, model, 1.0)
    manual = np.polynomial.polynomial.polyroots(
        np.polynomial.polynomial.polyadd(
            np.array([0.0, 0.0, 1.0, 0.05]), np.array([4.0, 4.0])))
    np.testing.assert_allclose(np.sort_complex(poles),
                               np.sort_complex(manual), atol=1e-9)


def test_simulate_equilibrium_stays_put():
    gains = pd_gains(4.0, 4.0)
    trace = simulate_single_actuator(
        gains, IDEAL, 1.0, lambda t: [0.25, 0.0, 0.0], 1e-3, 1.0,
        initial=[0.25, 0.0])
    assert np.max(np.abs(trace.error)) <= 1e-12


def test_simulate_step_matches_critically_damped_envelope():
    gains = pd_gains(4.0, 4.0)
    step = 0.1
    trace = simulate_single_actuator(
        gains, IDEAL, 0.7, lambda t: [step, 0.0, 0.0], 1e-3, 4.0)
    envelope = (1.0 + 2.0 * trace.t) * np.exp(-2.0 * trace.t) * step
    assert np.max(np.abs(trace.error - envelope)) <= 1e-4
    settled = trace.t >= 3.0
    assert np.all(np.abs(trace.error[settled]) < 0.02 * step)


def test_simulate_ramp_feedforward_no_steady_state_error():
    # final-value check: the velocity feed-forward cancels the back-EMF
    # drag on a ramp, so the error dies out; dropping it leaves the offset
    # (k0/m) * slope / kp predicted by the final value theorem
    slope = 0.2
    mass, k0 = 1.3, 0.3
    plant = ActuatorModel.ideal(k0)
    ref = lambda t: [slope * t, slope, 0.0]  # noqa: E731

    matched = simulate_single_actuator(pd_gains(4.0, 4.0, back_emf=k0),
                                       plant, mass, ref, 1e-3, 16.0)
    assert np.max(np.abs(matched.error[matched.t >= 14.0])) <= 1e-7

    blind = simulate_single_actuator(pd_gains(4.0, 4.0, back_emf=0.0),
                                     plant, mass, ref, 1e-3, 16.0)
    predicted_offset = (k0 / mass) * slope / 4.0
    assert blind.error[-1] == pytest.approx(predicted_offset, rel=1e-3)


def test_mass_independence_of_error_dynamics():
    # with no back-EMF the closed-loop error dynamics cannot see the load:
    # this is the scalar heart of using one gain set for the whole system
    gains = pd_gains(4.0, 4.0, no_load_mass=0.1)
    ref = lambda t: [0.1, 0.0, 0.0]  # noqa: E731
    light = simulate_single_actuator(gains, IDEAL, 0.1, ref, 1e-3, 3.0)
    heavy = simulate_single_actuator(gains, IDEAL, 10.0, ref, 1e-3, 3.0)
    assert np.max(np.abs(light.error - heavy.error)) <= 1e-9


def test_simulate_unstable_gains_supported():
    gains = ControllerGains(A=np.zeros((0, 0)), B=np.zeros((0, 1)),
                            C=np.zeros((1, 0)), D=np.array([[-4.0, -1.0]]))
    trace = simulate_single_actuator(
        gains, IDEAL, 1.0, lambda t: [0.1, 0.0, 0.0], 1e-3, 2.0)
    assert np.abs(trace.error[-1]) > np.abs(trace.error[0])


# --------------------------------------------------------------------------
# batched pole analysis

ORACLE_MODELS = {
    "ideal": ActuatorModel.ideal(0.0),
    "back_emf": ActuatorModel.ideal(0.4),
    "k_higher": ActuatorModel(rate_coeffs=(0.4, 0.02, 0.001)),
    "force_and_command_deriv": ActuatorModel(rate_coeffs=(0.3,),
                                             force_deriv_coeffs=(0.05,),
                                             command_deriv_coeffs=(0.01,)),
}
# distinct closed-loop roots: a repeated root moves by ~sqrt(eps) under
# rounding in either method, which no 1e-9 comparison survives
ORACLE_GAINS = {
    "pd": pd_gains(9.0, 7.0, no_load_mass=0.05),
    "one_state": integral_gains(9.0, 7.0, 2.0, no_load_mass=0.05),
}
ORACLE_MASSES = np.concatenate([
    [0.05], np.random.default_rng(5).uniform(0.05, 50.0, 8), [np.inf]])


def _matched_error(poles, reference):
    """Largest relative distance after pairing each pole with one
    reference pole (a sorted comparison can misalign conjugate pairs)."""
    cost = np.abs(poles[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols] / np.abs(reference[cols])))


@pytest.mark.parametrize("gains_name", sorted(ORACLE_GAINS))
@pytest.mark.parametrize("model_name", sorted(ORACLE_MODELS))
def test_closed_loop_poles_match_state_matrix(model_name, gains_name):
    gains = ORACLE_GAINS[gains_name]
    model = ORACLE_MODELS[model_name]
    batch = closed_loop_poles(gains, model, ORACLE_MASSES)
    for mass, poles in zip(ORACLE_MASSES, batch):
        reference = closed_loop_matrix_poles(gains, model, mass)
        assert poles.size == reference.size, mass
        assert _matched_error(poles, reference) <= 1e-9, mass


def test_batched_poles_equal_scalar_calls():
    # the k_higher top coefficient 0.001/m falls below the 1e-12 trim at
    # m = 1e13 and is absent at m = inf: the degree drops from 4 to 3
    model = ORACLE_MODELS["k_higher"]
    gains = ORACLE_GAINS["one_state"]
    masses = np.array([0.05, 0.3, 7.0, 1e13, np.inf, 2.0])
    batch = closed_loop_poles(gains, model, masses)
    assert isinstance(batch, list) and len(batch) == masses.size
    assert [p.size for p in batch] == [4, 4, 4, 3, 3, 4]
    for mass, poles in zip(masses, batch):
        scalar = closed_loop_poles(gains, model, mass)
        assert poles.dtype == scalar.dtype
        assert np.array_equal(poles, scalar)


@pytest.mark.parametrize("gains_name", sorted(ORACLE_GAINS))
def test_poles_mass_independent_without_rate_terms(gains_name):
    # no value-rate terms: chi_rate vanishes, so every load gives the very
    # same polynomial and the very same poles (no gain scheduling needed)
    model = ActuatorModel(rate_coeffs=(0.0, 0.0),
                          force_deriv_coeffs=(0.05,),
                          command_deriv_coeffs=(0.01,))
    batch = closed_loop_poles(ORACLE_GAINS[gains_name], model,
                              ORACLE_MASSES)
    for poles in batch[1:]:
        assert np.array_equal(poles, batch[0])


def _uncached_poles(gains, model, masses):
    """Per-mass roots of chi_inf + chi_rate / m from a freshly built pair,
    without the load-independent pole cache."""
    from paractl.actuator import (_CHARACTERISTIC_CACHE, _characteristic,
                                  _roots)
    _CHARACTERISTIC_CACHE.clear()
    pair, _ = _characteristic(gains, model)
    return _roots(pair[0] + pair[1] / np.reshape(masses, (-1, 1)))


@pytest.mark.parametrize("gains", [ORACLE_GAINS["pd"], pd_gains(4.0, 1.0),
                                   ORACLE_GAINS["one_state"]])
def test_cached_constant_poles_bit_identical(gains):
    model = ActuatorModel(rate_coeffs=(0.0, 0.0), force_deriv_coeffs=(0.05,))
    for mass in (0.05, 3.0, np.inf):
        fresh = _uncached_poles(gains, model, mass)[0]
        for _ in range(2):      # the cold call fills the cache, then a hit
            poles = closed_loop_poles(gains, model, mass)
            assert poles.dtype == fresh.dtype
            assert poles.tobytes() == fresh.tobytes()
    fresh = _uncached_poles(gains, model, ORACLE_MASSES)
    for _ in range(2):
        batch = closed_loop_poles(gains, model, ORACLE_MASSES)
        assert len(batch) == len(fresh)
        for poles, want in zip(batch, fresh):
            assert poles.dtype == want.dtype
            assert poles.tobytes() == want.tobytes()


def test_cached_constant_poles_are_copies():
    gains = pd_gains(4.0, 1.0)
    first = closed_loop_poles(gains, IDEAL, 1.0)
    want = first.copy()
    first[:] = 99.0
    batch = closed_loop_poles(gains, IDEAL, np.array([1.0, 2.0]))
    assert batch[0] is not batch[1]
    batch[0][:] = -1.0
    assert np.array_equal(batch[1], want)
    assert np.array_equal(closed_loop_poles(gains, IDEAL, 3.0), want)


def test_bad_mass_rejected_on_cache_hit():
    gains = pd_gains(4.0, 4.0)
    closed_loop_poles(gains, IDEAL, 1.0)
    for bad in (np.nan, 0.0, -1.0, np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            closed_loop_poles(gains, IDEAL, bad)


def test_back_emf_poles_per_mass():
    from paractl.actuator import _characteristic
    gains = pd_gains(9.0, 7.0, back_emf=0.5, no_load_mass=0.05)
    model = ActuatorModel.ideal(0.5)
    assert _characteristic(gains, model)[1] is None
    masses = np.array([0.05, 1.0, np.inf])
    batch = closed_loop_poles(gains, model, masses)
    for i in range(len(batch)):
        for j in range(i):
            assert not np.allclose(batch[i], batch[j])
    for poles, want in zip(batch, _uncached_poles(gains, model, masses)):
        assert poles.tobytes() == want.tobytes()


NAN_MASS_CALLS = {
    "closed_loop_poles": lambda: closed_loop_poles(
        pd_gains(9.0, 6.0, 0.5, 0.05), ActuatorModel.ideal(0.5), np.nan),
    "closed_loop_poles_batch": lambda: closed_loop_poles(
        pd_gains(9.0, 6.0, 0.5, 0.05), ActuatorModel.ideal(0.5),
        np.array([0.05, np.nan, np.inf])),
    "stability_check": lambda: stability_check(
        pd_gains(9.0, 6.0, 0.5, 0.05), ActuatorModel.ideal(0.5),
        [0.05, np.nan, np.inf]),
    "feedforward_step": lambda: feedforward_step(
        pd_gains(9.0, 6.0, 0.5), np.zeros(0), np.zeros(2),
        [0.0, 1.0, 0.0], np.nan, 1e-3),
    "open_loop_command": lambda: open_loop_command(
        pd_gains(9.0, 6.0, 0.5, 0.05), np.nan, [0.0, 1.0, 2.0]),
}


@pytest.mark.parametrize("call", sorted(NAN_MASS_CALLS))
def test_nan_mass_rejected(call):
    with pytest.raises(ValueError):
        NAN_MASS_CALLS[call]()


def test_discretize_results_are_read_only():
    a, b = np.array([[0.0]]), np.array([[1.0]])
    ad, bd = discretize(a, b, 0.125)
    for array in (ad, bd):
        with pytest.raises(ValueError):
            array *= 2.0
    again = discretize(a, b, 0.125)
    assert again[0].tolist() == [[1.0]] and again[1].tolist() == [[0.125]]
    empty = discretize(np.zeros((0, 0)), np.zeros((0, 1)), 0.125)
    assert not any(array.flags.writeable for array in empty)
