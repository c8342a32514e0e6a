"""Single-actuator controllers and their closed-loop eigenvalue analysis.

The controller family is a linear state-space feedback on the tracking
error plus acceleration/velocity feed-forward.  One error-sign convention
is used throughout the library: error = reference - actual, and stabilizing
feedback enters with positive gain coefficients.

The passive load enters the actuator response only through the value-rate
terms divided by its mass m, so the closed-loop characteristic polynomial
is affine in 1/m:

    chi(s) = chi_inf(s) + (1/m) chi_rate(s)

`chi_inf` is the clamped (m = inf) loop and `chi_rate` is the rate
polynomial times the controller's characteristic polynomial.  The pair
depends only on the gains and the actuator model, so it is built once and
cached; each mass then adds chi_rate / m to chi_inf.  With all rate terms
zero (no back-EMF) `chi_rate` vanishes and the poles do not depend on the
load at all: this is the no-gain-scheduling property in its structural
form, and those load-independent poles are computed once, cached with the
pair, and copied out for every mass.
A passive-load mass must be positive or +inf; NaN is rejected with
ValueError wherever a mass is accepted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import ParactlError


@dataclass(frozen=True)
class ActuatorModel:
    """Linear actuator response model.

    `rate_coeffs[j]` multiplies the (j+1)-th time derivative of the
    actuator value on the left-hand side of the response ODE; the first
    entry is the back-EMF constant.  `force_deriv_coeffs[i]` multiplies the
    (i+1)-th derivative of the supplied force, `command_deriv_coeffs[i]`
    the (i+1)-th derivative of the commanded force.
    """

    rate_coeffs: tuple[float, ...] = (0.0,)
    force_deriv_coeffs: tuple[float, ...] = ()
    command_deriv_coeffs: tuple[float, ...] = ()

    @classmethod
    def ideal(cls, back_emf: float = 0.0) -> "ActuatorModel":
        return cls(rate_coeffs=(float(back_emf),))

    @property
    def back_emf(self) -> float:
        return self.rate_coeffs[0] if self.rate_coeffs else 0.0

    @property
    def is_ideal(self) -> bool:
        return (not self.force_deriv_coeffs
                and not self.command_deriv_coeffs
                and all(c == 0.0 for c in self.rate_coeffs[1:]))


@dataclass(frozen=True)
class ControllerGains:
    """State-space tracking controller constants.

    A is (s, s), B (s, 1), C (1, s) and D (1, l); l is the number of error
    derivatives fed back (value, rate, ... up to order l-1).  The same
    constants drive every actuator of a parallel system.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    back_emf: float = 0.0
    no_load_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, float)))
        b = np.asarray(self.B, float).reshape(-1, 1) if np.size(self.B) else \
            np.zeros((0, 1))
        object.__setattr__(self, "B", b)
        c = np.asarray(self.C, float).reshape(1, -1) if np.size(self.C) else \
            np.zeros((1, 0))
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "D",
                           np.asarray(self.D, float).reshape(1, -1))
        s = self.state_dim
        if self.A.shape != (s, s) or self.B.shape != (s, 1) \
                or self.C.shape != (1, s):
            raise ValueError("inconsistent controller matrix shapes")
        if self.derivative_order < 1:
            raise ValueError("need at least the error value itself (l >= 1)")

    @property
    def state_dim(self) -> int:
        return self.B.shape[0] if self.B.size else self.A.shape[0] \
            if self.A.size else 0

    @property
    def derivative_order(self) -> int:
        return self.D.shape[1]


def pd_gains(kp: float, kd: float, back_emf: float = 0.0,
             no_load_mass: float = 0.0) -> ControllerGains:
    """Stateless proportional-derivative instance of the controller family."""
    if kp <= 0.0 or kd <= 0.0:
        raise ValueError("PD gains must be positive")
    empty = np.zeros((0, 0))
    return ControllerGains(A=empty, B=np.zeros((0, 1)), C=np.zeros((1, 0)),
                           D=np.array([[kp, kd]]), back_emf=back_emf,
                           no_load_mass=no_load_mass)


def open_loop_command(gains: ControllerGains, mass: float,
                      ref_stack: np.ndarray) -> float:
    """Command force tracking a reference with no error feedback:
    mass times reference acceleration plus back-EMF compensation."""
    if not mass >= gains.no_load_mass:
        raise ValueError("passive load must be a number no lighter than "
                         "the no-load mass")
    ref_stack = np.asarray(ref_stack, float)
    return float(mass * ref_stack[2] + gains.back_emf * ref_stack[1])


_DISCRETIZE_CACHE: dict = {}


def discretize(A: np.ndarray, B: np.ndarray,
               dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization of (A, B) over one tick."""
    key = (A.tobytes(), B.tobytes(), A.shape, dt)
    hit = _DISCRETIZE_CACHE.get(key)
    if hit is not None:
        return hit
    s = A.shape[0]
    if s == 0:
        result = (A.copy(), B.copy())
    else:
        block = np.zeros((s + 1, s + 1))
        block[:s, :s] = A * dt
        block[:s, s:] = B * dt
        big = expm(block)
        result = (big[:s, :s], big[:s, s:])
    if len(_DISCRETIZE_CACHE) > 256:
        _DISCRETIZE_CACHE.clear()
    _DISCRETIZE_CACHE[key] = result
    return result


def feedforward_step(gains: ControllerGains, state: np.ndarray,
                     error_stack: np.ndarray, ref_stack: np.ndarray,
                     mass: float, dt: float) -> tuple[float, np.ndarray]:
    """One controller tick: command acceleration and advanced state.

    `error_stack` holds l entries (error value and derivatives), computed
    with error = reference - actual.  `ref_stack` holds l+1 entries of the
    reference so its acceleration is available for the feed-forward part.
    The internal state advances by exact discretization over dt.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    _check_masses(mass)
    error_stack = np.asarray(error_stack, float)
    ref_stack = np.asarray(ref_stack, float)
    if error_stack.size != gains.derivative_order:
        raise ValueError("error stack length does not match gains")
    if ref_stack.size < 3:
        raise ValueError("reference stack needs value, rate and acceleration")
    state = np.asarray(state, float).reshape(gains.state_dim)
    k0_over_m = gains.back_emf / mass if np.isfinite(mass) else 0.0
    accel = float(ref_stack[2] + k0_over_m * ref_stack[1]
                  + (gains.C @ state)[0] + (gains.D @ error_stack)[0])
    ad, bd = discretize(gains.A, gains.B, dt)
    new_state = ad @ state + (bd * error_stack[0]).reshape(-1) \
        if gains.state_dim else state
    return accel, new_state


# --------------------------------------------------------------------------
# closed-loop eigenvalue analysis

def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polymul(a, b)


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyadd(a, b)


def _leverrier(A: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Characteristic polynomial (ascending coeffs) and adjugate expansion
    of (sI - A): adj = sum_k mats[k] * s^(t-1-k)."""
    t = A.shape[0]
    coeffs_desc = [1.0]
    mats = []
    bk = np.eye(t)
    for k in range(1, t + 1):
        mats.append(bk)
        abk = A @ bk
        ak = -np.trace(abk) / k
        coeffs_desc.append(ak)
        bk = abk + ak * np.eye(t)
    return np.array(coeffs_desc[::-1]), mats


def _check_masses(masses) -> None:
    if np.any(~(np.asarray(masses) > 0.0)):
        raise ValueError("passive-load mass must be positive (or infinite)")


def _plant_polynomials(
        model: ActuatorModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left side P(s) = P_inf(s) + P_rate(s) / m acting on the value, as
    the pair (P_inf, P_rate), and right side Q(s) acting on the command
    acceleration."""
    degree = max(2, len(model.force_deriv_coeffs) + 2,
                 len(model.rate_coeffs) + 1)
    p = np.zeros(degree + 1)
    p[2] = 1.0
    for i, c in enumerate(model.force_deriv_coeffs):
        p[i + 3] += c
    p_rate = np.zeros(degree + 1)
    for j, k in enumerate(model.rate_coeffs):
        p_rate[j + 1] = k
    q = np.ones(1)
    for i, c in enumerate(model.command_deriv_coeffs):
        q = _poly_add(q, np.array([0.0] * (i + 1) + [c]))
    return p, p_rate, q


_CHARACTERISTIC_CACHE: dict = {}


def _characteristic(gains: ControllerGains, model: ActuatorModel):
    """Rows chi_inf and chi_rate (ascending coefficients, one length) of the
    closed-loop characteristic polynomial chi_inf + chi_rate / m, and the
    poles every mass shares when chi_rate is zero (else None).

    Regulation loop: reference zero, error = -value.  The polynomial is
    P(s) chi_A(s) + Q(s) [C adj(sI-A) B + D(s) chi_A(s)], assembled with
    exact polynomial arithmetic on the model coefficients.  Both results
    are read-only and cached per gain set and actuator model.
    """
    key = (gains.A.tobytes(), gains.B.tobytes(), gains.C.tobytes(),
           gains.D.tobytes(), gains.A.shape, gains.D.shape,
           tuple(model.rate_coeffs), tuple(model.force_deriv_coeffs),
           tuple(model.command_deriv_coeffs))
    hit = _CHARACTERISTIC_CACHE.get(key)
    if hit is not None:
        return hit
    p, p_rate, q = _plant_polynomials(model)
    chi, adj_mats = _leverrier(gains.A)
    d_poly = gains.D.reshape(-1)
    t = gains.state_dim
    cab = np.zeros(max(t, 1))
    for k, mat in enumerate(adj_mats):
        cab[t - 1 - k] = (gains.C @ mat @ gains.B)[0, 0]
    chi_inf = _poly_add(_poly_mul(p, chi),
                        _poly_mul(q, _poly_add(cab, _poly_mul(d_poly, chi))))
    chi_rate = _poly_mul(p_rate, chi)
    pair = np.zeros((2, max(chi_inf.size, chi_rate.size)))
    pair[0, :chi_inf.size] = chi_inf
    pair[1, :chi_rate.size] = chi_rate
    pair.setflags(write=False)
    # chi_inf + 0 / m is chi_inf for every mass, so these are the very
    # poles each mass would get
    fixed = None if pair[1].any() else _roots(pair[:1])[0]
    if fixed is not None:
        fixed.setflags(write=False)
    if len(_CHARACTERISTIC_CACHE) > 256:
        _CHARACTERISTIC_CACHE.clear()
    _CHARACTERISTIC_CACHE[key] = pair, fixed
    return pair, fixed


def _roots(chars: np.ndarray) -> list[np.ndarray]:
    """Roots of each row of ascending polynomial coefficients.

    Coefficients at or below 1e-12 of the row's largest one are zeroed and
    the top ones trimmed, per row, since the degree can depend on the mass
    (higher value-rate terms).  The roots of all rows of one degree come
    from one eigenvalue call on their stacked companion matrices, each row
    sorted and returned real when no root has an imaginary part, as
    `numpy.polynomial.polynomial.polyroots` does.
    """
    scale = np.max(np.abs(chars), axis=1, keepdims=True)
    if np.any(scale == 0.0):
        raise ParactlError("ill-posed model: characteristic polynomial is 0")
    keep = np.abs(chars) > 1e-12 * scale
    chars = np.where(keep, chars, 0.0)
    degrees = keep.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
    if np.any(degrees < 1):
        raise ParactlError("ill-posed model: no dynamic modes remain")
    poles = [None] * chars.shape[0]
    for n in np.unique(degrees):
        rows = np.flatnonzero(degrees == n)
        companion = np.zeros((rows.size, n, n))
        companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        companion[:, :, -1] -= chars[rows, :n] / chars[rows, n:n + 1]
        roots = np.sort(np.linalg.eigvals(companion), axis=1)
        real = ~np.any(roots.imag, axis=1)
        for row, r, is_real in zip(rows, roots, real):
            poles[row] = r.real.copy() if is_real else r
    return poles


def closed_loop_poles(gains: ControllerGains, model: ActuatorModel,
                      mass: float | np.ndarray
                      ) -> np.ndarray | list[np.ndarray]:
    """Poles of one actuator under the controller, carrying a passive load.

    `mass` is a scalar or a 1-D array of masses, each positive or +inf
    (clamped actuator, which drops the value-rate terms); NaN, zero and
    negative masses raise ValueError.  A scalar returns one array of
    poles, an array a list with one pole array per mass.

    Each mass's characteristic polynomial is chi_inf + chi_rate / m from
    the cached pair (see the module docstring), and all masses share one
    batched root computation (`_roots`).  With chi_rate zero the cached
    load-independent poles are returned instead, a fresh copy per mass.
    """
    masses = np.asarray(mass, float)
    if masses.ndim > 1:
        raise ValueError("masses must be a scalar or a 1-D array")
    _check_masses(masses)
    pair, fixed = _characteristic(gains, model)
    if fixed is not None:
        poles = [fixed.copy() for _ in range(masses.size)]
    else:
        poles = _roots(pair[0] + pair[1] / masses.reshape(-1, 1))
    return poles[0] if masses.ndim == 0 else poles


@dataclass(frozen=True)
class StabilityReport:
    """Per-mass eigenvalue summary from `stability_check`."""

    masses: tuple[float, ...]
    max_real_parts: tuple[float, ...]
    poles: tuple[tuple[complex, ...], ...]
    passed: bool

    def worst(self) -> float:
        return max(self.max_real_parts)


def stability_check(gains: ControllerGains, model: ActuatorModel,
                    masses) -> StabilityReport:
    """Eigenvalue test of the closed loop over a sweep of passive loads.

    Passes only if every mass in the sweep (which must include the no-load
    mass and infinity) yields poles strictly in the left half plane.
    """
    masses = tuple(float(m) for m in masses)
    if not any(np.isinf(m) for m in masses):
        raise ValueError("mass sweep must include infinity (clamped case)")
    if gains.no_load_mass > 0.0 and \
            not any(np.isclose(m, gains.no_load_mass) for m in masses):
        raise ValueError("mass sweep must include the no-load mass")
    poles = closed_loop_poles(gains, model, np.array(masses))
    max_reals = tuple(float(np.max(p.real)) for p in poles)
    passed = all(r < -1e-9 for r in max_reals)
    return StabilityReport(masses=masses, max_real_parts=max_reals,
                           poles=tuple(tuple(complex(v) for v in p)
                                       for p in poles),
                           passed=passed)


# --------------------------------------------------------------------------
# scalar closed-loop simulation

@dataclass
class ActuatorTrace:
    """Time series from a single-actuator run."""

    t: np.ndarray
    value: np.ndarray
    error: np.ndarray
    accel_cmd: np.ndarray
    force_cmd: np.ndarray


def _plant_state_space(model: ActuatorModel, mass: float):
    """Controllable-canonical realization of the passive-load response,
    input = command acceleration, output = actuator value."""
    _check_masses(mass)
    p_inf, p_rate, q = _plant_polynomials(model)
    p = p_inf + p_rate / mass
    scale = np.max(np.abs(p))
    p = np.trim_zeros(np.where(np.abs(p) > 1e-14 * scale, p, 0.0), trim="b")
    deg = p.size - 1
    if deg < 1:
        raise ParactlError("ill-posed model: plant has no dynamics")
    if q.size - 1 >= deg:
        raise ParactlError("command derivatives exceed plant order")
    lead = p[-1]
    pn = p / lead
    qn = np.zeros(deg)
    qn[:q.size] = q / lead
    a = np.zeros((deg, deg))
    a[:-1, 1:] = np.eye(deg - 1)
    a[-1, :] = -pn[:-1]
    b = np.zeros((deg, 1))
    b[-1, 0] = 1.0
    c = np.zeros((1, deg))
    c[0, :] = qn
    return a, b, c


def simulate_single_actuator(gains: ControllerGains, model: ActuatorModel,
                             mass: float, reference, dt: float,
                             duration: float,
                             initial=None) -> ActuatorTrace:
    """Run the closed loop on one passively loaded actuator.

    `reference(t)` returns a stack of at least l+1 entries (value, rate,
    acceleration, ...).  `initial` gives the starting value and derivatives
    of the actuator (default all zero).  The controller ticks at dt with
    the command acceleration held constant between ticks; the plant
    advances by exact discretization of its linear realization, so the
    only discretization in the result is the zero-order hold itself.

    Error derivatives fed back to the controller are read off the plant
    state, which requires the value output to have relative degree of at
    least l.
    """
    a_p, b_p, c_p = _plant_state_space(model, mass)
    deg = a_p.shape[0]
    order = gains.derivative_order
    # derivative extraction rows: the j-th output derivative is C A^j x
    # provided the feedthrough C A^(j-1) B vanishes
    deriv_rows = [c_p.reshape(-1)]
    for _ in range(order - 1):
        if abs((deriv_rows[-1] @ b_p)[0]) > 1e-12:
            raise ParactlError(
                "feedback order exceeds the plant's relative degree")
        deriv_rows.append(deriv_rows[-1] @ a_p)
    # map requested initial output derivatives to an initial state
    obs = np.vstack([np.linalg.matrix_power(a_p.T, j) @ c_p.reshape(-1)
                     for j in range(deg)])
    if initial is None:
        x_plant = np.zeros(deg)
    else:
        initial = np.asarray(initial, float)
        target = np.zeros(deg)
        target[:min(deg, initial.size)] = initial[:deg]
        x_plant = np.linalg.solve(obs, target)
    ad, bd = discretize(a_p, b_p, dt)
    n_ticks = int(np.floor(duration / dt + 1e-9))
    x_ctrl = np.zeros(gains.state_dim)
    t_grid = np.arange(n_ticks) * dt
    values = np.zeros(n_ticks)
    errors = np.zeros(n_ticks)
    accels = np.zeros(n_ticks)
    forces = np.zeros(n_ticks)
    for i, t in enumerate(t_grid):
        ref = np.asarray(reference(t), float)
        stack = np.array([float(row @ x_plant) for row in deriv_rows])
        err_stack = ref[:order] - stack
        accel, x_ctrl = feedforward_step(gains, x_ctrl, err_stack, ref,
                                         mass, dt)
        values[i] = stack[0]
        errors[i] = err_stack[0]
        accels[i] = accel
        forces[i] = accel * mass if np.isfinite(mass) else np.nan
        x_plant = ad @ x_plant + (bd[:, 0] * accel)
        if not np.all(np.isfinite(x_plant)) or \
                np.max(np.abs(x_plant)) > 1e12:
            raise ParactlError("single-actuator simulation diverged")
    return ActuatorTrace(t=t_grid, value=values, error=errors,
                         accel_cmd=accels, force_cmd=forces)
