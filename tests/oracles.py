"""Independent numerical oracles shared by the unit and acceptance tests.

These deliberately avoid the library's own matrix-propagation route so that
agreement is evidence and not tautology.  The one exception is
inverse_linear_entries_scalar, the library's inverse-linear formula written
for one point: a reference for the bits of the array formula, not an oracle
for its accuracy.  x_power_by_matrix_power is the dense matrix route the
perturbation layer's ladder walk replaced, and check_inverse_linear_scalar
the one-leg check the inverse-linear domain's array form replaced.
power_law_leg_reference and exponential_leg_reference are the two Bessel
legs, each with its own frame, that the single Bessel leg replaced.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from cyclosc.closed_form import MAX_BESSEL_ORDER
from cyclosc.core import _SQUARE_MAX, EvolutionMatrix
from cyclosc.errors import DomainError


def moment_oracle(profile, kappa, t_final, state):
    """Final energy from the first/second moment ODE system:

        d<q>/dt   = <p>                  d<p>/dt   = -w^2 <q> + kappa
        d<q^2>/dt = 2<D>                 d<p^2>/dt = -2 w^2 <D> + 2 kappa <p>
        d<D>/dt   = <p^2> - w^2 <q^2> + kappa <q>

    Never touches the S-matrix or trajectory machinery it validates.
    """
    e0 = state.energy

    def rhs(t, y):
        q, p, qq, pp, d = y
        w2 = profile.omega_sq(t)
        kt = kappa(t)
        return [
            p,
            -w2 * q + kt,
            2.0 * d,
            -2.0 * w2 * d + 2.0 * kt * p,
            pp - w2 * qq + kt * q,
        ]

    sol = solve_ivp(
        rhs,
        (0.0, t_final),
        [0.0, 0.0, e0, e0, 0.0],
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    assert sol.success
    _, _, qq, pp, _ = sol.y[:, -1]
    w2_end = profile.omega_sq(t_final)
    # raw moments: the kappa source terms already feed the mean motion in
    return 0.5 * (pp + w2_end * qq)


def inverse_linear_cycle_gain_mp(v, lam, n_cycles, dps=60):
    """R of n inverse-linear cycles (omega0 = 1), in dps-digit arithmetic.

    Each leg is Phi(lam) Phi(1)^-1 from the power solutions q = l^beta,
    beta = 1/2 +- sqrt(1/4 - Omega^2), of omega = omega0/l with l = 1 + v t,
    not from the library's real cosh/sinc form.  The legs take the float
    arguments the library passes: (1, u, lam) out and (1/lam, -u, 1/lam)
    back, with u = v signed like lam - 1.
    """
    import mpmath

    with mpmath.workdps(dps):
        def leg(omega0, rate, scale):
            omega0, rate, scale = mpmath.mpf(omega0), mpmath.mpf(rate), mpmath.mpf(scale)
            delta = mpmath.sqrt(mpmath.mpc(0.25) - (omega0 / rate) ** 2)

            def frame(x):
                return mpmath.matrix([[x ** (0.5 + delta), x ** (0.5 - delta)],
                                      [rate * (0.5 + delta) * x ** (delta - 0.5),
                                       rate * (0.5 - delta) * x ** (-0.5 - delta)]])
            return frame(scale) * frame(mpmath.mpf(1)) ** -1

        u = v if lam > 1.0 else -v
        once = leg(1.0 / lam, -u, 1.0 / lam) * leg(1.0, u, lam)
        total = once ** n_cycles
        return float(sum(mpmath.re(x) ** 2 for x in total) / 2)


def inverse_linear_energy_mp(omega0, v, lam, e_initial, dps=50):
    """energy_inverse_linear's closed form in dps-digit complex arithmetic:

        E = E0 [lam^(2 delta) + lam^(-2 delta) + 2 (4 delta^2 - 1)] / (8 lam delta^2)

    with delta^2 = 1/4 - (omega0/v)^2 from the float arguments, in place of
    the library's real cosh/sinc form.
    """
    import mpmath

    with mpmath.workdps(dps):
        d2 = mpmath.mpf(0.25) - (mpmath.mpf(omega0) / mpmath.mpf(v)) ** 2
        delta = mpmath.sqrt(mpmath.mpc(d2))
        lam = mpmath.mpf(lam)
        num = lam ** (2 * delta) + lam ** (-2 * delta) + 2 * (4 * d2 - 1)
        return float(mpmath.re(mpmath.mpf(e_initial) * num / (8 * lam * d2)))


def x_power_by_matrix_power(power, cutoff):
    """numpy's matrix power of the tridiagonal x, <k+1|x|k> = sqrt((k+1)/2),
    truncated to |0> .. |cutoff-1>.  The truncation spoils columns n >=
    cutoff - power; the others are x^power up to rounding.
    """
    k = np.arange(1, cutoff)
    x = np.zeros((cutoff, cutoff))
    x[k, k - 1] = x[k - 1, k] = np.sqrt(k / 2.0)
    return np.linalg.matrix_power(x, power)


def inverse_linear_entries_scalar(omega0, v, lam):
    """(a, b, c, d) of one inverse-linear leg in Python float arithmetic.

    The library's real cosh/sinc form written for one point, with libm's
    log, cosh, sinh, cos and sin, squares as x * x, and the Taylor series in
    u = s2 ln(lam)^2 below |u| = 1e-6: the array formula must give these
    bits for every element of a batch.
    """
    w = omega0 / v
    s2 = 0.25 - w * w
    ln = math.log(lam)
    rt = math.sqrt(lam)
    u = s2 * ln * ln
    if abs(u) < 1e-6:
        ch = 1.0 + u / 2.0 * (1.0 + u / 12.0 * (1.0 + u / 30.0))
        sh = ln * (1.0 + u / 6.0 * (1.0 + u / 20.0 * (1.0 + u / 42.0)))
    elif s2 > 0.0:
        r = math.sqrt(s2)
        ch, sh = math.cosh(r * ln), math.sinh(r * ln) / r
    else:
        r = math.sqrt(-s2)
        ch, sh = math.cos(r * ln), math.sin(r * ln) / r
    return rt * (ch - 0.5 * sh), rt * sh / v, -(omega0 * omega0 / v) * sh / rt, (ch + 0.5 * sh) / rt


def check_inverse_linear_scalar(omega0, v, lam):
    """The inverse-linear leg's domain for one leg of Python floats, as an
    if-chain: raises the DomainError of the first condition it fails."""
    if not omega0 > 0.0:
        raise DomainError(f"omega0 must be positive, got {omega0!r}")
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam!r}")
    if lam == math.inf:
        raise DomainError("lambda must be finite, got inf")
    if lam != 1.0:
        if v == 0.0:
            raise DomainError("v = 0 cannot reach lambda != 1")
        if (lam - 1.0) / v < 0.0:
            raise DomainError(
                f"lambda = {lam!r} is not reachable with rate v = {v!r} "
                "(the sign of v must match lambda - 1)"
            )
        if not (omega0 <= _SQUARE_MAX and abs(omega0 / v) <= _SQUARE_MAX):
            raise DomainError(
                f"omega0 = {omega0!r} with rate v = {v!r} is out of range: "
                "(omega0/v)**2 or omega0**2 overflows"
            )


def _power_law_frame(z, k, v, jv, yv):
    """Fundamental-solution frame [[q1, q2], [p1, p2]] at scale z.

    q_i are sqrt(z) J_nu(w) and sqrt(z) Y_nu(w) with nu = 1/k and
    w = (2/|k v|) z^(k/2); p_i = v dq_i/dz.
    """
    nu = 1.0 / k
    try:
        w = 2.0 / abs(k * v) * z ** (0.5 * k)
    except (OverflowError, ZeroDivisionError):  # k v or z^(k/2) left the float range
        w = math.nan
    if not 0.0 < w < math.inf:
        raise DomainError(f"w = (2/|k v|) z^(k/2) is not a positive float at z = {z!r}, k = {k!r}, v = {v!r}")
    rt = math.sqrt(z)
    (jw, jm), (yw, ym) = jv([nu, nu - 1.0], w).tolist(), yv([nu, nu - 1.0], w).tolist()
    # Z_nu'(w) = Z_(nu-1)(w) - (nu/w) Z_nu(w); dw/dz = (k/2) w / z.
    dwdz = 0.5 * k * w / z
    jp = jm - (nu / w) * jw
    yp = ym - (nu / w) * yw
    dq1 = 0.5 / rt * jw + rt * jp * dwdz
    dq2 = 0.5 / rt * yw + rt * yp * dwdz
    return EvolutionMatrix(rt * jw, rt * yw, v * dq1, v * dq2)


def _exponential_frame(z, v, jv, yv):
    """Fundamental frame for omega = exp(v t): q_i = {J0, Y0}(z/|v|), p_i = dq_i/dt."""
    w = z / abs(v)
    (j0, j1), (y0, y1) = jv([0.0, 1.0], w).tolist(), yv([0.0, 1.0], w).tolist()
    # d/dt Z0(w(t)) = -Z1(w) * dw/dt with dw/dt = v w.
    return EvolutionMatrix(j0, y0, -v * w * j1, -v * w * y1)


def _wronskian_map(start, end, z_final):
    """end @ start^-1 through the Wronskian, with the library's refusals of
    frames and maps that leave the floats, but not its drift refusal."""
    w = start.det()
    if not math.isfinite(w):
        raise DomainError(f"the Bessel frame is not finite: its Wronskian evaluates to {w!r}")
    if not all(map(math.isfinite, (end.a, end.b, end.c, end.d))):
        raise DomainError(f"the Bessel frame at z = {z_final!r} is not finite")
    if w == 0.0:
        raise DomainError("the Bessel frame is degenerate: its Wronskian evaluates to 0")
    s = end @ EvolutionMatrix(start.d / w, -start.b / w, -start.c / w, start.a / w)
    if not all(map(math.isfinite, (s.a, s.b, s.c, s.d))):
        raise DomainError(f"the Bessel map leaves the float range: {s!r}")
    return s


def power_law_leg_reference(k, v, z_final):
    """propagate_power_law as the power-law family's own frame and checks."""
    if k == 0.0:
        raise DomainError("k = 0 is the inverse-linear family; use propagate_inverse_linear")
    if abs(1.0 / k) > MAX_BESSEL_ORDER:
        raise DomainError(
            f"Bessel order 1/k = {1.0 / k!r} outside the supported range |1/k| <= {MAX_BESSEL_ORDER}"
        )
    if not z_final > 0.0:
        raise DomainError(f"z_final must be positive, got {z_final!r}")
    if z_final == 1.0:
        return EvolutionMatrix.identity()
    if v == 0.0 or (z_final - 1.0) / v < 0.0:
        raise DomainError(f"z_final = {z_final!r} is not reachable with rate v = {v!r}")
    from scipy.special import jv, yv
    return _wronskian_map(_power_law_frame(1.0, k, v, jv, yv), _power_law_frame(z_final, k, v, jv, yv), z_final)


def exponential_leg_reference(v, z_final):
    """propagate_exponential as the exponential family's own frame and checks."""
    if not z_final > 0.0:
        raise DomainError(f"z_final must be positive, got {z_final!r}")
    if z_final == 1.0:
        return EvolutionMatrix.identity()
    if v == 0.0 or math.log(z_final) / v < 0.0:
        raise DomainError(f"z_final = {z_final!r} is not reachable with rate v = {v!r}")
    from scipy.special import jv, yv
    return _wronskian_map(_exponential_frame(1.0, v, jv, yv), _exponential_frame(z_final, v, jv, yv), z_final)


def mode_map(s, w_start, w_end):
    """Complex mode map a_i(final) = sum_k A_ik a_k + B_ik a_k^dagger of the
    2N x 2N map s of (q; p), a_k = (omega_k^(1/2) q_k + i omega_k^(-1/2) p_k)/sqrt(2)
    at the squared frequencies w_start before and w_end after.

    The annihilation-operator picture, in place of the library's real
    second moments: A A^dagger - B B^dagger = 1 and A B^T - B A^T = 0.
    """
    n = len(w_start)
    sqq, sqp, spq, spp = s[:n, :n], s[:n, n:], s[n:, :n], s[n:, n:]
    s0 = np.sqrt(np.sqrt(w_start))[None, :]  # omega0_k ** (1/2), row
    sf = np.sqrt(np.sqrt(w_end))[:, None]    # omegaf_i ** (1/2), column
    ratio, prod = sf / s0, sf * s0
    a_mat = 0.5 * (ratio * sqq + spp / ratio + 1j * (spq / prod - prod * sqp))
    b_mat = 0.5 * (ratio * sqq - spp / ratio + 1j * (spq / prod + prod * sqp))
    return a_mat, b_mat


def phonon_numbers(s, w_start, w_end, occupations):
    """<a_i^dagger a_i> after s from independent modes with occupations n_k:
    sum_k |A_ik|^2 n_k + |B_ik|^2 (n_k + 1)."""
    a_mat, b_mat = mode_map(s, w_start, w_end)
    occ = np.asarray(occupations, dtype=float)
    return np.abs(a_mat) ** 2 @ occ + np.abs(b_mat) ** 2 @ (occ + 1.0)
