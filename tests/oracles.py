"""Independent numerical oracles shared by the unit and acceptance tests.

These deliberately avoid the library's own matrix-propagation route so that
agreement is evidence and not tautology.  The one exception is
inverse_linear_entries_scalar, the library's inverse-linear formula written
for one point: a reference for the bits of the array formula, not an oracle
for its accuracy.  x_power_by_matrix_power is the dense matrix route the
perturbation layer's ladder walk replaced, and check_inverse_linear_scalar
the one-leg check the inverse-linear domain's array form replaced.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from cyclosc.core import _SQUARE_MAX
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
