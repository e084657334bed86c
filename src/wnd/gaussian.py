"""Closed and semi-closed solutions for driven-oscillator Hamiltonians.

Three families, all in rescaled dimensionless time (t means omega*t, drives
dimensionless):

* linear drive      H = a'a + g+(t) a' + g-(t) a
* quadratic drive   H = a'a + l+(t) a'^2 + l-(t) a^2
* combined Gaussian H = a'a + g+(t) a' + g-(t) a + l+(t) a'^2 + l-(t) a^2

The quadratic family lives on the su(1,1) triple K+ = a'^2/2,
K0 = (2 a'a + 1)/4, K- = a^2/2.  Coordinates are always stated explicitly in
the declared basis: a'a = 2 K0 - 1/2, a'^2 = 2 K+, a^2 = 2 K-, so the
generic engine receives G = (2 l+, 2, 2 l-) plus a central -1/2 for the
quadratic part.  The generic engine is the single source of truth here; the
closed forms are accelerators validated against it and against the Fock
oracle.

Two alternate, mutually inconsistent right-hand sides for the su(1,1)
coefficient ODEs circulate in the literature; they are kept here as
``su11_rhs_variant_a/b`` purely for regression comparison.  Neither
reproduces the oscillator propagator (see the regression tests); only the
generator-derived ``su11_rhs`` does.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import engine, ladder
from .signals import Constant, as_signal

HERMITIAN_PAIR_TOL = 1e-9


# -- operator bases -----------------------------------------------------------


def su11_elements():
    """(K+, K0, K-) as ladder polynomials."""
    ad = ladder.creation()
    a = ladder.annihilation()
    one = ladder.identity()
    k_plus = 0.5 * (ad * ad)
    k_zero = 0.25 * (2.0 * ladder.number() + one)
    k_minus = 0.5 * (a * a)
    return k_plus, k_zero, k_minus


def linear_basis():
    """Basis (a'a, a', a, 1) in the ansatz order of the linear solution."""
    return ladder.LieBasis(
        [ladder.number(), ladder.creation(), ladder.annihilation(), ladder.identity()]
    )


def su11_basis(include_identity=True):
    """Basis (K+, K0, K-[, 1]) in the ansatz order of the quadratic solution."""
    elems = list(su11_elements())
    if include_identity:
        elems.append(ladder.identity())
    return ladder.LieBasis(elems)


def combined_basis():
    """Basis (K+, K0, K-, a', a, 1) for the combined Gaussian problem."""
    k_plus, k_zero, k_minus = su11_elements()
    return ladder.LieBasis(
        [k_plus, k_zero, k_minus, ladder.creation(), ladder.annihilation(),
         ladder.identity()]
    )


# -- linear drive -------------------------------------------------------------


@dataclass
class LinearDriveCoefficients:
    """F0(t) = t plus the displacement coefficients on a time grid."""

    times: np.ndarray
    f0: np.ndarray
    f_plus: np.ndarray
    f_minus: np.ndarray


def linear_coefficients(g_plus, g_minus, times):
    """Linear-drive coefficients F0 = t, F+- = int g+-(t') e^{+-i t'} dt'.

    Constants and sinusoids use exact antiderivatives (including the
    resonant case); sampled and hook signals fall back to adaptive
    quadrature with absolute tolerance 1e-10.
    """
    times = np.asarray(times, dtype=float)
    g_plus = as_signal(g_plus)
    g_minus = as_signal(g_minus)
    for sig in (g_plus, g_minus):
        if not np.all(np.isfinite(np.atleast_1d(sig(times)))):
            raise ValueError("driving signal is not finite on the grid")
    return LinearDriveCoefficients(
        times=times,
        f0=times.astype(float),
        f_plus=np.atleast_1d(g_plus.oscillatory_integral(times, +1.0)),
        f_minus=np.atleast_1d(g_minus.oscillatory_integral(times, -1.0)),
    )


def quadrature_expectation(alpha, coeffs):
    """Coherent-state quadrature means under the linear-drive evolution.

    <X> = [e^{iF0}(a* + iF-) + e^{-iF0}(a - iF+)] / sqrt(2) and the matching
    <P>.  For Hermitian drives (F- = conj F+) the results are real and
    returned as float arrays; otherwise a warning is issued and the complex
    values are returned as-is.
    """
    alpha = complex(alpha)
    up = np.exp(1j * coeffs.f0) * (np.conj(alpha) + 1j * coeffs.f_minus)
    dn = np.exp(-1j * coeffs.f0) * (alpha - 1j * coeffs.f_plus)
    x = (up + dn) / np.sqrt(2.0)
    p = 1j * (up - dn) / np.sqrt(2.0)
    pairing = np.max(np.abs(coeffs.f_minus - np.conj(coeffs.f_plus)))
    scale = max(1.0, float(np.max(np.abs(coeffs.f_plus))))
    if pairing <= HERMITIAN_PAIR_TOL * scale:
        return x.real, p.real
    warnings.warn(
        "non-Hermitian drive (F- != conj F+): quadrature means are complex",
        stacklevel=2,
    )
    return x, p


def _signal_pair(plus, minus, factor=None):
    """The signals of a +/- slot pair, each ``as_signal`` times ``factor``.

    When ``minus is plus`` both slots get one object, so the problem's split
    holds them as one group and the drive is evaluated once per sample,
    also when it is a plain callable or is scaled (the K+- slots carry 2 l).
    """
    def coerce(x):
        sig = as_signal(x)
        return sig if factor is None else sig * factor

    first = coerce(plus)
    return first, first if minus is plus else coerce(minus)


def linear_problem(g_plus, g_minus, t_final):
    """Engine problem for the linear family, G = (1, g+, g-, 0)."""
    plus, minus = _signal_pair(g_plus, g_minus)
    return engine.DecouplingProblem(
        linear_basis(), [Constant(1.0), plus, minus, Constant(0.0)], t_final)


# -- quadratic drive ----------------------------------------------------------


def su11_rhs(lam_plus, lam_minus, xi):
    """Validated su(1,1) coefficient derivatives for the oscillator family.

    Generated by the engine from the structure constants with the exact
    basis coordinates G = (2 l+, 2, 2 l-); spelled out here for direct use:

        dxi+/dt = 2 l+ - 2i xi+ - 2 l- xi+^2
        dxi0/dt = 2 - 4i l- xi+
        dxi-/dt = 2 l- exp(-i xi0)
    """
    xp, x0, _xm = xi
    return np.array(
        [
            2 * lam_plus - 2j * xp - 2 * lam_minus * xp ** 2,
            2 - 4j * lam_minus * xp,
            2 * lam_minus * np.exp(-1j * x0),
        ],
        dtype=complex,
    )


def su11_rhs_variant_a(lam_plus, lam_minus, xi, frequency=1.0):
    """Alternate RHS (variant A); kept as a regression reference only.

    Fails the oracle cross-check; see the regression tests.
    """
    xp, x0, _xm = xi
    return np.array(
        [
            lam_plus + frequency * xp + lam_minus * xp ** 2,
            frequency + 2 * lam_minus * xp,
            lam_minus * np.exp(1j * x0),
        ],
        dtype=complex,
    )


def su11_rhs_variant_b(lam_plus, lam_minus, xi):
    """Alternate RHS (variant B); kept as a regression reference only.

    Solves the decoupling of l+ K+ + K0 + l- K- (coordinates (l+, 1, l-)),
    which is not the oscillator Hamiltonian; fails the oracle cross-check.
    """
    xp, x0, _xm = xi
    return np.array(
        [
            lam_plus - 1j * xp - lam_minus * xp ** 2,
            2j * lam_minus * xp - 1,
            lam_minus * np.exp(-1j * x0),
        ],
        dtype=complex,
    )


@dataclass
class Su11Coefficients:
    """Constant-drive decoupling coefficients at a single time."""

    xi_plus: complex
    xi_zero: complex
    xi_minus: complex
    gamma: complex
    phase: complex = 0.0


def _sinhc(x):
    """sinh(x)/x with the removable singularity filled by series."""
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 + x * x / 6.0 + x ** 4 / 120.0, np.sinh(safe) / safe)
    return out


def su11_constant_coefficients(c_plus, c_zero, c_minus, t):
    """Closed-form decoupling of exp[-i t (c+ K+ + c0 K0 + c- K-)].

    Rescales onto the normalised family with lam = c+-/c0 and effective time
    tau = c0 t, where with Gamma^2 = lam+ lam- - 1/4 (principal root):

        xi+- = lam+- sinh(tau Gamma) / (Gamma D),   xi0 = -2i log(D),
        D    = cosh(tau Gamma) + (i / 2 Gamma) sinh(tau Gamma).

    The Gamma -> 0 degeneracy is removable and handled by series.  xi0
    follows the principal logarithm; it is defined modulo 4 pi (a global
    sign of the ansatz factor), which only matters beyond |tau| ~ 2 pi.
    """
    c_zero = complex(c_zero)
    if c_zero == 0:
        raise ValueError("c_zero must be non-zero (no free-evolution scale)")
    lam_p = complex(c_plus) / c_zero
    lam_m = complex(c_minus) / c_zero
    tau = c_zero * t
    gamma = np.sqrt(lam_p * lam_m - 0.25 + 0j)
    x = tau * gamma
    s_over_gamma = tau * _sinhc(x)          # sinh(tau G)/G
    d = np.cosh(x) + 0.5j * s_over_gamma    # cosh + (i/2G) sinh
    return Su11Coefficients(
        xi_plus=complex(lam_p * s_over_gamma / d),
        xi_zero=complex(-2j * np.log(d)),
        xi_minus=complex(lam_m * s_over_gamma / d),
        gamma=complex(gamma),
    )


def quadratic_constant(lam_plus, lam_minus, t):
    """Closed-form coefficients of exp[-i t (l+ K+ + K0 + l- K-)].

    This is the normalised su(1,1) family with Gamma^2 = l+ l- - 1/4.  Note
    it is *not* the oscillator propagator; for that, use
    :func:`oscillator_quadratic_constant` (coordinates doubled).
    """
    return su11_constant_coefficients(lam_plus, 1.0, lam_minus, t)


def oscillator_quadratic_constant(lam_plus, lam_minus, t):
    """Closed-form decoupling of exp[-i t (a'a + l+ a'^2 + l- a^2)].

    Exact basis coordinates give exp[-it(2 l+ K+ + 2 K0 + 2 l- K-)] times the
    central factor exp(+i t / 2); the returned ``phase`` is the coefficient
    of the identity factor exp(-i phase) in the four-factor ansatz.
    """
    coeff = su11_constant_coefficients(2 * lam_plus, 2.0, 2 * lam_minus, t)
    coeff.phase = -0.5 * t
    return coeff


def quadratic_problem(lam_plus, lam_minus, t_final):
    """Engine problem for the quadratic family, G = (2 l+, 2, 2 l-, -1/2)."""
    plus, minus = _signal_pair(lam_plus, lam_minus, 2.0)
    return engine.DecouplingProblem(
        su11_basis(), [plus, Constant(2.0), minus, Constant(-0.5)], t_final)


@dataclass
class Su11Trajectory:
    """Quadratic-drive coefficients on a grid (ansatz order K+, K0, K-, 1)."""

    times: np.ndarray
    xi_plus: np.ndarray
    xi_zero: np.ndarray
    xi_minus: np.ndarray
    phase: np.ndarray
    det_ratio: np.ndarray
    raw: engine.CoefficientTrajectory

    @property
    def final(self):
        return self.raw.final


def quadratic_coefficients(lam_plus, lam_minus, t_final, rtol=engine.RTOL,
                           atol=engine.ATOL, times=None, n_out=129):
    """Integrate the su(1,1) coefficient ODEs for the quadratic family.

    The ODE system is generated by the generic engine from the structure
    constants with explicit coordinates G = (2 l+, 2, 2 l-, -1/2); there is
    no hidden normalisation.  XiSingular propagates from the engine when the
    coefficient parameterisation breaks down.
    """
    problem = quadratic_problem(lam_plus, lam_minus, t_final)
    raw = engine.integrate(problem, rtol=rtol, atol=atol, times=times, n_out=n_out)
    return Su11Trajectory(
        times=raw.times,
        xi_plus=raw.values[0],
        xi_zero=raw.values[1],
        xi_minus=raw.values[2],
        phase=raw.values[3],
        det_ratio=raw.det_ratio,
        raw=raw,
    )


# -- combined Gaussian --------------------------------------------------------


def rotating_frame_drive(g_plus_vals, g_minus_vals, xi_plus, xi_zero, xi_minus):
    """Linear-drive coefficients seen from the quadratic rotating frame.

    Returns (mu, nu) with mu the coefficient of a' and nu the coefficient of
    a after conjugating the drive by the quadratic-frame propagator:

        mu = g+ e^{i xi0/2} - i g- xi+ e^{i xi0/2}
        nu = i g+ xi- e^{i xi0/2} + g- (e^{-i xi0/2} + xi+ xi- e^{i xi0/2})
    """
    e = np.exp(0.5j * np.asarray(xi_zero, dtype=complex))
    gp = np.asarray(g_plus_vals, dtype=complex)
    gm = np.asarray(g_minus_vals, dtype=complex)
    mu = gp * e - 1j * gm * np.asarray(xi_plus) * e
    nu = 1j * gp * np.asarray(xi_minus) * e + gm * (1.0 / e + np.asarray(xi_plus) * np.asarray(xi_minus) * e)
    return mu, nu


def combined_problem(g_plus, g_minus, lam_plus, lam_minus, t_final):
    """Engine problem for the combined family,
    G = (2 l+, 2, 2 l-, g+, g-, -1/2)."""
    plus, minus = _signal_pair(lam_plus, lam_minus, 2.0)
    g_plus, g_minus = _signal_pair(g_plus, g_minus)
    return engine.DecouplingProblem(
        combined_basis(),
        [plus, Constant(2.0), minus, g_plus, g_minus, Constant(-0.5)],
        t_final,
    )


@dataclass
class GaussianTrajectory:
    """Combined-family coefficients (ansatz order K+, K0, K-, a', a, 1).

    ``f_plus``/``f_minus`` are the rotating-frame displacement coefficients
    (F+ = int mu, F- = int nu); ``mu``/``nu`` are the rotated drive
    coefficients along the trajectory, kept as diagnostics.
    """

    times: np.ndarray
    xi_plus: np.ndarray
    xi_zero: np.ndarray
    xi_minus: np.ndarray
    f_plus: np.ndarray
    f_minus: np.ndarray
    phase: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    det_ratio: np.ndarray
    raw: engine.CoefficientTrajectory

    @property
    def final(self):
        return self.raw.final


def gaussian_combined(g_plus, g_minus, lam_plus, lam_minus, t_final,
                      rtol=engine.RTOL, atol=engine.ATOL, times=None, n_out=129):
    """Solve the combined Gaussian family on the six-element algebra.

    One engine integration with G = (2 l+, 2, 2 l-, g+, g-, -1/2) yields the
    quadratic subproblem and the rotating-frame displacements F+ = int mu,
    F- = int nu simultaneously (the transfer matrix is block-triangular, so
    the su(1,1) sector is unaffected by the drive).  The propagator is the
    five-factor product exp(-i xi+ K+) exp(-i xi0 K0) exp(-i xi- K-)
    exp(-i F+ a') exp(-i F- a), up to the recorded central phase.
    """
    problem = combined_problem(g_plus, g_minus, lam_plus, lam_minus, t_final)
    raw = engine.integrate(problem, rtol=rtol, atol=atol, times=times, n_out=n_out)
    g_plus, g_minus = problem.signals[3], problem.signals[4]
    mu, nu = rotating_frame_drive(
        g_plus(raw.times), g_minus(raw.times),
        raw.values[0], raw.values[1], raw.values[2],
    )
    return GaussianTrajectory(
        times=raw.times,
        xi_plus=raw.values[0],
        xi_zero=raw.values[1],
        xi_minus=raw.values[2],
        f_plus=raw.values[3],
        f_minus=raw.values[4],
        phase=raw.values[5],
        mu=mu,
        nu=nu,
        det_ratio=raw.det_ratio,
        raw=raw,
    )
