"""Time-dependent drive coefficients.

A signal is a complex-valued function of (rescaled, dimensionless) time.
Four flavours cover the solvers' needs: constants, sinusoids, sampled data
with linear interpolation, and arbitrary callables.  Constants and sinusoids
additionally know their oscillatory antiderivatives in closed form, which the
linear-drive solver uses to avoid numerical quadrature.
"""

from __future__ import annotations

import numbers

import numpy as np


def _phase_integral(kappa, t):
    """integral_0^t exp(i kappa tau) dtau, stable for small |kappa t|."""
    t = np.asarray(t, dtype=float)
    kappa = complex(kappa)
    if abs(kappa) == 0.0:
        return t.astype(complex)
    x = 1j * kappa * t
    small = np.abs(x) < 1e-6
    with np.errstate(invalid="ignore", divide="ignore"):
        exact = (np.exp(x) - 1.0) / (1j * kappa)
    series = t * (1.0 + x / 2.0 + x * x / 6.0)
    return np.where(small, series, exact)


def _linear_phase_integral(kappa, width):
    """integral_0^width x exp(i kappa x) dx, stable for small |kappa width|."""
    kappa = complex(kappa)
    x = 1j * kappa * width
    if abs(x) < 1e-4:
        return width ** 2 * (0.5 + x / 3.0 + x * x / 8.0 + x ** 3 / 30.0)
    e1 = (np.exp(x) - 1.0) / (1j * kappa)
    return (width * np.exp(x) - e1) / (1j * kappa)


class Signal:
    """Base class; subclasses implement ``__call__`` for scalar or array t."""

    def __call__(self, t):
        raise NotImplementedError

    def __mul__(self, factor):
        if isinstance(factor, numbers.Number):
            return self.scaled(factor)
        return NotImplemented

    __rmul__ = __mul__

    def scaled(self, factor):
        return Hook(lambda t, s=self, f=factor: f * s(t))

    def oscillatory_integral(self, t, frequency):
        """integral_0^t  signal(tau) exp(i frequency tau) dtau.

        The generic implementation uses adaptive Gauss-Kronrod quadrature on
        real and imaginary parts (absolute tolerance 1e-10).  Closed-form
        subclasses override it.  ``scipy.integrate`` is imported here, not
        at module level: it costs about a third of a second of start-up and
        only this fallback uses it.
        """
        from scipy.integrate import quad

        scalar = np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all(np.isfinite(self(ts))):
            raise ValueError("signal is not finite on the requested span")

        def integrand_re(tau):
            return (self(tau) * np.exp(1j * frequency * tau)).real

        def integrand_im(tau):
            return (self(tau) * np.exp(1j * frequency * tau)).imag

        order = np.argsort(ts)
        edges = np.concatenate([[0.0], ts[order]])
        out_sorted = np.zeros(len(ts), dtype=complex)
        acc = 0.0 + 0.0j
        for i in range(len(ts)):
            lo, hi = edges[i], edges[i + 1]
            if hi != lo:
                re, _ = quad(integrand_re, lo, hi, epsabs=1e-10, epsrel=0.0, limit=200)
                im, _ = quad(integrand_im, lo, hi, epsabs=1e-10, epsrel=0.0, limit=200)
                acc += re + 1j * im
            out_sorted[i] = acc
        out = np.empty_like(out_sorted)
        out[order] = out_sorted
        return out[0] if scalar else out


class Constant(Signal):
    def __init__(self, value):
        self.value = complex(value)

    def __call__(self, t):
        if np.ndim(t) == 0:
            return self.value
        return np.full(np.shape(t), self.value, dtype=complex)

    def scaled(self, factor):
        return Constant(self.value * factor)

    def oscillatory_integral(self, t, frequency):
        return self.value * _phase_integral(frequency, t)

    def __repr__(self):
        return f"Constant({self.value})"


class Sinusoid(Signal):
    """amplitude * cos(frequency * t + phase); amplitude may be complex."""

    def __init__(self, amplitude, frequency, phase=0.0):
        self.amplitude = complex(amplitude)
        self.frequency = float(frequency)
        self.phase = float(phase)

    def __call__(self, t):
        return self.amplitude * np.cos(self.frequency * np.asarray(t) + self.phase)

    def scaled(self, factor):
        return Sinusoid(self.amplitude * factor, self.frequency, self.phase)

    def oscillatory_integral(self, t, frequency):
        # cos(w t + phi) e^{i s t} = (e^{i phi} e^{i (s+w) t} + e^{-i phi} e^{i (s-w) t}) / 2
        a, w, phi = self.amplitude, self.frequency, self.phase
        return 0.5 * a * (
            np.exp(1j * phi) * _phase_integral(frequency + w, t)
            + np.exp(-1j * phi) * _phase_integral(frequency - w, t)
        )

    def __repr__(self):
        return f"Sinusoid({self.amplitude}, {self.frequency}, {self.phase})"


class Sampled(Signal):
    """Linear interpolation through (times, values); grid strictly increasing."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=complex)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("sample grid must be strictly increasing")

    def __call__(self, t):
        re = np.interp(t, self.times, self.values.real)
        im = np.interp(t, self.times, self.values.imag)
        return re + 1j * im

    def scaled(self, factor):
        return Sampled(self.times, self.values * factor)

    def oscillatory_integral(self, t, frequency):
        # Exact per-segment integration of the interpolant: on each linear
        # piece g(u+x) = g(u) + m x the primitive reduces to the standard
        # phase integrals.  Outside the sample grid the interpolant is
        # constant (matching numpy.interp).
        scalar = np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(ts < 0):
            raise ValueError("integration times must be non-negative")
        breaks = np.unique(np.concatenate([[0.0], self.times, ts]))
        breaks = breaks[(breaks >= 0.0) & (breaks <= ts.max())]
        acc = 0.0 + 0.0j
        running = {0.0: 0.0 + 0.0j}
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            width = hi - lo
            g_lo = complex(self(lo))
            g_hi = complex(self(hi))
            slope = (g_hi - g_lo) / width
            seg = g_lo * _phase_integral(frequency, width) + slope * (
                _linear_phase_integral(frequency, width)
            )
            acc += np.exp(1j * frequency * lo) * seg
            running[hi] = acc
        out = np.array([running[v] for v in ts])
        return out[0] if scalar else out


class Hook(Signal):
    """Caller-supplied evaluation hook; must accept scalar or array time."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, t):
        out = self.fn(t)
        if np.ndim(t) == 0:
            return complex(out)
        return np.asarray(out, dtype=complex)

    def __repr__(self):
        return f"Hook({self.fn!r})"


ZERO = Constant(0.0)


def as_signal(x):
    """Coerce numbers and callables to Signal instances."""
    if isinstance(x, Signal):
        return x
    if isinstance(x, numbers.Number):
        return Constant(x)
    if callable(x):
        return Hook(x)
    raise TypeError(f"cannot interpret {x!r} as a driving signal")
