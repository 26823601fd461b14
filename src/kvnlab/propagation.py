"""Time evolution by exponentiated generators: one cached Strang engine.

A :class:`Propagator` advances states of one generator G at one step dt by
exp(-i B dt/2) exp(-i A dt) exp(-i B dt/2), where A is G's conjugate-diagonal
part and B its position-side part (an optional constant part C wraps the
step as exp(-i C dt/2) on both sides).
Each factor is exact in the representation where its part is diagonal, so
the step is unitary and second order in dt, and for classical generators
every factor is an advection shear.  The factors are built once per (G, dt);
a time-dependent force enters through ``position_scale``, which rescales B
at each step's midpoint for one complex exponential per step.  Where B's
argument is odd in lambda (as the Koopman -V'(q) lambda is), that
exponential is taken over the lambda >= 0 half only and the other half is
its complex conjugate.  On a phase grid a step ends in the (q, lambda)
representation and the next step opens from that spectrum, so a step costs
five FFTs.

Recording rule: ``Propagator.run`` samples the state before the first step
and after every step.  Each sample computes rho = |psi|^2 * measure once and
takes from it the norm, the mass within ``EDGE_CELLS`` cells of the domain
edge and the position/momentum means.  Edge mass above the limit aborts the
run: the domain was chosen too small and any Ehrenfest check would be
meaningless.  The Bopp-shifted means <lambda> and <V'(q - hbar kappa
lambda/2)> of the interpolating generator come from the lambda-spectrum the
step already holds (|exp(i phi) F|^2 = |F|^2); <theta> costs one more FFT.
The step and record loop makes no BLAS call on a full grid (full-grid
reductions are ``sum``s; only length-n dot products remain, below the size
at which OpenBLAS starts its own threads), so evolutions run side by side in
threads do not contend for BLAS workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundaryMassError
from .grid import edge_mass, wavenumbers
from .operators import Generator
from .states import KvNWavefunction, QWavefunction, Wavefunction

#: Probability mass allowed within EDGE_CELLS cells of a domain edge during evolve().
BOUNDARY_MASS_LIMIT = 1e-8


def _abs2(field: np.ndarray) -> np.ndarray:
    return field.real**2 + field.imag**2


class Propagator:
    """Strang steps of one generator at one dt, every factor built once; with
    ``position_scale`` the step from time t uses ``position_scale(t + dt/2) * B``."""

    def __init__(self, G: Generator, dt: float, position_scale: Callable | None = None):
        self.G, self.dt, self._position_scale = G, dt, position_scale
        arg = -1j * dt / G.phase_scale
        self._full_conj = np.exp(arg * G.conjugate_part)
        self._half_const = None if G.constant_part is None else np.exp(0.5 * arg * G.constant_part)
        self._half_pos_arg = 0.5 * arg * G.position_part
        self._half_pos = self._mirror = None
        if not position_scale:
            self._half_pos, self._half_pos_arg = np.exp(self._half_pos_arg), None
        elif G.position_axis == G.position_part.ndim - 1:  # the lambda axis of a phase grid
            b_arg, n = self._half_pos_arg, G.position_part.shape[-1]
            head, top = np.s_[..., : n // 2 + 1], np.s_[..., n // 2 + 1 :]
            low = np.s_[..., (n - 1) // 2 : 0 : -1]  # the mirror images of top
            if np.array_equal(b_arg[top], np.conj(b_arg[low])):
                self._mirror = head, top, low, np.ascontiguousarray(b_arg[top])
                self._half_pos_arg = np.ascontiguousarray(b_arg[head])
        # a step's closing spectrum is the next step's opening one
        self._carry = G.position_axis is not None and G.constant_part is None

    def _advance(self, amp: np.ndarray, spec: np.ndarray | None, t: float):
        """One step from ``amp`` at time t, given its position-axis spectrum
        if known; returns the new amplitudes and theirs (or None)."""
        pa, ca = self.G.position_axis, self.G.conjugate_axis
        half_pos = self._half_pos
        if half_pos is None:
            half_pos = self._scaled_half_pos(self._position_scale(t + 0.5 * self.dt))
        if self._half_const is not None:
            amp = self._half_const * amp
        if pa is None:
            amp = half_pos * amp
        else:
            if spec is None:
                spec = np.fft.fft(amp, axis=pa)
            amp = np.fft.ifft(half_pos * spec, axis=pa)
        amp = np.fft.ifft(self._full_conj * np.fft.fft(amp, axis=ca), axis=ca)
        if pa is None:
            return half_pos * amp, None
        spec = half_pos * np.fft.fft(amp, axis=pa)
        amp = np.fft.ifft(spec, axis=pa)
        if self._half_const is not None:
            return self._half_const * amp, None
        return amp, spec

    def _scaled_half_pos(self, scale: float) -> np.ndarray:
        """exp(scale * half-step B argument), bit for bit.  For an argument
        odd in lambda (conjugate-symmetric, as B's purely imaginary one is)
        lambda columns n/2+1..n-1 are the conjugates of columns n/2-1..1."""
        if self._mirror is None:
            return np.exp(scale * self._half_pos_arg)
        head, top, low, top_arg = self._mirror
        out = np.empty(self.G.position_part.shape, dtype=complex)
        np.exp(scale * self._half_pos_arg, out=out[head])
        upper = out[top]
        np.conjugate(out[low], out=upper)
        # a zero imaginary part does not mirror its sign: exp(x + 0i) carries
        # the sign of the argument's zero, so copy that
        zeros = np.flatnonzero(upper.imag == 0)
        upper.imag.flat[zeros] = (scale * top_arg.flat[zeros]).imag
        return out

    def step(self, state: Wavefunction) -> Wavefunction:
        """One step, without sampling."""
        amp, _ = self._advance(state.amplitudes, None, state.time)
        return type(state)(state.grid, amp, time=state.time + self.dt)

    def run(self, state: Wavefunction, n_steps: int, record: Callable | None = None,
            boundary_limit: float = BOUNDARY_MASS_LIMIT):
        """Take ``n_steps`` steps, sampling before the first and after each.

        ``record(i, amplitudes, rho, spectrum)`` sees every sample; rho is
        |psi|^2 * measure and spectrum the FFT along G's position axis, or
        None where the engine does not hold it.  Returns ``(final_state,
        times, norms, boundary_mass)`` with one series entry per sample.
        """
        times, norms, edges = np.empty((3, n_steps + 1))
        amp, t = state.amplitudes, state.time
        spec = np.fft.fft(amp, axis=self.G.position_axis) if self._carry else None
        for i in range(n_steps + 1):
            if i:
                amp, spec = self._advance(amp, spec, t)
                t = t + self.dt
            rho = _abs2(amp) * state.measure
            times[i], norms[i], edges[i] = t, rho.sum(), edge_mass(rho)
            if edges[i] > boundary_limit:
                raise BoundaryMassError(
                    f"boundary mass {edges[i]:.3e} exceeds {boundary_limit:.1e} at t={t:.4g}"
                )
            if record is not None:
                record(i, amp, rho, spec)
        return type(state)(state.grid, amp, time=t), times, norms, edges


def schrodinger_step(psi: QWavefunction, G: Generator, dt: float) -> QWavefunction:
    """One Strang step of exp(-i H dt / hbar) on a configuration-space state."""
    if G.label != "quantum":
        raise ValueError(f"schrodinger_step needs a quantum generator, got {G.label}")
    return Propagator(G, dt).step(psi)


def kvn_step(psi: KvNWavefunction, G: Generator, dt: float) -> KvNWavefunction:
    """One Strang step of a phase-space generator (liouville, koopman, unified).

    Both sub-steps are exact shears: the q-advection is diagonal in the
    (theta-mode, p) representation, the p-advection in (q, lambda-mode).
    """
    if G.label not in ("liouville", "koopman", "unified"):
        raise ValueError(f"kvn_step needs a phase-space generator, got {G.label}")
    return Propagator(G, dt).step(psi)


# ---------------------------------------------------------------------------
# observable recording


def _numeric_vprime(G: Generator, args: np.ndarray) -> np.ndarray:
    if G.potential_prime is not None:
        return np.asarray(G.potential_prime(args), dtype=float)
    eps = 1e-6
    return (G.potential(args + eps) - G.potential(args - eps)) / (2 * eps)


def _means(G: Generator, state: Wavefunction):
    """``means(amplitudes, rho, spectrum) -> (<q>, <p>, <V'>)``, with every
    array that does not change between steps built once.

    On a phase grid kappa = 0 gives the plain multiplicative q and p; for
    the interpolating generator the observables carry the Bopp shifts
    q - hbar kappa lambda / 2 and p + hbar kappa theta / 2, whose means obey
    the expectation-value equations of motion for every kappa.
    """
    if isinstance(state, QWavefunction):
        g = state.grid
        x, pk = g.points, G.hbar * wavenumbers(g)
        if G.potential_prime is not None:
            vx = np.asarray(G.potential_prime(x), dtype=float)
        else:
            vx = np.gradient(G.position_part, g.dx)

        def quantum(amp, rho, spec):
            w = _abs2(np.fft.fft(amp))
            return x @ rho, pk @ w / w.sum(), vx @ rho

        return quantum

    q, p = state.grid.q.points, state.grid.p.points
    if G.kappa == 0.0:
        vq = _numeric_vprime(G, q)

        def classical(amp, rho, spec):
            rho_q = rho.sum(axis=1)
            return q @ rho_q, rho.sum(axis=0) @ p, vq @ rho_q

        return classical

    kq, kp = wavenumbers(state.grid.q), wavenumbers(state.grid.p)
    shift = 0.5 * G.hbar * G.kappa
    v_shifted = _numeric_vprime(G, q[:, None] - shift * kp[None, :])  # on (q, lambda)

    def bopp(amp, rho, spec):
        w_lam = _abs2(spec)
        w_th = _abs2(np.fft.fft(amp, axis=0)).sum(axis=1)
        return (
            q @ rho.sum(axis=1) - shift * (w_lam.sum(axis=0) @ kp) / w_lam.sum(),
            rho.sum(axis=0) @ p + shift * (kq @ w_th) / w_th.sum(),
            (v_shifted * w_lam).sum() / w_lam.sum(),
        )

    return bopp


@dataclass
class Trajectory:
    """Series sampled before the first and after every step, plus the final state."""

    times: np.ndarray
    q_mean: np.ndarray
    p_mean: np.ndarray
    vprime_mean: np.ndarray
    final_state: Wavefunction
    norms: np.ndarray
    boundary_mass: np.ndarray  # probability within EDGE_CELLS of a domain edge


def evolve(
    state: Wavefunction,
    G: Generator,
    t_final: float,
    n_steps: int,
    check_boundary: bool = True,
    boundary_limit: float = BOUNDARY_MASS_LIMIT,
) -> Trajectory:
    """Propagate ``state`` to ``t_final`` in ``n_steps`` uniform Strang steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    series = np.empty((3, n_steps + 1))
    means = _means(G, state)

    def record(i, amp, rho, spec):
        series[:, i] = means(amp, rho, spec)

    final, times, norms, edges = Propagator(G, t_final / n_steps).run(
        state, n_steps, record, boundary_limit if check_boundary else np.inf
    )
    return Trajectory(times, *series, final, norms, edges)


@dataclass
class UnitarityReport:
    max_norm_drift: float
    reversibility_residual: float


def check_unitarity(G: Generator, psi: Wavefunction, dt: float, n: int) -> UnitarityReport:
    """Run n steps forward then n steps with -dt; report drift and round trip."""
    start = psi.normalize()
    mid, _, forward, _ = Propagator(G, dt).run(start, n, boundary_limit=np.inf)
    end, _, backward, _ = Propagator(G, -dt).run(mid, n, boundary_limit=np.inf)
    drift = float(np.max(np.abs(np.concatenate([forward, backward]) - 1.0)))
    diff = end.amplitudes - start.amplitudes
    resid = float(np.sqrt(np.sum(np.abs(diff) ** 2) * start.measure))
    return UnitarityReport(max_norm_drift=drift, reversibility_residual=resid)
