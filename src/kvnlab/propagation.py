"""Time evolution by exponentiated generators: one cached Strang engine.

A :class:`Propagator` advances states of one generator G at one step dt by
exp(-i B dt/2) exp(-i A dt) exp(-i B dt/2), where A is G's conjugate-diagonal
part and B its position-side part (an optional constant part C wraps the
step as exp(-i C dt/2) on both sides).
Each factor is exact in the representation where its part is diagonal, so
the step is unitary and second order in dt, and for classical generators
every factor is an advection shear.  The factors are built once per (G, dt);
a time-dependent force enters through ``position_scale``, which rescales B
at each step's midpoint.  ``run`` computes those factors ahead: a helper
thread exponentiates them ``FACTOR_CHUNK`` steps at a time in one stacked
np.exp, one chunk ahead of the steps (two chunks alive at most), and since
np.exp releases the GIL the exponentials overlap the main thread's
transforms.  Each factor is bit-identical to exponentiating its step's
exponent alone.  The helper is shut down however the run ends.  On a phase
grid a step ends in the (q, lambda) representation and the next step opens
from that spectrum, so a step costs five FFTs.

Real-field path: the phase-space generators are real operators, so a real
amplitude stays real.  When a phase-grid state's imaginary part is exactly
zero, G has no constant part and both exponents are conjugate-symmetric
along their FFT axes (checked exactly at construction), the state is
carried as float64 and every FFT is an rfft/irfft over bins 0..n/2: the
conjugate factor keeps its first n/2+1 rows, the position factor its first
n/2+1 columns, and a time-dependent position factor is exponentiated over
those columns only.  This equals the complex step with the real part taken
after each inverse transform.  The two differ by round-off, and by what the
Nyquist bin leaks: the wavenumber there is +pi/dx with no -pi/dx partner,
so its factor is not conjugate-symmetric and the complex path grows an
imaginary part (about 2e-7 by t = 1 on the quartic at 128^2) that the real
path drops.  Complex states, constant parts and 1-D quantum states take the
complex path.

Recording rule: ``Propagator.run`` samples the state before the first step
and after every step.  Each sample computes rho = |psi|^2 * measure once and
takes from it the norm, the mass within ``EDGE_CELLS`` cells of the domain
edge and the position/momentum means.  Edge mass above the limit aborts the
run: the domain was chosen too small and any Ehrenfest check would be
meaningless.  A NaN edge mass aborts it too.  The Bopp-shifted means <lambda> and <V'(q - hbar kappa
lambda/2)> of the interpolating generator come from the lambda-spectrum the
step already holds (|exp(i phi) F|^2 = |F|^2).  On the real-field path the
full-spectrum sums are taken over the half spectrum with the weights at -k
folded onto +k, and <theta> needs only the Nyquist bin, an alternating sum
over q, so a kappa != 0 step with its record costs five transforms; on the
complex path <theta> costs one more FFT.

Threads and BLAS: the step and record loop makes no BLAS call on a full grid
(full-grid reductions are ``sum``s; only length-n dot products remain, below
the size at which OpenBLAS starts its own threads), so neither the factor
helper nor evolutions running side by side contend for BLAS workers.
Independent evolutions are better run in separate processes than
in threads: each step is many small numpy calls on 128 x 65 arrays, and
threads hand the GIL back and forth at every one of them.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundaryMassError
from .grid import edge_mass, wavenumbers
from .operators import Generator
from .states import KvNWavefunction, QWavefunction, Wavefunction

#: Probability mass allowed within EDGE_CELLS cells of a domain edge during evolve().
BOUNDARY_MASS_LIMIT = 1e-8

#: Steps whose time-dependent position factors are exponentiated in one call.
FACTOR_CHUNK = 8


def _abs2(field: np.ndarray) -> np.ndarray:
    if np.isrealobj(field):
        return field**2
    return field.real**2 + field.imag**2


def _transforms(field: np.ndarray):
    """The (forward, inverse) FFT pair for ``field``: rfft/irfft for a real one."""
    if np.isrealobj(field):
        return np.fft.rfft, np.fft.irfft
    return np.fft.fft, np.fft.ifft


def _conj_symmetric(arg: np.ndarray, axis: int) -> bool:
    """Whether exp(arg) is conjugate-symmetric along ``axis`` (bin -k the
    conjugate of bin k) at every bin but the Nyquist one, exactly."""
    n = arg.shape[axis]
    k = np.delete(np.arange(n), n // 2)
    return np.array_equal(np.take(arg, k, axis), np.conj(np.take(arg, -k % n, axis)))


def _head(field: np.ndarray, axis: int) -> np.ndarray:
    """Bins 0..n/2 along ``axis``, the part of a spectrum that rfft keeps."""
    return np.take(field, np.arange(field.shape[axis] // 2 + 1), axis)


class Propagator:
    """Strang steps of one generator at one dt, every factor built once; with
    ``position_scale`` the step from time t uses ``position_scale(t + dt/2) * B``."""

    def __init__(self, G: Generator, dt: float, position_scale: Callable | None = None):
        self.G, self.dt, self._position_scale = G, dt, position_scale
        arg = -1j * dt / G.phase_scale
        conj_arg, pos_arg = arg * G.conjugate_part, 0.5 * arg * G.position_part
        self._half_const = None if G.constant_part is None else np.exp(0.5 * arg * G.constant_part)
        # with position_scale, the position factor is exponentiated every step
        pos = pos_arg if position_scale is not None else np.exp(pos_arg)
        self._complex = np.exp(conj_arg), pos
        pa, ca = G.position_axis, G.conjugate_axis
        # a step's closing spectrum is the next step's opening one
        self._carry = pa is not None and G.constant_part is None
        self._real = None
        if self._carry and _conj_symmetric(conj_arg, ca) and _conj_symmetric(pos_arg, pa):
            self._real = _head(self._complex[0], ca), _head(pos, pa)
            self._nyquist = (slice(None),) * pa + (-1,)  # the last rfft bin along pa

    def _start(self, amp: np.ndarray) -> np.ndarray:
        """The amplitudes the steps work on: the real part, as float64, when
        the state and the factors allow the real-field path."""
        if self._real is not None and not amp.imag.any():
            return amp.real
        return amp

    def _position_factors(self, real: bool, starts) -> np.ndarray:
        """The position half-step factors of the steps from each time in
        ``starts``, stacked: exp(position_scale(t + dt/2) * arg), arg the
        constant exponent (its columns 0..n/2 on the real-field path).  Each
        product is the one a single step would form, so every factor is
        bit-identical to exponentiating it alone."""
        arg = (self._real if real else self._complex)[1]
        out = np.empty((len(starts),) + arg.shape, dtype=complex)
        for k, t in enumerate(starts):
            np.multiply(self._position_scale(t + 0.5 * self.dt), arg, out=out[k])
        return np.exp(out, out=out)

    def _factors_ahead(self, real: bool, t: float, n_steps: int):
        """Yield the position half-step factor of each of ``n_steps`` steps
        from t.  A helper thread exponentiates them ``FACTOR_CHUNK`` steps at
        a time, one chunk ahead of the steps; np.exp releases the GIL, so the
        exponentials overlap the caller's transforms.  Closing the generator
        shuts the helper down."""
        starts = []
        for _ in range(n_steps):  # the step times exactly as ``run`` accumulates them
            starts.append(t)
            t = t + self.dt
        chunks = [starts[c : c + FACTOR_CHUNK] for c in range(0, n_steps, FACTOR_CHUNK)]
        helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="kvnlab-factors")
        try:
            ahead = helper.submit(self._position_factors, real, chunks[0])
            for c in range(len(chunks)):
                chunk = ahead.result()
                if c + 1 < len(chunks):
                    ahead = helper.submit(self._position_factors, real, chunks[c + 1])
                yield from chunk
        finally:
            helper.shutdown(cancel_futures=True)

    def _advance(self, amp: np.ndarray, spec: np.ndarray | None, half_pos: np.ndarray | None):
        """One step from ``amp``, given its position-axis spectrum if known and
        the step's position half-step factor if time-dependent; returns the new
        amplitudes and their spectrum (or None)."""
        pa, ca = self.G.position_axis, self.G.conjugate_axis
        real = np.isrealobj(amp)
        full_conj, const_pos = self._real if real else self._complex
        if half_pos is None:
            half_pos = const_pos
        fft, ifft = _transforms(amp)
        if self._half_const is not None:
            amp = self._half_const * amp
        if pa is None:
            amp = half_pos * amp
        else:
            if spec is None:
                spec = fft(amp, axis=pa)
            amp = ifft(half_pos * spec, axis=pa)
        amp = ifft(full_conj * fft(amp, axis=ca), axis=ca)
        if pa is None:
            return half_pos * amp, None
        spec = half_pos * fft(amp, axis=pa)
        amp = ifft(spec, axis=pa)
        if real:
            # irfft read only the real part of the Nyquist bin: carry what it read
            spec[self._nyquist].imag = 0.0
        if self._half_const is not None:
            return self._half_const * amp, None
        return amp, spec

    def step(self, state: Wavefunction) -> Wavefunction:
        """One step, without sampling."""
        amp = self._start(state.amplitudes)
        half_pos = None
        if self._position_scale is not None:
            half_pos = self._position_factors(np.isrealobj(amp), [state.time])[0]
        amp, _ = self._advance(amp, None, half_pos)
        return type(state)(state.grid, amp, time=state.time + self.dt)

    def run(self, state: Wavefunction, n_steps: int, record: Callable | None = None,
            boundary_limit: float = BOUNDARY_MASS_LIMIT):
        """Take ``n_steps`` steps, sampling before the first and after each.

        ``record(i, amplitudes, rho, spectrum)`` sees every sample; rho is
        |psi|^2 * measure and spectrum the FFT along G's position axis, or
        None where the engine does not hold it.  On the real-field path the
        amplitudes are float64 and the spectrum is the rfft (bins 0..n/2).
        Returns ``(final_state, times, norms, boundary_mass)`` with one
        series entry per sample; the final state is complex, as always.
        """
        times, norms, edges = np.empty((3, n_steps + 1))
        amp, t = self._start(state.amplitudes), state.time
        spec = _transforms(amp)[0](amp, axis=self.G.position_axis) if self._carry else None
        factors = None
        if self._position_scale is not None:
            factors = self._factors_ahead(np.isrealobj(amp), t, n_steps)
        try:
            for i in range(n_steps + 1):
                if i:
                    half_pos = None if factors is None else next(factors)
                    amp, spec = self._advance(amp, spec, half_pos)
                    t = t + self.dt
                rho = _abs2(amp) * state.measure
                times[i], norms[i], edges[i] = t, rho.sum(), edge_mass(rho)
                if not edges[i] <= boundary_limit:  # also stops a NaN state
                    raise BoundaryMassError(
                        f"boundary mass {edges[i]:.3e} is not within {boundary_limit:.1e} "
                        f"at t={t:.4g}"
                    )
                if record is not None:
                    record(i, amp, rho, spec)
        finally:
            if factors is not None:
                factors.close()
        return type(state)(state.grid, amp, time=t), times, norms, edges


def schrodinger_step(psi: QWavefunction, G: Generator, dt: float) -> QWavefunction:
    """One Strang step of exp(-i H dt / hbar) on a configuration-space state."""
    if G.label != "quantum":
        raise ValueError(f"schrodinger_step needs a quantum generator, got {G.label}")
    return Propagator(G, dt).step(psi)


def kvn_step(psi: KvNWavefunction, G: Generator, dt: float) -> KvNWavefunction:
    """One Strang step of a phase-space generator (koopman, unified).

    Both sub-steps are exact shears: the q-advection is diagonal in the
    (theta-mode, p) representation, the p-advection in (q, lambda-mode).
    """
    if G.label not in ("koopman", "unified"):
        raise ValueError(f"kvn_step needs a phase-space generator, got {G.label}")
    return Propagator(G, dt).step(psi)


# ---------------------------------------------------------------------------
# observable recording


def _numeric_vprime(G: Generator, args: np.ndarray) -> np.ndarray:
    if G.potential_prime is not None:
        return np.asarray(G.potential_prime(args), dtype=float)
    eps = 1e-6
    return (G.potential(args + eps) - G.potential(args - eps)) / (2 * eps)


def _fold(weights: np.ndarray) -> np.ndarray:
    """``weights`` on bins 0..n/2 of the last axis with bin -k added to bin k,
    so that summing them against a real field's half spectrum gives the sum
    over the full one (|F(-k)| = |F(k)|)."""
    n = weights.shape[-1]
    out = weights[..., : n // 2 + 1].copy()
    out[..., 1 : n // 2] += weights[..., : n // 2 : -1]
    return out


def _theta_mean(amp: np.ndarray, kq: np.ndarray) -> float:
    """<theta> = sum_k kq[k] |F(k, p)|^2 / sum |F|^2, F the FFT along q.

    For a real field F(-k) is the conjugate of F(k) and kq[-k] = -kq[k], so
    every pair cancels but the unpaired Nyquist bin, whose transform is the
    alternating sum over q; Parseval gives the denominator.  No FFT is taken.
    """
    if np.isrealobj(amp):
        n = len(kq)
        alternating = amp[0::2].sum(axis=0) - amp[1::2].sum(axis=0)
        return kq[n // 2] * (alternating @ alternating) / (n * (amp * amp).sum())
    w_th = _abs2(np.fft.fft(amp, axis=0)).sum(axis=1)
    return (kq @ w_th) / w_th.sum()


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
    full = kp, v_shifted, np.ones(len(kp))  # the last: multiplicities
    half = tuple(_fold(w) for w in full)

    def bopp(amp, rho, spec):
        kp_, v, mult_p = half if np.isrealobj(amp) else full
        w_lam = _abs2(spec)
        w_p = w_lam.sum(axis=0)
        norm_lam = w_p @ mult_p
        return (
            q @ rho.sum(axis=1) - shift * (w_p @ kp_) / norm_lam,
            rho.sum(axis=0) @ p + shift * _theta_mean(amp, kq),
            (v * w_lam).sum() / norm_lam,
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
        state, n_steps, record, boundary_limit
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
