"""Time evolution by exponentiated generators: one cached split-step engine.

A :class:`Propagator` advances states of one generator G at one step dt by
the Strang step exp(-i B dt/2) exp(-i A dt) exp(-i B dt/2), where A is G's
conjugate-diagonal part and B its position-side part.  Each factor is exact
in the representation where its part is diagonal, so the step is unitary
and second order in dt, and for classical generators every factor is an
advection shear.  The factors are built once per (G, dt), and
``Propagator.run`` is the one stepping loop.  On a phase grid a step ends
in the (q, lambda) representation and the next step opens from that
spectrum, which the run carries from the first step to the last, so a
Strang step costs five FFTs.

A time-dependent force enters through ``position_scale``, which rescales B
at each force kick of a fourth-order step: Blanes and Moan's RKN splitting
SRKN6b (J. Comput. Appl. Math. 142, 313, 2002), seven kicks of weights
b1 b2 b3 b4 b3 b2 b1 alternating with six conjugate drifts of weights
a1 a2 a3 a3 a2 a1, a kick first and last, each kick's B scaled at the time
the drifts before it have reached.  A Runge-Kutta-Nystrom
splitting needs [B, [B, [B, A]]] = 0, which holds for the Koopman
Liouvillian ({V, {V, {V, p^2/2}}} = 0) and, with time as a coordinate that
the drifts advance, for a stiffness depending on t.  The three distinct
conjugate factors are built once; a step costs 25 FFTs and six force
factors, its closing kick being the next step's opening one.  The
phase-space position part -V'(q) lambda is linear in the lambda
wavenumber, so each position factor exp(c B) is, column by column, a power
of its first lambda column: one exponential over the q rows and a running
product over lambda bins 0..n/2, the negative bins being the conjugates of
the positive ones (the exponent is imaginary).

Real-field path: the phase-space generators are real operators, so a real
amplitude stays real.  When a phase-grid state's imaginary part is exactly
zero and both exponents are conjugate-symmetric along their FFT axes
(checked exactly at construction), the state is carried as float64 and
every FFT is an rfft/irfft over bins 0..n/2: the conjugate factors keep
their first n/2+1 rows, the position factor its first n/2+1 columns, and
time-dependent position factors are built over those columns only.  This
equals the complex step with the real part taken after each inverse
transform.  The two differ by round-off, and by what the Nyquist bin leaks:
the wavenumber there is +pi/dx with no -pi/dx partner, so its factor is not
conjugate-symmetric and the complex path grows an imaginary part (about
2e-7 by t = 1 on the quartic at 128^2) that the real path drops.  Complex
states and 1-D quantum states take the complex path.

Recording rule: ``Propagator.run`` samples the state before the first step
and after every step.  Each sample computes rho = |psi|^2 * measure once and
takes from it the norm and the mass within ``EDGE_CELLS`` cells of the
domain edge.  Edge mass above the limit aborts the run: the domain was
chosen too small and any Ehrenfest check would be meaningless.  A NaN edge
mass aborts it too.  ``evolve_many`` records the means <q>, <p>, <V'> of
several observers (generators) from one evolution's samples; ``evolve`` is
its one-observer case.  A sample takes rho's marginals and, for kappa != 0,
|F|^2 of the lambda-spectrum the step already holds (|exp(i phi) F|^2 =
|F|^2), its lambda marginal and <theta> once; each observer adds only its
Bopp shifts and its own <V'(q - hbar kappa lambda/2)> sum, in a lone
observer's arithmetic.  On the real-field path the full-spectrum sums are
taken over the half spectrum with the weights at -k folded onto +k, and
<theta> needs only the Nyquist bin, an alternating sum over q, so a
kappa != 0 step with its record costs five transforms however many
observers read it; on the complex path <theta> costs one more FFT.

BLAS: the step and record loop makes no BLAS call on a full grid (full-grid
reductions are ``sum``s; only length-n dot products remain, below the size
at which OpenBLAS starts its own threads), so evolutions running side by
side in separate processes do not contend for BLAS workers.  Processes
rather than threads: each step is many small numpy calls on 128 x 65 arrays,
and threads would hand the GIL back and forth at every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import BoundaryMassError
from .grid import edge_mass, wavenumbers
from .operators import Generator
from .states import KvNWavefunction, QWavefunction, Wavefunction

#: Probability mass allowed within EDGE_CELLS cells of a domain edge during evolve().
BOUNDARY_MASS_LIMIT = 1e-8

#: SRKN6b (Blanes & Moan, J. Comput. Appl. Math. 142, 313, 2002): the
#: conjugate drifts' weights a1 a2 a3 a3 a2 a1 and the force kicks' weights
#: b1 b2 b3 b4 b3 b2 b1 of one fourth-order step, and the times, in steps,
#: at which the kicks are taken: the sums of the drifts before them.
_A = (0.245298957184271, 0.604872665711080)
_A += (0.5 - sum(_A),)
_B = (0.0829844064174052, 0.396309801498368, -0.0390563049223486)
_B += (1.0 - 2.0 * sum(_B),)
_DRIFTS = _A + _A[::-1]
_KICKS = _B + _B[-2::-1]
_KICK_TIMES = (*accumulate(_DRIFTS[:-1], initial=0.0), 1.0)


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
    """Steps of one generator at one dt, every constant factor built once.

    Without ``position_scale`` a step is one Strang step.  With it, the step
    from time t is an SRKN6b step: force kicks of ``_KICKS[j] * dt``, each
    with B scaled by ``position_scale(t + _KICK_TIMES[j] * dt)``, between
    conjugate drifts of ``_DRIFTS[j] * dt``; B must then be a phase-space
    position part linear in lambda.
    """

    def __init__(self, G: Generator, dt: float, position_scale: Callable | None = None):
        self.G, self.dt, self._position_scale = G, dt, position_scale
        self._arg = -1j * dt / G.phase_scale
        conj_arg, pos_arg = self._arguments()
        if position_scale is not None:
            # each position factor is built from lambda column 1, the unit wavenumber
            n = pos_arg.shape[-1]
            bins = np.concatenate([np.arange(n // 2 + 1), np.arange(1 - n // 2, 0)])
            if G.position_axis != 1 or pos_arg.real.any() or not np.allclose(
                pos_arg, bins * pos_arg[:, 1:2], rtol=1e-12, atol=0
            ):
                raise ValueError(
                    "position_scale needs a phase-space position part linear in lambda"
                )
            self._unit = pos_arg[:, 1]
            self._last_kick = None, None, None  # (real, c, factor) of the last kick built
        self._complex = None  # the complex path's factors, built when a complex state arrives
        pa, ca = G.position_axis, G.conjugate_axis
        self._real = None
        if pa is not None and _conj_symmetric(conj_arg, ca) and _conj_symmetric(pos_arg, pa):
            pos = None if position_scale else np.exp(_head(pos_arg, pa))
            self._real = self._conjugate_factors(_head(conj_arg, ca)), pos
            self._nyquist = (slice(None),) * pa + (-1,)  # the last rfft bin along pa

    def _arguments(self) -> tuple:
        """The exponents of G's conjugate part over dt and of its position part over dt/2."""
        return self._arg * self.G.conjugate_part, 0.5 * self._arg * self.G.position_part

    def _conjugate_factors(self, conj_arg: np.ndarray) -> tuple:
        """exp of ``conj_arg`` for each conjugate shear of a step: a Strang
        step's one, or SRKN6b's six drifts, three distinct arrays."""
        if self._position_scale is None:
            return (np.exp(conj_arg),)
        drifts = [np.exp(a * conj_arg) for a in _A]
        return (*drifts, *drifts[::-1])

    def _factors(self, real: bool) -> tuple:
        """(conjugate factors, constant position factor or None) of a path."""
        if real:
            return self._real
        if self._complex is None:
            conj_arg, pos_arg = self._arguments()
            pos = None if self._position_scale else np.exp(pos_arg)
            self._complex = self._conjugate_factors(conj_arg), pos
        return self._complex

    def _start(self, amp: np.ndarray) -> np.ndarray:
        """The amplitudes the steps work on: the real part, as float64, when
        the state and the factors allow the real-field path."""
        if self._real is not None and not amp.imag.any():
            return amp.real
        return amp

    def _position_factors(self, real: bool, t: float):
        """The position factors of the step from t, one before each conjugate
        factor and one after the last.  A Strang step's are its two half-step
        factors.  SRKN6b's seven kicks are exp(c * arg) with c = 2 b_j k_j,
        arg the position exponent of a half-step of dt and k_j the scale at
        t + _KICK_TIMES[j] dt, each built only as it is taken."""
        if self._position_scale is None:
            pos = self._factors(real)[1]
            return pos, pos
        scale, dt = self._position_scale, self.dt
        return (self._column_powers(real, 2.0 * b * scale(t + s * dt))
                for b, s in zip(_KICKS, _KICK_TIMES))

    def _column_powers(self, real: bool, c: float) -> np.ndarray:
        """exp(c * arg), arg the position exponent of a half-step of dt:
        lambda bins 0..n/2 as the powers 0..n/2 of its bin-1 column, one exp
        over the q rows; the complex path adds the negative bins as the
        conjugates of bins n/2-1..1.  The last factor is kept, so a step's
        closing kick serves as the next step's opening one (both b1 at the
        same time)."""
        if self._last_kick[:2] == (real, c):
            return self._last_kick[2]
        w = np.exp(c * self._unit)
        n = self.G.position_part.shape[1]
        powers = np.empty((len(w), n // 2 + 1), dtype=complex)
        powers[:, 0], powers[:, 1:] = 1.0, w[:, None]
        powers = powers.cumprod(axis=1)
        if not real:
            powers = np.concatenate([powers, powers[:, -2:0:-1].conj()], axis=1)
        self._last_kick = real, c, powers
        return powers

    def _advance(self, amp: np.ndarray, spec: np.ndarray | None, position):
        """One step from ``amp`` and its position-axis spectrum ``spec`` (None
        on a 1-D grid): the ``position`` factors alternate with the conjugate
        factors, one position factor first and last.  Returns the new
        amplitudes and their spectrum."""
        pa, ca = self.G.position_axis, self.G.conjugate_axis
        real = np.isrealobj(amp)
        conj = self._factors(real)[0]
        fft, ifft = _transforms(amp)
        position = iter(position)
        if pa is None:
            for conj_factor in conj:
                amp = ifft(conj_factor * fft(next(position) * amp, axis=ca), axis=ca)
            amp, spec = next(position) * amp, None
        else:
            for conj_factor in conj:
                amp = ifft(next(position) * spec, axis=pa)
                amp = ifft(conj_factor * fft(amp, axis=ca), axis=ca)
                spec = fft(amp, axis=pa)
            spec = next(position) * spec
            amp = ifft(spec, axis=pa)
            if real:
                # irfft read only the real part of the Nyquist bin: carry what it read
                spec[self._nyquist].imag = 0.0
        return amp, spec

    def run(self, state: Wavefunction, n_steps: int, record: Callable | None = None,
            boundary_limit: float = BOUNDARY_MASS_LIMIT):
        """Take ``n_steps`` steps, sampling before the first and after each.

        ``record(i, amplitudes, rho, spectrum)`` sees every sample; rho is
        |psi|^2 * measure and spectrum the FFT along G's position axis, or
        None on a 1-D grid.  On the real-field path the amplitudes are
        float64 and the spectrum is the rfft (bins 0..n/2).
        Returns ``(final_state, times, norms, boundary_mass)`` with one
        series entry per sample; the final state is complex, as always.
        """
        times, norms, edges = np.empty((3, n_steps + 1))
        amp, t = self._start(state.amplitudes), state.time
        # on a phase grid a step's closing spectrum is the next step's opening one
        pa = self.G.position_axis
        spec = None if pa is None else _transforms(amp)[0](amp, axis=pa)
        for i in range(n_steps + 1):
            if i:
                position = self._position_factors(np.isrealobj(amp), t)
                amp, spec = self._advance(amp, spec, position)
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
        return type(state)(state.grid, amp, time=t), times, norms, edges


def kvn_step(psi: KvNWavefunction, G: Generator, dt: float) -> KvNWavefunction:
    """One Strang step of a phase-space generator (koopman, unified): a
    one-step ``Propagator.run``, the state sampled before and after it.

    Both sub-steps are exact shears: the q-advection is diagonal in the
    (theta-mode, p) representation, the p-advection in (q, lambda-mode).
    The edge mass is not bounded, but a NaN state stops the step with
    :class:`BoundaryMassError`.
    """
    if G.label not in ("koopman", "unified"):
        raise ValueError(f"kvn_step needs a phase-space generator, got {G.label}")
    return Propagator(G, dt).run(psi, 1, boundary_limit=np.inf)[0]


# ---------------------------------------------------------------------------
# observable recording


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


def _means(state: Wavefunction, observers) -> Callable:
    """``means(amplitudes, rho, spectrum) -> [(<q>, <p>, <V'>) per observer]``,
    with every array that does not change between steps built once.

    On a phase grid an observer at kappa = 0 reads the plain multiplicative
    q and p; the interpolating generator's observables carry the Bopp shifts
    q - hbar kappa lambda / 2 and p + hbar kappa theta / 2, whose means obey
    the expectation-value equations of motion for every kappa.  The
    reductions no kappa enters are taken once per sample.
    """
    if isinstance(state, QWavefunction):
        g = state.grid
        x, k = g.points, wavenumbers(g)
        read = [(G.hbar * k, np.asarray(G.potential_prime(x), dtype=float)) for G in observers]

        def quantum(amp, rho, spec):
            w = _abs2(np.fft.fft(amp))
            return [(x @ rho, pk @ w / w.sum(), vx @ rho) for pk, vx in read]

        return quantum

    q, p = state.grid.q.points, state.grid.p.points
    kq, kp = wavenumbers(state.grid.q), wavenumbers(state.grid.p)
    read = []  # (shift, V' on the full lambda spectrum, V' on the half one) per observer
    for G in observers:
        if G.kappa == 0.0:
            read.append((0.0, np.asarray(G.potential_prime(q), dtype=float), None))
        else:
            shift = 0.5 * G.hbar * G.kappa
            v = np.asarray(G.potential_prime(q[:, None] - shift * kp), dtype=float)  # (q, lambda)
            read.append((shift, v, _fold(v)))
    bopp = any(shift for shift, *_ in read)
    full = kp, np.ones(len(kp))  # the last: multiplicities
    half = tuple(_fold(w) for w in full)

    def phase(amp, rho, spec):
        rho_q = rho.sum(axis=1)
        q_mean, p_mean = q @ rho_q, rho.sum(axis=0) @ p
        real = np.isrealobj(amp)
        if bopp:
            kp_, mult_p = half if real else full
            w_lam = _abs2(spec)
            w_p = w_lam.sum(axis=0)
            lam_sum, norm_lam = w_p @ kp_, w_p @ mult_p
            theta = _theta_mean(amp, kq)
        out = []
        for shift, v, v_half in read:
            if not shift:
                out.append((q_mean, p_mean, v @ rho_q))
            else:
                out.append((q_mean - shift * lam_sum / norm_lam, p_mean + shift * theta,
                            ((v_half if real else v) * w_lam).sum() / norm_lam))
        return out

    return phase


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
    return evolve_many(state, G, (G,), t_final, n_steps, boundary_limit)[0]


def evolve_many(
    state: Wavefunction,
    G: Generator,
    observers,
    t_final: float,
    n_steps: int,
    boundary_limit: float = BOUNDARY_MASS_LIMIT,
) -> list[Trajectory]:
    """Propagate ``state`` under G as ``evolve`` does and record the means of
    each observer's observables from the same samples: one trajectory per
    observer, all sharing the times, norms, edge masses and final state.

    An observer's trajectory is the one its own evolution gives only where
    its flow is G's, e.g. the interpolating generator at any kappa with a
    potential whose V''' vanishes, which is hbar times the Koopman one.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    series = np.empty((len(observers), 3, n_steps + 1))
    means = _means(state, observers)

    def record(i, amp, rho, spec):
        series[:, :, i] = means(amp, rho, spec)

    final, times, norms, edges = Propagator(G, t_final / n_steps).run(
        state, n_steps, record, boundary_limit
    )
    return [Trajectory(times, *s, final, norms, edges) for s in series]
