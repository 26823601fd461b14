"""Time evolution by exponentiated generators: one split-step engine.

``propagate`` advances a state of one generator G at one step dt by the
Strang step exp(-i B dt/2hbar) exp(-i A dt/hbar) exp(-i B dt/2hbar), where A
is G's conjugate part and B its position part.  The state must live on G's
grid, which fixes where each part is diagonal: A after an FFT along axis 0,
B as is on a 1-D grid and after an FFT along the p axis, in (q, lambda), on
a phase grid.  Each factor is exact in that representation, so the step is
unitary and second order in dt, and for classical generators every factor
is an advection shear.  The factors are built once per call, for the one
path (real-field or complex) the call takes, and ``propagate`` is the one
stepping loop.  On a phase grid a step ends in the (q, lambda)
representation and the next step opens from that spectrum, which the run
carries from the first step to the last, so a Strang step costs five FFTs.

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
(checked exactly before the first step), the state is carried as float64 and
every FFT is an rfft/irfft over bins 0..n/2: the conjugate factors keep
their first n/2+1 rows, the position factor its first n/2+1 columns, and
time-dependent position factors are built over those columns only.  This
equals the complex step with the real part taken after each inverse
transform.  The two differ by round-off, and by what the Nyquist bin leaks:
the wavenumber there is +pi/dx with no -pi/dx partner, so its factor is not
conjugate-symmetric and the complex path grows an imaginary part (about
2e-7 by t = 1 on the quartic at 128^2) that the real path drops.  Complex
states and 1-D quantum states take the complex path.

Recording rule: ``propagate`` samples the state before the first step
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
from .grid import Grid1D, PhaseGrid, edge_mass, wavenumbers
from .operators import Generator
from .states import Wavefunction, _require_same_grid

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


def _conj_symmetric(arg: np.ndarray, axis: int) -> bool:
    """Whether exp(arg) is conjugate-symmetric along ``axis`` (bin -k the
    conjugate of bin k) at every bin but the Nyquist one, exactly."""
    n = arg.shape[axis]
    k = np.delete(np.arange(n), n // 2)
    return np.array_equal(np.take(arg, k, axis), np.conj(np.take(arg, -k % n, axis)))


def _head(field: np.ndarray, axis: int) -> np.ndarray:
    """Bins 0..n/2 along ``axis``, the part of a spectrum that rfft keeps."""
    return np.take(field, np.arange(field.shape[axis] // 2 + 1), axis)


def _kicks(pos_arg: np.ndarray, dt: float, scale: Callable, real: bool) -> Callable:
    """SRKN6b's position factors: ``kicks(t)`` yields the seven kicks of the
    step from t, exp(c * pos_arg) with c = 2 b_j k_j, pos_arg the position
    exponent of a half-step of dt and k_j = scale(t + _KICK_TIMES[j] dt),
    each built only as it is taken.  Lambda bins 0..n/2 are the powers
    0..n/2 of the bin-1 column, one exp over the q rows; off the real-field
    path the negative bins are added as the conjugates of bins n/2-1..1.
    The last kick is kept, so a step's closing kick serves as the next
    step's opening one (both b1 at the same time).  Raises ValueError unless
    pos_arg is a phase-space position part linear in lambda."""
    n = pos_arg.shape[-1]
    bins = np.concatenate([np.arange(n // 2 + 1), np.arange(1 - n // 2, 0)])
    if pos_arg.ndim != 2 or pos_arg.real.any() or not np.allclose(
        pos_arg, bins * pos_arg[:, 1:2], rtol=1e-12, atol=0
    ):
        raise ValueError("position_scale needs a phase-space position part linear in lambda")
    unit, last = pos_arg[:, 1].copy(), [None, None]  # (c, factor) of the last kick built

    def kick(c: float) -> np.ndarray:
        if c != last[0]:
            powers = np.empty((len(unit), n // 2 + 1), dtype=complex)
            powers[:, 0], powers[:, 1:] = 1.0, np.exp(c * unit)[:, None]
            powers = powers.cumprod(axis=1)
            if not real:
                powers = np.concatenate([powers, powers[:, -2:0:-1].conj()], axis=1)
            last[:] = c, powers
        return last[1]

    return lambda t: (kick(2.0 * b * scale(t + s * dt)) for b, s in zip(_KICKS, _KICK_TIMES))


def propagate(state: Wavefunction, G: Generator, dt: float, n_steps: int,
              record: Callable | None = None, boundary_limit: float = BOUNDARY_MASS_LIMIT,
              position_scale: Callable | None = None):
    """Take ``n_steps`` steps of G at ``dt`` from ``state``, sampling before
    the first and after each.

    Without ``position_scale`` a step is one Strang step.  With it, the step
    from time t is an SRKN6b step: force kicks of ``_KICKS[j] * dt``, each
    with B scaled by ``position_scale(t + _KICK_TIMES[j] * dt)``, between
    conjugate drifts of ``_DRIFTS[j] * dt``; B must then be a phase-space
    position part linear in lambda, or ValueError is raised before any step.
    A state on another grid than G's raises GridMismatchError.

    ``record(i, amplitudes, rho, spectrum)`` sees every sample; rho is
    |psi|^2 * measure and spectrum the FFT along the p axis, or None on a
    1-D grid.  On the real-field path the amplitudes are float64 and the
    spectrum is the rfft (bins 0..n/2).
    Returns ``(final_state, times, norms, boundary_mass)`` with one
    series entry per sample; the final state is complex, as always.
    """
    _require_same_grid(state, G)
    arg = -1j * dt / G.hbar
    conj_arg, pos_arg = arg * G.conjugate_part, 0.5 * arg * G.position_part
    pa = 1 if isinstance(G.grid, PhaseGrid) else None  # the position part's FFT axis
    amp = state.amplitudes
    real = (pa is not None and not amp.imag.any()
            and _conj_symmetric(conj_arg, 0) and _conj_symmetric(pos_arg, pa))
    if real:
        amp, conj_arg = amp.real, _head(conj_arg, 0)
        fft, ifft = np.fft.rfft, np.fft.irfft
        nyquist = (slice(None),) * pa + (-1,)  # the last rfft bin along pa
    else:
        fft, ifft = np.fft.fft, np.fft.ifft
    if position_scale is None:
        pos = np.exp(_head(pos_arg, pa) if real else pos_arg)
        position, conj = lambda t: (pos, pos), (np.exp(conj_arg),)
    else:
        position = _kicks(pos_arg, dt, position_scale, real)
        drifts = [np.exp(a * conj_arg) for a in _A]
        conj = (*drifts, *drifts[::-1])
    del conj_arg, pos_arg  # free the exponents: the steps read only the factors

    times, norms, edges = np.empty((3, n_steps + 1))
    t = state.time
    # on a phase grid a step's closing spectrum is the next step's opening one
    spec = None if pa is None else fft(amp, axis=pa)
    for i in range(n_steps + 1):
        if i:
            # the position factors alternate with the conjugate ones, first and last
            factors = iter(position(t))
            if pa is None:
                for conj_factor in conj:
                    amp = ifft(conj_factor * fft(next(factors) * amp))
                amp = next(factors) * amp
            else:
                for conj_factor in conj:
                    amp = ifft(next(factors) * spec, axis=pa)
                    amp = ifft(conj_factor * fft(amp, axis=0), axis=0)
                    spec = fft(amp, axis=pa)
                spec = next(factors) * spec
                amp = ifft(spec, axis=pa)
                if real:
                    # irfft read only the real part of the Nyquist bin: carry what it read
                    spec[nyquist].imag = 0.0
            t = t + dt
        rho = _abs2(amp) * state.measure
        times[i], norms[i], edges[i] = t, rho.sum(), edge_mass(rho)
        if not edges[i] <= boundary_limit:  # also stops a NaN state
            raise BoundaryMassError(
                f"boundary mass {edges[i]:.3e} is not within {boundary_limit:.1e} "
                f"at t={t:.4g}"
            )
        if record is not None:
            record(i, amp, rho, spec)
    return Wavefunction(state.grid, amp, time=t), times, norms, edges


def kvn_step(psi: Wavefunction, G: Generator, dt: float) -> Wavefunction:
    """One Strang step of a phase-space generator (koopman, unified): a
    one-step ``propagate``, the state sampled before and after it.

    Both sub-steps are exact shears: the q-advection is diagonal in the
    (theta-mode, p) representation, the p-advection in (q, lambda-mode).
    The edge mass is not bounded, but a NaN state stops the step with
    :class:`BoundaryMassError`.
    """
    if not isinstance(G.grid, PhaseGrid):
        raise ValueError(f"kvn_step needs a phase-space generator, got {G.label}")
    return propagate(psi, G, dt, 1, boundary_limit=np.inf)[0]


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
    if isinstance(state.grid, Grid1D):
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


def evolve(state: Wavefunction, G: Generator, t_final: float, n_steps: int) -> Trajectory:
    """Propagate ``state`` to ``t_final`` in ``n_steps`` uniform Strang steps."""
    return evolve_many(state, G, (G,), t_final, n_steps)[0]


def evolve_many(
    state: Wavefunction, G: Generator, observers, t_final: float, n_steps: int
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

    final, times, norms, edges = propagate(state, G, t_final / n_steps, n_steps, record)
    return [Trajectory(times, *s, final, norms, edges) for s in series]
