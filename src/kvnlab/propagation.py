"""Time evolution by exponentiated generators: one split-step engine.

``propagate`` advances a state of one generator G at one step dt by the
Strang step exp(-i B dt/2hbar) exp(-i A dt/hbar) exp(-i B dt/2hbar), where A
is G's conjugate part and B its position part.  The state must live on G's
grid, which fixes where each part is diagonal: A after an FFT along axis 0,
B as is on a 1-D grid and after an FFT along the p axis, in (q, lambda), on
a phase grid.  Each factor is exact in that representation, so the step is
unitary and second order in dt, and for classical generators every factor
is an advection shear.  The factors are built once per call, and
``propagate`` is the one stepping loop.  On a phase grid a step ends in the
(q, lambda) representation and the next step opens from that spectrum, so a
Strang step costs five FFTs.

A time-dependent force enters through ``position_scale``, which rescales B
at each force kick of a fourth-order step: Blanes and Moan's RKN splitting
SRKN6b (J. Comput. Appl. Math. 142, 313, 2002), seven kicks of weights
b1 b2 b3 b4 b3 b2 b1 alternating with six conjugate drifts of weights
a1 a2 a3 a3 a2 a1, a kick first and last, each kick's B scaled at the time
the drifts before it have reached.  A Runge-Kutta-Nystrom splitting needs
[B, [B, [B, A]]] = 0, which holds for the Koopman Liouvillian
({V, {V, {V, p^2/2}}} = 0) and, with time as a coordinate that the drifts
advance, for a stiffness depending on t.  The three distinct conjugate
factors are built once; a step costs 25 FFTs and six force factors, its
closing kick being the next step's opening one.  The phase-space position
part -V'(q) lambda is linear in the lambda wavenumber, so each position
factor exp(c B) is the powers of its first lambda column
(``grid.dft_powers``): one exponential over the q rows.

Real parts: the phase-space generators (Koopman, and the interpolating one
at every kappa) are real operators, so a state's real and imaginary parts
never mix.  On a phase grid a state is carried as its ``real_parts``, each
stepped as float64 on rfft/irfft with every factor over bins 0..n/2, and
the final state joins them.  Both exponents must be exactly
conjugate-symmetric along their FFT axes, or ValueError names the generator
before the first step; an exponent holding a NaN is let through, and its
state stops the run at the edge check.  The Nyquist wavenumber +pi/dx has
no -pi/dx partner: irfft reads only the real part of that bin, and the
spectrum carried to the next step keeps only what it read.  A 1-D quantum
state is one complex field on fft/ifft, the Schrodinger step not being a
real operator.

Recording rule: ``propagate`` samples the state before the first step and
after every step.  Each sample computes rho = |psi|^2 * measure once and
takes from it the norm and the mass within ``EDGE_CELLS`` cells of the
domain edge.  Edge mass above the limit, or NaN, aborts the run: the domain
was chosen too small and any Ehrenfest check would be meaningless.
``evolve_many`` records the means <q>, <p>, <V'> at several kappas, with
G's hbar and V', from one evolution's samples; ``evolve`` reads G's kappa.
A sample takes rho's marginals and, for kappa != 0, the lambda spectra the
step already holds (|exp(i phi) F|^2 = |F|^2), their lambda marginal and
<theta> once; each kappa adds only its Bopp shifts and its own
<V'(q - hbar kappa lambda/2)> sum, in a lone kappa's arithmetic.
Full-spectrum sums are taken over the parts' half spectra (``_fold``,
``_cross``).  A real state's <theta> needs only the Nyquist bin, an
alternating sum over q, so a kappa != 0 step with its record costs five
transforms however many kappas it reads; a complex state adds two rffts.

BLAS: every kvnlab process does its BLAS work on one thread (the package
sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is set already), so evolutions
running side by side in separate processes do not contend for BLAS
workers.  The step and record loop makes no BLAS call on a full grid
anyway: full-grid reductions are ``sum``s.  Processes rather than threads:
each step is many small numpy calls on 128 x 65 arrays, and threads would
hand the GIL back and forth at every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import BoundaryMassError
from .grid import Grid1D, PhaseGrid, dft_bins, dft_powers, edge_mass, wavenumbers
from .operators import Generator
from .states import Wavefunction, _require_same_grid, density, join_parts, real_parts

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


def _conj_symmetric(arg: np.ndarray, axis: int) -> bool:
    """Whether exp(arg) is conjugate-symmetric along ``axis`` (bin -k the
    conjugate of bin k) at every bin but the Nyquist one, exactly."""
    a = np.moveaxis(arg, axis, 0)
    n = len(a)
    # bin 0 is its own partner; bins 1.. pair with n-1.. down to past the middle
    return (np.array_equal(a[0], np.conj(a[0]))
            and np.array_equal(a[1:(n + 1) // 2], np.conj(a[: n // 2 : -1])))


def _kicks(pos_arg: np.ndarray, dt: float, scale: Callable) -> Callable:
    """SRKN6b's position factors: ``kicks(t)`` yields the seven kicks of the
    step from t, exp(c * pos_arg) over lambda bins 0..n/2 with c = 2 b_j k_j,
    pos_arg the position exponent of a half-step of dt and k_j = scale(t +
    _KICK_TIMES[j] dt), each built only as it is taken (``dft_powers``).
    The last kick is kept, so a step's closing kick serves as the next
    step's opening one (both b1 at the same time).  Raises ValueError unless
    pos_arg is a phase-space position part linear in lambda."""
    n = pos_arg.shape[-1]
    if pos_arg.ndim != 2 or pos_arg.real.any() or not np.allclose(
        pos_arg.imag, dft_bins(n) * pos_arg.imag[:, 1:2], rtol=1e-12, atol=0
    ):
        raise ValueError("position_scale needs a phase-space position part linear in lambda")
    unit, last = pos_arg[:, 1].copy(), [None, None]  # (c, factor) of the last kick built

    def kick(c: float) -> np.ndarray:
        if c != last[0]:
            last[:] = c, dft_powers(c * unit, n, 1)
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
    A state on another grid than G's raises GridMismatchError, and a
    phase-space G that is not a real operator ValueError.

    ``record(i, parts, rho, spectra)`` sees every sample: the state's real
    parts (on a 1-D grid its one complex field), rho = |psi|^2 * measure and
    each part's rfft along the p axis (on a 1-D grid the parts themselves).
    Returns ``(final_state, times, norms, boundary_mass)`` with one
    series entry per sample; the final state is complex, as always.
    """
    _require_same_grid(state, G)
    arg = -1j * dt / G.hbar
    conj_arg, pos_arg = arg * G.conjugate_part, 0.5 * arg * G.position_part
    if position_scale is not None:
        position = _kicks(pos_arg, dt, position_scale)
    real = isinstance(G.grid, PhaseGrid)
    if real:
        # NaN is looked for only once the check fails: it fails on every NaN
        if not (_conj_symmetric(conj_arg, 0) and _conj_symmetric(pos_arg, 1)
                or np.isnan(conj_arg).any() or np.isnan(pos_arg).any()):
            raise ValueError(f"the {G.label} generator is not a real operator: "
                             "its split factors are not conjugate-symmetric")
        parts, fft, ifft = real_parts(state.amplitudes), np.fft.rfft, np.fft.irfft
        to_p, from_p = partial(fft, axis=1), partial(ifft, axis=1)
        conj_arg = conj_arg[: len(conj_arg) // 2 + 1].copy()  # the rows rfft keeps
    else:  # B is diagonal as is
        parts, fft, ifft = [state.amplitudes], np.fft.fft, np.fft.ifft
        to_p = from_p = lambda field: field
    if position_scale is None:
        pos = np.exp(pos_arg[:, : pos_arg.shape[1] // 2 + 1] if real else pos_arg)
        position, conj = lambda t: (pos, pos), (np.exp(conj_arg),)
    else:
        drifts = [np.exp(a * conj_arg) for a in _A]
        conj = (*drifts, *drifts[::-1])
    del conj_arg, pos_arg  # free the exponents: the steps read only the factors

    times, norms, edges = np.empty((3, n_steps + 1))
    t = state.time
    specs = [to_p(part) for part in parts]  # a step's closing spectra open the next
    for i in range(n_steps + 1):
        if i:
            del rho, parts  # the last sample's, recorded: free them before the transforms
            # the position factors alternate with the conjugate ones, first and last
            factors = iter(position(t))
            for conj_factor in conj:
                kick = next(factors)
                for j in range(len(specs)):
                    amp = from_p(kick * specs[j])
                    specs[j] = None  # stale until the drift's closing transform
                    amp = ifft(conj_factor * fft(amp, axis=0), axis=0)
                    specs[j] = to_p(amp)
            kick, amp = next(factors), None
            specs = [kick * spec for spec in specs]
            parts = [from_p(spec) for spec in specs]
            if real:  # irfft read only the real part of the Nyquist bin: carry what it read
                for j in range(len(specs)):
                    specs[j][:, -1].imag = 0.0
            t = t + dt
        rho = density(parts) * state.measure
        times[i], norms[i], edges[i] = t, rho.sum(), edge_mass(rho)
        if not edges[i] <= boundary_limit:  # also stops a NaN state
            raise BoundaryMassError(
                f"boundary mass {edges[i]:.3e} is not within {boundary_limit:.1e} "
                f"at t={t:.4g}"
            )
        if record is not None:
            record(i, parts, rho, specs)
    # free the factors before the complex final state is made
    pos = drifts = position = conj = factors = conj_factor = kick = None
    return Wavefunction(state.grid, join_parts(parts), time=t), times, norms, edges


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


def _fold(weights: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """``weights`` on bins 0..n/2 of the last axis, ``sign`` times bin -k added
    to bin k: the weights of the half spectra's |F|^2 (sign 1) and of their
    ``_cross`` term (sign -1)."""
    n = weights.shape[-1]
    out = weights[..., : n // 2 + 1].copy()
    out[..., 1 : n // 2] += sign * weights[..., : n // 2 : -1]
    return out


def _cross(R: np.ndarray, I: np.ndarray) -> np.ndarray:
    """Im(conj(R) I) per bin of the half spectra R, I of a state's two parts.
    Bins k and -k of the state's spectrum hold R + iI and conj(R) + i conj(I),
    so |F(+-k)|^2 = |R|^2 + |I|^2 -+ 2 Im(conj(R) I), and a full-spectrum sum
    of w |F|^2 is _fold(w) on |R|^2 + |I|^2 less 2 _fold(w, -1) on this."""
    return R.real * I.imag - R.imag * I.real


def _theta_mean(parts: list[np.ndarray], kq: np.ndarray) -> float:
    """<theta> = sum_k kq[k] |F(k, p)|^2 / sum |F|^2, F the FFT along q of the
    state whose real parts are ``parts``.  The fold of the odd kq is zero but
    at the Nyquist bin, a part's alternating sum over q; a complex state adds
    the cross term of its parts' rffts.  Parseval gives the denominator."""
    n = len(kq)
    alternating = [part[0::2].sum(axis=0) - part[1::2].sum(axis=0) for part in parts]
    moment = kq[n // 2] * sum(a @ a for a in alternating)
    if len(parts) > 1:
        cross = _cross(*(np.fft.rfft(part, axis=0) for part in parts))
        moment -= 2 * (_fold(kq, -1.0) @ cross.sum(axis=1))
    return moment / (n * density(parts).sum())


def _means(state: Wavefunction, G: Generator, kappas) -> Callable:
    """``means(parts, rho, spectra) -> [(<q>, <p>, <V'>) per kappa]`` with
    G's hbar and V', every array that does not change between steps built once.

    On a phase grid kappa = 0 reads the plain multiplicative q and p; other
    kappas read the Bopp shifts q - hbar kappa lambda / 2 and
    p + hbar kappa theta / 2, whose means obey the expectation-value
    equations of motion for every kappa.  The reductions no kappa enters are
    taken once per sample.  A 1-D grid reads the quantum means at any kappa.
    """
    if isinstance(state.grid, Grid1D):
        g = state.grid
        x, pk = g.points, G.hbar * wavenumbers(g)
        vx = np.asarray(G.potential_prime(x), dtype=float)

        def quantum(parts, rho, spec):
            w = density([np.fft.fft(parts[0])])
            return [(x @ rho, pk @ w / w.sum(), vx @ rho)] * len(kappas)

        return quantum

    q, p = state.grid.q.points, state.grid.p.points
    kq, kp = wavenumbers(state.grid.q), wavenumbers(state.grid.p)
    read = []  # (shift, V' on q or folded onto lambda bins 0..n/2, its odd fold) per kappa
    for kappa in kappas:
        if kappa == 0.0:
            read.append((0.0, np.asarray(G.potential_prime(q), dtype=float), None))
        else:
            shift = 0.5 * G.hbar * kappa
            v = np.asarray(G.potential_prime(q[:, None] - shift * kp), dtype=float)  # (q, lambda)
            read.append((shift, _fold(v), _fold(v, -1.0)))
    bopp = any(shift for shift, *_ in read)
    kp_even, kp_odd, mult = _fold(kp), _fold(kp, -1.0), _fold(np.ones(len(kp)))

    def phase(parts, rho, spec):
        rho_q = rho.sum(axis=1)
        q_mean, p_mean = q @ rho_q, rho.sum(axis=0) @ p
        if bopp:
            w_lam = density(spec)
            cross = _cross(*spec) if len(spec) > 1 else None
            w_p = w_lam.sum(axis=0)
            lam_sum, norm_lam = w_p @ kp_even, w_p @ mult
            if cross is not None:
                lam_sum -= 2 * (cross.sum(axis=0) @ kp_odd)
            theta = _theta_mean(parts, kq)
        out = []
        for shift, v, v_odd in read:
            if not shift:
                out.append((q_mean, p_mean, v @ rho_q))
                continue
            v_sum = (v * w_lam).sum()
            if cross is not None:
                v_sum -= 2 * (v_odd * cross).sum()
            out.append((q_mean - shift * lam_sum / norm_lam, p_mean + shift * theta,
                        v_sum / norm_lam))
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
    return evolve_many(state, G, (G.kappa,), t_final, n_steps)[0]


def evolve_many(
    state: Wavefunction, G: Generator, kappas, t_final: float, n_steps: int
) -> list[Trajectory]:
    """Propagate ``state`` under G as ``evolve`` does and record the means at
    each of ``kappas``, with G's hbar and V', from the same samples: one
    trajectory per kappa, sharing times, norms, edge masses and final state.

    A kappa's trajectory is its own evolution's only where its flow is G's,
    e.g. any kappa on G = hbar K with a potential whose V''' vanishes.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    series = np.empty((len(kappas), 3, n_steps + 1))
    means = _means(state, G, kappas)

    def record(i, parts, rho, spec):
        series[:, :, i] = means(parts, rho, spec)

    final, times, norms, edges = propagate(state, G, t_final / n_steps, n_steps, record)
    return [Trajectory(times, *s, final, norms, edges) for s in series]
