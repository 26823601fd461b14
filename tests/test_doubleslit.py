import tracemalloc

import numpy as np
import pytest

from conftest import meshes
import kvnlab.doubleslit as doubleslit
from kvnlab.doubleslit import (
    SLAB_COLUMNS,
    FringeStats,
    SlitConfig,
    fringe_stats,
    heaviside,
    kvn_screens,
    refined_mask,
    run_quantum,
    slit_mask,
)
from kvnlab.errors import BoundaryMassError, PhysicsError
from kvnlab.gauge import SolenoidConfig
from kvnlab.grid import EDGE_CELLS, Grid1D, PhaseGrid, edge_mass
from kvnlab.kernels import shear, shear_factor
from kvnlab.states import density, real_parts


@pytest.fixture(scope="module")
def cfg():
    return SlitConfig()


@pytest.fixture(scope="module")
def kvn_runs(cfg):
    return {
        "both": kvn_screens(cfg, (None,))[0],
        1: kvn_screens(cfg, (1,))[0],
        2: kvn_screens(cfg, (2,))[0],
    }


def test_heaviside_points():
    assert heaviside(1.0) == 1.0
    assert heaviside(-1.0) == 0.0
    assert heaviside(0.0) == 0.0


def test_heaviside_idempotent_on_mapped_values():
    x = np.array([-2.0, -0.5, 0.3, 4.0])
    h = heaviside(x)
    np.testing.assert_array_equal(heaviside(h), h)


def test_mask_is_indicator(cfg):
    x = cfg.x_grid.points
    m = slit_mask(x, cfg)
    assert set(np.unique(m)) <= {0.0, 1.0}
    np.testing.assert_array_equal(m * m, m)  # (C1+C2)^2 = C1+C2


def test_mask_pointwise_values(cfg):
    assert slit_mask(cfg.x_A, cfg) == 1.0
    assert slit_mask(0.0, cfg) == 0.0
    assert slit_mask(-cfg.x_A, cfg) == 1.0


def test_mask_integral_counts_cells(cfg):
    g = cfg.x_grid
    total = np.sum(slit_mask(g.points, cfg)) * g.dx
    assert abs(total - 4 * cfg.delta) <= g.dx


def test_refined_mask_keeps_slits_disjoint(cfg):
    m1 = refined_mask(cfg, 1)
    m2 = refined_mask(cfg, 2)
    assert np.max(m1 * m2) == 0.0
    np.testing.assert_allclose(refined_mask(cfg), m1 + m2, atol=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        SlitConfig(x_A=0.3, delta=0.5)  # slits overlap the axis
    with pytest.raises(ValueError):
        SlitConfig(y_M=100.0, y_R=50.0)
    with pytest.raises(ValueError):
        SlitConfig(delta=-1.0)
    with pytest.raises(ValueError):
        SlitConfig(sigma_p=0.0)


@pytest.mark.parametrize("make", [SlitConfig, SolenoidConfig], ids=["slit", "solenoid"])
def test_nan_or_nonpositive_field_refused_naming_it(make):
    positive = {
        SlitConfig: ["x_A", "delta", "sigma_x", "sigma_p", "mass", "p0y", "y_M", "y_R", "hbar"],
        SolenoidConfig: ["mass", "R_boundary", "hbar"],
    }[make]
    for name in positive:
        for value in (np.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match=name):
                make(**{name: value})


# --- quantum run -------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_screen_density_trips_the_edge_check():
    # a NaN width set past SlitConfig's checks, which refuse it
    nan_beam = SlitConfig(x_grid=Grid1D(256, -64.0, 64.0), p_grid=Grid1D(32, -4.0, 4.0))
    object.__setattr__(nan_beam, "sigma_x", np.nan)
    with pytest.raises(BoundaryMassError, match="nan"):
        run_quantum(nan_beam)
    with pytest.raises(BoundaryMassError, match="nan"):
        kvn_screens(nan_beam, (None,))


def test_quantum_density_is_normalized(cfg):
    res = run_quantum(cfg)
    assert np.all(res.density >= 0)
    assert np.sum(res.density) * cfg.x_grid.dx == pytest.approx(1.0, abs=1e-10)


def test_quantum_shows_fringes(cfg):
    res = run_quantum(cfg)
    stats = fringe_stats(res.x, res.density)
    assert stats.n_maxima >= 3
    assert stats.max_contrast > 0.2


def test_quantum_single_slit_has_no_fringes(cfg):
    res = run_quantum(cfg, which=1)
    stats = fringe_stats(res.x, res.density)
    # the envelope is a single hump: nothing above 10% of the peak
    # oscillates.  Hard-aperture Fresnel side lobes do exist below that
    # (measured ~6% of peak), so a 1%-level flatness claim would be wrong.
    assert stats.n_maxima <= 2
    assert stats.max_contrast < 0.01


def test_quantum_sum_of_single_slits_is_not_both(cfg):
    both = run_quantum(cfg)
    s1 = run_quantum(cfg, which=1)
    s2 = run_quantum(cfg, which=2)
    w1, w2 = s1.transmitted_weight, s2.transmitted_weight
    combo = (w1 * s1.density + w2 * s2.density) / (w1 + w2)
    l2 = np.sqrt(np.sum((both.density - combo) ** 2) * cfg.x_grid.dx)
    assert l2 > 0.01  # the interference cross term


# --- classical run -----------------------------------------------------------


def test_kvn_density_is_normalized(kvn_runs, cfg):
    res = kvn_runs["both"]
    assert np.all(res.density >= 0)
    assert np.sum(res.density) * cfg.x_grid.dx == pytest.approx(1.0, abs=1e-10)


def test_kvn_additivity(kvn_runs):
    both, s1, s2 = kvn_runs["both"], kvn_runs[1], kvn_runs[2]
    w1, w2 = s1.transmitted_weight, s2.transmitted_weight
    combo = (w1 * s1.density + w2 * s2.density) / (w1 + w2)
    assert np.max(np.abs(both.density - combo)) < 1e-10


def test_kvn_weights_decompose(kvn_runs):
    both, s1, s2 = kvn_runs["both"], kvn_runs[1], kvn_runs[2]
    assert abs(s1.transmitted_weight + s2.transmitted_weight - both.transmitted_weight) < 1e-10


def test_kvn_phase_independence(kvn_runs, cfg):
    phased = kvn_screens(cfg, (None,), lambda Q, P: np.sin(Q) * np.cos(P))[0]
    assert np.max(np.abs(phased.density - kvn_runs["both"].density)) < 1e-10


def _slabs(cfg):
    return -(-cfg.p_grid.n // SLAB_COLUMNS)


def _slab_sources(cfg):
    """Each slab's p-columns and real source, as ``kvn_screens`` builds them."""
    Q = cfg.x_grid.points[:, None]
    for j in range(0, cfg.p_grid.n, SLAB_COLUMNS):
        cols = slice(j, j + SLAB_COLUMNS)
        P = cfg.p_grid.points[None, cols]
        yield cols, np.exp(-(Q**2) / (2 * cfg.sigma_x**2) - P**2 / (2 * cfg.sigma_p**2))


def _dead_slabs(cfg):
    """Indices of the slabs whose source holds no float64 probability."""
    return [k for k, (_, amp) in enumerate(_slab_sources(cfg)) if np.sum(amp**2) == 0.0]


def test_kvn_screens_share_one_source_run(cfg, kvn_runs, call_counts):
    dead = len(_dead_slabs(cfg))
    live = _slabs(cfg) - dead
    assert (live, dead) == (6, 2)
    call_counts.clear()
    screens = kvn_screens(cfg, (None, 1, 2))
    # a live slab: the source Gaussian and the two shear factors; one
    # rfft/irfft pair for the shear to the wall and one per aperture.
    # A dead slab (no probability in its source): the source Gaussian alone
    assert call_counts["exp"] == 3 * live + dead
    assert call_counts["rfft"] == call_counts["irfft"] == 4 * live
    assert call_counts["fft"] == call_counts["ifft"] == 0
    for res, key in zip(screens, ("both", 1, 2)):
        np.testing.assert_array_equal(res.density, kvn_runs[key].density)
        assert res.transmitted_weight == kvn_runs[key].transmitted_weight
        assert res.boundary_mass == kvn_runs[key].boundary_mass


WAVY = lambda Q, P: np.sin(Q) * np.cos(P)


def test_kvn_phased_source_shears_its_real_parts(cfg, call_counts):
    dead = len(_dead_slabs(cfg))
    live = _slabs(cfg) - dead
    call_counts.clear()
    kvn_screens(cfg, (1,), phase=WAVY)
    # the same slabs are skipped.  A live slab: the source Gaussian, its
    # phase and the two shear factors; per part, one rfft/irfft pair to the
    # wall and one to the screen.  A dead slab: the source and its phase
    assert call_counts["exp"] == 4 * live + 2 * dead
    assert call_counts["rfft"] == call_counts["irfft"] == 2 * 2 * live
    assert call_counts["fft"] == call_counts["ifft"] == 0


def test_kvn_phased_screens_are_those_of_the_source_parts(cfg):
    # the shear is a real operator, so a phased slab reaches the screen as
    # its real part's run plus i times its imaginary part's, and the density
    # is the sum of their squares, to the bit
    q, masks = cfg.x_grid, [refined_mask(cfg, which)[:, None] for which in (None, 1)]
    source_mass, masked_mass, marginal = 0.0, np.zeros(2), np.zeros((2, q.n))
    for cols, amp in _slab_sources(cfg):
        Q, P = q.points[:, None], cfg.p_grid.points[None, cols]
        amp = amp * np.exp(1j * WAVY(Q, P))
        re, im = amp.real, amp.imag
        if np.sum(re**2 + im**2) == 0.0:
            continue
        source_mass += np.sum(re**2 + im**2)
        to_wall = shear_factor(q, P[0], cfg.t_M, cfg.mass)
        to_screen = shear_factor(q, P[0], cfg.t_R - cfg.t_M, cfg.mass)
        re, im = shear(re, to_wall), shear(im, to_wall)
        for i, mask in enumerate(masks):
            masked_mass[i] += np.sum((re * mask) ** 2 + (im * mask) ** 2)
            marginal[i] += (shear(re * mask, to_screen) ** 2
                            + shear(im * mask, to_screen) ** 2).sum(axis=1)
    for res, mass, rho_q in zip(kvn_screens(cfg, (None, 1), WAVY), masked_mass, marginal):
        assert res.density.tobytes() == (rho_q / (np.sum(rho_q) * q.dx)).tobytes()
        assert res.transmitted_weight == mass / source_mass


def test_skipped_slabs_would_add_nothing(cfg):
    # shear the default grid's dead slabs as a live one is sheared: every sum
    # they would join (source and masked masses, q-marginals with their edge
    # rows, column sums off the q-edge strips) gets exactly +0.0 from them,
    # which changes no bit of a sum of non-negative terms
    q, p, c = cfg.x_grid, cfg.p_grid, EDGE_CELLS
    sources = list(_slab_sources(cfg))
    dead = _dead_slabs(cfg)
    assert dead == [0, len(sources) - 1]  # only columns 41..215 hold probability
    for k in dead:
        cols, amp = sources[k]
        assert np.count_nonzero(amp) > 0  # tiny, but not zero before squaring
        at_wall = shear(amp, shear_factor(q, p.points[cols], cfg.t_M, cfg.mass))
        to_screen = shear_factor(q, p.points[cols], cfg.t_R - cfg.t_M, cfg.mass)
        terms = [np.sum(amp**2)]
        for which in (None, 1, 2):
            masked = at_wall * refined_mask(cfg, which)[:, None]
            rho = np.abs(shear(masked, to_screen)) ** 2
            terms += [np.sum(masked**2), rho.sum(axis=1), rho[c:-c].sum(axis=0)]
        for term in terms:
            assert np.all(term == 0.0) and not np.any(np.signbit(term))


def test_beam_reaching_every_slab_shears_all_of_them(monkeypatch, call_counts):
    cfg = SlitConfig(sigma_p=1.0, x_grid=Grid1D(256, -16.0, 16.0), p_grid=Grid1D(128, -4.0, 4.0))
    assert _dead_slabs(cfg) == []
    monkeypatch.setattr(doubleslit, "APERTURE_BOUNDARY_LIMIT", np.inf)
    kvn_screens(cfg, (None,))
    assert call_counts["rfft"] == call_counts["irfft"] == 2 * _slabs(cfg)


def test_grids_holding_none_of_the_source_are_refused_naming_them():
    cfg = SlitConfig(p_grid=Grid1D(64, 3.0, 5.0))  # 30 sigma_p and more from the beam
    with pytest.raises(PhysicsError, match=r"sigma_p=0\.1.*p_grid \[3, 5\)"):
        kvn_screens(cfg, (None, 1, 2))


def _one_shot_screen(cfg, which, phase):
    """The classical pipeline on the whole phase-space field at once."""
    pg = PhaseGrid(cfg.x_grid, cfg.p_grid)
    Q, P = meshes(pg)
    amp = np.exp(-(Q**2) / (2 * cfg.sigma_x**2) - P**2 / (2 * cfg.sigma_p**2))
    if phase is not None:
        amp = amp * np.exp(1j * phase(Q, P))
    parts = real_parts(amp)
    norm = np.sqrt(np.sum(density(parts)) * pg.cell_area)
    to_wall = shear_factor(pg.q, pg.p.points, cfg.t_M, cfg.mass)
    mask = refined_mask(cfg, which)[:, None]
    masked = [shear(part / norm, to_wall) * mask for part in parts]
    weight = np.sum(density(masked)) * pg.cell_area
    to_screen = shear_factor(pg.q, pg.p.points, cfg.t_R - cfg.t_M, cfg.mass)
    rho2d = density([shear(part / np.sqrt(weight), to_screen) for part in masked])
    screen = rho2d.sum(axis=1) / (np.sum(rho2d) * pg.q.dx)
    return screen, weight, edge_mass(rho2d * pg.cell_area)


@pytest.mark.parametrize("p_n", [16, 128], ids=["one-partial-slab", "several-slabs"])
@pytest.mark.parametrize("phase", [None, lambda Q, P: np.sin(Q) * np.cos(P)],
                         ids=["real", "phased"])
def test_kvn_slabs_match_the_one_shot_field(monkeypatch, p_n, phase):
    # sigma_p 1 on p in [-4, 4) and a 32-wide q box put mass well above
    # round-off in the edge strips, so the boundary masses compare
    cfg = SlitConfig(sigma_p=1.0, x_grid=Grid1D(256, -16.0, 16.0), p_grid=Grid1D(p_n, -4.0, 4.0))
    monkeypatch.setattr(doubleslit, "APERTURE_BOUNDARY_LIMIT", np.inf)
    screens = kvn_screens(cfg, (None, 1, 2), phase)
    for res, which in zip(screens, (None, 1, 2)):
        density, weight, edge = _one_shot_screen(cfg, which, phase)
        assert np.max(np.abs(res.density - density)) <= 1e-13 * np.max(density)
        assert res.transmitted_weight == pytest.approx(weight, rel=1e-13, abs=0)
        assert edge > 1e-6
        assert res.boundary_mass == pytest.approx(edge, rel=1e-13, abs=0)


def test_kvn_screens_working_set_stays_below_two_fields(cfg):
    tracemalloc.start()
    try:
        kvn_screens(cfg, (None, 1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cfg.x_grid.n * cfg.p_grid.n * 8  # two float64 phase-space fields


@pytest.mark.parametrize(
    "beam",
    [
        dict(sigma_p=3.0, p_grid=Grid1D(256, -4.0, 4.0)),
        dict(sigma_p=3.0, p_grid=Grid1D(256, -4.0, 12.0)),
        dict(sigma_p=3.0, p_grid=Grid1D(256, -12.0, 4.0)),
        dict(sigma_p=0.5, x_grid=Grid1D(512, -5.0, 5.0)),
    ],
    ids=["both-p-edges", "first-slab-only", "last-slab-only", "q-edges"],
)
def test_kvn_edge_check_sees_every_edge_strip(beam):
    # sigma_p 3 puts ~1.5e-2 of the mass in the four p-columns at +-4 (the far
    # edge of a one-sided p grid holds ~1e-7); on q in [-5, 5) the beam
    # reaches the q-edge rows with ~2e-2
    with pytest.raises(BoundaryMassError):
        kvn_screens(SlitConfig(**beam), (None,))


@pytest.mark.parametrize("x_A", [8.0, 12.0])
def test_beam_that_misses_the_slits_is_refused(x_A):
    cfg = SlitConfig(x_A=x_A, x_grid=Grid1D(512, -64.0, 64.0), p_grid=Grid1D(64, -4.0, 4.0))
    with pytest.raises(PhysicsError, match=f"x_A={x_A:g}, delta=0.5"):
        run_quantum(cfg)
    with pytest.raises(PhysicsError, match=f"x_A={x_A:g}, delta=0.5"):
        kvn_screens(cfg, (None, 1, 2))


def test_kvn_single_slits_are_mirror_images(kvn_runs):
    d1, d2 = kvn_runs[1].density, kvn_runs[2].density
    # grid points are left-aligned: x -> -x maps index k to (n - k) % n
    mirrored = np.roll(d2[::-1], 1)
    assert np.max(np.abs(d1 - mirrored)) < 1e-10


def test_kvn_no_fringes(kvn_runs):
    stats = fringe_stats(kvn_runs["both"].x, kvn_runs["both"].density)
    assert stats.n_maxima <= 2  # one hump per slit


def test_masking_twice_changes_nothing(cfg):
    g = cfg.x_grid
    m = refined_mask(cfg)
    interior = (np.abs(g.points - cfg.x_A) < cfg.delta - 2 * g.dx) | (
        np.abs(g.points + cfg.x_A) < cfg.delta - 2 * g.dx
    )
    # away from the softened edge cells the refined mask is still a projector
    np.testing.assert_array_equal((m * m)[interior], m[interior])


def test_fringe_stats_flat_density():
    x = np.linspace(-1, 1, 101)
    assert fringe_stats(x, np.ones_like(x)) == FringeStats(0, 0.0)
