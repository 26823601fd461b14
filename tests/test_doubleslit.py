import numpy as np
import pytest

from kvnlab.doubleslit import (
    FringeStats,
    SlitConfig,
    fringe_stats,
    heaviside,
    kvn_screens,
    refined_mask,
    run_kvn,
    run_quantum,
    slit_mask,
)
from kvnlab.errors import BoundaryMassError
from kvnlab.grid import Grid1D


@pytest.fixture(scope="module")
def cfg():
    return SlitConfig()


@pytest.fixture(scope="module")
def kvn_runs(cfg):
    return {
        "both": run_kvn(cfg),
        1: run_kvn(cfg, which=1),
        2: run_kvn(cfg, which=2),
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


# --- quantum run -------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_screen_density_trips_the_edge_check():
    # SlitConfig's positivity checks let a NaN width through
    nan_beam = SlitConfig(sigma_x=np.nan, x_grid=Grid1D(256, -64.0, 64.0),
                          p_grid=Grid1D(32, -4.0, 4.0))
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
    phased = run_kvn(cfg, phase=lambda Q, P: np.sin(Q) * np.cos(P))
    assert np.max(np.abs(phased.density - kvn_runs["both"].density)) < 1e-10


def test_kvn_screens_share_one_source_run(cfg, kvn_runs, call_counts):
    screens = kvn_screens(cfg, (None, 1, 2))
    # the source Gaussian and the two shear factors; one rfft/irfft pair for
    # the shear to the wall and one per aperture
    assert call_counts["exp"] == 3
    assert 0 < call_counts["rfft"] <= 4 and 0 < call_counts["irfft"] <= 4
    assert call_counts["fft"] == call_counts["ifft"] == 0
    for res, key in zip(screens, ("both", 1, 2)):
        np.testing.assert_array_equal(res.density, kvn_runs[key].density)
        assert res.transmitted_weight == kvn_runs[key].transmitted_weight
        assert res.boundary_mass == kvn_runs[key].boundary_mass


def test_kvn_phased_source_takes_complex_shears(cfg, call_counts):
    kvn_screens(cfg, (1,), phase=lambda Q, P: np.sin(Q) * np.cos(P))
    assert call_counts["fft"] == call_counts["ifft"] == 2
    assert call_counts["rfft"] == call_counts["irfft"] == 0


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
