import re

import numpy as np
import pytest

from kvnlab.errors import DegenerateInputError, PhysicsError
from kvnlab.gauge import (
    MAX_ORDER,
    SolenoidConfig,
    disc_ground_energy,
    kvn_radial_coeffs,
    lowest_zero,
)


def series_bessel_j(nu, x, terms=60):
    """Independent oracle: ascending series of J_nu (small arguments only)."""
    from math import gamma

    total = 0.0
    for k in range(terms):
        total += (-1) ** k / gamma(k + 1) / gamma(k + nu + 1) * (x / 2) ** (2 * k + nu)
    return total


# --- quantum side -------------------------------------------------------------


def test_quantum_order_without_flux():
    assert SolenoidConfig(alpha=0.0, n=-3).order == 3.0


def test_quantum_order_half_flux():
    assert SolenoidConfig(alpha=0.5, n=1).order == 0.5


def test_quantum_gauge_periodicity_of_coefficients():
    # an integer flux shift is undone by n -> n + 1: same order, same energy
    a, b = SolenoidConfig(alpha=0.3, n=0), SolenoidConfig(alpha=1.3, n=1)
    assert a.order == pytest.approx(b.order, abs=1e-10)
    assert disc_ground_energy(a) == pytest.approx(disc_ground_energy(b), abs=1e-10)


def test_quantum_const_term():
    # the radial equation's constant 2mE/hbar^2 - pz0^2/hbar^2 is (j/R)^2 on the disc
    cfg = SolenoidConfig(alpha=0.0, n=0, pz0=0.7, mass=2.0, hbar=0.5)
    const = 2 * 2.0 * disc_ground_energy(cfg) / 0.25 - 0.49 / 0.25
    assert const == pytest.approx(lowest_zero(0.0) ** 2, rel=1e-14)


# --- classical side ------------------------------------------------------------


def test_kvn_coefficients_flux_independent_bitwise():
    records = [
        kvn_radial_coeffs(SolenoidConfig(alpha=a, n=2, pz0=0.4, ptheta0=0.9), 1.7)
        for a in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    ]
    assert all(r == records[0] for r in records)


def test_kvn_energy_only_in_constant_term():
    r1 = kvn_radial_coeffs(SolenoidConfig(n=1, ptheta0=0.5), 1.0)
    r2 = kvn_radial_coeffs(SolenoidConfig(n=1, ptheta0=0.5), 2.0)
    assert r1.energy != r2.energy
    assert (r1.dr_coeff, r1.centrifugal, r1.dpr_coeff, r1.lambda_z_coeff) == (
        r2.dr_coeff,
        r2.centrifugal,
        r2.dpr_coeff,
        r2.lambda_z_coeff,
    )


def test_kvn_n_dependence_uniform_in_alpha():
    for alpha in (0.0, 0.25, 0.5):
        r1 = kvn_radial_coeffs(SolenoidConfig(alpha=alpha, n=1, ptheta0=0.8), 1.0)
        r2 = kvn_radial_coeffs(SolenoidConfig(alpha=alpha, n=2, ptheta0=0.8), 1.0)
        assert r2.centrifugal - r1.centrifugal == pytest.approx(0.8, rel=1e-14)


# --- Bessel numerics -----------------------------------------------------------


def test_lowest_zero_of_j0_vs_series_oracle():
    # oracle: bisection on the independently summed ascending series
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if series_bessel_j(0.0, mid) > 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert abs(oracle - 2.4048255576957727) < 1e-10
    assert lowest_zero(0.0) == pytest.approx(oracle, abs=1e-6)
    assert lowest_zero(0.0) == pytest.approx(2.4048256, abs=1e-6)


def test_half_integer_order_closed_form():
    # J_{3/2}(x) ~ sin(x)/x^2 - cos(x)/x vanishes where tan(x) = x
    x = lowest_zero(1.5)
    assert 4.0 < x < 4.5
    assert np.tan(x) == pytest.approx(x, abs=1e-8)


def test_bessel_envelope():
    for nu in (MAX_ORDER + 1.0, -1.0, float("nan")):
        with pytest.raises(DegenerateInputError):
            lowest_zero(nu)


#: the orders |n - alpha| of the default aharonov-bohm table, n in 0..2 and
#: alpha in 0, 0.1, ..., 0.5 (0.5 twice)
DEFAULT_ORDERS = [abs(n - a / 10) for n in (0, 1, 2) for a in range(6)]


def test_lowest_zero_matches_scipy_at_integer_orders():
    special = pytest.importorskip("scipy.special")
    for n in range(int(MAX_ORDER) + 1):
        oracle = special.jn_zeros(n, 1)[0]
        assert lowest_zero(float(n)) == pytest.approx(oracle, rel=1e-13, abs=0), n


@pytest.mark.parametrize("nu", DEFAULT_ORDERS + [25.5, 49.9])
def test_lowest_zero_matches_a_brentq_zero_of_scipy_jv(nu):
    # oracle: scan J_nu outward from the order (J_nu > 0 on (0, j_nu,1)) for the
    # first sign change, then refine it with brentq
    special = pytest.importorskip("scipy.special")
    optimize = pytest.importorskip("scipy.optimize")
    lo = max(nu, 1e-3)
    while special.jv(nu, lo + 0.1) > 0:
        lo += 0.1
    oracle = optimize.brentq(lambda x: special.jv(nu, x), lo, lo + 0.1, xtol=1e-15)
    assert lowest_zero(nu) == pytest.approx(oracle, rel=1e-13, abs=0)


def test_lowest_zero_half_order_is_pi():
    # J_{1/2} ~ sin(x): first zero at pi
    assert lowest_zero(0.5) == pytest.approx(np.pi, abs=1e-10)


# --- disc spectrum --------------------------------------------------------------


def test_disc_ground_energy_reference_value():
    cfg = SolenoidConfig(alpha=0.0, n=0, pz0=0.0, mass=1.0, R_boundary=1.0)
    assert disc_ground_energy(cfg) == pytest.approx(2.8916, abs=1e-4)
    assert disc_ground_energy(cfg) == pytest.approx(2.4048255576957727**2 / 2, abs=1e-9)


def test_disc_energy_order_symmetry():
    e1 = disc_ground_energy(SolenoidConfig(alpha=0.5, n=1))
    e2 = disc_ground_energy(SolenoidConfig(alpha=-0.5, n=0))
    assert e1 == pytest.approx(e2, abs=1e-12)


def test_disc_energy_flux_sensitive():
    de = (
        disc_ground_energy(SolenoidConfig(alpha=0.26, n=0))
        - disc_ground_energy(SolenoidConfig(alpha=0.24, n=0))
    ) / 0.02
    assert abs(de) > 0.1  # dE/d alpha clearly nonzero at alpha = 0.25


def test_disc_energy_gauge_periodicity():
    for alpha in (0.0, 0.2, 0.5):
        e1 = disc_ground_energy(SolenoidConfig(alpha=alpha, n=0))
        e2 = disc_ground_energy(SolenoidConfig(alpha=alpha + 1.0, n=1))
        assert abs(e1 - e2) < 1e-10


def test_disc_energy_varies_over_one_percent():
    energies = [disc_ground_energy(SolenoidConfig(alpha=a, n=0)) for a in np.arange(0, 0.51, 0.1)]
    spread = (max(energies) - min(energies)) / energies[0]
    assert spread > 0.01


@pytest.mark.parametrize(
    "field, value",
    [("R_boundary", 1e300), ("R_boundary", 1e-300), ("hbar", 1e-300), ("pz0", 1e300)],
)
def test_disc_energy_out_of_float_range_names_the_field(field, value):
    # overflow, or a flux-dependent part that underflows to zero
    with pytest.raises(PhysicsError, match=re.escape(f"{field} {value:g}")):
        disc_ground_energy(SolenoidConfig(**{field: value}))
