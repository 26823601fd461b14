"""The package's public surface: every exported name resolves, and a
generator cannot be built without the exact force V'."""

import numpy as np
import pytest

import kvnlab
from kvnlab.grid import Grid1D, PhaseGrid
from kvnlab.operators import hamiltonian, unified_generator


def test_every_export_resolves_once():
    assert len(kvnlab.__all__) == len(set(kvnlab.__all__))
    missing = [name for name in kvnlab.__all__ if not hasattr(kvnlab, name)]
    assert missing == []


def test_generators_need_the_exact_force():
    g = Grid1D(16, -4.0, 4.0)
    V = lambda q: 0.5 * q**2
    with pytest.raises(TypeError, match="vprime"):
        hamiltonian(g, V)
    with pytest.raises(TypeError, match="vprime"):
        unified_generator(PhaseGrid(g, g), V, 0.0)
    # the force is keyword-only: a positional one is refused too
    with pytest.raises(TypeError):
        hamiltonian(g, V, 1.0, 1.0, np.zeros_like)
