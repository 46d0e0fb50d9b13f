"""Shared fixtures: small meshes, a material and a solve counter.

The dense oracles the tests compare against live in `oracles.py`.
"""
import numpy as np
import pytest

import toporisk as tr


@pytest.fixture
def material():
    return tr.Material(youngs_modulus=1.0, poissons_ratio=0.3)


@pytest.fixture
def mesh_4x2():
    return tr.cantilever_mesh(2, (4, 2))


@pytest.fixture
def mesh_6x3():
    return tr.cantilever_mesh(2, (6, 3))


@pytest.fixture
def mesh_3d():
    return tr.cantilever_mesh(3, (3, 2, 2))


@pytest.fixture
def solve_spy(monkeypatch):
    """Right-hand-side columns passed to every `StiffnessSystem.solve` call.

    `sum(solve_spy)` is the number of linear solves performed since the
    test started (or since the list was last cleared).
    """
    columns = []
    solve = tr.StiffnessSystem.solve

    def spy(self, rhs):
        columns.append(1 if np.ndim(rhs) == 1 else np.shape(rhs)[1])
        return solve(self, rhs)

    monkeypatch.setattr(tr.StiffnessSystem, "solve", spy)
    return columns
