"""Shared fixtures. The kernel table, the two reference solves and the
default oracle comparison are expensive, so they are built once per
session and reused across files."""
import time

import numpy as np
import pytest

from cornerflow import (CornerData, KernelTable, build_kernel_table,
                        compare_with_mild, reconstruct_U,
                        solve_similarity_profile, symmetric_grid)


@pytest.fixture(scope="session")
def ktable():
    return build_kernel_table()


@pytest.fixture()
def new_table(ktable):
    """Factory of tables equal to ktable that hold no solve's grid plan."""
    return lambda: KernelTable(ktable.etas, ktable.g_ell, ktable.G, ktable.G2)


@pytest.fixture(scope="session")
def corner_ab():
    return CornerData(0.1, 0.1)


@pytest.fixture(scope="session")
def profile_8k(ktable, corner_ab):
    return solve_similarity_profile(corner_ab, table=ktable)


@pytest.fixture(scope="session")
def profile_16k(ktable, corner_ab):
    xs = symmetric_grid(40.0, 16384)
    return solve_similarity_profile(corner_ab, table=ktable, xs=xs)


@pytest.fixture(scope="session")
def phi_8k(profile_8k, ktable):
    return reconstruct_U(profile_8k, 1.0, ktable).phi


@pytest.fixture(scope="session")
def phi_16k(profile_16k, ktable):
    return reconstruct_U(profile_16k, 1.0, ktable).phi


@pytest.fixture(scope="session")
def oracle_8k(profile_8k, ktable):
    """compare_with_mild on the default march grid, and its wall time."""
    t0 = time.perf_counter()
    out = compare_with_mild(profile_8k, ktable)
    return out, time.perf_counter() - t0


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
