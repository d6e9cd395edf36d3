"""Shared fixtures: a fresh simulated world per test, plus one cached
read-only federation for the expensive integration checks."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings as hypothesis_settings

from repro.bench.topology import Federation, build_paper_tree

# Hypothesis runs with a fixed profile so a tier-1 failure reproduces
# exactly on every machine and every rerun: ``derandomize`` derives each
# test's examples from its own source code instead of a random seed.
# Set REPRO_HYPOTHESIS_PROFILE=random to restore randomized exploration
# (e.g. on a scheduled fuzzing job), or =thorough for ten times the
# examples on tests that leave the count to the profile.
hypothesis_settings.register_profile(
    "deterministic", derandomize=True, print_blob=True
)
hypothesis_settings.register_profile("random", derandomize=False)
hypothesis_settings.register_profile(
    "thorough", derandomize=True, print_blob=True, max_examples=1000
)
hypothesis_settings.load_profile(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "deterministic")
)
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def fabric() -> Fabric:
    return Fabric()


@pytest.fixture
def tcp(engine, fabric) -> TcpNetwork:
    return TcpNetwork(engine, fabric)


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(1234)


@pytest.fixture(scope="session")
def warm_nlevel_federation() -> Federation:
    """A small N-level paper tree, warmed up for 90 s of simulated time.

    Session-scoped: tests using it must be READ-ONLY (queries, datastore
    inspection) -- anything that mutates topology or injects faults must
    build its own federation.
    """
    federation = build_paper_tree(
        "nlevel", hosts_per_cluster=8, archive_mode="full"
    )
    federation.start()
    federation.engine.run_for(90.0)
    return federation


@pytest.fixture(scope="session")
def warm_1level_federation() -> Federation:
    """1-level twin of :func:`warm_nlevel_federation` (read-only)."""
    federation = build_paper_tree(
        "1level", hosts_per_cluster=8, archive_mode="full"
    )
    federation.start()
    federation.engine.run_for(90.0)
    return federation
