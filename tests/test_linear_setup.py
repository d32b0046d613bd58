"""Deterministic gate: Penelope's protocol set-up grows linearly with n.

Every decider and failure detector shares one peer roster, and a fresh
SWIM view stores no per-peer records, so the memory ``install`` leaves
allocated grows linearly with the node count.  The gate counts bytes
with ``tracemalloc`` (no timing, so no host noise): quadrupling the
cluster should cost about 4x, where per-node peer copies cost about 16x.
"""

from __future__ import annotations

import tracemalloc

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core.config import PenelopeConfig
from repro.core.manager import PenelopeManager
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


def _install(n: int):
    """Build an ``n``-node cluster, then install Penelope with SWIM.

    Returns the manager and the bytes the install left allocated.
    """
    cluster = Cluster(
        Engine(),
        ClusterConfig(n_nodes=n, system_power_budget_w=n * 160.0),
        RngRegistry(seed=0),
    )
    manager = PenelopeManager(PenelopeConfig(enable_membership=True))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        manager.install(cluster, client_ids=list(range(n)), budget_w=n * 160.0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return manager, retained


def test_install_memory_grows_linearly():
    _, small = _install(256)
    _, large = _install(1024)
    assert large / small < 6.0, (small, large)


def test_agents_share_one_roster():
    manager, _ = _install(64)
    backing = {id(decider.peers.roster.ids) for decider in manager.deciders.values()}
    assert len(backing) == 1
    detector_backing = {
        id(detector.peers.roster.ids) for detector in manager.detectors.values()
    }
    assert len(detector_backing) == 1
    for node_id, decider in manager.deciders.items():
        assert len(decider.peers) == 63
        assert node_id not in decider.peers


def test_fresh_views_hold_no_records():
    manager, _ = _install(64)
    for detector in manager.detectors.values():
        assert len(detector.view._members) == 0
        assert detector.view.alive_peers() is detector.peers
