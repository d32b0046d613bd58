"""Differential test: the server's urgency expiry index vs a full scan.

``SlurmServer`` expires stale urgent deficits from a time-ordered index
of marks.  The oracle below is the bookkeeping the index replaced, kept as it
was: a dict of ``node -> (deficit_w, recorded_at)`` rescanned in full
on every expiry.  Hypothesis drives both through the same sequences of
clock advances, excess reports and urgent / non-urgent requests; after
every step the deficit keys, their order and their timestamps must
agree, and so must every release directive's ``on_behalf_of``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrumentation import MetricsRecorder
from repro.managers.slurm import SlurmConfig, SlurmServer
from repro.net.messages import (
    PORT_DECIDER,
    Addr,
    ExcessReport,
    PowerGrant,
    PowerRequest,
    ReleaseDirective,
)
from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from tests.conftest import SIM

TTL_S = 3.0


class ScanOracle:
    """Urgency bookkeeping with the full-scan expiry the index replaced."""

    def __init__(self, ttl_s: float) -> None:
        self.ttl_s = ttl_s
        #: node -> (deficit_w, recorded_at), in insertion order.
        self.deficits: Dict[int, Tuple[float, float]] = {}

    def expire(self, now: float) -> None:
        ttl = self.ttl_s
        stale = [node for node, (_, at) in self.deficits.items() if now - at > ttl]
        for node in stale:
            del self.deficits[node]

    def urgent(self, now: float, node: int, unmet: float) -> None:
        if unmet > 1e-9:
            self.deficits[node] = (unmet, now)
        else:
            self.deficits.pop(node, None)

    def plain(self, now: float, node: int) -> Optional[int]:
        """A non-urgent request: the directive's ``on_behalf_of``, if any."""
        if node in self.deficits:
            del self.deficits[node]
        self.expire(now)
        return next(iter(self.deficits)) if self.deficits else None


def make_server() -> SlurmServer:
    engine = Engine(sim=SIM)
    rngs = RngRegistry(seed=1)
    network = Network(
        engine, Topology(8, latency=LatencyModel(sigma=0.0)), rngs.stream("net")
    )
    return SlurmServer(
        engine,
        network,
        7,
        SlurmConfig(urgency_ttl_s=TTL_S),
        rngs.stream("srv"),
        MetricsRecorder(),
    )


def split(replies) -> Tuple[PowerGrant, Optional[int]]:
    grant = replies[0]
    assert isinstance(grant, PowerGrant)
    directives = [m for m in replies[1:] if isinstance(m, ReleaseDirective)]
    assert len(directives) == len(replies) - 1 <= 1
    return grant, (directives[0].on_behalf_of if directives else None)


#: Advances include steps on and around the TTL so expiry boundaries are hit
#: exactly, just before and just after.
ADVANCES = st.one_of(
    st.sampled_from([0.0, 0.05, 1.0, 1.5, TTL_S - 1e-9, TTL_S, TTL_S + 1e-9]),
    st.floats(min_value=0.0, max_value=2 * TTL_S, allow_nan=False),
)
NODES = st.integers(min_value=0, max_value=5)
ALPHAS = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)
EXCESS = st.floats(min_value=0.5, max_value=60.0, allow_nan=False)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), ADVANCES),
        st.tuples(st.just("report"), EXCESS),
        st.tuples(st.just("urgent"), NODES, ALPHAS),
        st.tuples(st.just("plain"), NODES),
    ),
    max_size=60,
)


def run_both(ops: List[tuple]) -> None:
    server = make_server()
    engine = server.engine
    oracle = ScanOracle(TTL_S)
    for op in ops:
        kind = op[0]
        if kind == "advance":
            engine.run(until=engine.now + op[1])
        elif kind == "report":
            server._handle(
                ExcessReport(src=Addr(0, PORT_DECIDER), dst=server.addr, delta=op[1])
            )
        elif kind == "urgent":
            node, alpha = op[1], op[2]
            grant, directive = split(
                server._handle(
                    PowerRequest(
                        src=Addr(node, PORT_DECIDER),
                        dst=server.addr,
                        urgent=True,
                        alpha=alpha,
                    )
                )
            )
            assert directive is None
            # The grant is min(pool, alpha): what it left uncovered is the
            # deficit the server saw.
            oracle.urgent(engine.now, node, alpha - grant.delta)
        else:
            node = op[1]
            _, directive = split(
                server._handle(
                    PowerRequest(src=Addr(node, PORT_DECIDER), dst=server.addr)
                )
            )
            assert directive == oracle.plain(engine.now, node)
        assert list(server._urgent_deficits.items()) == [
            (node, at) for node, (_, at) in oracle.deficits.items()
        ]
    # A final probe at the current instant expires both the same way.
    oracle.expire(engine.now)
    assert server.has_unmet_urgency == bool(oracle.deficits)
    assert list(server._urgent_deficits) == list(oracle.deficits)


@settings(max_examples=400, deadline=None)
@given(OPS)
def test_index_matches_full_scan(ops):
    run_both(ops)


def test_rerecorded_node_keeps_its_position():
    # A node whose deficit is re-recorded keeps its dict slot (and so
    # stays the directive target); only its newest mark can expire it.
    ops = [
        ("urgent", 1, 10.0),
        ("advance", 1.0),
        ("urgent", 2, 10.0),
        ("advance", 1.0),
        ("urgent", 1, 10.0),
        ("advance", 2.5),  # node 1's first mark is stale, its current one is not
        ("plain", 3),
        ("advance", 1.0),  # node 2 now stale; node 1 still live
        ("plain", 3),
        ("advance", 1.0),
        ("plain", 3),
    ]
    run_both(ops)


def test_cleared_then_rerecorded_at_same_instant():
    ops = [
        ("urgent", 1, 10.0),
        ("plain", 1),  # cleared: node recovered
        ("urgent", 1, 10.0),  # re-recorded at the same instant, at the end
        ("urgent", 2, 10.0),
        ("advance", TTL_S + 1e-9),
        ("plain", 4),
    ]
    run_both(ops)
