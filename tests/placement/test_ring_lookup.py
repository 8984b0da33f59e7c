"""Ring-directed lookups: a remote get probes each id's ring home first and
sweeps the other peers only for what the home does not claim.

Every case runs in both RPC modes. The fallback cases build states where
the ring does not say where an object lives — a fallback local create, a
tier demotion, a drain in progress, a reader holding an old topology —
and check the bytes still come back.
"""

from __future__ import annotations

import functools

import pytest

from repro.chaos import FaultPlan
from repro.chaos.plan import LinkHeal, LinkPartition, NodeCrash
from repro.common.config import testing_config as make_testing_config
from repro.common.errors import ObjectUnavailableError
from repro.common.units import MiB
from repro.core import Cluster
from repro.core.service import StoreService
from repro.placement.membership import NodeStatus
from repro.rpc.service import rpc_method

PAYLOAD = bytes(range(256)) * 16  # 4 KiB
NODES = [f"node{i}" for i in range(8)]
MODES = ("sync", "async")


def make_cluster(mode="sync", **kwargs):
    kwargs.setdefault("placement", True)
    cluster = Cluster(
        make_testing_config(capacity_bytes=16 * MiB, seed=42),
        node_names=list(NODES),
        **kwargs,
    )
    cluster.set_rpc_mode(mode)
    return cluster


def pick(cluster, n=64, *, home=None, avoid=()):
    """The first fresh id whose ring home is *home* (or any node not in
    *avoid*)."""
    ring = cluster.placement_ring()
    for oid in cluster.new_object_ids(n):
        h = ring.home(oid)
        if (home is None or h == home) and h not in avoid:
            return oid
    raise AssertionError("no id with the wanted home in the sample")


def lookups(cluster, node):
    return cluster.store(node).counters.get("lookup_rpcs")


def crash(cluster, node):
    cluster.chaos.inject(NodeCrash(at_ns=cluster.clock.now_ns + 1, node=node))
    cluster.clock.advance(2)
    cluster.health_tick()


@pytest.mark.parametrize("mode", MODES)
class TestHomeHit:
    def test_home_hit_costs_one_lookup(self, mode):
        # node7 is last in name order: the name-order sweep alone would
        # ask six peers before reaching it.
        cluster = make_cluster(mode)
        oid = pick(cluster, home="node7")
        cluster.client("node1").put_bytes(oid, PAYLOAD)
        assert cluster.store("node7").contains(oid)
        before = lookups(cluster, "node0")
        assert bytes(cluster.client("node0").get_bytes(oid)) == PAYLOAD
        assert lookups(cluster, "node0") - before == 1

    def test_batch_costs_one_lookup_per_home(self, mode):
        cluster = make_cluster(mode)
        ids = cluster.new_object_ids(24)
        writer = cluster.client("node1")
        for oid in ids:
            writer.put_bytes(oid, PAYLOAD)
        ring = cluster.placement_ring()
        homes = {ring.home(oid) for oid in ids} - {"node0"}
        before = lookups(cluster, "node0")
        out = cluster.client("node0").multi_get(ids)
        assert [bytes(v) for v in out] == [PAYLOAD] * len(ids)
        assert lookups(cluster, "node0") - before == len(homes)


@pytest.mark.parametrize("mode", MODES)
class TestStaleRingFallback:
    def test_fallback_local_create_found_after_home_heals(self, mode):
        cluster = make_cluster(mode, fault_plan=FaultPlan())
        oid = pick(cluster, home="node5")
        crash(cluster, "node5")
        writer = cluster.client("node2")
        writer.put_bytes(oid, PAYLOAD)
        fallbacks = cluster.store("node2").counters.get("placed_creates_fallback")
        assert fallbacks == 1
        cluster.recover_node("node5")
        assert not cluster.store("node5").contains(oid)
        assert bytes(cluster.client("node6").get_bytes(oid)) == PAYLOAD

    def test_demoted_object_found_off_its_home(self, mode):
        cluster = make_cluster(mode, tiering=True)
        oid = pick(cluster, avoid=("node0",))
        home = cluster.placement_ring().home(oid)
        cluster.client(home).put_bytes(oid, PAYLOAD)
        result = cluster.tier_engine.demote(oid)
        assert result is not None and result.moved
        assert result.dest != home
        assert not cluster.store(home).contains(oid)
        reader = next(n for n in NODES if n not in (home, result.dest))
        assert bytes(cluster.client(reader).get_bytes(oid)) == PAYLOAD

    def test_found_while_home_is_draining_mid_migration(self, mode):
        cluster = make_cluster(mode)
        ids = cluster.new_object_ids(48)
        writer = cluster.client("node0")
        for oid in ids:
            writer.put_bytes(oid, PAYLOAD)
        ring = cluster.placement_ring()
        on_node3 = [oid for oid in ids if ring.home(oid) == "node3"]
        assert len(on_node3) >= 2
        moved, waiting = on_node3[0], on_node3[1]
        cluster.drain_node("node3")
        assert cluster.membership.view().status("node3") is NodeStatus.DRAINING
        new_home = cluster.placement_ring().home(moved)
        assert new_home != "node3"
        result = cluster.migration_engine.migrate(
            cluster.store("node3"), new_home, moved
        )
        assert result.moved
        # One object has left the draining home, the other still waits.
        assert cluster.store("node3").contains(waiting)
        readers = [n for n in NODES if n != "node3"]
        for reader in readers:
            client = cluster.client(reader)
            assert bytes(client.get_bytes(moved)) == PAYLOAD
            assert bytes(client.get_bytes(waiting)) == PAYLOAD

    def test_reader_with_lagging_epoch_gets_correct_bytes(self, mode):
        cluster = make_cluster(mode, fault_plan=FaultPlan())
        # Cut the coordinator (node0) off from node6 while node2 drains:
        # node6 misses the push and keeps routing by the old ring.
        now = cluster.clock.now_ns
        cluster.chaos.inject(
            LinkPartition(at_ns=now + 1, node_a="node0", node_b="node6")
        )
        cluster.clock.advance(2)
        cluster.health_tick()
        cluster.drain_node("node2")
        cluster.chaos.inject(
            LinkHeal(
                at_ns=cluster.clock.now_ns + 1, node_a="node0", node_b="node6"
            )
        )
        cluster.clock.advance(2)
        cluster.health_tick()
        lagging = cluster.store("node6")
        assert lagging.topology_epoch < cluster.store("node0").topology_epoch
        stale_ring = lagging.placement_ring()
        ring = cluster.placement_ring()
        ids = [
            oid
            for oid in cluster.new_object_ids(64)
            if stale_ring.home(oid) == "node2" and ring.home(oid) != "node6"
        ][:4]
        assert ids
        writer = cluster.client("node1")
        payloads = {oid: bytes([i]) * 2048 for i, oid in enumerate(ids)}
        for oid in ids:
            writer.put_bytes(oid, payloads[oid])
            assert not cluster.store("node2").contains(oid)
        reader = cluster.client("node6")
        for oid in ids:
            assert bytes(reader.get_bytes(oid)) == payloads[oid]


@pytest.mark.parametrize("mode", MODES)
def test_down_home_listed_once_and_probed_once(mode):
    cluster = make_cluster(mode, fault_plan=FaultPlan())
    held = pick(cluster, home="node4")
    # Never written, so its home cannot claim it and the sweep goes on to
    # ask every peer — except the one already found down.
    absent = pick(cluster, avoid=("node0", "node4"))
    cluster.client("node1").put_bytes(held, PAYLOAD)
    crash(cluster, "node4")
    reader = cluster.store("node0")
    with pytest.raises(ObjectUnavailableError) as info:
        cluster.client("node0").multi_get([held, absent], allow_missing=False)
    assert info.value.unreachable_peers == ("node4",)
    assert reader.counters.get("peers_unavailable") == 1


def _lookup_trace(monkeypatch, mode):
    """Drive a fixed mix of gets on a 4-node cluster and log every Lookup a
    server handles as ``(server, [index of each id asked])``."""
    log: list[tuple[str, list[int]]] = []
    index: dict[bytes, int] = {}
    original = StoreService.Lookup

    @rpc_method
    @functools.wraps(original)
    def lookup(self, request):
        asked = [index.get(bytes(raw), -1) for raw in request["object_ids"]]
        log.append((self._store.name, asked))
        return original(self, request)

    monkeypatch.setattr(StoreService, "Lookup", lookup)
    cluster = Cluster(
        make_testing_config(capacity_bytes=16 * MiB, seed=42),
        n_nodes=4,
    )
    cluster.set_rpc_mode(mode)
    ids = cluster.new_object_ids(9)
    index.update((oid.binary(), i) for i, oid in enumerate(ids))
    for i, oid in enumerate(ids[:8]):
        cluster.client(f"node{i % 4}").put_bytes(oid, PAYLOAD)
    for reader in ("node0", "node3"):
        client = cluster.client(reader)
        for oid in ids[:4]:
            assert bytes(client.get_bytes(oid)) == PAYLOAD
        out = client.multi_get(ids[4:8])
        assert [bytes(v) for v in out] == [PAYLOAD] * 4
    missing = cluster.store("node1").get_buffers([ids[8]], allow_missing=True)
    assert missing == [None]
    return log


# The Lookups a placement-off cluster made before ring-directed lookups
# existed, in either mode: the paper's name-order sweep, each get asking
# the peers in name order until the holder answers (reads from node0, then
# node3, then one miss from node1).
SWEEP_TRACE = [
    ("node1", [1]),
    ("node1", [2]), ("node2", [2]),
    ("node1", [3]), ("node2", [3]), ("node3", [3]),
    ("node1", [5, 6, 7]), ("node2", [6, 7]), ("node3", [7]),
    ("node0", [0]),
    ("node0", [1]), ("node1", [1]),
    ("node0", [2]), ("node1", [2]), ("node2", [2]),
    ("node0", [4, 5, 6]), ("node1", [5, 6]), ("node2", [6]),
    ("node0", [8]), ("node2", [8]), ("node3", [8]),
]


@pytest.mark.parametrize("mode", MODES)
def test_placement_off_keeps_the_name_order_sweep(monkeypatch, mode):
    assert _lookup_trace(monkeypatch, mode) == SWEEP_TRACE
