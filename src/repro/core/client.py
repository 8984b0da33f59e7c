"""The client of a disaggregated store.

API-identical to :class:`~repro.plasma.client.PlasmaClient` — that is the
framework's selling point: "the distributed nature can largely remain
hidden to Plasma clients" (paper §IV-A2). ``get`` transparently returns
local or ThymesisFlow-backed buffers; ``release`` routes to local refcounts
or cross-node release as appropriate.
"""

from __future__ import annotations

from repro.common.ids import ObjectID
from repro.core.store import DisaggregatedStore
from repro.network.ipc import IpcChannel
from repro.obs.spans import maybe_span
from repro.plasma.buffer import PlasmaBuffer
from repro.plasma.client import PlasmaClient
from repro.plasma.notifications import SealNotification
from repro.rpc.aio.loop import run_inline


class RemoteSubscription:
    """A polled cross-node notification feed.

    Each :meth:`poll` is one RPC to the home store returning everything
    sealed/deleted there since the previous poll.
    """

    def __init__(self, stub, subscription_id: int, home: str):
        self._stub = stub
        self._id = subscription_id
        self._home = home

    @property
    def home(self) -> str:
        return self._home

    def poll(self) -> list[SealNotification]:
        response = self._stub.PollNotifications({"subscription": self._id})
        return [
            SealNotification(
                object_id=ObjectID(n["object_id"]),
                data_size=int(n["data_size"]),
                deleted=bool(n["deleted"]),
            )
            for n in response.get("notifications", [])
        ]


class DisaggregatedClient(PlasmaClient):
    """A Plasma client whose local store is part of a disaggregated mesh."""

    def __init__(
        self,
        name: str,
        store: DisaggregatedStore,
        ipc: IpcChannel,
        correlation=None,
    ):
        super().__init__(name, store, ipc)
        # CorrelationContext shared cluster-wide; each top-level operation
        # (Get/Put) mints one request id that every nested RPC and fabric
        # span inherits.
        self._correlation = correlation

    @property
    def store(self) -> DisaggregatedStore:
        return self._store  # type: ignore[return-value]

    def get(
        self, object_ids: list[ObjectID], allow_missing: bool = False
    ) -> list[PlasmaBuffer]:
        """Retrieve sealed buffers wherever they live.

        One IPC round trip to the local store; the store performs any
        peer Lookup RPCs and aperture wiring (those costs are charged by
        the store's channel and the fabric respectively). With
        ``allow_missing=True``, ids that resolve nowhere yield ``None``.
        """
        if not object_ids:
            return []
        if self._correlation is None:
            with self._span("get", n=len(object_ids)):
                return run_inline(self._get(object_ids, allow_missing))
        rid = self._correlation.begin()
        try:
            with self._span("get", n=len(object_ids), rid=rid):
                buffers = run_inline(self._get(object_ids, allow_missing))
        finally:
            self._correlation.end()
        # Stamp handles so deferred reads (read_all after the Get returned)
        # still attribute their fabric spans to this request.
        for buffer in buffers:
            if buffer is not None and buffer.is_remote:
                buffer._set_correlation(self._correlation, rid)
        return buffers

    def get_task(
        self,
        object_ids: list[ObjectID],
        allow_missing: bool = False,
        attr=None,
    ):
        """Task form of :meth:`get`: same reference-taking semantics, but
        the resolution runs on the event loop (the caller releases)."""
        object_ids = list(object_ids)
        if not object_ids:
            return []
        return (
            yield from self._get(object_ids, allow_missing, attr, inline=False)
        )

    def _get(self, object_ids, allow_missing, attr=None, inline=True):
        self._ipc.charge_request(nobjects=len(object_ids))
        if attr is not None:
            attr.settle("client")
        if inline:
            buffers = self._store.get_buffers(
                object_ids, allow_missing=allow_missing
            )
        else:
            buffers = yield from self.store.get_buffers_task(
                object_ids, allow_missing, attr
            )
        for buffer in buffers:
            if buffer is not None:
                self._held.setdefault(buffer.object_id, []).append(buffer)
        self.counters.inc("gets", len(object_ids))
        return buffers

    def _span(self, name: str, **args):
        """The client layer's span hook. Sync facades only: the correlation
        context its request id comes from is a stack, not task-local."""
        return maybe_span(self._store.spans, "client", name, self._name, **args)

    def _release_store_ref(self, object_id: ObjectID) -> None:
        self.store.release_object(object_id)

    # -- batched multi-object API (repro.rpc.aio) ---------------------------------

    def multi_get(
        self, object_ids: list[ObjectID], *, allow_missing: bool = True
    ) -> list[bytes | None]:
        """Fetch many payloads in one batched operation.

        One IPC request covers every id; the store resolves all of them
        together (in async mode: one coalesced Lookup per peer instead of N
        unary calls, hedged scatter-gather across homes). Returns payload
        *copies* in input order — references are taken and released
        internally — with ``None`` at unresolved positions unless
        ``allow_missing=False``.
        """
        if not object_ids:
            return []
        if self.store._aio_facade():  # noqa: SLF001 — co-designed facade
            return self.store._drive(  # noqa: SLF001
                self.multi_get_task(object_ids, allow_missing=allow_missing),
                name=f"multi-get:{self._name}",
            )
        buffers = self.get(list(object_ids), allow_missing=allow_missing)
        return self._read_out(object_ids, buffers)

    def multi_get_task(
        self,
        object_ids: list[ObjectID],
        *,
        allow_missing: bool = True,
        attr=None,
    ):
        """Task form of :meth:`multi_get` (``yield from`` inside a task)."""
        object_ids = list(object_ids)
        if not object_ids:
            return []
        buffers = yield from self._get(
            object_ids, allow_missing, attr, inline=False
        )
        if attr is not None:
            attr.settle("service")
        out = self._read_out(object_ids, buffers)
        if attr is not None:
            attr.settle("fabric")
        return out

    def _read_out(self, object_ids, buffers) -> list[bytes | None]:
        out: list[bytes | None] = []
        # Duplicate ids in one call resolve to a single shared handle
        # (one reference per occurrence): read each handle once and reuse
        # the payload, so releasing slot N's reference cannot invalidate
        # slot N+1's pending read of the same buffer.
        read: dict[int, bytes] = {}
        for oid, buffer in zip(object_ids, buffers):
            if buffer is None:
                out.append(None)
                continue
            key = id(buffer)
            try:
                if key not in read:
                    read[key] = buffer.read_all()
                out.append(read[key])
            finally:
                self.release(oid)
        return out

    def tier_stats(self, peer: str | None = None) -> dict | None:
        """The tiering-plane snapshot (cache counters, heat-tracker sizes)
        for this client's node, or — with *peer* — for a peer store via its
        Stats RPC. ``None`` when tiering is not enabled on the target."""
        if peer is None:
            agent = self.store.tier_agent
            return agent.stats() if agent is not None else None
        handle = self.store.peer(peer)
        return handle.stub.Stats({}).get("tier")

    def subscribe_remote(self, peer_name: str) -> RemoteSubscription:
        """Subscribe to a *peer* store's seal/delete notifications.

        The local store's notification socket only announces local events;
        this is the RPC-based cross-node feed (§V-B's "additional RPC
        functionality").
        """
        handle = self.store.peer(peer_name)
        response = handle.stub.Subscribe({})
        return RemoteSubscription(
            handle.stub, int(response["subscription"]), peer_name
        )

    # -- producer path ---------------------------------------------------------------

    def put_bytes(
        self,
        object_id: ObjectID,
        data,
        metadata: bytes = b"",
        *,
        replicas: int = 1,
    ) -> ObjectID:
        """create + write + seal + release, optionally replicated.

        ``replicas=1`` (default) is the paper's single-copy mode. With
        ``replicas=2`` (or more) the home store pushes copies to
        deterministically chosen peers after sealing, so the object stays
        readable — via lookup failover — when the home store process dies.
        Replication degrades gracefully: an unavailable replica target is
        skipped, never failing the write.

        With elastic placement enabled, the consistent-hash ring decides
        where the object lives: a ring home other than this node receives
        the object via the forwarded-create protocol (metadata over RPC,
        payload over the fabric). An unreachable home degrades to a local
        create — the rebalancer re-homes the object once the cluster heals.
        """
        self._check_replicas(replicas)
        if self._correlation is None:
            return run_inline(self._put(object_id, data, metadata, replicas))
        rid = self._correlation.begin()
        try:
            with self._span("put", rid=rid, replicas=replicas):
                return run_inline(
                    self._put(object_id, data, metadata, replicas)
                )
        finally:
            self._correlation.end()

    def put_bytes_task(
        self,
        object_id: ObjectID,
        data,
        metadata: bytes = b"",
        *,
        replicas: int = 1,
        attr=None,
    ):
        """Task form of :meth:`put_bytes` (placement-aware, pipelined
        forward hops)."""
        self._check_replicas(replicas)
        return (
            yield from self._put(
                object_id, data, metadata, replicas, attr, inline=False
            )
        )

    def _put(
        self,
        object_id: ObjectID,
        data,
        metadata: bytes,
        replicas: int,
        attr=None,
        inline: bool = True,
        *,
        reserved: bool = False,
    ):
        """Placement-aware create: forward to the ring home when it is a
        reachable peer, else create locally and replicate. *reserved* ids
        already passed one batched uniqueness check (put_batch), so their
        local create skips the per-object check."""
        home = self.store.placement_home(object_id)
        if home is not None:
            self._ipc.charge_request(nobjects=1, nbytes=len(metadata))
            if attr is not None:
                attr.settle("client")
            if inline:
                ok = self.store.forward_put(
                    object_id, data, metadata, home, replicas=replicas
                )
            else:
                ok = yield from self.store.forward_put_task(
                    object_id, data, metadata, home, replicas=replicas,
                    attr=attr,
                )
            if ok:
                self.counters.inc("puts_forwarded")
                return object_id
            self.counters.inc("puts_forward_fallback")
        if reserved:
            self._create_reserved(object_id, data, metadata)
        else:
            PlasmaClient.put_bytes(self, object_id, data, metadata)
        self._replicate(object_id, replicas)
        return object_id

    def _create_reserved(self, object_id: ObjectID, data, metadata: bytes):
        mv = memoryview(data)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        self._ipc.charge_request(nobjects=1, nbytes=len(metadata))
        entry = self._store.create_object_unchecked(object_id, len(mv), metadata)
        self._store.add_ref(object_id)
        buffer = self._store.local_buffer(entry)
        self._held.setdefault(object_id, []).append(buffer)
        buffer.write(mv)
        self.seal(object_id)
        self.release(object_id)

    def _check_replicas(self, replicas: int) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1 (1 = no extra copies)")
        if replicas - 1 > len(self.store.peers()):
            raise ValueError(
                f"replicas={replicas} needs {replicas - 1} peers, "
                f"have {len(self.store.peers())}"
            )

    def _replicate(self, object_id: ObjectID, replicas: int) -> None:
        for _ in range(replicas - 1):
            self.store.replicate_object(object_id)

    def put_batch(
        self,
        items: list[tuple[ObjectID, object]],
        metadata: bytes = b"",
        *,
        replicas: int = 1,
    ) -> list[ObjectID]:
        """Bulk commit with one batched uniqueness check (reserve_ids)
        instead of a Contains RPC per object — the amortised producer path.
        ``replicas`` behaves as in :meth:`put_bytes`.
        """
        return run_inline(self._put_batch(items, metadata, replicas))

    def multi_put(
        self,
        items: list[tuple[ObjectID, object]],
        metadata: bytes = b"",
        *,
        replicas: int = 1,
    ) -> list[ObjectID]:
        """Bulk put: one batched uniqueness check for all ids; in async
        mode every object's create pipeline runs as a concurrent task (a
        ring-forwarded create overlaps its peers' instead of queueing
        behind them)."""
        items = list(items)
        if not items:
            return []
        if self.store._aio_facade():  # noqa: SLF001 — co-designed facade
            return self.store._drive(  # noqa: SLF001
                self.multi_put_task(items, metadata, replicas=replicas),
                name=f"multi-put:{self._name}",
            )
        return self.put_batch(items, metadata, replicas=replicas)

    def multi_put_task(
        self,
        items: list[tuple[ObjectID, object]],
        metadata: bytes = b"",
        *,
        replicas: int = 1,
    ):
        """Task form of :meth:`multi_put`: concurrent per-object pipelines
        after one shared reserve_ids check."""
        return (
            yield from self._put_batch(items, metadata, replicas, inline=False)
        )

    def _put_batch(self, items, metadata, replicas, inline=True):
        self._check_replicas(replicas)
        items = list(items)
        ids = [oid for oid, _ in items]
        self.store.reserve_ids(ids)
        if inline:
            for oid, data in items:
                yield from self._put(oid, data, metadata, replicas, reserved=True)
            return ids
        if not items:
            return ids
        loop = self.store.aio_loop
        tasks = [
            loop.spawn(
                self._put(
                    oid, data, metadata, replicas, inline=False, reserved=True
                ),
                name=f"put:{i}",
            )
            for i, (oid, data) in enumerate(items)
        ]
        results = yield loop.gather(tasks)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return ids

    # -- deletion --------------------------------------------------------------------

    def delete(self, object_id: ObjectID) -> None:
        run_inline(self._delete(object_id))

    def delete_task(self, object_id: ObjectID, attr=None):
        """Task form of :meth:`delete`."""
        yield from self._delete(object_id, attr, inline=False)

    def _delete(self, object_id: ObjectID, attr=None, inline=True):
        self._ipc.charge_request(nobjects=1)
        if attr is not None:
            attr.settle("client")
        if inline:
            self._store.delete_object(object_id)
        else:
            yield from self.store.delete_object_task(object_id, attr)
        self.counters.inc("deletes")
