"""The cache-aware remote buffer source.

Wraps a :class:`~repro.plasma.buffer.RemoteBufferSource`: a materialising
read first probes the node's :class:`~repro.tier.cache.HotObjectCache` by
``(object id, generation)``. A hit serves the bytes from local DRAM —
charged through the agent's local-copy cost model, attributed to the
``cache`` span component, and counted on the fabric link as avoided read
bytes. A miss delegates to the wrapped source's *validated* fabric read
and, when the read materialised the whole payload, offers the bytes to the
cache keyed by the generation the validation just proved.

Filling only after a validated read is the coherence linchpin: the header
check before the copy and the generation re-check after it guarantee the
cached bytes are exactly the payload of that (id, generation) incarnation,
and generations never repeat — so a cache entry can only ever be *stale*,
never *wrong*, and staleness is handled by the invalidation channels plus
generation keying at lookup time.
"""

from __future__ import annotations

from repro.common.errors import ObjectStoreError
from repro.obs.spans import maybe_span
from repro.plasma.buffer import RemoteBufferSource, RemoteReadIntegrity


class CachedBufferSource:
    """A buffer source over a cache-resident payload copy.

    Backs the *pre-resolution* fast path: the store answered a get straight
    from the hot-object cache, so there is no remote record, no home-side
    pin, and no fabric mapping behind this source — just the bytes. Reads
    are charged through the agent's local-copy cost model under the
    ``cache`` span component and credited to the home link as avoided
    fabric traffic; the payload is immutable (sealed), so writes are a
    programming error.
    """

    def __init__(self, payload: bytes, home: str, agent, store, link):
        self._payload = payload
        self._home = home
        self._agent = agent
        self._store = store
        self._link = link  # None when the home peer is no longer mapped

    @property
    def location(self) -> str:
        return f"{self._home} (cached at {self._agent.node})"

    @property
    def is_remote(self) -> bool:
        # The object lives remotely; only this copy of its bytes is local.
        # True keeps client-side correlation stamping identical to the
        # resolving path, so deferred reads attribute to their Get.
        return True

    @property
    def integrity(self) -> RemoteReadIntegrity | None:
        return None  # the payload was validated when it was cached

    def view(self, offset: int, size: int):
        return memoryview(self._payload)[offset : offset + size]

    def timed_read(self, offset: int, size: int, out=None) -> float:
        cost_ns = self._agent.hit_cost.cost_ns(size)
        with maybe_span(
            self._store.spans, "cache", "hit", node=self._store.node,
            nbytes=size,
        ):
            self._store.clock.advance(cost_ns)
        if self._link is not None:
            # The fabric stream this serve replaced would have carried the
            # payload plus the validation header.
            self._link.note_read_avoided(size + self._store.header_size)
        if out is not None:
            mv = memoryview(out)
            if mv.ndim != 1 or mv.itemsize != 1:
                mv = mv.cast("B")
            mv[:size] = self._payload[offset : offset + size]
        return 0.0

    def timed_write(self, offset: int, data) -> float:
        raise ObjectStoreError("cache-served buffers are read-only")

    def charge_write(self, offset: int, size: int) -> float:
        raise ObjectStoreError("cache-served buffers are read-only")


class TierBufferSource:
    """A RemoteBufferSource with a hot-object byte cache in front."""

    def __init__(self, inner: RemoteBufferSource, record, remote_region, agent, store):
        self._inner = inner
        self._record = record
        self._region = remote_region
        self._agent = agent
        self._store = store

    # -- delegation ---------------------------------------------------------------

    @property
    def location(self) -> str:
        return self._inner.location

    @property
    def is_remote(self) -> bool:
        return True

    @property
    def integrity(self) -> RemoteReadIntegrity | None:
        return self._inner.integrity

    def view(self, offset: int, size: int):
        return self._inner.view(offset, size)

    def timed_write(self, offset: int, data) -> float:
        return self._inner.timed_write(offset, data)

    def charge_write(self, offset: int, size: int) -> float:
        return self._inner.charge_write(offset, size)

    # -- the cached read path -----------------------------------------------------

    def _generation(self) -> int:
        # The integrity context is live — a stale-descriptor refresh swaps
        # it for the fresh incarnation's — so it, not the captured record,
        # is the authority on which generation the bytes belong to.
        ig = self._inner.integrity
        return ig.generation if ig is not None else self._record.generation

    def _header_size(self) -> int:
        ig = self._inner.integrity
        return ig.header_size if ig is not None else 0

    def timed_read(self, offset: int, size: int, out=None) -> float:
        cache = self._agent.cache
        generation = self._generation()
        if cache is None or not generation:
            # Generation 0 means "unknown incarnation" (hashmap directory
            # descriptors): uncacheable, since a hit could never be proven
            # coherent. Straight to the fabric.
            return self._inner.timed_read(offset, size, out=out)
        object_id = self._record.object_id
        payload = cache.lookup(object_id, generation)
        if payload is not None:
            cost_ns = self._agent.hit_cost.cost_ns(size)
            with maybe_span(
                self._store.spans, "cache", "hit", node=self._store.node,
                nbytes=size,
            ):
                self._store.clock.advance(cost_ns)
            # The fabric stream this hit replaced would have carried the
            # payload plus the validation header.
            self._region.aperture.link.note_read_avoided(
                size + self._header_size()
            )
            if out is not None:
                mv = memoryview(out)
                if mv.ndim != 1 or mv.itemsize != 1:
                    mv = mv.cast("B")
                mv[:size] = payload[offset : offset + size]
            return 0.0
        cost = self._inner.timed_read(offset, size, out=out)
        if out is not None and offset == 0 and size == self._record.data_size:
            generation = self._generation()  # may have refreshed mid-read
            if generation:
                mv = memoryview(out)
                if mv.ndim != 1 or mv.itemsize != 1:
                    mv = mv.cast("B")
                cache.offer(
                    object_id,
                    generation,
                    bytes(mv[:size]),
                    home=self._record.home,
                )
        return cost
