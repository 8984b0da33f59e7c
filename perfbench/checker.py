"""Output check from outside the program: every byte a read returns must be
the byte that was put under that object id.

The checker wraps the client's put and get entry points, the store's
delete, and the buffer reads. It keeps each live object's payload, compares
every ``read_all``/``read_into``/``multi_get_task`` result against it byte
for byte, and counts as *lost* any ``None`` a get returned for an id that
was put and not yet deleted when the get was issued. A ``None`` for an id
whose delete began while the get was in flight is a valid outcome of two
overlapping operations; it is counted apart, as *raced*. A deleted id's
payload is kept until a later get is issued with no other get in flight, so
buffers handed out before the delete are still checked when read.
"""

from __future__ import annotations

from perfbench.patching import Patches, resolve

_CLIENT = "repro.core.client:DisaggregatedClient"
_STORE = "repro.core.store:DisaggregatedStore"
_BUFFER = "repro.plasma.buffer:PlasmaBuffer"


class OutputChecker:
    """Installed around each checked stream by the harness; :meth:`reset`
    between independent runs (object ids restart with every fresh
    cluster)."""

    def __init__(self) -> None:
        self._patches = Patches()
        self.reset()

    # -- state -----------------------------------------------------------

    def reset(self) -> None:
        self._expected: dict = {}
        self._live: set = set()
        self._deleted: list = []
        self._deleted_at: dict = {}
        self._deletes = 0
        self._inflight = 0
        self.puts = 0
        self.reads_checked = 0
        self.bytes_checked = 0
        self.mismatches = 0
        self.lost = 0
        self.raced = 0
        self.examples: list[str] = []

    def counts(self) -> dict:
        return {
            "puts": self.puts,
            "reads_checked": self.reads_checked,
            "bytes_checked": self.bytes_checked,
            "mismatches": self.mismatches,
            "lost": self.lost,
            "raced": self.raced,
        }

    def _note(self, kind: str, oid) -> None:
        if len(self.examples) < 5:
            self.examples.append(f"{kind}: {oid!r}")

    def stored(self, oid, data) -> None:
        self._expected[oid] = data if isinstance(data, bytes) else bytes(data)
        self._live.add(oid)
        self.puts += 1

    def verify(self, oid, data) -> None:
        expected = self._expected.get(oid)
        self.reads_checked += 1
        self.bytes_checked += len(data)
        if expected is None or data != expected:
            self.mismatches += 1
            self._note("mismatch" if expected is not None else "unknown id",
                       oid)

    def _issue(self, object_ids):
        if not self._inflight:
            self._purge()
        self._inflight += 1
        return self._deletes, [oid in self._live for oid in object_ids]

    def _settle(self, object_ids, issued, results) -> None:
        self._inflight -= 1
        deletes_at_issue, live_at_issue = issued
        for oid, was_live, result in zip(object_ids, live_at_issue, results):
            if result is None and was_live:
                if self._deleted_at.get(oid, 0) > deletes_at_issue:
                    self.raced += 1
                else:
                    self.lost += 1
                    self._note("lost", oid)

    def _delete(self, oid) -> None:
        self._live.discard(oid)
        self._deleted.append(oid)
        self._deletes += 1
        self._deleted_at[oid] = self._deletes

    def _purge(self) -> None:
        for oid in self._deleted:
            if oid not in self._live:
                self._expected.pop(oid, None)
        self._deleted.clear()

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        chk = self
        client, _, get = resolve(f"{_CLIENT}.get")
        _, _, get_task = resolve(f"{_CLIENT}.get_task")
        _, _, multi_get_task = resolve(f"{_CLIENT}.multi_get_task")
        _, _, put_bytes = resolve(f"{_CLIENT}.put_bytes")
        _, _, put_bytes_task = resolve(f"{_CLIENT}.put_bytes_task")
        store, _, delete_object = resolve(f"{_STORE}.delete_object")
        _, _, delete_object_task = resolve(f"{_STORE}.delete_object_task")
        buffer, _, read_all = resolve(f"{_BUFFER}.read_all")
        _, _, read_into = resolve(f"{_BUFFER}.read_into")

        def w_get(self, object_ids, *args, **kwargs):
            ids = list(object_ids)
            issued = chk._issue(ids)
            buffers = None
            try:
                buffers = get(self, ids, *args, **kwargs)
            finally:
                chk._settle(ids, issued, buffers or ())
            return buffers

        def w_get_task(self, object_ids, *args, **kwargs):
            ids = list(object_ids)
            issued = chk._issue(ids)
            buffers = None
            try:
                buffers = yield from get_task(self, ids, *args, **kwargs)
            finally:
                chk._settle(ids, issued, buffers or ())
            return buffers

        def w_multi_get_task(self, object_ids, *args, **kwargs):
            ids = list(object_ids)
            issued = chk._issue(ids)
            payloads = None
            try:
                payloads = yield from multi_get_task(self, ids, *args, **kwargs)
            finally:
                chk._settle(ids, issued, payloads or ())
            for oid, payload in zip(ids, payloads):
                if payload is not None:
                    chk.verify(oid, payload)
            return payloads

        def w_put_bytes(self, object_id, data, *args, **kwargs):
            result = put_bytes(self, object_id, data, *args, **kwargs)
            chk.stored(object_id, data)
            return result

        def w_put_bytes_task(self, object_id, data, *args, **kwargs):
            result = yield from put_bytes_task(self, object_id, data, *args,
                                               **kwargs)
            chk.stored(object_id, data)
            return result

        def w_delete_object(self, object_id, *args, **kwargs):
            chk._delete(object_id)
            return delete_object(self, object_id, *args, **kwargs)

        def w_delete_object_task(self, object_id, *args, **kwargs):
            chk._delete(object_id)
            return (yield from delete_object_task(self, object_id, *args,
                                                  **kwargs))

        def w_read_all(self):
            data = read_all(self)
            chk.verify(self.object_id, data)
            return data

        def w_read_into(self, out):
            read_into(self, out)
            view = memoryview(out)
            if view.ndim != 1 or view.itemsize != 1:
                view = view.cast("B")
            chk.verify(self.object_id, view[: self.nbytes])

        for owner, name, fn in (
            (client, "get", w_get),
            (client, "get_task", w_get_task),
            (client, "multi_get_task", w_multi_get_task),
            (client, "put_bytes", w_put_bytes),
            (client, "put_bytes_task", w_put_bytes_task),
            (store, "delete_object", w_delete_object),
            (store, "delete_object_task", w_delete_object_task),
            (buffer, "read_all", w_read_all),
            (buffer, "read_into", w_read_into),
        ):
            fn.__name__ = fn.__qualname__ = name
            self._patches.replace(owner, name, fn)

    def uninstall(self) -> None:
        self._patches.undo()

    def __enter__(self) -> "OutputChecker":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
