"""Host-time spans around the public entry points of each ``repro`` layer.

The benchmark's traced runs install an :class:`Instrumentation` before
building a deployment.  It replaces each entry point of :func:`_targets` with
a wrapper that records a span (name, start, end, parent, job) in a
:class:`Recorder` and passes arguments and results through untouched.
Functions that callers bound by name at import
(``from repro.vfs import pack_tree``) are replaced in every ``repro``
module that holds them, so those calls are counted too.

Generators (``RaiClient.submit``) run in slices between yields; each
slice is its own span, so a span never covers time the simulator spent
on other processes.  ``RaiWorker._process_job`` slices carry no span but
set the job that spans opened inside them belong to.

A layer's self time is its spans' duration minus the part covered by
child spans.  All spans nest on one stack (one thread), so the layers'
self times plus the residual (simulator, worker glue and the recorder's
own bookkeeping) add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# Span record fields (lists, not objects: tens of thousands per run).
NAME, START, END, PARENT, JOB, CHILD = range(6)


class Recorder:
    """In-memory span store plus the counts taken at layer boundaries."""

    def __init__(self):
        self.on = False
        self.spans: List[list] = []
        self._stack: List[list] = []
        self.job: Optional[str] = None
        #: Outermost calls per entry point (a call nested in a call of
        #: the same layer, e.g. ``find_one`` → ``find``, is not counted).
        self.calls: Counter = Counter()
        #: Byte and outcome tallies, keyed by metric-ish names.
        self.tally: Counter = Counter()
        self.queue_waits: List[float] = []
        self._seen_parse: set = set()
        self._seen_infer: set = set()
        self._layer_of: Dict[str, str] = {}

    def open(self, name: str, count: bool = True) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        span = [name, 0.0, 0.0, parent, self.job, 0.0]
        if count and (parent is None or self._layer_of[parent[NAME]]
                      != self._layer_of[name]):
            self.calls[name] += 1
        stack.append(span)
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        end = span[END] = time.perf_counter()
        self._stack.pop()
        parent = span[PARENT]
        if parent is not None:
            parent[CHILD] += end - span[START]

    # -- read-out ------------------------------------------------------------

    def export(self, origin: float) -> dict:
        """Spans as JSON-ready rows, times in seconds from ``origin``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = []
        for span in self.spans:
            parent = span[PARENT]
            rows.append([span[NAME], round(span[START] - origin, 9),
                         round(span[END] - origin, 9),
                         None if parent is None else index[id(parent)],
                         span[JOB]])
        return {"fields": ["name", "start_s", "end_s", "parent", "job"],
                "layers": {name: layer for name, layer
                           in self._layer_of.items()},
                "spans": rows}


# ---------------------------------------------------------------------------
# Observers: counts taken at the boundary, after the call returns
# ---------------------------------------------------------------------------


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


def _see_parse(rec, args, kwargs, result, ahead):
    text = args[0] if args else kwargs["text"]
    if text in rec._seen_parse:
        rec.tally["parse_repeats"] += 1
    else:
        rec._seen_parse.add(text)


def _see_put(rec, args, kwargs, result, ahead):
    data = args[3] if len(args) > 3 else kwargs["data"]
    store = args[0]
    dedup = kwargs.get("dedup", False)
    new = (store.counters.get("bytes_in_unique") - ahead if dedup
           else len(data))
    rec.tally["put_logical_bytes"] += len(data)
    rec.tally["put_new_bytes"] += new


def _before_put(args, kwargs):
    return args[0].counters.get("bytes_in_unique")


def _see_get(rec, args, kwargs, result, ahead):
    rec.tally["get_bytes"] += result.size


def _see_lookup(rec, args, kwargs, result, ahead):
    if result is not None:
        rec.tally["buildcache_hits"] += 1


def _see_pack(rec, args, kwargs, result, ahead):
    rec.tally["pack_bytes"] += len(result)


def _see_acquire(rec, args, kwargs, result, ahead):
    if result[1]:
        rec.tally["pool_hits"] += 1


def _see_infer(rec, args, kwargs, result, ahead):
    images = args[0] if args else kwargs["images"]
    weights = args[1] if len(args) > 1 else kwargs["weights"]
    key = _digest(images.shape, images.tobytes(),
                  *(part for name in sorted(weights)
                    for part in (name, weights[name].tobytes())))
    if key in rec._seen_infer:
        rec.tally["infer_repeats"] += 1
    else:
        rec._seen_infer.add(key)


def _before_publish(args, kwargs):
    return args[0].total_bytes_published


def _see_publish(rec, args, kwargs, result, ahead):
    rec.tally["publish_bytes"] += args[0].total_bytes_published - ahead


def _see_dispatch(rec, args, kwargs, result, ahead):
    if ahead is not None:
        rec.queue_waits.append(ahead)
    if args[1].attempts > 1:
        rec.tally["redeliveries"] += 1


def _before_dispatch(args, kwargs):
    scheduler, msg = args[0], args[1]
    ts = getattr(msg, "timestamp", None)
    return None if ts is None else max(0.0, scheduler.clock() - ts)


def _see_find(rec, args, kwargs, result, ahead):
    plan = result.explain()
    rec.tally["docdb_examined"] += plan.get("docs_examined", 0)
    rec.tally["docdb_returned"] += plan.get("docs_matched", 0)


def _before_append(args, kwargs):
    return args[0]._fh.tell()


def _see_append(rec, args, kwargs, result, ahead):
    rec.tally["wal_bytes"] += args[0]._fh.tell() - ahead


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------


def _targets():
    """``{layer: [(owner, attribute, observe, before), ...]}``.

    ``owner`` is a class or a module.  ``before(args, kwargs)`` runs
    ahead of the call; ``observe(rec, args, kwargs, result, ahead)``
    runs after it, outside the span, with ``before``'s value.
    """
    import repro.buildspec.parser as parser
    import repro.gpu.cnn as cnn
    import repro.vfs.archive as archive
    from repro.broker.broker import MessageBroker
    from repro.container.container import Container
    from repro.container.pool import WarmContainerPool
    from repro.core.client import RaiClient
    from repro.docdb.database import Collection
    from repro.durability.wal import WriteAheadLog
    from repro.obs.events import EventLog
    from repro.obs.tracer import Tracer
    from repro.obs.usage import UsageMeter
    from repro.sched.scheduler import JobScheduler
    from repro.storage.buildcache import BuildCache
    from repro.storage.object_store import ObjectStore

    return {
        "client": [(RaiClient, "submit", None, None)],
        "buildspec": [(parser, "parse_build_spec", _see_parse, None)],
        "storage": [(ObjectStore, "put_object", _see_put, _before_put),
                    (ObjectStore, "get_object", _see_get, None)],
        "buildcache": [(BuildCache, "lookup", _see_lookup, None),
                       (BuildCache, "capture", None, None),
                       (BuildCache, "apply", None, None)],
        "vfs": [(archive, "pack_tree", _see_pack, None),
                (archive, "unpack_tree", None, None)],
        "container": [(WarmContainerPool, "acquire", _see_acquire, None),
                      (Container, "exec_line", None, None)],
        "gpu": [(cnn, "infer", _see_infer, None)],
        "broker": [(MessageBroker, "publish", _see_publish,
                    _before_publish)],
        "sched": [(JobScheduler, "select", None, None),
                  (JobScheduler, "note_dispatch", _see_dispatch,
                   _before_dispatch)],
        "docdb": [(Collection, "insert_one", None, None),
                  (Collection, "update_one", None, None),
                  (Collection, "find", _see_find, None),
                  (Collection, "find_one", None, None)],
        "obs": [(Tracer, "start_span", None, None),
                (EventLog, "emit", None, None)],
        "usage": [(UsageMeter, "record_job", None, None)],
        "durability": [(WriteAheadLog, "append", _see_append,
                        _before_append)],
    }


#: Layer names, in the order the per-layer table prints them.
LAYERS = ("client", "buildspec", "storage", "buildcache", "vfs",
          "container", "gpu", "broker", "sched", "docdb", "obs", "usage",
          "durability")


def _wrap_call(rec: Recorder, name: str, fn: Callable, observe, before):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        ahead = before(args, kwargs) if before is not None else None
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if observe is not None:
            observe(rec, args, kwargs, result, ahead)
        return result

    return traced


def _in_slices(gen, enter: Callable, leave: Callable):
    """Run ``gen`` as ``yield from`` would, bracketing every slice.

    ``enter()`` runs before each resumption and ``leave(token)`` after
    it, with whatever ``enter`` returned.
    """
    value = error = None
    while True:
        token = enter()
        try:
            step = (gen.throw(error) if error is not None
                    else gen.send(value))
        except StopIteration as stop:
            return stop.value
        finally:
            leave(token)
        try:
            value, error = (yield step), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # thrown in by the simulator
            value, error = None, exc


def _wrap_submit(rec: Recorder, name: str, fn: Callable):
    """``RaiClient.submit``: one span per slice, job filled in later."""

    @functools.wraps(fn)
    def traced(client, *args, **kwargs):
        gen = fn(client, *args, **kwargs)
        if not rec.on:
            return (yield from gen)
        state = {"result": None, "job": None}
        unassigned: List[list] = []     # spans recorded before the job id

        def enter():
            outer, rec.job = rec.job, state["job"]
            first = len(rec.spans)
            return outer, first, rec.open(name, count=state["result"] is None)

        def leave(token):
            outer, first, span = token
            rec.close(span)
            rec.job = outer
            if state["result"] is None:
                # submit() appends its result to the history first thing.
                state["result"] = client.history[-1]
            if state["job"] is None:
                unassigned.extend(rec.spans[first:])
                job = state["result"].job_id
                if not job.startswith("("):     # "(unassigned)" until upload
                    state["job"] = job
                    for early in unassigned:
                        early[JOB] = job
                    unassigned.clear()

        return (yield from _in_slices(gen, enter, leave))

    return traced


def _wrap_job_context(rec: Recorder, fn: Callable):
    """``RaiWorker._process_job``: slices set the job, record no span."""

    @functools.wraps(fn)
    def traced(worker, message, *args, **kwargs):
        gen = fn(worker, message, *args, **kwargs)
        if not rec.on:
            return (yield from gen)
        body = message.body if isinstance(message.body, dict) else {}
        job = body.get("job_id")

        def enter():
            outer, rec.job = rec.job, job
            return outer

        def leave(outer):
            rec.job = outer

        return (yield from _in_slices(gen, enter, leave))

    return traced


class Instrumentation:
    """Wrappers installed into ``repro``; :meth:`remove` restores it."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._restore: List[tuple] = []

    def _replace(self, owner, attribute: str, original, wrapped) -> None:
        if inspect.ismodule(owner):
            # Every repro module that bound the function by name.
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attribute, None) is original):
                    self._restore.append((module, attribute, original))
                    setattr(module, attribute, wrapped)
        else:
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def install(self) -> "Instrumentation":
        from repro.core.worker import RaiWorker

        rec = self.rec
        for layer, targets in _targets().items():
            for owner, attribute, observe, before in targets:
                original = getattr(owner, attribute)
                name = f"{layer}.{attribute}"
                rec._layer_of[name] = layer
                if inspect.isgeneratorfunction(original):
                    wrapped = _wrap_submit(rec, name, original)
                else:
                    wrapped = _wrap_call(rec, name, original, observe,
                                         before)
                self._replace(owner, attribute, original, wrapped)
        original = RaiWorker._process_job
        self._replace(RaiWorker, "_process_job", original,
                      _wrap_job_context(rec, original))
        return self

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()
