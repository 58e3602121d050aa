"""Host-speed reference: fixed work timed just before and after each run.

Shared cloud hosts change speed by up to about 1.7× for minutes at a
time (neighbours contending for the core and caches), and process CPU
time does not hide that.  The benchmark therefore times this reference
around every run and scales the run's host times to a host on which one
reference pass takes :data:`REFERENCE_SECONDS`.  The reference touches
no ``repro`` code, so a change to the program cannot move it.

Contention slows kinds of work unequally: interpreter-bound Python the
most, hashing the least.  The reference mixes, in roughly equal time
shares, the kinds of host work a simulated submission does: an event
heap driving generators over small objects and dicts, JSON encoding,
bz2 compression, SHA-256 hashing, and NumPy matrix products and
element-wise array ops.
"""

from __future__ import annotations

import bz2
import hashlib
import heapq
import json
import statistics
import time

import numpy as np

#: CPU seconds one :func:`reference_pass` takes on the reference host
#: (a 2-vCPU Xeon cloud VM when its neighbours were quiet).
REFERENCE_SECONDS = 0.03


class _Item:
    __slots__ = ("key", "value", "tags")

    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value
        self.tags = {"key": key}


def _process(i: int):
    for step in range(5):
        yield (i * 7 + step) % 97


def _events(n: int) -> int:
    heap = []
    table = {}
    for i in range(n):
        heapq.heappush(heap, (i % 13, i, _process(i)))
    total = 0
    while heap:
        now, i, gen = heapq.heappop(heap)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        item = _Item(f"job-{i:06d}", delay)
        table[item.key] = item
        total += len(item.tags) + delay
        heapq.heappush(heap, (now + delay + 1, i, gen))
    return total


class _Inputs:
    """Deterministic inputs, built once per process."""

    def __init__(self):
        rng = np.random.default_rng(408)
        self.a = rng.standard_normal((400, 150)).astype(np.float32)
        self.b = rng.standard_normal((150, 64)).astype(np.float32)
        self.images = rng.standard_normal((10, 1, 28, 28)).astype(np.float32)
        self.blob = bytes(rng.integers(0, 40, 60000, dtype=np.uint8))
        self.doc = {f"k{i}": {"a": i, "b": [i, str(i)], "c": {"d": float(i)}}
                    for i in range(300)}


_INPUTS = None


def reference_pass() -> None:
    """One pass of the fixed reference work."""
    global _INPUTS
    if _INPUTS is None:
        _INPUTS = _Inputs()
    inputs = _INPUTS
    _events(350)
    for _ in range(3):
        json.loads(json.dumps(inputs.doc))
    bz2.compress(inputs.blob)
    for _ in range(100):
        hashlib.sha256(inputs.blob).digest()
    for _ in range(60):
        inputs.a @ inputs.b
    for _ in range(400):
        np.maximum(inputs.images, 0.0).sum()


def calibrate(block_seconds: float = 0.3) -> list:
    """CPU seconds of each reference pass run for ``block_seconds``."""
    samples = []
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < block_seconds:
        cpu = time.process_time()
        reference_pass()
        samples.append(time.process_time() - cpu)
    return samples


def scale(*blocks: list) -> float:
    """Factor taking host seconds to reference-host seconds."""
    return REFERENCE_SECONDS / statistics.median(
        sample for block in blocks for sample in block)
