"""Calibration kernel: fixed work that puts every timed section on one speed scale.

On a shared machine the speed of one core drifts by up to a factor of two
over tens of seconds, as other tenants come and go, and it moves spandist's
times with it. The benchmark therefore runs this kernel between its timed
sections (each campaign call, or every 54 library requests) and scales the
times of each section by ``REFERENCE_S`` over the mean of the two kernel
times around it. A figure then reads as on a machine
where the kernel takes ``REFERENCE_S``, and a change to spandist still moves
it in full, because the kernel does not touch spandist.

The kernel mixes the kinds of work spandist's time goes to: numpy calls on
tiny arrays, small LAPACK factorisations, vector loops over a wide matrix,
and plain Python object and dict work. Its inputs are fixed. Do not change
it: every recorded figure is relative to it.
"""

from __future__ import annotations

import json
import multiprocessing
import statistics
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.040
# set-up scales import times by numpy's own import instead; see workloads.import_seconds
NUMPY_IMPORT_REFERENCE_S = 0.125


def _tiny_numpy(acc: float) -> float:
    rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    for _ in range(60):
        basis: list[np.ndarray] = []
        for v in rng.standard_normal((6, 9)):
            for u in basis:
                v = v - np.dot(u, v) * u
            basis.append(v / np.linalg.norm(v))
        acc += float(sum(float(np.dot(b, b)) for b in basis))
    return acc


def _small_lapack(acc: float) -> float:
    rng = np.random.Generator(np.random.Philox(key=[0, 1]))
    for _ in range(150):
        a = rng.standard_normal((8, 8))
        _, r = np.linalg.qr(a)
        acc += float(np.linalg.eigvalsh(a @ a.T)[0]) + float(np.linalg.det(r))
    return acc


def _wide_vectors(acc: float) -> float:
    rows = np.random.Generator(np.random.Philox(key=[0, 2])).standard_normal((64, 256))
    for _ in range(2):
        basis: list[np.ndarray] = []
        for v in rows[:40]:
            for u in basis:
                v = v - np.vdot(u, v) * u
            basis.append(v / np.linalg.norm(v))
        acc += float((rows @ rows.T)[0, 0])
    return acc


@dataclass(frozen=True)
class _Record:
    key: str
    value: float
    values: tuple[tuple[str, float], ...]


def _python_objects(acc: float) -> float:
    worst: dict[str, float] = {}
    for i in range(3000):
        rec = _Record(f"family/{i % 37}/id", i * 0.5, tuple(sorted((str(j), float(j)) for j in range(3))))
        prev = worst.get(rec.key)
        if prev is None or rec.value < prev:
            worst[rec.key] = rec.value
    return acc + len(json.dumps(worst, sort_keys=True))


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    acc = _python_objects(_wide_vectors(_small_lapack(_tiny_numpy(0.0))))
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite result")
    return elapsed


def _partner(conn) -> None:
    """Run the kernel whenever asked, so that a second core is timed in step."""
    while conn.recv():
        conn.send(kernel_seconds())


class SpeedScale:
    """Scale factors for timed sections, each bracketed by two kernel runs.

    With ``cores=2`` a partner process runs the kernel at the same time as
    this one and the two times are averaged, because a pooled section loads
    both cores. Use it as a context manager, so that the partner stops. The
    partner is forked: a spawned one would also start multiprocessing's
    resource tracker, a helper process that outlives the benchmark.
    """

    def __init__(self, cores: int = 1) -> None:
        ctx = multiprocessing.get_context("fork")
        self._partners = []
        for _ in range(cores - 1):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_partner, args=(child_conn,), daemon=True)
            proc.start()
            self._partners.append((proc, conn))
        self.kernels = [self._kernel_seconds()]

    def __enter__(self) -> "SpeedScale":
        return self

    def __exit__(self, *exc) -> None:
        for proc, conn in self._partners:
            conn.send(False)
            proc.join(timeout=30)
            conn.close()
            if proc.is_alive():
                proc.kill()
                proc.join()

    def _kernel_seconds(self) -> float:
        for _, conn in self._partners:
            conn.send(True)
        own = kernel_seconds()
        return statistics.mean([own] + [conn.recv() for _, conn in self._partners])

    def after_section(self) -> float:
        """Run the kernel after a timed section and return that section's scale factor."""
        self.kernels.append(self._kernel_seconds())
        return REFERENCE_S / ((self.kernels[-2] + self.kernels[-1]) / 2.0)

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernels)
