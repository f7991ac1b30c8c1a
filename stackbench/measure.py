"""Measurement primitives: calibration kernels, calibrated statistics, checks.

Wall-clock speed on a shared virtual machine drifts by about +-15% over tens
of seconds, so no timing end-to-end metric is reported raw.  Every timed
sample is paired with the calibration samples taken right before and right
after it, and the metric is

    median(sample / mean(neighbouring calibrations)) * NOMINAL[kernel]

which keeps it in absolute units while cancelling the drift.  Two kernels
exist, matched to the resource profile of the work they calibrate:

* ``cal.numpy`` (:class:`NumpyCal`) - a streaming 5-point stencil over
  preallocated float64 arrays, written through ``out=``.  It pairs with the
  NumPy-bound compute and halo workloads.
* ``cal.python`` (:class:`PythonCal`) - a pure-Python permutation walk over
  a list of small cached ints.  It pairs with interpreter-bound work: the
  frontend, compile and plan stages of a set-up, and served jobs.

A set-up mixes both profiles, so each of its stages is calibrated by the
kernel of its own profile (:data:`SETUP_PROFILE`, :class:`StagedPaired`).

Neither kernel allocates, so the program's heap and garbage collector cannot
change their speed; ``test_stackbench.py`` checks this with ``tracemalloc``.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import platform
import random
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: Nominal seconds per calibration sample: the kernels' typical standalone
#: times on the host the benchmark was built on (2-vCPU KVM guest, Python
#: 3.11, NumPy 2.4).  A calibrated metric is the median paired ratio times
#: this constant, so it reads in absolute units.  Changing a constant
#: rescales every metric calibrated by that kernel, so it changes only
#: together with a fresh baseline.
NOMINAL = {"cal.numpy": 2.2e-3, "cal.python": 1.8e-3}


class NumpyCal:
    """``cal.numpy``: two allocation-free sweeps of a 512^2 5-point stencil.

    Three 2 MiB float64 arrays (two ping-pong fields and one scratch) make a
    6 MiB working set that streams through the shared L3, like the emitted
    step of a 256^2 stencil with its float64 temporaries.  The grid is
    swept as one flat row-major range, so every operand is a contiguous
    slice and no ufunc needs a buffer.  The update
    ``0.5*c + 0.125*(n+s+e+w)`` preserves the mean, so values never decay
    into denormals however many samples run.
    """

    name = "cal.numpy"

    def __init__(self, n: int = 512):
        width = n + 2
        first = np.random.default_rng(12345).random(width * width)
        second = first.copy()
        low, high = width + 1, width * (width - 1) - 1
        self._scratch = np.empty(high - low)
        self._arrays = (first, second)  # keeps the views' bases alive
        self._sweeps = tuple(
            (src[low - width:high - width], src[low + width:high + width],
             src[low - 1:high - 1], src[low + 1:high + 1], src[low:high],
             dst[low:high])
            for src, dst in ((first, second), (second, first)))

    def __call__(self) -> None:
        add, multiply, scratch = np.add, np.multiply, self._scratch
        for north, south, west, east, centre, out in self._sweeps:
            multiply(centre, 0.5, out=out)
            add(north, south, out=scratch)
            add(scratch, west, out=scratch)
            add(scratch, east, out=scratch)
            multiply(scratch, 0.125, out=scratch)
            add(out, scratch, out=out)


class PythonCal:
    """``cal.python``: an allocation-free pure-Python loop.

    Every value stays below 256, inside CPython's small-int cache, and the
    loop counter comes from ``itertools.repeat``, so the loop creates no
    objects: it measures bytecode dispatch and list indexing only.
    """

    name = "cal.python"

    def __init__(self, iterations: int = 50_000):
        table = list(range(256))
        random.Random(7).shuffle(table)
        self._table = table
        self.iterations = iterations

    def __call__(self) -> int:
        table = self._table
        index = accumulator = 0
        for _ in itertools.repeat(None, self.iterations):
            index = table[index]
            accumulator = table[accumulator ^ index]
        return accumulator


def timed(function: Callable[[], object]) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


class Paired:
    """Timed samples, each between two calibration samples.

    The sequence is ``cal, work, cal, work, ..., cal``: sample ``i`` is
    divided by the mean of calibrations ``i`` and ``i + 1``.  ``work`` is a
    callable returning the seconds it measured itself, so untimed
    preparation and output checks can sit inside it.
    """

    def __init__(self, calibration: Callable[[], object]):
        self.calibration = calibration
        self.work: List[float] = []
        self.cal: List[float] = [timed(calibration)]

    def sample(self, work: Callable[[], Optional[float]]) -> Optional[float]:
        """Run one work sample; a failed one (``None``) is not recorded."""
        seconds = work()
        if seconds is not None:
            self.work.append(seconds)
            self.cal.append(timed(self.calibration))
        return seconds

    def ratios(self) -> List[float]:
        return paired_ratios(self.work, self.cal)


#: The resource profile of each set-up stage.  Frontend, compile and plan
#: construction run Python over IR objects; session start forks workers and
#: maps shared memory, and the first run is mostly NumPy compute.
SETUP_PROFILE = {
    "frontend": "cal.python", "compile": "cal.python", "plan": "cal.python",
    "session": "cal.numpy", "first_run": "cal.numpy",
}


def staged_value(stages: Dict[str, float], before: Dict[str, float],
                 after: Dict[str, float]) -> float:
    """One set-up, each stage calibrated by the kernel of its profile.

    ``before``/``after`` hold each kernel's calibration sample around the
    set-up; a stage contributes ``seconds / mean(before, after) * NOMINAL``.
    """
    total = 0.0
    for stage, seconds in stages.items():
        kernel = SETUP_PROFILE[stage]
        total += seconds / (0.5 * (before[kernel] + after[kernel])) * NOMINAL[kernel]
    return total


class StagedPaired:
    """Set-ups, each followed by one sample of every calibration kernel."""

    def __init__(self):
        self.kernels = {"cal.python": PythonCal(), "cal.numpy": NumpyCal()}
        self.cal = {name: [timed(kernel)] for name, kernel in self.kernels.items()}
        self.work: List[float] = []
        self.values: List[float] = []

    def sample(self, work: Callable[[], Dict[str, float]]) -> None:
        """Run one set-up; ``work`` returns its stage seconds."""
        stages = work()
        for name, kernel in self.kernels.items():
            self.cal[name].append(timed(kernel))
        self.work.append(sum(stages.values()))
        self.values.append(staged_value(
            stages, {name: cal[-2] for name, cal in self.cal.items()},
            {name: cal[-1] for name, cal in self.cal.items()}))


def paired_ratios(work: Sequence[float], cal: Sequence[float]) -> List[float]:
    """``work[i] / mean(cal[i], cal[i + 1])``; ``cal`` is one longer."""
    if len(cal) != len(work) + 1:
        raise ValueError("need exactly one more calibration than work samples")
    return [w / (0.5 * (cal[i] + cal[i + 1])) for i, w in enumerate(work)]


class TooFewSamples(ValueError):
    """A percentile was asked for without 10 samples beyond it."""


def percentile(samples: Sequence[float], fraction: float,
               min_beyond: int = 10) -> float:
    """Nearest-rank percentile that insists on ``min_beyond`` samples above it.

    The value at rank ``ceil(fraction * n)`` is returned only when at least
    ``min_beyond`` samples lie beyond that rank; a tail resting on fewer is
    a guess, not a measurement, and raises :class:`TooFewSamples`.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{fraction * 100:g} of {len(ordered)} samples has {beyond} "
            f"beyond it; {min_beyond} are needed")
    return ordered[rank - 1]


def calibrated(ratios: Sequence[float], kernel: str,
               fraction: float = 0.5) -> float:
    """A calibrated time in seconds: a percentile of the ratios x NOMINAL."""
    if fraction == 0.5:
        return statistics.median(ratios) * NOMINAL[kernel]
    return percentile(ratios, fraction) * NOMINAL[kernel]


# -- correctness ---------------------------------------------------------------

class Tally:
    """``attempted``/``failed`` over every operation of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class OutputCheck:
    """Compare every sample's outputs and exact counters to the first run's.

    ``arrays`` and ``counters`` are the reference, taken from a first run
    that was itself validated against a NumPy oracle.  Each :meth:`check`
    is one attempted operation; any differing cell or counter fails it.
    """

    def __init__(self, tally: Tally, arrays: Sequence[np.ndarray],
                 counters: Dict[str, int]):
        self.tally = tally
        self.arrays = [np.array(array, copy=True) for array in arrays]
        self.counters = dict(counters)

    def check(self, arrays: Sequence[np.ndarray],
              counters: Dict[str, int]) -> bool:
        self.tally.attempted += 1
        if len(arrays) != len(self.arrays) or not all(
                np.array_equal(got, want)
                for got, want in zip(arrays, self.arrays)):
            self.tally.fail("output differs from the validated first run")
            return False
        if counters != self.counters:
            self.tally.fail(f"counters {counters} != {self.counters}")
            return False
        return True


def exact_counters(result) -> Dict[str, int]:
    """The exact work counters of one ``ExecutionResult``."""
    comm = result.comm_statistics
    return {
        "cells_updated": sum(s.cells_updated for s in result.statistics),
        "ops_executed": sum(s.ops_executed for s in result.statistics),
        "messages_sent": comm.messages_sent if comm is not None else 0,
        "bytes_sent": comm.bytes_sent if comm is not None else 0,
    }


# -- memory and provenance -------------------------------------------------------

def _proc_kib(pid: int, name: str, fields: Sequence[str]) -> int:
    """Sum of the ``kB`` lines ``fields`` of ``/proc/<pid>/<name>``."""
    total = 0
    try:
        with open(f"/proc/{pid}/{name}", encoding="ascii") as lines:
            for line in lines:
                key = line.split(":", 1)[0]
                if key in fields:
                    total += int(line.split()[1])
    except OSError:  # the worker exited between listing and reading
        pass
    return total


def peak_rss_mib() -> float:
    """Peak RSS of this process plus its live workers' private memory, in MiB.

    Workers are forked, so most of their resident pages are the parent's,
    shared; counting each worker's full RSS would count those pages once
    per worker, and how many stay shared varies from run to run.  A
    worker's private memory is what it adds; it is flat after warm-up.
    """
    total = _proc_kib(os.getpid(), "status", ("VmHWM",))
    for child in multiprocessing.active_children():
        total += _proc_kib(child.pid, "smaps_rollup",
                           ("Private_Clean", "Private_Dirty"))
    return total / 1024.0


def _cache_sizes() -> Dict[str, str]:
    sizes = {}
    root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(root))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(f"{root}/{entry}/level", encoding="ascii") as level, \
                    open(f"{root}/{entry}/size", encoding="ascii") as size, \
                    open(f"{root}/{entry}/type", encoding="ascii") as kind:
                if kind.read().strip() != "Instruction":
                    sizes[f"L{level.read().strip()}"] = size.read().strip()
        except OSError:
            continue
    return sizes


def provenance(cal_samples: Dict[str, Sequence[float]]) -> dict:
    """Host facts and raw calibration extremes, printed by every run."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    block = {
        "nproc": usable,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    for name, samples in cal_samples.items():
        if samples:
            block[f"{name}_min_s"] = min(samples)
            block[f"{name}_max_s"] = max(samples)
    return block
