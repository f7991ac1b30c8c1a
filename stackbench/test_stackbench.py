"""Tests of the benchmark itself: its checks, statistics and calibration.

Run with ``PYTHONPATH=src python -m pytest stackbench -q``.
"""

import math
import tracemalloc

import pytest

from layers import self_times
from measure import (
    NOMINAL,
    NumpyCal,
    PythonCal,
    TooFewSamples,
    calibrated,
    paired_ratios,
    percentile,
    staged_value,
)
from workloads import (
    DevitoStencil,
    PlanWorkload,
    assert_percentiles_off_boundaries,
)


@pytest.fixture
def small_heat():
    """A validated 16^2 heat plan workload and its open set-up."""
    bench = PlanWorkload("heat-test", DevitoStencil("heat", (16, 16), 2, 3),
                         "threads", seed=3, setups=1)
    setup = bench.setup()
    bench.validate(setup)
    yield bench, setup
    setup.session.close()


class _Tampered:
    """A plan whose run is real but whose output or counters are altered."""

    def __init__(self, plan, tamper):
        self.plan, self.tamper = plan, tamper

    def run(self, fields, scalars):
        result = self.plan.run(fields, scalars)
        self.tamper(fields, result)
        return result


def test_clean_runs_pass(small_heat):
    bench, setup = small_heat
    assert bench.tally.failed == 0
    for _ in range(3):
        assert bench.unit(setup.plan)() is not None
    assert bench.tally.failed == 0
    assert bench.tally.attempted == 4  # the validated first run + 3 units


def test_corrupted_output_cell_counts_as_failed(small_heat):
    bench, setup = small_heat

    def corrupt(fields, result):
        fields[1][5, 7] += 1e-3

    assert bench.unit(_Tampered(setup.plan, corrupt))() is None
    assert bench.tally.failed == 1
    assert "output differs" in bench.tally.reasons[0]


def test_altered_counter_counts_as_failed(small_heat):
    bench, setup = small_heat

    def recount(fields, result):
        result.statistics[0].ops_executed += 1

    assert bench.unit(_Tampered(setup.plan, recount))() is None
    assert bench.tally.failed == 1
    assert "counters" in bench.tally.reasons[0]


def test_raising_run_counts_as_failed(small_heat):
    bench, setup = small_heat

    def explode(fields, result):
        raise RuntimeError("worker died")

    assert bench.unit(_Tampered(setup.plan, explode))() is None
    assert (bench.tally.attempted, bench.tally.failed) == (2, 1)


def test_first_run_matches_numpy_oracle():
    stencil = DevitoStencil("wave", (12, 12), 4, 4)
    bench = PlanWorkload("wave-test", stencil, "threads", seed=1, setups=1)
    setup = bench.setup()
    try:
        bench.validate(setup)
    finally:
        setup.session.close()
    assert (bench.tally.attempted, bench.tally.failed) == (1, 0)


def test_paired_ratio_arithmetic():
    # Sample i is divided by the mean of the calibrations around it.
    assert paired_ratios([2.0, 6.0], [1.0, 3.0, 1.0]) == [1.0, 3.0]
    with pytest.raises(ValueError):
        paired_ratios([1.0, 1.0], [1.0, 1.0])
    # A host that runs uniformly slower leaves the calibrated value unchanged.
    work, cal = [1.0, 1.2, 0.9, 1.1, 1.0], [0.5, 0.5, 0.6, 0.5, 0.5, 0.5]
    base = calibrated(paired_ratios(work, cal), "cal.numpy")
    slow = calibrated(paired_ratios([w * 1.15 for w in work],
                                    [c * 1.15 for c in cal]), "cal.numpy")
    assert math.isclose(base, slow)
    assert math.isclose(base, 2.0 * NOMINAL["cal.numpy"])


def test_setup_stages_are_calibrated_by_their_profile():
    stages = {"frontend": 1.0, "compile": 2.0, "plan": 1.0,
              "session": 0.5, "first_run": 1.5}
    before = {"cal.python": 1.0, "cal.numpy": 2.0}
    after = {"cal.python": 3.0, "cal.numpy": 2.0}
    # Python-bound stages over mean(1, 3) = 2; the rest over mean(2, 2) = 2.
    expected = 2.0 * NOMINAL["cal.python"] + 1.0 * NOMINAL["cal.numpy"]
    assert math.isclose(staged_value(stages, before, after), expected)


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 0.9) == 90.0        # exactly 10 beyond
    with pytest.raises(TooFewSamples):
        percentile(samples[:99], 0.9)              # 9 beyond
    assert percentile(samples[:20], 0.5) == 10.0
    with pytest.raises(TooFewSamples):
        percentile(samples[:19], 0.5)
    ratios = [1.0] * 50
    with pytest.raises(TooFewSamples):
        calibrated(ratios, "cal.python", 0.9)


def test_percentiles_stay_off_class_boundaries():
    assert_percentiles_off_boundaries([3, 1, 1], (0.5, 0.9))
    with pytest.raises(ValueError):
        assert_percentiles_off_boundaries([1, 1], (0.5,))
    with pytest.raises(ValueError):
        assert_percentiles_off_boundaries([7, 2, 1], (0.9,))


@pytest.mark.parametrize("kernel", [NumpyCal, lambda: PythonCal(200_000)],
                         ids=["cal.numpy", "cal.python"])
def test_calibration_kernels_are_allocation_free(kernel):
    calibration = kernel()
    calibration()  # warm: first-call frames and lazily bound attributes
    tracemalloc.start()
    try:
        calibration()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        calibration()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One 512^2 float64 temporary would be 2 MiB; a few loop objects remain.
    assert peak - before < 4096


def test_self_times_subtract_direct_children():
    events = [
        ("halo.post", 1.0, 1.0, 1),
        ("nest.interior", 2.5, 2.0, 1),
        ("inner", 3.0, 0.5, 2),
        ("step", 0.0, 10.0, 0),
        ("step", 10.0, 1.0, 0),
    ]
    assert self_times(events) == pytest.approx({
        "step": 11.0 - 3.0, "halo.post": 1.0, "nest.interior": 1.5,
        "inner": 0.5})
