"""Speed normalization: the arithmetic, and the kernel's contract."""

import pytest

from perfbench import calibrate, workloads


def test_speed_is_reference_over_median_kernel_time():
    ref = calibrate.REFERENCE_SECONDS
    assert calibrate.speed([ref, ref, ref]) == pytest.approx(1.0)
    # a machine taking twice as long per kernel is half as fast ...
    assert calibrate.speed([2 * ref] * 6) == pytest.approx(0.5)
    # ... one outlier among the kernels does not move the median
    assert calibrate.speed([ref, ref, 10 * ref]) == pytest.approx(1.0)
    assert calibrate.speed([]) == 1.0


def test_a_slow_slice_is_scaled_back_to_the_reference_machine():
    # 3 ms measured while the kernel took 1.5x its reference time is
    # the same work as 2 ms on the reference machine.
    slow = calibrate.speed([1.5 * calibrate.REFERENCE_SECONDS] * 3)
    assert 0.003 * slow == pytest.approx(0.002)


def test_kernel_is_a_fixed_unit_of_cpu_time():
    table = calibrate.make_table()
    calibrate.kernel(table)
    times = calibrate.kernels(table, count=5)
    assert len(times) == 5 and all(t > 0 for t in times)
    # the same work every time: the fastest and the median agree to
    # well within the noise this exists to remove
    assert min(times) > 0.3 * max(times)


class _FakeChild:
    def __init__(self, kernel_sets):
        self.kernel_sets = iter(kernel_sets)

    def call(self, op):
        assert op == "calibrate"
        return {"kernels": next(self.kernel_sets)}


def test_a_stretch_is_judged_by_the_gaps_within_reach_of_it():
    ref = calibrate.REFERENCE_SECONDS
    calm, slow = [ref] * 3, [2 * ref] * 3
    gaps = [calm, calm, calm, slow, slow, slow]
    assert len(calibrate.speeds(gaps, reach=0)) == len(gaps) - 1
    # reach 0: only the gap before and the gap after
    assert calibrate.speeds(gaps, reach=0) == pytest.approx(
        [1.0, 1.0, calibrate.speed(calm + slow), 0.5, 0.5]
    )
    # reach 1: one more gap on either side, where there is one
    assert calibrate.speeds(gaps, reach=1)[0] == pytest.approx(1.0)
    assert calibrate.speeds(gaps, reach=1)[1] == pytest.approx(1.0)  # 3:1
    assert calibrate.speeds(gaps, reach=1)[4] == pytest.approx(0.5)
    # a single noisy gap cannot move a stretch by itself
    assert calibrate.speeds([calm, slow, calm, calm, calm], reach=2)[0] \
        == pytest.approx(1.0)


def test_gaps_collect_kernels_and_time_the_slices_afterwards():
    from perfbench import driver

    ref = calibrate.REFERENCE_SECONDS
    gaps = workloads.Gaps(_FakeChild([[ref] * 3, [2 * ref] * 3, [2 * ref] * 3]))
    gaps.close_slice()
    gaps.close_slice()
    slices = [driver.Slice(["a"], 1.0), driver.Slice(["b"], 2.0)]
    timed = gaps.timed(slices)
    assert [(samples, started) for samples, _speed, started in timed] == [
        (["a"], 1.0), (["b"], 2.0),
    ]
    assert [speed for _s, speed, _t in timed] == pytest.approx(
        calibrate.speeds([[ref] * 3, [2 * ref] * 3, [2 * ref] * 3])
    )
    with pytest.raises(ValueError):
        gaps.timed(slices[:1])  # a slice without its speed, or the reverse
