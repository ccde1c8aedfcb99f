"""Tests of the host-speed calibration.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from perfbench import calibration


def test_kernel_is_fixed_work():
    assert calibration.kernel(50) == calibration.kernel(50)


def test_measure_times_the_kernel():
    assert calibration.measure() > 0.0
