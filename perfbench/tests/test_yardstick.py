import signal
import time

import yardstick


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_slices_run_at_a_steady_beat_and_leave_the_clock():
    ys = yardstick.Yardstick()
    previous = signal.getsignal(signal.SIGALRM)
    with ys.running():
        start, wall = ys.clock(), time.perf_counter()
        busy(1.0)
        timed, wall = ys.clock() - start, time.perf_counter() - wall
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # about one slice per interval of wall time
    assert 0.5 / yardstick.INTERVAL_S <= len(ys.slices) <= 1.5 / yardstick.INTERVAL_S
    assert ys.spent == sum(ys.slices)
    assert abs(timed - (wall - ys.spent)) < 1e-3
    assert ys.scale() == yardstick.REFERENCE_SLICE_S / ys.mean_s()


def test_trimmed_mean_drops_both_tails():
    assert yardstick.trimmed_mean([100.0] + [1.0] * 8 + [-50.0]) == 1.0
    assert yardstick.trimmed_mean([2.0, 4.0]) == 3.0
