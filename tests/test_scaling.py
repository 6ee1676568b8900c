"""Scaling laws: how a run's work or memory grows with its size, measured as
counts and traced bytes, which are the same on every machine, not as time."""

import tracemalloc

import pytest

from socketstore.experiment import ExperimentConfig, run_experiment
from socketstore.fixtures import FLASH_DELIVERY_ID
from socketstore.store import BASELINE_MODULE_ID


def traced_peak_bytes(config: ExperimentConfig) -> int:
    """The most bytes that `tracemalloc` saw allocated at once during one run."""
    tracemalloc.start()
    try:
        run_experiment(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    SMALL, LARGE = 2_000, 20_000

    @pytest.mark.parametrize("module, bound", [(FLASH_DELIVERY_ID, 600),
                                               (BASELINE_MODULE_ID, 300)])
    def test_a_run_keeps_only_its_rows_per_seq(self, module, bound):
        """A run keeps each seq's CSV row and drops its copies' packets and
        records once the row is built. Keeping the records as well, as a
        reduction after the run must, costs about 990 B per seq in module
        mode and 560 B in baseline mode; one row is about 470 and 200 B."""
        run_experiment(ExperimentConfig(module=module, packet_count=10))  # one-time set-up
        small, large = (traced_peak_bytes(ExperimentConfig(module=module, packet_count=n))
                        for n in (self.SMALL, self.LARGE))
        per_seq = (large - small) / (self.LARGE - self.SMALL)
        assert per_seq < bound, f"{per_seq:.0f} B per seq"
