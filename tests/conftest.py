import contextlib
import signal

import pytest

from venturebank.din import DinTerms, PremiumBase
from venturebank.market_data import default_snapshot_path, load_libor_csv
from venturebank.portfolio import (
    KauffmanConstraints,
    compress_pairs,
    shift_to_mean,
    synthesize_kauffman,
)

DEFAULT_SEED = 42


@pytest.fixture(scope="session")
def snapshot():
    return load_libor_csv(default_snapshot_path())


@pytest.fixture(scope="session")
def kauffman99():
    return synthesize_kauffman(KauffmanConstraints(), DEFAULT_SEED)


@pytest.fixture(scope="session")
def compressed50(kauffman99):
    return compress_pairs(kauffman99)


@pytest.fixture(scope="session")
def anchor131(compressed50):
    return shift_to_mean(compressed50, 1.31)


@pytest.fixture(scope="session")
def portfolio150(compressed50):
    return shift_to_mean(compressed50, 1.50)


@pytest.fixture(scope="session")
def portfolio110(compressed50):
    return shift_to_mean(compressed50, 1.10)


@pytest.fixture(scope="session")
def calibrated_terms():
    """Premium convention selected by the calibration search."""
    return DinTerms(coverage_fraction=0.056, premium_base=PremiumBase.PRINCIPAL_UPFRONT)


@pytest.fixture
def time_budget():
    """``with time_budget(seconds):`` fails the test when the block runs longer, so a hang fails, not stalls.

    The failure is pytest's own, which ``run_cli``'s handlers do not catch.
    """
    @contextlib.contextmanager
    def budget(seconds: float):
        def expire(signum, frame):
            pytest.fail(f"still running after the {seconds:g} s budget", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return budget
