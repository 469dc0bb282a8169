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
