"""The standard-library synthesis draws: bit for bit against numpy, and pinned portfolios that need no numpy."""

import ctypes
import hashlib
import math
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venturebank import draws
from venturebank.portfolio import KauffmanConstraints, synthesize_kauffman


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


@pytest.fixture(scope="module")
def skylakex_dot(np):
    """numpy, where its ``np.dot`` runs the OpenBLAS 0.3.31 SkylakeX ``ddot`` kernel; else a skip.

    Another kernel (Haswell, another BLAS) sums in another order, so only the
    kernel that made the reference portfolios is compared bit for bit.
    """
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        try:
            config = ctypes.CDLL(str(lib)).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        config.restype = ctypes.c_char_p
        text = config().decode()
        if text.startswith("OpenBLAS 0.3.31") and " SkylakeX " in text:
            return np
        pytest.skip(f"np.dot runs another ddot kernel here: {text}")
    pytest.skip("cannot ask numpy's OpenBLAS which ddot kernel it runs")


def numpy_centered_unit(np, rng, k):
    """The numpy computation :func:`draws.centered_unit` replaces, as synthesis ran it."""
    if k < 2:
        return [0.0] * k
    d = rng.uniform(-1.0, 1.0, k)
    d -= d.mean()
    norm = math.sqrt(float(np.dot(d, d)))
    if norm < 1e-12:
        d = np.linspace(-1.0, 1.0, k)
        d -= d.mean()
        norm = math.sqrt(float(np.dot(d, d)))
    return (d / norm).tolist()


def hexes(values):
    return [float(v).hex() for v in values]


class TestAgainstNumpy:
    @pytest.mark.parametrize("entropy", [
        (0,), (0, 0, 0), (42, 26, 3), (2**32 - 1, 1, 0), (2**32,), (2**32, 2**33 + 1, 7),
        (2**64 + 5, 0, 9), (2**70 - 1, 3, 2), (1, 2, 3, 4, 5, 6),
    ])
    def test_uniform_draws(self, np, entropy):
        theirs, ours = np.random.default_rng(list(entropy)), draws.Pcg64(entropy)
        for k in (1, 7, 130, 990):  # one generator carries on from call to call
            assert hexes(ours.uniform(k)) == hexes(theirs.uniform(-1.0, 1.0, k))

    @pytest.mark.parametrize("n", [*range(1, 131), 990])
    def test_mean_at_every_block_edge(self, np, n):
        a = np.random.default_rng([n, 1]).uniform(-1.0, 1.0, n)
        assert draws.mean(a.tolist()).hex() == float(a.mean()).hex()

    @pytest.mark.parametrize("n", [*range(1, 131), 990])
    def test_sum_of_squares_at_every_block_edge(self, skylakex_dot, n):
        np = skylakex_dot
        a = np.random.default_rng([n, 2]).uniform(-1.0, 1.0, n)
        a -= a.mean()
        assert draws.sum_of_squares(a.tolist()).hex() == float(np.dot(a, a)).hex()

    def test_linspace(self, np):
        for k in range(2, 1001):
            assert hexes(draws.linspace(k)) == hexes(np.linspace(-1.0, 1.0, k)), k

    def test_equal_draws_fall_back_to_even_spacing(self, skylakex_dot):
        np = skylakex_dot
        ours = SimpleNamespace(uniform=lambda k: [0.25] * k)
        theirs = SimpleNamespace(uniform=lambda lo, hi, k: np.full(k, 0.25))
        for k in (2, 3, 17, 99):
            assert hexes(draws.centered_unit(ours, k)) == hexes(numpy_centered_unit(np, theirs, k))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**72), n_l=st.integers(0, 1000), n_h=st.integers(0, 1000),
           ks=st.lists(st.integers(0, 400), min_size=1, max_size=3))
    def test_centered_units_match_numpy(self, skylakex_dot, seed, n_l, n_h, ks):
        np = skylakex_dot
        theirs, ours = np.random.default_rng([seed, n_l, n_h]), draws.Pcg64((seed, n_l, n_h))
        for k in ks:  # the bands of one candidate share one generator
            assert hexes(draws.centered_unit(ours, k)) == hexes(numpy_centered_unit(np, theirs, k))


@pytest.mark.parametrize("constraints, seed, digest", [
    (KauffmanConstraints(), 42, "78c294783c4c73bcf7ada93f3a20620494e6f6d93dea5cb6ba7de1e1a5bb8ce4"),
    (KauffmanConstraints(n=990), 7, "a659fcb00539a5f48aac1022448205a7a70a1a6f41110def0495aaac6191ab81"),
    (KauffmanConstraints(n=7, mean=1.1, stddev=0.2, sigma_clamp_loss=0.0, breakeven_clamp_loss=5.0), 3,
     "9230f8de1f48b840e228a20a06eeb21fbfd878191b894f1a9134f84b74a72409"),
])
def test_synthesized_portfolios_are_pinned(constraints, seed, digest):
    """sha256 of ``repr(funds)``, as numpy 2.4 with OpenBLAS 0.3.31 SkylakeX synthesized them."""
    funds = synthesize_kauffman(constraints, seed).funds
    assert hashlib.sha256(repr(funds).encode()).hexdigest() == digest
