import warnings

import numpy as np
import pytest

# When a hypothesis test fails, hypothesis imports its patch writer, which
# imports libcst, whose import warns (DeprecationWarning on
# mypy_extensions.TypedDict).  Under filterwarnings = ["error"] that warning
# is an INTERNALERROR that ends the session before the remaining tests run.
# Importing the writer once here, with the warning ignored, leaves the
# warning filters of the run as configured.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst hypothesis writes no patch
        pass

# Fixture coordinates live on the lattice of multiples of 2^-6 so that
# norm arithmetic, slope recovery, and difference quotients are exact in
# binary floating point.  Tests that rely on this say so.
GRID = 2.0 ** -6


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def lattice(rng, lo, hi, size):
    """Random multiples of GRID in [lo, hi]."""
    lo_i = int(round(lo / GRID))
    hi_i = int(round(hi / GRID))
    return rng.integers(lo_i, hi_i, size=size, endpoint=True) * GRID


def midpoint_knots(rng, splits, a=0.0, b=1.0):
    """Interior knots built by repeated midpoint refinement of [a, b].

    Every gap between consecutive knots is a power of two, so slopes
    computed from lattice values divide exactly.
    """
    knots = [a, b]
    for _ in range(splits):
        wide = [i for i in range(len(knots) - 1) if knots[i + 1] - knots[i] > 2.0 * GRID]
        if not wide:
            break
        i = int(rng.choice(wide))
        knots.insert(i + 1, knots[i] + (knots[i + 1] - knots[i]) / 2.0)
    return knots[1:-1]
