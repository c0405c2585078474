"""Independent references for the detector model, shared by the test modules.

They need mpmath (a test skips where it is missing) but not numpy, so the
modules that run without numpy import them from here.
"""

import pytest

from ghzdet import detector as det


def fire_reference(d, gamma):
    """P(a detector fires) with 0, 1 and 2 photons on it, for floats or mpmath
    numbers: the tests' one statement of the click rule's polynomial."""
    return gamma, d + (1 - d) * gamma, d * (1 - d) + (1 - d) ** 2 * gamma


def exact_e_reference(params):
    """The exact E of params at 60 digits.

    Its union is the recurrence u <- u + q (1 - u) over the ten channels of
    ARRIVAL_COUNTS, independent of detector's closed form.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        d, g = mpmath.mpf(params.d), mpmath.mpf(params.gamma)
        p_pair, p_twopair = mpmath.mpf(params.p_pair), mpmath.mpf(params.p_twopair)
        fire = fire_reference(d, g)
        union = mpmath.mpf(0)
        for t, d1, d2, d3 in det.ARRIVAL_COUNTS:
            union += fire[t] * fire[d1] * fire[d2] * fire[d3] * (1 - union)
        signal = p_twopair * d**3 * fire[1]
        return float(params.e_ghz * signal / (p_pair * union + p_twopair * fire[1] ** 4))


def approx_e_reference(params):
    """The approx E of params at 60 digits: e_ghz / (1 + 6 (p_pair/p_twopair) (gamma/d)^2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        q = mpmath.mpf(params.gamma) / mpmath.mpf(params.d)
        ratio = mpmath.mpf(params.p_pair) / mpmath.mpf(params.p_twopair)
        return float(params.e_ghz / (1 + 6 * ratio * q * q))
