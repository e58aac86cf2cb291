"""Shared test settings: one derandomized hypothesis profile for every
property test, so runs are reproducible and leave no example database; and
an FFT call counter for the phase-field module."""

import pytest
from hypothesis import settings

from triblock import phasefield

settings.register_profile("triblock", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("triblock")


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts numpy.fft.rfft2, irfft2, ifft and irfft calls while the test
    runs; the counts dict is keyed by function name.  A 2-D inverse run in
    its two stages, as numpy's irfftn runs it inside, counts one ifft and
    one irfft; numpy's own inner calls go uncounted."""
    counts = {"rfft2": 0, "irfft2": 0, "ifft": 0, "irfft": 0}

    def counting(name):
        inner = getattr(phasefield.np.fft, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(phasefield.np.fft, name, counting(name))
    return counts
