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
    """Counts numpy.fft.rfft2, irfft2, rfft, fft, ifft and irfft calls while
    the test runs; the counts dict is keyed by function name.  A 2-D
    transform run in its stages, as numpy's rfftn and irfftn run them
    inside, counts each stage call, so no stage can hide a transform;
    numpy's own inner calls go uncounted."""
    counts = dict.fromkeys(("rfft2", "irfft2", "rfft", "fft", "ifft", "irfft"),
                           0)

    def counting(name):
        inner = getattr(phasefield.np.fft, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(phasefield.np.fft, name, counting(name))
    return counts
