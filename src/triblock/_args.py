"""The argument policy of every public entry point.

A number is a real value that is not a bool, a string or a complex (numpy
scalars count); an integer is an integral value that is not a bool (numpy
integers count).  Every refusal is a ValueError that names the argument.
"""

import math
import numbers

_INF = math.inf


def real(name, v, low=-_INF, high=_INF, closed=False) -> float:
    """v as a finite float inside (low, high), or [low, high] when closed."""
    if not isinstance(v, float) and (isinstance(v, bool)
                                     or not isinstance(v, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an int past the float range
        x = math.nan
    if math.isfinite(x) and (low <= x <= high if closed else low < x < high):
        return x
    if high < _INF:
        where = f"in {'[('[not closed]}{low:g}, {high:g}{'])'[not closed]}"
    elif low == 0.0:
        where = ("non-negative" if closed else "positive") + " and finite"
    elif low > -_INF:
        where = f"finite and {'>=' if closed else '>'} {low!r}"
    else:
        where = "finite"
    raise ValueError(f"{name} must be {where}, got {v!r}")


def integer(name, v, low=0) -> int:
    """v as an int >= low."""
    if isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low:
        return int(v)
    what = {0: "a non-negative integer", 1: "a positive integer"}.get(
        low, f"an integer >= {low}")
    raise ValueError(f"{name} must be {what}, got {v!r}")


def mass_pair(name, m, positive=False) -> tuple[float, float]:
    """(m1, m2) as floats, both >= 0, or both > 0 when positive."""
    try:
        m1, m2 = m
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair of numbers, got {m!r}") from None
    if isinstance(m1, float) and isinstance(m2, float):  # np.float64 too
        m1, m2 = float(m1), float(m2)
        # two floats in range with a finite sum; real() decides the rest,
        # and passes a pair whose sum overflows on to each caller's own gate
        if m1 + m2 < _INF and (0.0 < m1 and 0.0 < m2 if positive
                               else 0.0 <= m1 and 0.0 <= m2):
            return m1, m2
    return (real(name, m1, 0.0, closed=not positive),
            real(name, m2, 0.0, closed=not positive))


def nonempty_pair(name, m) -> tuple[float, float]:
    """`mass_pair`, refusing the pair of two zeros."""
    m1, m2 = mass_pair(name, m)
    if m1 == 0.0 and m2 == 0.0:
        raise ValueError(f"{name} must not be the empty pair {m!r}")
    return m1, m2
