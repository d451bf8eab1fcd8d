"""The three special functions the library needs, on numpy and `math` alone.

- `gammaln`: log Gamma(x), elementwise (log M_p = s * gammaln(p + 1) for a
  Gevrey sequence), also at indices beyond 2**53;
- `hurwitz_zeta`: sum_{k >= 0} (q + k)**(-x), the tail sums of power-law
  quotients;
- `gammaincc`: the regularised upper incomplete gamma function, the log-power
  tail integrals of `quadrature`.

Each is accurate to a few units in the last place on the library's domain;
`tests/test_special.py` holds them against two independent oracles.
"""

from __future__ import annotations

import math

import numpy as np

_STIRLING_MIN = 16.0  # gammaln uses the Stirling series from here on
# B_2k / (2k (2k - 1)) for k = 1..5: the Stirling series in 1/x
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_HALF_LOG_2PI_MINUS_HALF = 0.5 * math.log(2.0 * math.pi) - 0.5

_ZETA_DIRECT = 12  # terms summed before the Euler-Maclaurin tail
# B_2j / (2j)! for j = 1..12
_EULER_MACLAURIN = tuple(
    b / math.factorial(2 * j) for j, b in enumerate(
        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
         -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
         -236364091 / 2730), start=1))

_EPS = 2.0 ** -52
_MAX_FRACTION_TERMS = 100000
_TINY = 1e-300


def _stirling(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) for x >= 16; the first omitted term is below 1e-16."""
    r = 1.0 / x
    r2 = r * r
    s1, s2, s3, s4, s5 = _STIRLING
    series = r * (s1 + r2 * (s2 + r2 * (s3 + r2 * (s4 + r2 * s5))))
    # (x - 1/2) log x - x + log(2 pi) / 2, written so that x = inf gives inf;
    # it overflows to inf past x = 2.5e305, as log Gamma does
    with np.errstate(over="ignore"):
        return (x - 0.5) * (np.log(x) - 1.0) + (_HALF_LOG_2PI_MINUS_HALF + series)


def gammaln(x):
    """log |Gamma(x)|, elementwise; a scalar for a scalar argument.

    Raises ValueError at the poles 0, -1, -2, ...
    """
    x = np.asarray(x, dtype=float)
    small = ~(x >= _STIRLING_MIN)  # nan goes to math.lgamma as well
    if not small.any():
        return _stirling(x)[()]
    out = np.asarray(_stirling(np.where(small, _STIRLING_MIN, x)))
    out[small] = [math.lgamma(v) for v in x[small].tolist()]
    return out[()]


def hurwitz_zeta(x: float, q: float) -> float:
    """sum_{k >= 0} (q + k)**(-x) for q > 0; inf for x <= 1, where it diverges.

    Twelve terms are summed directly and the rest by Euler-Maclaurin with the
    Bernoulli numbers up to B_24.
    """
    if not x > 1.0:
        return math.inf
    direct = math.fsum((q + k) ** -x for k in range(_ZETA_DIRECT))
    a = q + _ZETA_DIRECT
    tail = a ** (1.0 - x) / (x - 1.0) + 0.5 * a ** -x
    # term j is B_2j / (2j)! * x (x + 1) ... (x + 2j - 2) * a**(-x - 2j + 1)
    rise = x * a ** (-x - 1.0)
    for j, coeff in enumerate(_EULER_MACLAURIN):
        tail += coeff * rise
        rise *= (x + 2 * j + 1) * (x + 2 * j + 2) / (a * a)
    return direct + tail


def gammaincc(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a) for a > 0, x >= 0.

    The series for the lower function below x = a + 1, the continued fraction
    (modified Lentz) for the upper one above; the factor x**a e**-x / Gamma(a)
    is taken in logs.
    """
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    log_factor = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while abs(term) > total * _EPS:
            n += 1.0
            term *= x / n
            total += term
        return 1.0 - math.exp(log_factor) * total
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_FRACTION_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return math.exp(log_factor) * h
    raise ArithmeticError(f"gammaincc({a}, {x}): continued fraction did not converge")
