"""The three special functions mislate needs, in numpy and ``math`` only.

- ``ndtri``: the standard normal quantile, for the Monte Carlo's normal
  draws and for the critical value of Wald intervals. It is Wichura's
  PPND16 (Algorithm AS 241, *Applied Statistics* 37(3), 1988), a rational
  approximation on three ranges of p whose own error is about 1e-16
  relative; evaluated in double precision it is within a few ulp of the
  exact quantile.
- ``ndtr``: the standard normal CDF, 0.5 erfc(-x / sqrt 2).
- ``chdtrc``: the chi-square survival function at an even number of
  degrees of freedom, the only kind a J test has (2K - 4 in case ii, 2K - 6
  in case i), from the finite series of the upper incomplete gamma
  function at integer shape.
"""
from __future__ import annotations

import math

import numpy as np

# |p - 0.5| <= _SPLIT1 is the central range; beyond it r = sqrt(-log(min(p,
# 1 - p))) picks the near tail (r <= _SPLIT2) or the far tail
_SPLIT1 = 0.425
_SPLIT2 = 5.0
_CONST1 = 0.180625
_CONST2 = 1.6

# AS241's coefficients for each range, highest power first, packed as
# numerator + 1j * denominator (whose constant term is 1). Multiplying such
# a number by a real r (imaginary part 0) scales both parts exactly as two
# real Horner steps would, so one complex Horner recurrence evaluates the
# numerator and the denominator together: one numpy call per step, where two
# real recurrences take two and a stacked (2, m) array pays for broadcasting.
def _pack(num, den):
    return [complex(a, b) for a, b in zip(num, den)]


_CENTRAL = _pack(
    (2.5090809287301226727e+3, 3.3430575583588128105e+4,
     6.7265770927008700853e+4, 4.5921953931549871457e+4,
     1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4,
     3.9307895800092710610e+4, 2.1213794301586595867e+4,
     5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_NEAR = _pack(
    (7.74545014278341407640e-4, 2.27238449892691845833e-2,
     2.41780725177450611770e-1, 1.27045825245236838258e+0,
     3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4,
     1.51986665636164571966e-2, 1.48103976427480074590e-1,
     6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0))
_FAR = _pack(
    (2.01033439929228813265e-7, 2.71155556874348757815e-5,
     1.24266094738807843860e-3, 2.65321895265761230930e-2,
     2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7,
     1.84631831751005468180e-5, 7.86869131145613259100e-4,
     1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0))


def _ratio(coef: list, r: np.ndarray) -> np.ndarray:
    """numerator(r) / denominator(r) for each element of r, r >= 0."""
    rc = r.astype(np.complex128)
    acc = rc * coef[0]
    for c in coef[1:-1]:
        acc += c
        acc *= rc
    acc += coef[-1]
    return acc.real / acc.imag


def ndtri(p) -> np.ndarray:
    """Standard normal quantile of each element of p, in p's shape (a float
    gives a 0-d array).

    ndtri(0) is -inf and ndtri(1) is +inf; p outside [0, 1] or NaN gives
    NaN. No floating-point warning is raised.
    """
    p = np.asarray(p, dtype=np.float64)
    flat, x = p.reshape(-1), np.empty(p.size)
    # in runs of 4096, whose temporaries stay in cache and come from the
    # heap, where a block's would be fresh pages from the system each call
    for i in range(0, flat.size, 4096):
        x[i:i + 4096] = _ndtri(flat[i:i + 4096])
    return x.reshape(p.shape)


def _ndtri(p: np.ndarray) -> np.ndarray:
    q = p - 0.5
    # the central formula on every element, its r clamped at 0 where
    # |q| > 0.425 so that the tails, overwritten below, stay finite
    r = q * q
    np.subtract(_CONST1, r, out=r)
    np.maximum(r, 0.0, out=r)
    x = _ratio(_CENTRAL, r)
    x *= q

    tail = np.abs(q) > _SPLIT1
    pt = p[tail]
    # r from p and 1 - p, which are exact, not from 0.5 - |q|, which loses
    # digits below p = 0.25; it is inf at p = 0 or 1 and NaN outside [0, 1]
    s = np.minimum(pt, 1.0 - pt)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(s))
    xt = _ratio(_NEAR, np.minimum(r, _SPLIT2) - _CONST2)
    far = r > _SPLIT2
    if far.any():
        xt[far] = np.inf
        far &= s > 0.0
        xt[far] = _ratio(_FAR, r[far] - _SPLIT2)
    x[tail] = np.copysign(xt, q[tail])
    return x


def ndtr(x: float) -> float:
    """Standard normal CDF of one float."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def chdtrc(dof: int, j: float) -> float:
    """P(X > j) for X chi-square with a positive even dof.

    With x = j / 2 it is e^-x (1 + x + ... + x^(m-1)/(m-1)!), m = dof / 2.
    j <= 0 gives 1, a NaN j gives NaN, and a j so large that e^-x
    underflows gives 0. An odd dof raises ValueError.
    """
    if dof % 2:
        raise ValueError(f"dof must be even, got {dof}")
    if math.isnan(j):
        return math.nan
    if j <= 0.0:
        return 1.0
    if j == math.inf:
        return 0.0
    x = j / 2.0
    term, total = math.exp(-x), 0.0
    for i in range(1, dof // 2 + 1):
        total += term
        term *= x / i
    return total
