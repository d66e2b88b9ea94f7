"""Complex special functions for the main sum.

Everything here is a pure function: log-gamma, the upper incomplete gamma,
the exponentially weighted kernel

    G_z(w) = integral_1^inf exp(-w y) y^(z-1) dy = Gamma(z, w) / w^z,

its derivative rows, the smoothing weight V, the rotation phase theta, the
certified tail of the smoothed sum with its smallest truncation order, and
the two scalar prefactors C(t, q) and g(q).

The kernel is evaluated by a power series for small w and a continued
fraction for large w, with the crossover at w = |z| + 1, each in geometric
buckets of w run to one depth fixed at the bucket's edge (Gil, Segura and
Temme, Numerical Methods for Special Functions, SIAM 2007, ch. 6).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special as sc

from .errors import AccuracyError, DomainError

_TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
_EXP_UNDERFLOW = 745.0  # exp(-w) == 0.0 in binary64 beyond this
_SERIES_TOL = 1e-18
_LENTZ_TOL = 1e-16
_MAX_ITER = 800
_OCTAVE_SPLITS = 4  # kernel buckets per octave of w
_EDGES = 40  # kernel bucket edges each side of the crossover; 2^10 > _EXP_UNDERFLOW


def _gamma_pole(z: complex) -> bool:
    """Whether z is one of the poles 0, -1, -2, ... of Gamma."""
    return z.imag == 0.0 and z.real <= 0.0 and z.real.is_integer()


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z)."""
    z = complex(z)
    if _gamma_pole(z):
        raise DomainError(f"log_gamma pole at z={z}")
    return complex(sc.loggamma(z))


@functools.lru_cache(maxsize=4096)
def _series_depth(z: complex, w: float) -> int:
    """First k whose power-series term w^k / (z (z+1) .. (z+k)) is at most
    _SERIES_TOL times the partial sum through it, the last term summed."""
    term = total = 1.0 / z
    for k in range(1, _MAX_ITER + 1):
        term *= w / (z + k)
        total += term
        if abs(term) <= _SERIES_TOL * abs(total):
            return k
    raise AccuracyError("kernel series failed to converge")


@functools.lru_cache(maxsize=4096)
def _cf_depth(z: complex, w: float) -> int:
    """First level j at which the modified Lentz step delta_j of the
    Legendre continued fraction has |delta_j - 1| <= _LENTZ_TOL.  delta_j - 1
    is formed as the product a_j e_(j-1) d_j, e_j = 1/c_j - d_j = -(delta_j
    - 1)/c_j: as c_j d_j - 1 it carries rounding noise near 1e-16 that would
    decide the count by chance."""
    c = w + (1.0 - z)
    e, d = 1.0 / c, 0.0
    for j in range(1, _MAX_ITER + 1):
        a = -j * (j - z)
        b = w + (1.0 - z + 2.0 * j)
        d = 1.0 / (b + a * d)
        c = b + a / c
        step = a * e * d
        e = -step / c
        if abs(step) <= _LENTZ_TOL:
            return j
    raise AccuracyError("kernel continued fraction failed to converge")


def _g_kernel_arr(z: complex, w: np.ndarray) -> np.ndarray:
    """Vectorized G_z(w) over an array of positive w.  The sorted w are cut
    at c 2^(k/_OCTAVE_SPLITS), |k| <= _EDGES, c = |z| + 1 the crossover, and
    each bucket runs to the depth needed at its top (series) or bottom
    (continued fraction) edge, made monotone in w, so a level is three
    in-place operations on one end of the sorted w.  DomainError at a pole
    z = 0, -1, -2, ... of Gamma, where the series' Gamma(z) w^-z and its
    divisor z + k fail, whatever the w; AccuracyError when a depth passes
    _MAX_ITER or a value is not finite."""
    z = complex(z)
    if _gamma_pole(z):
        raise DomainError(f"g_kernel requires z off the poles of Gamma, got z={z}")
    zr = z.real if z.imag == 0.0 else z  # real z runs in real arithmetic
    w = np.asarray(w, dtype=np.float64)
    flat = w.ravel()
    if flat.size and (not np.all(np.isfinite(flat)) or np.any(flat <= 0.0)):
        raise DomainError("g_kernel requires finite w > 0")
    c = abs(z) + 1.0
    edges = c * 2.0 ** (np.arange(-_EDGES, _EDGES + 1) / _OCTAVE_SPLITS)
    order = np.argsort(flat)
    ws = flat[order]
    ns, nc = np.searchsorted(ws, (min(c, _EXP_UNDERFLOW), _EXP_UNDERFLOW))
    bucket = np.searchsorted(edges, ws[:nc], side="right")
    res = np.zeros(ws.shape, dtype=np.complex128)  # zero past _EXP_UNDERFLOW

    if ns:
        # G = Gamma(z) w^-z - exp(-w) * sum_k w^k / (z (z+1) ... (z+k)),
        # the sum by Horner from the depth at the bucket's top edge
        x = ws[:ns]
        tops = edges[: bucket[ns - 1] + 1].tolist()
        depth = np.maximum.accumulate([_series_depth(z, e) for e in tops])[bucket[:ns]]
        s = np.ones(ns, dtype=np.result_type(zr, 1.0))
        for k in range(depth[-1], 0, -1):
            i = np.searchsorted(depth, k)  # w with depth >= k
            v = s[i:]
            v *= x[i:]
            v *= 1.0 / (zr + k)
            v += 1.0
        res[:ns] = np.exp(sc.loggamma(z) - z * np.log(x)) - np.exp(-x) * s / z

    if nc > ns:
        # Legendre continued fraction Gamma(z,w) = exp(-w) w^z / f with
        # f = b0 + a_1/(b1 + a_2/(b2 + ..)), b_j = w + 1 - z + 2j,
        # a_j = -j (j - z), by backward recurrence from the bottom edge's depth
        x = ws[ns:nc]
        lo = bucket[ns] - 1
        depth = [_cf_depth(z, e) for e in edges[lo : bucket[nc - 1]].tolist()]
        depth = np.maximum.accumulate(depth[::-1])[::-1][bucket[ns:nc] - 1 - lo]
        b0 = x + (1.0 - zr)
        f = b0 + 2.0 * depth
        for j in range(depth[0], 0, -1):
            n = depth.size - np.searchsorted(depth[::-1], j)  # w with depth >= j
            v = f[:n]
            np.divide(-j * (j - zr), v, out=v)
            v += b0[:n]
            v += 2.0 * (j - 1)
        res[ns:nc] = np.exp(-x) / f

    if not np.all(np.isfinite(res)):
        raise AccuracyError("kernel value is not finite")
    out = np.empty(flat.shape, dtype=np.complex128)
    out[order] = res
    return out.reshape(w.shape)


def g_kernel(z: complex, w: float) -> complex:
    """G_z(w) for a single positive w."""
    if not (isinstance(w, (int, float)) and math.isfinite(w) and w > 0):
        raise DomainError("g_kernel requires finite w > 0")
    return complex(_g_kernel_arr(z, np.array([float(w)]))[0])


def incomplete_gamma_upper(z: complex, w: float) -> complex:
    """Upper incomplete gamma Gamma(z, w) = w^z G_z(w), w > 0."""
    if not (isinstance(w, (int, float)) and math.isfinite(w) and w > 0):
        raise DomainError("incomplete_gamma_upper requires finite w > 0")
    z = complex(z)
    g = g_kernel(z, w)
    if g == 0.0:
        return 0.0 + 0.0j
    return complex(np.exp(z * np.log(w)) * g)


@dataclass(eq=False)
class GDerivativeRow:
    """Derivatives d^r/dw^r G_z(w) for r = 0 .. R-1 at one (z, w).

    values[r] = (-1)^r G_(z+r)(w), so |values[r]| <= r! / w^(r+1).
    """

    z: complex
    w: float
    values: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.values)


def _g_rows_arr(z: complex, w: np.ndarray, R: int) -> np.ndarray:
    """(R, len(w)) array with row r = G_(z+r) at every w, by upward recursion.

    G_(z+1)(w) = (exp(-w) + z G_z(w)) / w; the recursion tracks the growth of
    G itself (both scale like (z+r)/w per step), so relative error is stable.
    """
    w = np.asarray(w, dtype=np.float64)
    rows = np.empty((R, w.size), dtype=np.complex128)
    rows[0] = _g_kernel_arr(z, w)
    if R > 1:
        ew = np.exp(-w)
        for r in range(1, R):
            rows[r] = (ew + (z + (r - 1)) * rows[r - 1]) / w
    return rows


def g_derivative_row(z: complex, w: float, R: int) -> GDerivativeRow:
    """All derivatives G^(r)_z(w), r < R, via the upward recursion."""
    if not (isinstance(w, (int, float)) and math.isfinite(w) and w > 0):
        raise DomainError("g_derivative_row requires finite w > 0")
    if not (isinstance(R, (int, np.integer)) and R >= 1):
        raise DomainError("g_derivative_row requires R >= 1")
    z = complex(z)
    rows = _g_rows_arr(z, np.array([float(w)]), int(R))[:, 0]
    signs = np.where(np.arange(int(R)) % 2 == 0, 1.0, -1.0)
    return GDerivativeRow(z=z, w=float(w), values=rows * signs)


def weight_v(z: complex, w: float) -> complex:
    """Smoothing weight V_z(w) = Gamma(z/2, w) / Gamma(z/2)."""
    z = complex(z)
    return complex(incomplete_gamma_upper(z / 2.0, w) * np.exp(-sc.loggamma(z / 2.0)))


def theta_phase(t: float, parity: int, q) -> float | np.ndarray:
    """Rotation phase theta(t, parity) for conductor q (a scalar or an array).

    theta = (t/2) log(q/pi) + Im log Gamma((1/2 + parity + i t)/2).  Exact
    for any t; accuracy degrades slowly for |t| >> 1 (no large-t
    reformulation here; run_batch warns past |t| = 1, the oracle does not).
    """
    if parity not in (0, 1):
        raise DomainError("parity must be 0 or 1")
    q = np.asarray(q, dtype=np.float64)
    if not np.all(q >= 1):
        raise DomainError("theta_phase requires q >= 1")
    t = float(t)
    lg = sc.loggamma((0.5 + parity + 1j * t) / 2.0)
    return (t / 2.0) * np.log(q / math.pi) + float(lg.imag)


def _certified_tail(q, N, t: float):
    """Rigorous bound on 2 sum_(n>N) n^(-1/2) |V(pi n^2/q)| over |t'| <= |t|,
    per conductor, from |Gamma(z2, w)| <= w^(-3/4) e^(-w), a geometric
    lattice majorant and |Gamma(z2)|, which falls as |t'| grows."""
    N = np.asarray(N, dtype=np.float64)  # an int64 N**3 would wrap past N = 2^21
    g = math.exp(sc.loggamma(0.25 + 0.5j * t).real)
    return (q / np.pi) ** 0.75 * q * np.exp(-np.pi * N * N / q) / (np.pi * N ** 3 * g)


def _certified_order(q, eps1: float, t: float) -> np.ndarray:
    """Smallest N >= 1 with _certified_tail(q, N, t) < eps1, per conductor:
    v = 2 pi N^2 / (3q) solves v + ln v = y by the Wright omega function,
    and one step each way absorbs roundoff."""
    q = np.asarray(q, dtype=np.float64)
    y = (2.0 / 3.0) * (np.log(_certified_tail(q, 1.0, t) / eps1) + np.pi / q) - np.log(1.5 * q / np.pi)
    N = np.maximum(np.ceil(np.sqrt(1.5 * q / np.pi * sc.wrightomega(y))), 1.0)
    N = N + (_certified_tail(q, N, t) >= eps1)
    N = N - ((N > 1) & (_certified_tail(q, N - 1, t) < eps1))
    return N.astype(np.int64)


def c_prefactor(t: float, q) -> complex | np.ndarray:
    """C(t, q) = (pi/q)^(1/4 + it/2) / Gamma(1/4 + it/2), q a scalar or an array."""
    q = np.asarray(q, dtype=np.float64)
    if not np.all(q >= 1):
        raise DomainError("c_prefactor requires q >= 1")
    zq = 0.25 + 0.5j * float(t)
    return np.exp(zq * np.log(math.pi / q) - sc.loggamma(zq))


def g_prefactor(q) -> complex | np.ndarray:
    """g(q) = exp(pi i q(q-2)/8 - pi i/8) / (2 sqrt 2), q odd (a scalar or an array).

    The exponent is reduced mod 16 in exact integer arithmetic first, so the
    value depends only on q mod 16 with no large-angle error.
    """
    r = np.asarray(q, dtype=np.int64) % 16
    if np.any(r % 2 == 0):
        raise DomainError("g_prefactor requires odd q")
    phase16 = (r * (r - 2) - 1) % 16
    return np.exp(1j * math.pi * phase16 / 8.0) / _TWO_SQRT_TWO
