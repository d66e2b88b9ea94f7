"""Multi-evaluation of sparse nonuniform exponential sums.

A node problem holds K rational frequencies alpha_k = num_k/den_k in [0, 1)
with R stacked coefficient vectors, and asks for

    Z_r(h) = sum_k coeffs[r, k] exp(2 pi i alpha_k (b0 + h)),  0 <= h < H.

Small problems go through an exact-angle direct sum.  Large ones are spread
onto a power-of-two fine grid with a Gaussian window, evaluated by one FFT
per coefficient row, and deconvolved; the window width and variance are
chosen so truncation and aliasing each land far below the requested eps3.
Frequencies stay exact integers (num, den) end to end: every phase used in
either path is exp(2 pi i (integer mod den) / den).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .arith import Window
from .counters import OpCounter
from .errors import AccuracyError, DomainError
from .taylor import _EPS3_FLOOR, CoefficientTable

# below this work volume the exact direct sum wins over transform setup
_CROSSOVER_OPS = 1 << 22
_CONVENTIONS = ("sqrt_a", "plain_a")


@dataclass(eq=False)
class NodeSum:
    """K merged rational frequencies with R coefficient vectors.

    nums/dens are reduced fractions in [0, 1), sorted by value, pairwise
    distinct; coeffs has shape (R, K); scale records the largest coefficient
    magnitude so transform tolerances apply to normalized data.
    """

    nums: np.ndarray
    dens: np.ndarray
    alphas: np.ndarray
    coeffs: np.ndarray
    K: int
    scale: float

    @classmethod
    def from_fractions(cls, nums, dens, coeffs) -> "NodeSum":
        """Reduce, fold into [0, 1), merge duplicates, sort by value."""
        nums = np.asarray(nums, dtype=np.int64)
        dens = np.asarray(dens, dtype=np.int64)
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
        if nums.shape != dens.shape or nums.ndim != 1:
            raise DomainError("nums and dens must be matching 1-d arrays")
        if coeffs.shape[1] != nums.size:
            raise DomainError("coefficient columns must match the frequency count")
        if np.any(dens <= 0):
            raise DomainError("denominators must be positive")
        nums = nums % dens
        g = np.gcd(nums, dens)  # gcd(0, d) = d folds 0/d to 0/1
        nums = nums // g
        dens = dens // g
        stride = int(dens.max()) + 1
        key = nums * stride + dens
        uniq, inv = np.unique(key, return_inverse=True)
        K = int(uniq.size)
        R = coeffs.shape[0]
        merged = np.zeros((R, K), dtype=np.complex128)
        for r in range(R):
            merged[r] = np.bincount(inv, weights=coeffs[r].real, minlength=K) + 1j * np.bincount(
                inv, weights=coeffs[r].imag, minlength=K
            )
        nums_u = uniq // stride
        dens_u = uniq % stride
        alphas = nums_u / dens_u
        order = np.argsort(alphas, kind="stable")
        return cls._from_sorted(nums_u[order], dens_u[order], alphas[order], merged[:, order])

    @classmethod
    def _from_sorted(cls, nums, dens, alphas, coeffs) -> "NodeSum":
        scale = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
        if scale == 0.0:
            scale = 1.0
        return cls(
            nums=np.ascontiguousarray(nums),
            dens=np.ascontiguousarray(dens),
            alphas=np.ascontiguousarray(alphas),
            coeffs=np.ascontiguousarray(coeffs),
            K=int(nums.size),
            scale=scale,
        )


@dataclass(frozen=True)
class EvalGrid:
    """Arithmetic progression of target arguments b0, b0+1, ..., b0+H-1."""

    b0: int
    H: int

    def __post_init__(self) -> None:
        if self.H < 1:
            raise DomainError("evaluation grid needs H >= 1")


def _exact_phase(nums: np.ndarray, dens: np.ndarray, shift: int) -> np.ndarray:
    """exp(2 pi i alpha shift) with the angle reduced in integer arithmetic."""
    ang = (nums * (shift % dens)) % dens
    return np.exp((2j * math.pi) * (ang / dens))


def build_node_problem(
    a: int,
    table: CoefficientTable,
    window: Window,
    *,
    convention: str = "sqrt_a",
    counter: OpCounter | None = None,
):
    """Assemble the divisor-a node problem for one coefficient table.

    Folds the quadratic phase l^2/(4m) over its four-fold symmetry (weights 2
    at l in {0, m}, else 4), merges equal reduced fractions across all
    m <= N/a via one sparse matrix product, and pre-rotates coefficients by
    exp(2 pi i alpha b0) so the grid can start at h = 0.  Returns
    (NodeSum, EvalGrid), or None when the divisor contributes nothing
    (a > N or the rescaled window is empty).
    """
    a = int(a)
    if a < 1:
        raise DomainError("divisor a must be positive")
    if convention not in _CONVENTIONS:
        raise DomainError(f"unknown assembly convention {convention!r}")
    N, R = table.N, table.R
    if a > N:
        return None
    M = N // a
    b0 = -(-window.Q // a)
    last = (window.Q + window.Delta - 1) // a
    H = last - b0 + 1
    if H < 1:
        return None
    if counter is not None:
        counter.add("node_raw", 2 * M * (M + 1))

    sizes = np.arange(2, M + 2, dtype=np.int64)  # segment m has l = 0..m
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    total = int(sizes.sum())
    m_idx = np.repeat(np.arange(1, M + 1, dtype=np.int64), sizes)
    ell = np.arange(total, dtype=np.int64) - np.repeat(starts, sizes)
    den4 = 4 * m_idx
    res = (ell * ell) % den4
    weight = np.where((ell == 0) | (ell == m_idx), 2.0, 4.0)
    g = np.gcd(res, den4)
    num = res // g
    den = den4 // g

    stride = 4 * N + 1
    key = num * stride + den
    uniq, inv = np.unique(key, return_inverse=True)
    K = int(uniq.size)
    if counter is not None:
        counter.add("node_merged", K)
    num_u = uniq // stride
    den_u = uniq % stride

    # per-m coefficient column: weight u_m times c_r(t, a m)
    cols = a * np.arange(1, M + 1, dtype=np.int64) - 1
    base = table.c[:, cols]
    if convention == "sqrt_a":
        u = 1.0 / np.sqrt(np.arange(1, M + 1, dtype=np.float64))
    else:
        u = np.ones(M, dtype=np.float64)
    B = np.ascontiguousarray((base * u).T)  # (M, R)
    W = sparse.coo_array((weight, (inv, m_idx - 1)), shape=(K, M)).tocsr()
    merged = np.asarray(W @ B)  # (K, R); duplicate (k, m) weights sum in COO

    phase0 = _exact_phase(num_u, den_u, b0)
    coeffs = np.ascontiguousarray((merged * phase0[:, None]).T)

    alphas = num_u / den_u
    order = np.argsort(alphas, kind="stable")
    problem = NodeSum._from_sorted(
        num_u[order], den_u[order], alphas[order], coeffs[:, order]
    )
    return problem, EvalGrid(b0=b0, H=H)


def _direct_core(p: NodeSum, g: EvalGrid) -> np.ndarray:
    """Exact-angle direct evaluation, compensated across frequency blocks."""
    R, K = p.coeffs.shape
    H = g.H
    out = np.empty((R, H), dtype=np.complex128)
    k_block = 1 << 16
    h_chunk = max(1, _CROSSOVER_OPS // max(K, 1))
    nums = p.nums
    dens = p.dens
    for h0 in range(0, H, h_chunk):
        h1 = min(h0 + h_chunk, H)
        hs = np.arange(h0, h1, dtype=np.int64)
        acc = np.zeros((R, h1 - h0), dtype=np.complex128)
        comp = np.zeros_like(acc)
        for k0 in range(0, K, k_block):
            k1 = min(k0 + k_block, K)
            nb = nums[k0:k1, None]
            db = dens[k0:k1, None]
            ang = (nb * (hs[None, :] % db)) % db
            phases = np.exp((2j * math.pi) * (ang / db))
            part = p.coeffs[:, k0:k1] @ phases
            y = part - comp
            tot = acc + y
            comp = (tot - acc) - y
            acc = tot
        out[:, h0:h1] = acc
    return out


def direct_eval(p: NodeSum, g: EvalGrid, counter: OpCounter | None = None) -> np.ndarray:
    """Reference evaluation: K*H*R work, every phase from an exact angle."""
    if counter is not None:
        counter.add("direct_eval_ops", p.coeffs.shape[1] * g.H * p.coeffs.shape[0])
    return _direct_core(p, g)


def fast_eval(
    p: NodeSum,
    g: EvalGrid,
    eps3: float,
    counter: OpCounter | None = None,
    force: str = "auto",
) -> np.ndarray:
    """Gaussian-gridded FFT evaluation with per-value error below eps3*scale.

    Small problems (K*H*R under the crossover) fall through to the direct
    sum.  force="transform"/"direct" pins the path for testing.  Near the
    2^-48 floor the promise degrades to double-precision roundoff amplified
    by the deconvolution ratio (about (K/eps3)^(1/8)); the budget planner
    keeps production tolerances clear of that regime.
    """
    eps3 = float(eps3)
    if not eps3 > 0.0:
        raise DomainError("eps3 must be positive")
    if eps3 < _EPS3_FLOOR:
        raise AccuracyError(
            f"eps3={eps3:.3e} is below the 2^-48 = {_EPS3_FLOOR:.3e} "
            "double-precision transform floor"
        )
    if force not in ("auto", "transform", "direct"):
        raise DomainError(f"unknown path selector {force!r}")
    R, K = p.coeffs.shape
    H = g.H
    if force == "direct" or (force == "auto" and K * H * R <= _CROSSOVER_OPS):
        if counter is not None:
            counter.add("fast_eval_ops", K * H * R)
        return _direct_core(p, g)

    # spreading width and fine grid size
    w = math.ceil(math.log(1.0 / eps3))
    W = 2 * w + 1
    n = 1 << (max(2 * H, 4 * w + 4, 32) - 1).bit_length()
    # variance: large enough to kill aliases at distance n/2, small enough
    # that the w-wide spreading tail stays below eps3
    A = math.log(1.0 / eps3) + math.log(K + 1.0) + 6.0
    tau = min(A / (2.0 * math.pi ** 2), w / (2.0 * math.sqrt(2.0) * math.pi))
    Hc = H // 2
    if counter is not None:
        counter.add("fast_eval_setup_calls", 1)
        counter.add(
            "fast_eval_ops",
            K * W * R + R * n * int(math.log2(n)) + R * H + K * R,
        )

    # center targets at Hc so deconvolution ratios stay moderate
    coeffs = (p.coeffs / p.scale) * _exact_phase(p.nums, p.dens, Hc)[None, :]

    # nearest fine-grid cell and the exact fractional offset
    t_num = n * p.nums
    j0 = (2 * t_num + p.dens) // (2 * p.dens)  # round(n alpha), half away up
    delta = (t_num - j0 * p.dens) / p.dens  # in [-1/2, 1/2], exact
    j0 = j0 % n  # wrap alpha -> 1 onto cell 0; circle offset unchanged

    offsets = np.arange(-w, w + 1, dtype=np.float64)
    gauss = np.exp(-((offsets[None, :] - delta[:, None]) ** 2) / (4.0 * tau))
    indptr = np.arange(0, (K + 1) * W, W, dtype=np.int64)
    indices = (j0[:, None] + np.arange(W, dtype=np.int64)).ravel()
    spread = sparse.csr_array(
        (gauss.ravel(), indices.astype(np.int32), indptr), shape=(K, n + 2 * w)
    )
    padded = np.asarray(coeffs.real @ spread) + 1j * np.asarray(coeffs.imag @ spread)
    core = padded[:, w : w + n].copy()
    core[:, :w] += padded[:, n + w :]
    core[:, n - w :] += padded[:, :w]

    # DFT with the e^{+2 pi i} sign convention
    U = np.fft.ifft(core, axis=1) * n

    rel = np.arange(H, dtype=np.int64) - Hc
    idx = rel % n
    xi = rel / n
    window_hat = 2.0 * math.sqrt(math.pi * tau) * np.exp(-4.0 * math.pi ** 2 * tau * xi * xi)
    return np.ascontiguousarray(U[:, idx] / window_hat[None, :]) * p.scale
