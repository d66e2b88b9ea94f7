"""Multi-evaluation of sparse nonuniform exponential sums.

A node problem holds K rational frequencies alpha_k = num_k/den_k in [0, 1)
with R stacked coefficient vectors, and both evaluators compute

    Z_r(h) = sum_k coeffs[r, k] exp(2 pi i alpha_k (b0 + h)),  0 <= h < H,

at the grid's own arguments b0 .. b0+H-1.

Small problems go through an exact-angle direct sum.  Large ones are spread
onto a power-of-two fine grid of n >= 2H cells with the Gaussian window
exp(-x^2 / (4 tau)), evaluated by one FFT per coefficient row, and
deconvolved (the Gaussian gridding of Greengard and Lee).  With the targets
centred, the largest grid frequency used is xi_m = max(Hc, H-1-Hc)/n <= 1/4,
and with A = ln(1/eps3) + ln(K+1) + 6 the variance and the half-width come
from the error analysis alone (_gaussian_params):

    tau = A / (4 pi^2 (1 - 2 xi_m))
    w   = ceil(sqrt(4 tau (A + 4 pi^2 tau xi_m^2)))

The first makes the aliasing term exp(-4 pi^2 tau (1 - 2 xi_m)) at most
e^-A; the second makes the truncated tail exp(-w^2 / (4 tau)), after the
deconvolution gain exp(4 pi^2 tau xi_m^2), at most e^-A.  Each frequency
spreads onto W = 2w + 1 cells, and all R complex coefficient rows are
spread by a single sparse product on their float64 view.  Frequencies stay
exact integers (num, den) end to end: every phase used in either path is
exp(2 pi i (integer mod den) / den).
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
# keeps the merge key num*stride + den and every exact angle inside int64
_MAX_DEN = 1 << 31


def _merge_frequencies(nums, dens, cols, weights, B):
    """Merge weighted frequency entries into distinct fractions in alpha order.

    Entry j is the frequency nums[j]/dens[j] (any integer over a positive
    denominator) and adds the real weights[j] times row cols[j] of the
    C-contiguous complex B to that frequency's row.  Fractions are reduced
    and folded into [0, 1), equal ones share a row, and rows are numbered by
    ascending alpha, so the one sparse row-sum (on B's float64 view) already
    yields the sorted block.  Returns (nums, dens, merged) with merged a
    C-contiguous complex (K, R) array.
    """
    nums = nums % dens
    g = np.gcd(nums, dens)  # gcd(0, d) = d folds 0/d to 0/1
    nums //= g
    dens = dens // g
    stride = int(dens.max()) + 1
    uniq, inv = np.unique(nums * stride + dens, return_inverse=True)
    nums = uniq // stride
    dens = uniq % stride
    order = np.argsort(nums / dens, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    merge = sparse.coo_array((weights, (rank[inv], cols)), shape=(order.size, B.shape[0]))
    # duplicate (k, col) entries sum
    merged = (merge.tocsr() @ B.view(np.float64)).view(np.complex128)
    return nums[order], dens[order], merged


@dataclass(eq=False)
class NodeSum:
    """K merged rational frequencies with R coefficient vectors.

    nums/dens are reduced fractions in [0, 1), sorted by value, pairwise
    distinct; coeffs has shape (R, K) in either memory order (the builders
    store it as the transposed view of a (K, R) block); scale records the
    largest coefficient magnitude so transform tolerances apply to
    normalized data.
    """

    nums: np.ndarray
    dens: np.ndarray
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
        if np.any(dens <= 0) or np.any(dens >= _MAX_DEN):
            raise DomainError("denominators must lie in [1, 2^31)")
        cols = np.arange(nums.size, dtype=np.int64)
        B = np.ascontiguousarray(coeffs.T)
        return cls._from_merged(*_merge_frequencies(nums, dens, cols, np.ones(nums.size), B))

    @classmethod
    def _from_merged(cls, nums, dens, merged) -> "NodeSum":
        """Wrap an alpha-sorted (K, R) block; coeffs is its transposed view."""
        scale = float(np.max(np.abs(merged))) if merged.size else 0.0
        return cls(
            nums=nums,
            dens=dens,
            coeffs=merged.T,
            K=int(nums.size),
            scale=scale if scale != 0.0 else 1.0,
        )


@dataclass(frozen=True)
class EvalGrid:
    """Targets b0 .. b0+H-1; the evaluators return them as h = 0..H-1."""

    b0: int
    H: int

    def __post_init__(self) -> None:
        if self.H < 1:
            raise DomainError("evaluation grid needs H >= 1")


def divisor_grid(window: Window, a):
    """(b0, H): the rescaled arguments b = q/a of the window, b0 .. b0+H-1.

    b0 = ceil(Q/a) and b0 + H - 1 = floor((Q+Delta-1)/a); a is an int or an
    int64 array, and H < 1 means no multiple of a lies in the window.
    """
    b0 = -(-window.Q // a)
    return b0, (window.Q + window.Delta - 1) // a - b0 + 1


def _exact_phase(nums: np.ndarray, dens: np.ndarray, shift) -> np.ndarray:
    """exp(2 pi i alpha shift) with the angle reduced in integer arithmetic.

    The arguments broadcast; with dens < 2^31 every product stays below 2^62.
    """
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
    m <= N/a via one sparse matrix product whose rows are already in alpha
    order.  Row m carries the whole assembly weight u_m = sqrt(a/m), or a
    under convention="plain_a", so evaluating the problem on its grid gives
    the divisor's summand sqrt(a) S_r(a, b) at every b = b0 .. b0+H-1.
    Returns (NodeSum, EvalGrid), or None when the divisor contributes
    nothing (a > N or the rescaled window is empty).
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
    b0, H = divisor_grid(window, a)
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

    # per-m coefficient row: weight u_m times c_r(t, a m)
    cols = a * np.arange(1, M + 1, dtype=np.int64) - 1
    base = table.c[:, cols]
    if convention == "sqrt_a":
        u = np.sqrt(a / np.arange(1, M + 1, dtype=np.float64))
    else:
        u = np.full(M, float(a))
    B = np.ascontiguousarray((base * u).T)  # (M, R)
    nums, dens, merged = _merge_frequencies(res, den4, m_idx - 1, weight, B)
    if counter is not None:
        counter.add("node_merged", int(nums.size))
    return NodeSum._from_merged(nums, dens, merged), EvalGrid(b0=b0, H=H)


def _direct_core(p: NodeSum, g: EvalGrid) -> np.ndarray:
    """Exact-angle direct evaluation, compensated across frequency blocks."""
    R, K = p.coeffs.shape
    H = g.H
    out = np.empty((R, H), dtype=np.complex128)
    k_block = 1 << 16
    h_chunk = max(1, _CROSSOVER_OPS // max(K, 1))
    for h0 in range(0, H, h_chunk):
        h1 = min(h0 + h_chunk, H)
        bs = np.arange(g.b0 + h0, g.b0 + h1, dtype=np.int64)
        acc = np.zeros((R, h1 - h0), dtype=np.complex128)
        comp = np.zeros_like(acc)
        for k0 in range(0, K, k_block):
            k1 = min(k0 + k_block, K)
            phases = _exact_phase(p.nums[k0:k1, None], p.dens[k0:k1, None], bs)
            part = p.coeffs[:, k0:k1] @ phases
            y = part - comp
            tot = acc + y
            comp = (tot - acc) - y
            acc = tot
        out[:, h0:h1] = acc
    return out


def direct_eval(p: NodeSum, g: EvalGrid, counter: OpCounter | None = None) -> np.ndarray:
    """Reference evaluation: K*H*R work, every phase from an exact angle."""
    R, K = p.coeffs.shape
    if counter is not None:
        counter.add("direct_eval_ops", K * g.H * R)
    return _direct_core(p, g)


def _gaussian_params(K: int, H: int, eps3: float) -> tuple:
    """Half-width w, variance tau and grid size n of the Gaussian gridding.

    n is the smallest power of two with n >= max(2H, 4w+4, 32); tau and w
    follow the module docstring's rule at xi_m = max(Hc, H-1-Hc)/n, each
    error term at most e^-A.  A larger n only shrinks xi_m, and with it w,
    so doubling n until it clears 4w+4 terminates.
    """
    A = math.log(1.0 / eps3) + math.log(K + 1.0) + 6.0
    Hc = H // 2
    n = 1 << (max(2 * H, 32) - 1).bit_length()
    while True:
        xi_m = max(Hc, H - 1 - Hc) / n
        tau = A / (4.0 * math.pi ** 2 * (1.0 - 2.0 * xi_m))
        w = math.ceil(math.sqrt(4.0 * tau * (A + 4.0 * math.pi ** 2 * tau * xi_m ** 2)))
        if n >= 4 * w + 4:
            return w, tau, n
        n *= 2


def fast_eval(
    p: NodeSum,
    g: EvalGrid,
    eps3: float,
    counter: OpCounter | None = None,
    force: str = "auto",
) -> np.ndarray:
    """Gaussian-gridded FFT evaluation with per-value error below eps3*scale.

    Small problems (K*H*R under the crossover) fall through to the direct
    sum.  force="transform"/"direct" pins the path for testing.  The
    transform centres the targets on b0 + Hc with Hc = H//2, takes w and
    tau from _gaussian_params (W = 2w + 1 taps, variance
    tau = A/(4 pi^2 (1 - 2 xi_m))), forms the coefficients phased by
    exp(2 pi i alpha (b0 + Hc)) once as a C-contiguous (K, R) complex
    block, spreads its (K, 2R) float64 view with one sparse (n+2w, K)
    product, wraps the padding, and runs one FFT along the grid axis.  Below
    eps3 = 1e-12 the promise degrades to double-precision roundoff amplified
    by the deconvolution gain (at most e^(A/8)): 12 of 73 seeded random
    problems there exceed eps3*scale, and the planner accepts such targets
    (eps3 = 8.69e-15 on [2*10^5, 3*10^5) at eps = 1e-6).  Carrying this
    floor into the certificate is ROADMAP item 2.
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

    w, tau, n = _gaussian_params(K, H, eps3)
    W = 2 * w + 1
    Hc = H // 2
    if counter is not None:
        counter.add("fast_eval_setup_calls", 1)
        counter.add(
            "fast_eval_ops",
            K * W * R + R * n * int(math.log2(n)) + R * H + K * R,
        )

    # centre targets at b0 + Hc so deconvolution gains stay moderate
    coeffs = np.empty((K, R), dtype=np.complex128)
    phase = _exact_phase(p.nums, p.dens, g.b0 + Hc)
    np.multiply(p.coeffs.T, (phase / p.scale)[:, None], out=coeffs)

    # nearest fine-grid cell and the exact fractional offset
    t_num = n * p.nums
    j0 = (2 * t_num + p.dens) // (2 * p.dens)  # round(n alpha), half away up
    delta = (t_num - j0 * p.dens) / p.dens  # in [-1/2, 1/2], exact
    j0 = j0 % n  # wrap alpha -> 1 onto cell 0; circle offset unchanged

    # column k of the spreading matrix holds the W taps at rows j0 .. j0 + 2w;
    # its index pointer reaches K*W, which decides the index width
    itype = np.int32 if K * W < 2 ** 31 else np.int64
    gauss = np.subtract.outer(delta, np.arange(-w, w + 1, dtype=np.float64))
    np.square(gauss, out=gauss)
    np.divide(gauss, -4.0 * tau, out=gauss)
    np.exp(gauss, out=gauss)
    rows = np.add.outer(j0.astype(itype), np.arange(W, dtype=itype))
    spread = sparse.csc_array(
        (gauss.ravel(), rows.ravel(), np.arange(0, K * W + 1, W, dtype=itype)),
        shape=(n + 2 * w, K),
    )
    padded = (spread @ coeffs.view(np.float64)).view(np.complex128)  # (n + 2w, R)
    core = padded[w : w + n]
    core[:w] += padded[n + w :]
    core[n - w :] += padded[:w]

    # DFT with the e^{+2 pi i} sign convention, unnormalized
    U = np.fft.ifft(core, axis=0, norm="forward")

    rel = np.arange(H, dtype=np.int64) - Hc
    xi = rel / n
    window_hat = 2.0 * math.sqrt(math.pi * tau) * np.exp(-4.0 * math.pi ** 2 * tau * xi * xi)
    return (U[rel % n] * (p.scale / window_hat)[:, None]).T
