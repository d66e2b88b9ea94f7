"""Multi-evaluation of sparse nonuniform exponential sums.

A node problem holds K rational frequencies alpha_k = num_k/den_k in [0, 1)
and their R stacked coefficient vectors as the linear map coeffs = merge @ B
from M weighted table rows, and both evaluators compute

    Z_r(h) = sum_k coeffs[r, k] exp(2 pi i alpha_k (b0 + step h)),  0 <= h < H,

at the grid's own arguments b0, b0+step, .., b0+step(H-1), forming the
coefficients one block of frequencies at a time.  A divisor's node problem
is only ever read at the arguments b = q/a, and every odd fundamental q is
1 mod 4, so b = a (mod 4) and exp(2 pi i (alpha + j/4) b) = i^(j a)
exp(2 pi i alpha b) exactly; so the builder folds every frequency into
[0, 1/4), carries the power i^(j a) on a stacked table [B; iB] and a sign,
and evaluates on the arguments b = a (mod 4) alone (step 4).  On that grid
the transform sees the frequencies 4 alpha_k in [0, 1), still ascending.

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
spreads onto W = 2w + 1 cells.  The frequencies are sorted by alpha, so a
block of them touches one contiguous range of grid rows; the R complex
coefficient rows of a block are spread there by one sparse product on their
float64 view (sorted-subproblem spreading, as in FINUFFT).  Frequencies stay
exact integers (num, den) end to end: every phase used in either path is
exp(2 pi i (integer mod den) / den).  On a step-s grid the transform spreads
s alpha mod 1, which may wrap for a generic problem's alpha >= 1/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .arith import Window, divisor_grid
from .counters import OpCounter
from .errors import AccuracyError, DomainError
from .taylor import _EPS3_FLOOR, CoefficientTable

# below this work volume the exact direct sum wins over transform setup
_CROSSOVER_OPS = 1 << 22
# frequencies spread per block: bounds the transform's per-block arrays
_SPREAD_BLOCK = 1 << 14
_CONVENTIONS = ("sqrt_a", "plain_a")
# keeps the merge key num*stride + den and every exact angle inside int64
_MAX_DEN = 1 << 31


def _merge_frequencies(nums, dens, cols, weights, ncols):
    """Merge weighted frequency entries into distinct fractions in alpha order.

    Entry j is the frequency nums[j]/dens[j] (any integer over a positive
    denominator) and adds the real weights[j] times table row cols[j] to that
    frequency's coefficients.  Fractions are reduced and folded into [0, 1),
    equal ones share a row, and rows are numbered by ascending alpha.
    Returns (nums, dens, merge) with merge the canonical CSR (K, ncols) map
    whose duplicate entries are summed.
    """
    # the entry arrays are large: each temporary is freed once it is dead
    nums = nums % dens
    g = np.gcd(nums, dens)  # gcd(0, d) = d folds 0/d to 0/1
    nums //= g
    dens = dens // g
    del g
    stride = int(dens.max()) + 1
    nums *= stride
    nums += dens  # the merge key
    del dens
    uniq, inv = np.unique(nums, return_inverse=True)
    nums = uniq // stride
    dens = uniq % stride
    order = np.argsort(nums / dens, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    merge = sparse.coo_array((weights, (rank[inv], cols)), shape=(order.size, ncols))
    return nums[order], dens[order], merge.tocsr()


@dataclass(eq=False)
class NodeSum:
    """K merged rational frequencies with R coefficient vectors, as a map.

    nums/dens are reduced fractions in [0, 1), sorted by value, pairwise
    distinct.  The coefficients of frequency k are row k of merge @ B: merge
    is a CSR (K, M) array of real weights and B a C-contiguous complex
    (M, R) array of table rows.  The evaluators form them one block of
    frequencies at a time (block), so nothing of size K*R is ever held;
    coeffs (R, K) and scale (the largest coefficient magnitude, 1.0 for an
    all-zero problem) are computed on demand for checks.
    """

    nums: np.ndarray
    dens: np.ndarray
    merge: sparse.csr_array
    B: np.ndarray

    @property
    def K(self) -> int:
        return int(self.nums.size)

    @property
    def R(self) -> int:
        return int(self.B.shape[1])

    def block(self, k0: int, k1: int) -> np.ndarray:
        """Coefficients of frequencies k0 .. k1-1 as a new (k1-k0, R) array."""
        return (self.merge[k0:k1] @ self.B.view(np.float64)).view(np.complex128)

    @property
    def coeffs(self) -> np.ndarray:
        return self.block(0, self.K).T

    @property
    def scale(self) -> float:
        return float(np.abs(self.coeffs).max(initial=0.0)) or 1.0

    @classmethod
    def from_fractions(cls, nums, dens, coeffs) -> "NodeSum":
        """Reduce, fold into [0, 1), merge duplicates, sort by value."""
        nums = np.asarray(nums, dtype=np.int64)
        dens = np.asarray(dens, dtype=np.int64)
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
        if nums.shape != dens.shape or nums.ndim != 1 or nums.size == 0:
            raise DomainError("nums and dens must be matching non-empty 1-d arrays")
        if coeffs.shape[1] != nums.size:
            raise DomainError("coefficient columns must match the frequency count")
        if np.any(dens <= 0) or np.any(dens >= _MAX_DEN):
            raise DomainError("denominators must lie in [1, 2^31)")
        cols = np.arange(nums.size, dtype=np.int64)
        nums, dens, merge = _merge_frequencies(nums, dens, cols, np.ones(nums.size), nums.size)
        return cls(nums, dens, merge, np.ascontiguousarray(coeffs.T))


@dataclass(frozen=True)
class EvalGrid:
    """Targets b0 + step*h; the evaluators return them as h = 0..H-1."""

    b0: int
    H: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.H < 1:
            raise DomainError("evaluation grid needs H >= 1")
        if self.step < 1:
            raise DomainError("evaluation grid needs step >= 1")


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
    at l in {0, m}, else 4), then splits l^2 mod 4m into a quarter j and a
    remainder: alpha = (l^2 mod m)/(4m) lies in [0, 1/4), and the factor
    i^(j a) that is exact at the grid's arguments b = a (mod 4) becomes a
    sign and, for odd j a, a read of row m - 1 + M of the stacked table
    [B; iB].  Equal reduced fractions across all m <= N/a merge into one
    sparse (K, 2M) map whose rows are in alpha order; the map is not applied
    here.  Row m of B carries the whole assembly weight u_m = sqrt(a/m), or
    a under convention="plain_a", so evaluating the problem on its grid
    gives the divisor's summand sqrt(a) S_r(a, b) at every
    b = b0, b0+4, .., b0+4(H-1).  Returns (NodeSum, EvalGrid) with grid
    step 4, or None when the divisor contributes nothing (a > N or the
    rescaled window holds no b = a mod 4); the raw entries are counted
    either way once a <= N.
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
    if counter is not None:
        counter.add("node_raw", 2 * M * (M + 1))
    b0, H = divisor_grid(window, a)
    if H < 1:
        return None

    sizes = np.arange(2, M + 2, dtype=np.int64)  # segment m has l = 0..m
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    total = int(sizes.sum())
    row = np.repeat(np.arange(M, dtype=np.int64), sizes)  # m - 1, the row of B
    ell = np.arange(total, dtype=np.int64)
    ell -= np.repeat(starts, sizes)
    m = row + 1
    weight = np.where((ell == 0) | (ell == m), 2.0, 4.0)
    ell *= ell
    # l^2 = (4 s + j) m + rest: alpha = rest/(4m) at the factor i^(j a)
    quarter, ell = np.divmod(ell, m)
    quarter *= a
    quarter &= 3
    weight[quarter >= 2] *= -1.0
    quarter &= 1
    quarter *= M
    row += quarter  # odd j a reads iB
    del quarter
    m *= 4  # the denominator 4m

    # per-m coefficient row: weight u_m times c_r(t, a m)
    cols = a * np.arange(1, M + 1, dtype=np.int64) - 1
    base = table.c[:, cols]
    if convention == "sqrt_a":
        u = np.sqrt(a / np.arange(1, M + 1, dtype=np.float64))
    else:
        u = np.full(M, float(a))
    B = (base * u).T  # (M, R)
    B = np.concatenate((B, 1j * B))  # [B; iB]
    nums, dens, merge = _merge_frequencies(ell, m, row, weight, 2 * M)
    if counter is not None:
        counter.add("node_merged", int(nums.size))
    return NodeSum(nums, dens, merge, B), EvalGrid(b0=b0, H=H, step=4)


def _direct_core(p: NodeSum, g: EvalGrid) -> np.ndarray:
    """Exact-angle direct evaluation, compensated across frequency blocks.

    Each block of 2^16 frequencies forms its coefficients once and adds
    them into every target chunk.
    """
    K, H = p.K, g.H
    acc = np.zeros((p.R, H), dtype=np.complex128)
    comp = np.zeros_like(acc)
    k_block = 1 << 16
    h_chunk = max(1, _CROSSOVER_OPS // max(K, 1))
    for k0 in range(0, K, k_block):
        k1 = min(k0 + k_block, K)
        coeffs = p.block(k0, k1).T
        for h0 in range(0, H, h_chunk):
            h1 = min(h0 + h_chunk, H)
            bs = g.b0 + g.step * np.arange(h0, h1, dtype=np.int64)
            phases = _exact_phase(p.nums[k0:k1, None], p.dens[k0:k1, None], bs)
            y = coeffs @ phases - comp[:, h0:h1]
            tot = acc[:, h0:h1] + y
            comp[:, h0:h1] = (tot - acc[:, h0:h1]) - y
            acc[:, h0:h1] = tot
    return acc


def direct_eval(p: NodeSum, g: EvalGrid, counter: OpCounter | None = None) -> np.ndarray:
    """Reference evaluation: K*H*R work, every phase from an exact angle."""
    if counter is not None:
        counter.add("direct_eval_ops", p.K * g.H * p.R)
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
    sum.  force="transform" pins the transform for testing (direct_eval is
    the direct sum alone).  The transform centres the targets on
    b0 + step*Hc with Hc = H//2 and takes w and tau from _gaussian_params
    (W = 2w + 1 taps, variance tau = A/(4 pi^2 (1 - 2 xi_m))).  It walks
    the alpha-sorted frequencies in blocks of _SPREAD_BLOCK: each block
    forms its coefficients, phases them by exp(2 pi i alpha (b0 + step*Hc)),
    and spreads their float64 view with a sparse matrix over the fine-grid
    rows [lo, hi) it touches, added into one padded grid of n + 2w + 1
    rows.  Source k sits at cell round(n beta_k) with beta_k = step alpha_k
    mod 1, kept unwrapped, so beta -> 1 lands on cell n.  The padding is
    wrapped and one FFT runs along the grid axis.  Below eps3 = 1e-12 the
    promise degrades to double-precision roundoff amplified by the
    deconvolution gain (at most e^(A/8)): 17 of 69 seeded random problems
    there exceed eps3*scale, and the planner accepts such targets
    (eps3 = 8.69e-15 on [2*10^5, 3*10^5) at eps = 1e-6).  Carrying this
    floor into the certificate is ROADMAP item 2.
    """
    eps3 = float(eps3)
    if not 0.0 < eps3 < 1.0:
        raise DomainError("eps3 must lie in (0, 1)")
    if eps3 < _EPS3_FLOOR:
        raise AccuracyError(
            f"eps3={eps3:.3e} is below the 2^-48 = {_EPS3_FLOOR:.3e} "
            "double-precision transform floor"
        )
    if force not in ("auto", "transform"):
        raise DomainError(f"unknown path selector {force!r}")
    R, K, H = p.R, p.K, g.H
    if force == "auto" and K * H * R <= _CROSSOVER_OPS:
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

    padded = np.zeros((n + 2 * w + 1, R), dtype=np.complex128)
    taps = np.arange(-w, w + 1, dtype=np.float64)
    for k0 in range(0, K, _SPREAD_BLOCK):
        k1 = min(k0 + _SPREAD_BLOCK, K)
        nums, dens = p.nums[k0:k1], p.dens[k0:k1]
        # centre targets at b0 + step*Hc so deconvolution gains stay moderate
        coeffs = p.block(k0, k1)
        coeffs *= _exact_phase(nums, dens, g.b0 + g.step * Hc)[:, None]
        # nearest fine-grid cell of beta = step*alpha mod 1 and the exact
        # offset; ascending unless beta wraps
        t_num = n * ((g.step * nums) % dens)
        j0 = (2 * t_num + dens) // (2 * dens)  # round(n beta), half away up
        delta = (t_num - j0 * dens) / dens  # in [-1/2, 1/2], exact
        lo, hi = int(j0.min()), int(j0.max()) + W
        gauss = np.subtract.outer(delta, taps)
        np.square(gauss, out=gauss)
        np.divide(gauss, -4.0 * tau, out=gauss)
        np.exp(gauss, out=gauss)
        # column k holds the W taps at rows j0 - lo .. j0 - lo + 2w
        rows = np.add.outer((j0 - lo).astype(np.int32), np.arange(W, dtype=np.int32))
        spread = sparse.csc_array(
            (gauss.ravel(), rows.ravel(), np.arange(0, (k1 - k0) * W + 1, W, dtype=np.int32)),
            shape=(hi - lo, k1 - k0),
        )
        padded[lo:hi] += (spread @ coeffs.view(np.float64)).view(np.complex128)
    # padded row j holds fine cell j - w
    core = padded[w : w + n]
    core[: w + 1] += padded[n + w :]
    core[n - w :] += padded[:w]

    # DFT with the e^{+2 pi i} sign convention, unnormalized, in place
    U = np.fft.ifft(core, axis=0, norm="forward", out=core)

    rel = np.arange(H, dtype=np.int64) - Hc
    xi = rel / n
    window_hat = 2.0 * math.sqrt(math.pi * tau) * np.exp(-4.0 * math.pi ** 2 * tau * xi * xi)
    values = U[rel % n]
    values /= window_hat[:, None]
    return values.T
