"""Multi-evaluation of sparse nonuniform exponential sums.

A node problem holds K rational frequencies alpha_k = num_k/den_k in [0, 1)
and their R stacked coefficient vectors as the linear map coeffs = merge @ B
from M table rows, and both evaluators compute

    Z_r(h) = sum_k coeffs[r, k] exp(2 pi i alpha_k (b0 + step h)),  0 <= h < H,

at the grid's own arguments b0, b0+step, .., b0+step(H-1), forming the
coefficients one block of frequencies at a time.  A divisor's node problem
is only ever read at the arguments b = q/a, and every odd fundamental q is
1 mod 4, so b = a (mod 4) and exp(2 pi i (alpha + j/4) b) = i^(j a)
exp(2 pi i alpha b) exactly; so the builder folds every frequency into
[0, 1/4), carries the power i^(j a) on a stacked table [B; iB] and a sign,
and evaluates on the arguments b = a (mod 4) alone (step 4).  On that grid
the transform sees the frequencies 4 alpha_k in [0, 1), still ascending.
The builder merges its entries by one sort of an exact integer key that
orders them by alpha, then by table row; equal (alpha, row) entries sum
their small integer weights exactly, and a frequency whose weights all
cancel is dropped (16% of the a = 1 frequencies on [2*10^5, 3*10^5)).

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

A divisor's summands need no node problem at all: each m's folded inner sum
is the complete Gauss sum G(b; 4m), which depends on b only mod 4m
(Berndt, Evans and Williams, Gauss and Jacobi Sums, 1998), so
closed_form_terms reads every term off one gauss_table in a batched sparse
product.  Its cost grows with the divisor's terms times M = N//a, a node
problem's with M^2 and its grid, and closed_form_cheaper picks the cheaper
per divisor; a = 1 keeps its node problem and its transform.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .arith import Window, divisor_grid
from .counters import OpCounter
from .errors import AccuracyError, ConsistencyError, DomainError
from .taylor import _EPS3_FLOOR, CoefficientTable

# the direct sum's cost is its K*H exact phases, whatever R is; up to this
# many it beats the transform (they tie near 4*10^3 on a 2-vCPU x86 VM)
_DIRECT_MAX_PHASES = 1 << 12
_DIRECT_CHUNK = 1 << 22  # exact phases per direct-sum chunk: bounds its phase array
# frequencies spread per block: bounds the transform's per-block arrays
_SPREAD_BLOCK = 1 << 14
# (term, m) pairs per closed-form chunk, a term's R values counted as pairs:
# bounds the chunk's index, value and output arrays
_CLOSED_CHUNK = 1 << 16
# seconds per divisor on each route, for M = N//a, H grid arguments and
# n terms, fitted in relative least squares on a 2-vCPU x86 VM with one
# BLAS thread.  A node problem, its build and fast_eval timed inside
# run_batch (median of 3), takes alpha M^2 + beta H + gamma: 1,232 divisors
# a >= 3 of [200001, 300001) at t = 0, [10001, 15001) at t = 0 and 1,
# [50001, 75001) at t = 0 and [100003, 104099) at t = 0.25, whose
# per-window sums it predicts at 0.84-1.23 of the measured.  The closed
# form takes kappa per (term, m) pair, lambda per term and rho M^2 for the
# Gauss rows it needs: 60 passes over the terms of a >= a0 on the same
# windows, 0.13-203 ms, predicted within 0.7-1.4x with 0.15 ms per pass
_NODE_COST = (2.4e-7, 1.56e-6, 4.0e-4)  # alpha, beta, gamma
_CLOSED_COST = (4.3e-8, 2.0e-7, 1.6e-7)  # kappa, lambda, rho
# keeps from_fractions' key floor(alpha 2^62) and every exact angle in int64
_MAX_DEN = 1 << 31
_QUARTER_WEIGHTS = np.array([2.0, 4.0, -2.0, -4.0])  # a build's weight codes


def _merge_entries(key, key_bits, cols, ncols, codes, weights):
    """Merge entries into one CSR (K, ncols) row per distinct key, ascending.
    Entry j adds weights[codes[j]] (codes < 4) at row key[j] < 2^key_bits,
    column cols[j].  One sort of the int64 (key, column, code), packed in
    key's array and raising ConsistencyError rather than wrap past 63 bits,
    makes each run of equal (key, column) one entry, summed by reduceat;
    zero sums and the rows they empty are dropped.  Returns (row keys,
    first columns, merge)."""
    col_bits = (ncols - 1).bit_length()
    if key_bits + col_bits + 2 > 63:
        raise ConsistencyError(f"a {key_bits}-bit key over {ncols} columns overflows int64")
    packed = np.left_shift(key, col_bits, out=key)
    packed |= cols
    packed <<= 2
    packed |= codes
    packed.sort()
    w = weights[packed & 3]
    packed >>= 2
    # run starts: packed[:1] >= 0 marks the first entry, if there is one
    runs = np.flatnonzero(np.concatenate((packed[:1] >= 0, packed[1:] != packed[:-1])))
    w = np.add.reduceat(w, runs)
    packed, w = packed[runs[w != 0]], w[w != 0]
    cols = packed & ((1 << col_bits) - 1)
    packed >>= col_bits
    first = np.flatnonzero(np.concatenate((packed[:1] >= 0, packed[1:] != packed[:-1])))
    merge = sparse.csr_array((w, cols, np.append(first, packed.size)), shape=(first.size, ncols))
    return packed[first], cols[first], merge


def _merge_quarters(rest, rows, codes, M):
    """Merge a build's entries: entry j is alpha = rest[j]/(4m), rest < m =
    rows[j] % M + 1 <= M, with weight _QUARTER_WEIGHTS[codes[j]] at table
    row rows[j] < 2M; the int64 rest array is consumed.  Distinct rest/m
    differ by at least 1/M^2, so with 2^t >= M^2 the key floor(rest 2^t / m)
    orders them exactly and rest = ceil(key m / 2^t).  Returns (nums, dens,
    merge), the fractions not yet in lowest terms."""
    t = (M * M - 1).bit_length()
    rest <<= t
    rest //= rows % M + 1
    key, col, merge = _merge_entries(rest, t, rows, 2 * M, codes, _QUARTER_WEIGHTS)
    m = col % M + 1
    return -((-key * m) >> t), 4 * m, merge


@dataclass(eq=False)
class NodeSum:
    """K merged rational frequencies with R coefficient vectors, as a map.

    nums/dens are fractions in [0, 1), put in lowest terms on construction
    and checked strictly ascending.  The coefficients of frequency k are row
    k of merge @ B: merge is a CSR (K, M) array of real weights, a nonzero
    one in every row, and B a C-contiguous complex (M, R) array of table
    rows; K may be 0.  The evaluators form them one block of frequencies at
    a time (block), so nothing of size K*R is ever held; coeffs (R, K) and
    scale (the largest coefficient magnitude, 1.0 for an all-zero problem)
    are computed on demand for checks.
    """

    nums: np.ndarray
    dens: np.ndarray
    merge: sparse.csr_array
    B: np.ndarray

    def __post_init__(self) -> None:
        g = np.gcd(self.nums, self.dens)  # lowest terms, 0 as 0/1
        self.nums, self.dens = self.nums // g, self.dens // g
        if np.any(self.nums[1:] * self.dens[:-1] <= self.nums[:-1] * self.dens[1:]):
            raise ConsistencyError("frequencies are not strictly ascending")

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
        """Reduce, fold into [0, 1), merge duplicates, sort by value.

        Distinct fractions over dens < 2^31 differ by more than 2^-62, so
        the key floor(alpha 2^62), formed in two 31-bit steps, ranks them.
        """
        nums = np.asarray(nums, dtype=np.int64)
        dens = np.asarray(dens, dtype=np.int64)
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
        if nums.shape != dens.shape or nums.ndim != 1 or nums.size == 0:
            raise DomainError("nums and dens must be matching non-empty 1-d arrays")
        if coeffs.shape[1] != nums.size:
            raise DomainError("coefficient columns must match the frequency count")
        if np.any(dens <= 0) or np.any(dens >= _MAX_DEN):
            raise DomainError("denominators must lie in [1, 2^31)")
        nums = nums % dens
        hi, lo = np.divmod(nums << 31, dens)
        lo <<= 31
        lo //= dens
        rank = np.unique((hi << 31) + lo, return_inverse=True)[1]
        n = rank.size
        _, first, merge = _merge_entries(rank, n.bit_length(), np.arange(n), n, 0, np.ones(1))
        return cls(nums[first], dens[first], merge, np.ascontiguousarray(coeffs.T))


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
    counter: OpCounter | None = None,
):
    """Assemble the divisor-a node problem for one coefficient table.

    Folds the quadratic phase l^2/(4m) over its four-fold symmetry (weights 2
    at l in {0, m}, else 4), then splits l^2 mod 4m into a quarter j and a
    remainder: alpha = (l^2 mod m)/(4m) lies in [0, 1/4), and the factor
    i^(j a) that is exact at the grid's arguments b = a (mod 4) becomes a
    sign and, for odd j a, a read of row m - 1 + M of the stacked table
    [B; iB].  Equal fractions across all m <= N/a merge into one sparse
    (K, 2M) map whose rows are in alpha order, without the weights that
    cancel to 0 or the rows they leave empty; the map is not applied here.
    Row m of B is table column a m, unweighted, so evaluating the problem on
    its grid gives sum_m c_r(t, a m) G(b; 4m) at every b = b0, b0+4, ..,
    b0+4(H-1); the caller's table carries any weight.  Returns (NodeSum,
    EvalGrid) with grid step 4, or None when the divisor contributes nothing
    (a > N or the rescaled window holds no b = a mod 4); the raw entries are
    counted either way once a <= N.
    """
    a = int(a)
    if a < 1:
        raise DomainError("divisor a must be positive")
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
    ends = np.cumsum(sizes)
    row = np.repeat(np.arange(M, dtype=np.int64), sizes)  # m - 1, the row of B
    ell = np.arange(row.size, dtype=np.int64)
    ell -= np.repeat(ends - sizes, sizes)
    code = np.ones(row.size, dtype=np.int8)  # weight 4, but 2 at l in {0, m}
    code[ends - sizes] = code[ends - 1] = 0
    ell *= ell
    # l^2 = (4 s + j) m + rest: alpha = rest/(4m) at the factor i^(j a)
    row += 1  # m
    quarter, ell = np.divmod(ell, row)
    row -= 1
    quarter *= a
    quarter &= 3
    code |= (quarter >= 2).view(np.int8) << 1  # i^(j a) in {-1, -i}: a negative weight
    quarter &= 1
    quarter *= M
    row += quarter  # odd j a reads iB
    del quarter

    # [B; iB], row m - 1 of B the table column a m, C-contiguous as the
    # float64 view in NodeSum.block needs
    B = np.empty((2 * M, R), dtype=np.complex128)
    B[:M] = table.c[:, a - 1 : a * M : a].T
    np.multiply(B[:M], 1j, out=B[M:])
    nums, dens, merge = _merge_quarters(ell, row, code, M)
    if counter is not None:
        counter.add("node_merged", int(nums.size))
    return NodeSum(nums, dens, merge, B), EvalGrid(b0=b0, H=H, step=4)


def closed_form_cheaper(a, n_terms, N: int, H) -> np.ndarray:
    """Whether each divisor a, with n_terms divisor terms and a grid of H
    arguments, costs less through closed_form_terms than through its node
    problem, by the fitted _NODE_COST and _CLOSED_COST.  a = 1 always takes
    its node problem, the one transform every window prices."""
    a = np.asarray(a, dtype=np.int64)
    M = (N // a).astype(np.float64)
    alpha, beta, gamma = _NODE_COST
    kappa, lam, rho = _CLOSED_COST
    closed = (kappa * M + lam) * n_terms + rho * M * M
    return (a > 1) & (closed < alpha * M * M + beta * H + gamma)


def gauss_table(M: int) -> np.ndarray:
    """The complete Gauss sums G(r; 4m) = sum_(l < 4m) e(r l^2 / (4m)) for
    1 <= m <= M and 0 <= r < 4m, flat: row m holds r = 0..4m-1 from offset
    2m(m-1).  Each row is the length-4m DFT, with the e^(+2 pi i) sign, of
    the histogram of l^2 mod 4m, which l and l + 2m hit alike."""
    m = np.arange(1, M + 1, dtype=np.int64)
    starts = 2 * m * (m - 1)
    row = np.repeat(np.arange(M), 2 * m)  # l < 2m, counted twice
    ell = np.arange(M * (M + 1), dtype=np.int64) - starts[row] // 2
    ell *= ell
    ell %= 4 * m[row]
    ell += starts[row]
    hist = 2.0 * np.bincount(ell, minlength=2 * M * (M + 1))
    out = np.empty(hist.size, dtype=np.complex128)
    for s, n in zip(starts.tolist(), (4 * m).tolist()):
        out[s : s + n] = np.fft.ifft(hist[s : s + n], norm="forward")
    return out


def closed_form_terms(
    a,
    b,
    table: CoefficientTable,
    *,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Divisor terms read off the Gauss table, without node problems.

    Term j is the divisor a[j] at the argument b[j].  Each m's folded inner
    sum in build_node_problem is the complete Gauss sum G(b; 4m), which
    depends on b only mod 4m, so term j is the node problem's value

        sum_(m <= N/a) c_r(t, a m) G(b mod 4m; 4m),

    one gather from gauss_table per (term, m) pair.  Chunks of about
    _CLOSED_CHUNK pairs, each term counted with its R values, form one
    sparse (terms, N) array each, whose product with the table's columns
    gives the chunk's terms.  Returns the (R, J) values; closed_pairs counts
    the pairs.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 1 or a.shape != b.shape:
        raise DomainError("a and b must be matching 1-d arrays")
    if np.any(a < 1):
        raise DomainError("divisor a must be positive")
    N, R = table.N, table.R
    M = N // a
    out = np.empty((R, a.size), dtype=np.complex128)
    if counter is not None:
        counter.add("closed_pairs", int(M.sum()))
    if a.size == 0:
        return out
    gauss = gauss_table(int(M.max()))
    cT = np.ascontiguousarray(table.c.T)  # (N, R): column n - 1 of c as a row
    work = np.cumsum(M + R)
    starts = np.unique(np.searchsorted(work, np.arange(0, int(work[-1]), _CLOSED_CHUNK)))
    for j0, j1 in itertools.pairwise([*starts.tolist(), a.size]):
        Mj = M[j0:j1]
        indptr = np.zeros(j1 - j0 + 1, dtype=np.int64)
        np.cumsum(Mj, out=indptr[1:])
        m = np.arange(1, indptr[-1] + 1, dtype=np.int64)
        m -= np.repeat(indptr[:-1], Mj)
        idx = np.repeat(b[j0:j1], Mj)
        row = 4 * m
        idx %= row
        row *= m - 1
        row >>= 1  # row m of the table starts at 2m(m-1)
        idx += row
        m *= np.repeat(a[j0:j1], Mj)
        m -= 1  # the table column a m - 1
        pairs = sparse.csr_array((gauss[idx], m, indptr), shape=(j1 - j0, N))
        out[:, j0:j1] = (pairs @ cT).T
    return out


def _direct_core(p: NodeSum, g: EvalGrid) -> np.ndarray:
    """Exact-angle direct evaluation, compensated across frequency blocks.

    Each block of 2^16 frequencies forms its coefficients once and adds
    them into every target chunk.
    """
    K, H = p.K, g.H
    acc = np.zeros((p.R, H), dtype=np.complex128)
    comp = np.zeros_like(acc)
    k_block = 1 << 16
    h_chunk = max(1, _DIRECT_CHUNK // max(K, 1))
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

    Small problems (K*H <= _DIRECT_MAX_PHASES) fall through to the direct
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
    (eps3 = 3.4e-14 on [2*10^5, 3*10^5) at eps = 1e-6).  Carrying this
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
    if force == "auto" and K * H <= _DIRECT_MAX_PHASES:
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

    # DFT with the e^{+2 pi i} sign, unnormalized, in place
    U = np.fft.ifft(core, axis=0, norm="forward", out=core)

    rel = np.arange(H, dtype=np.int64) - Hc
    xi = rel / n
    window_hat = 2.0 * math.sqrt(math.pi * tau) * np.exp(-4.0 * math.pi ** 2 * tau * xi * xi)
    values = U[rel % n]
    values /= window_hat[:, None]
    return values.T
