"""Integer machinery: windowed factorization sieve, fundamental-discriminant
classification, the quadratic character, and inclusion-exclusion divisors.

The character chi_q for odd fundamental q = 1 (mod 4) is the quadratic
symbol; by reciprocity it equals the Jacobi symbol (n/q) for every n, which
is what quad_character evaluates.  CharacterSieve amortizes whole-interval
character tables down to one symbol evaluation per prime.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .counters import OpCounter
from .errors import BudgetError, DomainError

_SIEVE_BLOCK = 1 << 20  # odd values per segment

_T_MAX = 10.0  # supported heights |t| <= _T_MAX
_BITS_MAX = 45.0  # largest log2(q/epsilon) a double-precision value certifies


def _check_t(t: float) -> float:
    """t as a float; DomainError unless it is finite with |t| <= _T_MAX."""
    t = float(t)
    if not (math.isfinite(t) and abs(t) <= _T_MAX):
        raise DomainError(f"t={t!r} lies outside the supported range |t| <= {_T_MAX:g}")
    return t


def _check_epsilon(epsilon: float) -> float:
    """epsilon as a float; DomainError unless 0 < epsilon < 1."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon={epsilon!r} must lie in (0, 1)")
    return epsilon


def _check_precision(q: int, epsilon: float) -> float:
    """_check_epsilon, then BudgetError if log2(q/epsilon) > _BITS_MAX: a finer
    target is below what double precision certifies."""
    epsilon = _check_epsilon(epsilon)
    bits = math.log2(q / epsilon)
    if bits > _BITS_MAX:
        raise BudgetError(
            f"log2(Q/epsilon) = {bits:.2f} exceeds the {_BITS_MAX:.0f}-bit "
            "double-precision budget; raise epsilon or shrink Q"
        )
    return epsilon


def _resolve_threads(threads: int) -> int:
    """Worker count for a thread pool: 0 means every core; negative is refused."""
    if threads < 0:
        raise DomainError(f"threads={threads} must be >= 0 (0 = all cores)")
    return threads or os.cpu_count() or 1


def _thread_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], on a pool of _resolve_threads(threads) workers.

    One worker or at most one item runs serially in the calling thread.
    """
    threads = _resolve_threads(threads)
    if threads == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class Window:
    """Conductor interval [Q, Q+Delta)."""

    Q: int
    Delta: int

    def __post_init__(self) -> None:
        if not (isinstance(self.Q, (int, np.integer)) and self.Q >= 1):
            raise DomainError("window requires integer Q >= 1")
        if not (isinstance(self.Delta, (int, np.integer)) and self.Delta >= 1):
            raise DomainError("window requires integer Delta >= 1")
        # the Taylor variable x = (Q - q)/q needs |x| < 1/2 over the whole
        # window; boundary Delta = Q/2 admitted so power-of-two scaling
        # windows are expressible
        if 2 * self.Delta > self.Q:
            raise DomainError(
                f"window width {self.Delta} violates 1 <= Delta < Q/2 for Q={self.Q}"
            )


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by binary reduction."""
    a = int(a)
    n = int(n)
    if n <= 0 or n % 2 == 0:
        raise DomainError("jacobi requires odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=65536)
def _is_fundamental_odd_positive_int(q: int) -> bool:
    if q < 1 or q % 2 == 0 or q % 4 != 1:
        return False
    m = q
    p = 3
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
        p += 2
    return True


def quad_character(q: int, n: int) -> int:
    """chi_q(n) in {-1, 0, +1} for fundamental odd positive q."""
    q = int(q)
    n = int(n)
    if n < 1:
        raise DomainError("quad_character requires n >= 1")
    if not _is_fundamental_odd_positive_int(q):
        raise DomainError(f"q={q} is not an odd positive fundamental conductor")
    return jacobi(n % q, q)


def _odd_primes_upto(n: int) -> np.ndarray:
    if n < 3:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.nonzero(sieve)[0].astype(np.int64)
    return primes[primes % 2 == 1]


@dataclass(frozen=True, eq=False)
class FactoredWindow:
    """The odd conductors of a window with their distinct primes, as CSR arrays.

    Row i is conductor q[i] (ascending); its distinct primes, ascending, are
    primes[indptr[i] : indptr[i+1]], and they multiply to q[i] exactly when
    squarefree[i].  window[q] is the one-row window of conductor q.
    """

    q: np.ndarray
    indptr: np.ndarray
    primes: np.ndarray
    squarefree: np.ndarray

    @property
    def fundamental(self) -> np.ndarray:
        """Mask of the odd fundamental conductors: squarefree and q = 1 (mod 4)."""
        return self.squarefree & (self.q % 4 == 1)

    def select(self, rows) -> FactoredWindow:
        """The sub-window of the given rows (a boolean mask or ascending indices)."""
        lo, hi = self.indptr[:-1][rows], self.indptr[1:][rows]
        indptr = np.concatenate(([0], np.cumsum(hi - lo)))
        take = np.repeat(lo - indptr[:-1], hi - lo) + np.arange(indptr[-1])
        return FactoredWindow(
            q=self.q[rows], indptr=indptr, primes=self.primes[take],
            squarefree=self.squarefree[rows],
        )

    def __getitem__(self, q: int) -> FactoredWindow:
        i = int(np.searchsorted(self.q, q))
        if i == self.q.size or self.q[i] != q:
            raise KeyError(q)
        return self.select([i])

    def divisor_terms(self, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat int64 (owner, a, sign): every row's inclusion-exclusion terms.

        owner is the row index, a a product <= N of a subset of the row's
        primes and sign = (-1)^(subset size).  Terms are grouped by row and
        ascending in a, so each row starts with (1, +1).  Valid for odd
        squarefree conductors (the expansion does not need q = 1 mod 4).
        """
        if not (np.all(self.squarefree) and np.all(self.q % 2 == 1)):
            raise DomainError("divisor_terms requires odd squarefree conductors")
        count = np.diff(self.indptr)
        owner = np.arange(self.q.size, dtype=np.int64)
        a = np.ones_like(owner)
        sign = np.ones_like(owner)
        for k in range(int(count.max(initial=0))):
            # extend every term by its row's k-th prime while the product stays <= N
            j = np.flatnonzero(count[owner] > k)
            p = self.primes[self.indptr[owner[j]] + k]
            keep = p <= N // a[j]
            j, p = j[keep], p[keep]
            owner = np.concatenate((owner, owner[j]))
            a = np.concatenate((a, a[j] * p))
            sign = np.concatenate((sign, -sign[j]))
        order = np.lexsort((a, owner))
        return owner[order], a[order], sign[order]


def sieve_factor_window(window: Window, counter: OpCounter | None = None) -> FactoredWindow:
    """Factor every odd q in [Q, Q+Delta) by a segmented sieve.

    Trial primes run up to sqrt(Q+Delta-1); whatever cofactor survives is
    prime.  Work is vectorized per prime across each segment.
    """
    lo, hi = window.Q, window.Q + window.Delta
    first = lo if lo % 2 == 1 else lo + 1
    qs_all = np.arange(first, hi, 2, dtype=np.int64)
    sqfree_all = np.ones(qs_all.size, dtype=bool)
    base_primes = _odd_primes_upto(math.isqrt(int(hi - 1)))
    # (row, prime) pairs with global row indices
    idx_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    p_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]

    for s in range(0, qs_all.size, _SIEVE_BLOCK):
        qs = qs_all[s : s + _SIEVE_BLOCK]
        n_b = qs.size
        lo_b = int(qs[0])
        rem = qs.copy()
        sqfree = sqfree_all[s : s + n_b]
        for p in base_primes:
            p = int(p)
            m0 = ((lo_b + p - 1) // p) * p
            if m0 % 2 == 0:
                m0 += p
            start = (m0 - lo_b) >> 1
            if start >= n_b:
                continue
            ii = np.arange(start, n_b, p, dtype=np.int64)
            if counter is not None:
                counter.add("sieve_marks", ii.size)
            rem[ii] //= p
            again = rem[ii] % p == 0
            if np.any(again):
                sub = ii[again]
                sqfree[sub] = False
                r = rem[sub] // p
                mask = r % p == 0
                while np.any(mask):
                    r[mask] //= p
                    mask = r % p == 0
                rem[sub] = r
            idx_parts.append(ii + s)
            p_parts.append(np.full(ii.size, p, dtype=np.int64))
        res_idx = np.nonzero(rem > 1)[0]
        if counter is not None:
            counter.add("sieve_marks", res_idx.size)
        idx_parts.append(res_idx + s)
        p_parts.append(rem[res_idx])

    idx_all = np.concatenate(idx_parts)
    p_all = np.concatenate(p_parts)
    order = np.lexsort((p_all, idx_all))
    indptr = np.searchsorted(idx_all[order], np.arange(qs_all.size + 1))
    return FactoredWindow(q=qs_all, indptr=indptr, primes=p_all[order], squarefree=sqfree_all)


class CharacterSieve:
    """Character tables chi_q(n), n <= N, with symbol calls only at primes.

    The smallest-prime-factor table and the composite levels (grouped by
    number of prime factors) are built once and shared across conductors;
    values(q) then assembles the completely multiplicative extension with a
    handful of vectorized gathers.
    """

    def __init__(self, N: int) -> None:
        N = int(N)
        if N < 1:
            raise DomainError("CharacterSieve requires N >= 1")
        self.N = N
        spf = np.zeros(N + 1, dtype=np.int64)
        for p in range(2, math.isqrt(N) + 1):
            if spf[p] == 0:
                seg = spf[p * p :: p]
                seg[seg == 0] = p
        ns = np.arange(N + 1, dtype=np.int64)
        prime_mask = spf[2:] == 0
        spf[2:][prime_mask] = ns[2:][prime_mask]
        self.spf = spf
        self.primes = ns[2:][prime_mask]
        cof = np.ones(N + 1, dtype=np.int64)
        if N >= 2:
            cof[2:] = ns[2:] // spf[2:]
        self.cof = cof
        omega = np.zeros(N + 1, dtype=np.int64)
        for n in range(2, N + 1):
            omega[n] = omega[cof[n]] + 1
        self._levels = [
            np.nonzero(omega == lev)[0]
            for lev in range(2, (int(omega.max()) if N >= 2 else 1) + 1)
        ]

    def values(self, q: int) -> np.ndarray:
        """float64 array v with v[n] = chi_q(n) for 0 <= n <= N."""
        q = int(q)
        if not _is_fundamental_odd_positive_int(q):
            raise DomainError(f"q={q} is not an odd positive fundamental conductor")
        chi = np.zeros(self.N + 1, dtype=np.float64)
        chi[1] = 1.0
        if self.primes.size:
            chi[self.primes] = [jacobi(int(p), q) for p in self.primes]
        for level in self._levels:
            chi[level] = chi[self.spf[level]] * chi[self.cof[level]]
        return chi
