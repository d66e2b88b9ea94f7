"""Compute the frozen Z(t, chi_q) literals of test_anchor.py with mpmath alone.

Each value is Z = Re(e^{i theta} L(1/2 + it, chi_q)) at 30 digits, with L
from mpmath.dirichlet (a sum of Hurwitz zeta values), chi_q(n) = (n/q) from
Euler's criterion at each prime of q, and theta = (t/2) log(q/pi) +
Im log Gamma((1/2 + it)/2) from mpmath.loggamma.  Nothing here shares the
package's kernel, smoothed sum or phase, so the literals anchor all of them.

    python tests/make_anchor.py          # print the records as literals
    PYTHONPATH=src python tests/make_anchor.py --check  # recompute _ANCHOR,
                                                        # report the worst gap

mpmath is not a dependency of the package; without it this script says so and
exits 0, and the frozen literals stand.  A record takes about 0.2 s at q = 101
and grows about linearly in q.
"""

from __future__ import annotations

import sys

_DPS = 40  # working digits; the literals keep 30

# (q, t): fundamental q = 1 (mod 4), prime and composite, up to the compare
# window [10^4, 1.5*10^4), at heights from the central point to |t| = 10
RECORDS = [
    (101, 0.0), (101, 0.3), (101, 1.0), (101, 7.0), (101, 10.0),
    (105, 0.3), (105, 10.0),
    (1009, 0.0), (1009, 7.0),
    (1365, 1.0), (1365, 10.0),
    (5005, 0.3), (5005, 7.0),
    (10001, 0.0), (10001, 10.0),
    (10005, 1.0),
]


def _primes_of(q: int) -> list[int]:
    """The distinct primes of odd squarefree q, by trial division."""
    out, p = [], 3
    while p * p <= q:
        if q % p == 0:
            out.append(p)
            q //= p
        p += 2
    return out + [q] if q > 1 else out


def character(q: int) -> list[int]:
    """[chi_q(0), .., chi_q(q-1)]: the product of Legendre symbols (n/p)."""
    primes = _primes_of(q)

    def legendre(n: int, p: int) -> int:
        e = pow(n, (p - 1) // 2, p)
        return -1 if e == p - 1 else e

    chi = []
    for n in range(q):
        v = 1
        for p in primes:
            v *= legendre(n % p, p)
        chi.append(v)
    return chi


def anchor_Z(mpmath, q: int, t: float) -> str:
    """Z(t, chi_q) as a 30-digit decimal string."""
    with mpmath.workdps(_DPS):
        t = mpmath.mpf(t)
        L = mpmath.dirichlet(mpmath.mpc(0.5, t), character(q))
        theta = t / 2 * mpmath.log(q / mpmath.pi) + mpmath.im(mpmath.loggamma((0.5 + 1j * t) / 2))
        Z = mpmath.exp(1j * theta) * L
        if abs(mpmath.im(Z)) > mpmath.mpf(10) ** (10 - _DPS):
            raise ArithmeticError(f"e^(i theta) L is not real at q={q}, t={t}: {Z}")
        return mpmath.nstr(mpmath.re(Z), 30)


def main(argv: list[str]) -> int:
    try:
        import mpmath
    except ImportError:
        print("mpmath is not installed; the frozen literals stand", file=sys.stderr)
        return 0
    if argv == ["--check"]:
        from test_anchor import _ANCHOR

        worst = max(abs(mpmath.mpf(anchor_Z(mpmath, q, t)) - mpmath.mpf(z)) for q, t, z in _ANCHOR)
        print(f"worst gap to the frozen literals: {mpmath.nstr(worst, 3)}")
        return 0 if worst <= 1e-20 else 1
    for q, t in RECORDS:
        print(f'    ({q}, {t!r}, "{anchor_Z(mpmath, q, t)}"),', flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
