"""An outside anchor: Z(t, chi_q) frozen from Hurwitz zeta values.

tests/make_anchor.py computed every literal with mpmath alone (L from
mpmath.dirichlet, theta from mpmath.loggamma), so no kernel, smoothed sum or
phase of this package went into them.  run_batch on the conductor's own
window must land within its record's error_bound, and direct_Z within
epsilon/4; each case prints its deviation as a share of the bound.
"""

import pytest

from qlbatch import BatchRequest, Window, direct_Z, run_batch

_EPS = 1e-8

# (q, t, Z at 30 digits) from tests/make_anchor.py
_ANCHOR = [
    (101, 0.0, "0.544277734641398348902890925617"),
    (101, 0.3, "0.584547276934769878706131841526"),
    (101, 1.0, "0.270633906283119016194474984205"),
    (101, 7.0, "1.4540754877006993517792197565"),
    (101, 10.0, "0.28431035247437078313593889071"),
    (105, 0.3, "2.00387819598541139133715128803"),
    (105, 10.0, "3.74680611456154018752890344125"),
    (1009, 0.0, "5.02077048500457012829206051247"),
    (1009, 7.0, "-0.995298744608095595642786072439"),
    (1365, 1.0, "-0.509160358153969931365671716183"),
    (1365, 10.0, "-1.17079378984151544799681256987"),
    (5005, 0.3, "1.27054714562362000358495044885"),
    (5005, 7.0, "1.32907722017713152258685147858"),
    (10001, 0.0, "3.26437333472699958243374508177"),
    (10001, 10.0, "-1.65596790762507768422254786114"),
    (10005, 1.0, "-1.53701372190739322291858100822"),
]


@pytest.mark.filterwarnings("ignore::UserWarning")  # |t| > 1 warns
@pytest.mark.parametrize("q,t,z", _ANCHOR)
def test_fast_path_and_oracle_meet_the_anchor(q, t, z):
    result = run_batch(BatchRequest(Window(q, 1), t, _EPS))
    assert result.q.tolist() == [q]
    dev = abs(result.Z[0] - float(z))
    oracle_dev = abs(direct_Z(q, t, _EPS).Z - float(z))
    print(
        f"anchor q={q} t={t:g}: fast {dev:.1e} = {dev / result.error_bound[0]:.1e} "
        f"of its bound, oracle {oracle_dev:.1e} = {oracle_dev / (_EPS / 4):.1e} of eps/4"
    )
    assert dev <= result.error_bound[0]
    assert oracle_dev <= _EPS / 4


def test_generator_reproduces_a_literal():
    mpmath = pytest.importorskip("mpmath")
    from make_anchor import anchor_Z

    q, t, z = _ANCHOR[0]
    assert abs(mpmath.mpf(anchor_Z(mpmath, q, t)) - mpmath.mpf(z)) <= 1e-20
