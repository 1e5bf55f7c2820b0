"""Resolution data against the polynomial they are said to resolve.

The T^k coefficient of Denef-Loeser's motivic zeta function Z(T), computed
from a datum and the log discrepancy of each component, counts the arcs of f
of order k and angular component t over F_q (J. Algebraic Geom. 7, 1998).
validate_datum checks chi, gcds and locus tags only, so a cover with the right
chi and the wrong geometry passes it; the arc counts do not.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from motivic import MuClass, SNCDatum, Stratum, validate_datum

from conftest import blowup_datum, power_datum
from oracles import sum_of_powers_counts, zeta_coefficient


def _mismatches(datum, nu, n, r, q, k_max):
    """The (k, t) at which Z(T) of the datum does not count the arcs of sum_{i <= r} x_i^n."""
    found = []
    for k in range(1, k_max + 1):
        arcs = sum_of_powers_counts(n, r, q, k)
        found += [(k, t) for t in range(1, q)
                  if zeta_coefficient(datum, nu, q, t, k) != Fraction(arcs[t], q ** (k * r))]
    return found


# (datum, {component: nu}, n, r, q): the datum resolves x_1^n + ... + x_r^n, and
# q = 1 mod 2n, so every line of the zero set is defined over F_q
_CASES = [
    (power_datum(2), {"E1": 1}, 2, 1, 5),
    (power_datum(3), {"E1": 1}, 3, 1, 7),
    (blowup_datum(2), {"E": 2, "D1": 1, "D2": 1}, 2, 2, 5),
    (blowup_datum(3), {"E": 2, "D1": 1, "D2": 1, "D3": 1}, 3, 2, 7),
]


@pytest.mark.parametrize("datum, nu, n, r, q", _CASES,
                         ids=["x^2 at q=5", "x^3 at q=7", "x^2+y^2 at q=5", "x^3+y^3 at q=7"])
def test_the_zeta_function_of_a_datum_counts_the_arcs_of_its_polynomial(datum, nu, n, r, q):
    # k <= 4 reaches the strata {E, D_j} of the blow-up, which enter at k = n + 1
    assert _mismatches(datum, nu, n, r, q, k_max=4) == []


def test_a_cover_with_the_right_chi_and_the_wrong_geometry_miscounts_arcs():
    n, datum = 2, blowup_datum(2)
    lef, one, orbit = MuClass.lefschetz(), MuClass.one(), MuClass.orbit(n)
    # E's cover FER(n,2) + 2 ORB(n) replaced by (L + 1 - n) ORB(n): the same chi
    strata = [Stratum(s.index_set, s.base_class, (lef + (1 - n) * one) * orbit, s.locus)
              if s.index_set == {"E"} else s for s in datum.strata]
    mutant = SNCDatum(datum.components, strata, datum.fiber_regular, datum.fiber_singular)
    assert mutant != datum and validate_datum(mutant) == []
    assert _mismatches(mutant, {"E": 2, "D1": 1, "D2": 1}, n, 2, 5, k_max=4) != []
