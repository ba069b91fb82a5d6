"""Tests for the Gauss-Chebyshev quadrature rule behind the closed forms.

Reference values are exact integrals of the rule's target functions or
frozen normalization levels; tolerances are close to float64 roundoff.
"""

import math

import pytest

from risnoma.analytic import chebyshev_rule


# ------------------------------------------------------------- quadrature

def test_chebyshev_rule_basic_structure():
    rule = chebyshev_rule(50)
    assert len(rule.nodes) == 50 and len(rule.weights) == 50
    assert all(-1.0 < x < 1.0 for x in rule.nodes)
    assert all(w > 0.0 for w in rule.weights)
    with pytest.raises(ValueError):
        chebyshev_rule(0)
    # one cached rule is shared by every caller, so its arrays are read-only
    assert chebyshev_rule(50) is rule
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable


def test_chebyshev_rule_semicircle_exactness():
    # The rule integrates sqrt(1-x^2) exactly (pi/2) for every order >= 2;
    # order 1 is the documented exception (single node at 0, weight pi,
    # giving pi instead of pi/2).
    for order in (2, 3, 5, 17, 50):
        rule = chebyshev_rule(order)
        total = math.fsum(w * math.sqrt(1.0 - x * x) for x, w in zip(rule.nodes, rule.weights))
        assert total == pytest.approx(math.pi / 2.0, abs=5e-15)
    one = chebyshev_rule(1)
    total = math.fsum(w * math.sqrt(1.0 - x * x) for x, w in zip(one.nodes, one.weights))
    assert total == pytest.approx(math.pi, abs=5e-15)


def test_chebyshev_rule_weight_sum_order_100():
    # sum of weights = integral of 1/sqrt(1-x^2) sampled by the rule;
    # frozen value documents the rule normalization at high order
    rule = chebyshev_rule(100)
    assert math.fsum(rule.weights) == pytest.approx(2.0000822490709864, rel=1e-14)


def test_chebyshev_rule_exact_for_polynomials_times_semicircle():
    # the weights carry the sqrt(1-x^2) factor, so the rule is exact for
    # integrands of the form p(x) * sqrt(1-x^2) with p a low-degree
    # polynomial; int x^2 sqrt(1-x^2) dx over [-1,1] = pi/8
    for order in (3, 8, 50):
        rule = chebyshev_rule(order)
        total = math.fsum(
            w * (x * x) * math.sqrt(1.0 - x * x) for x, w in zip(rule.nodes, rule.weights)
        )
        assert total == pytest.approx(math.pi / 8.0, abs=5e-15)
