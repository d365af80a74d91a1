import math

import numpy as np
import pytest

from diraclab import (
    DomainError,
    Mode,
    NumericError,
    assemble_solution,
    bessel_series,
    classify_regularity,
    decaying_solution,
    decaying_trace,
    generalized_sign,
    modified_bessel_k_half,
    radial_rhs,
)
from diraclab.radial import (
    GROWTH_DECAYING,
    GROWTH_GROWING,
    GROWTH_POLYNOMIAL,
    SUPPORTED_AR,
    bessel_series_prime,
    branch_block,
    modified_bessel_k_half_prime,
)


def closed_form_half(a, r):
    """Oracle: J[1/2, a](r) via I_{1/2}(x) = sqrt(2/(pi x)) sinh x."""
    x = a * r
    return a ** (-0.5) * math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)


def closed_form_minus_half(a, r):
    x = a * r
    return a ** (0.5) * math.sqrt(2.0 / (math.pi * x)) * math.cosh(x)


def test_series_against_half_order_closed_forms():
    worst = 0.0
    for ar in np.geomspace(0.01, 20.0, 80):
        for a in (0.5, 2.0, 5.0):
            r = ar / a
            for p, oracle in ((0.5, closed_form_half), (-0.5, closed_form_minus_half)):
                ref = oracle(a, r)
                worst = max(worst, abs(bessel_series(p, a, r) - ref) / abs(ref))
    assert worst < 1e-12


def test_series_spec_point_values():
    # p=1/2, a=2, r=1: 2^{-1/2} sqrt(1/pi) sinh 2
    assert bessel_series(0.5, 2.0, 1.0) == pytest.approx(
        2 ** (-0.5) * math.sqrt(1 / math.pi) * math.sinh(2.0), rel=1e-13
    )
    # p=-1/2, a=2, r=1: 2^{1/2} sqrt(1/pi) cosh 2
    assert bessel_series(-0.5, 2.0, 1.0) == pytest.approx(
        2 ** (0.5) * math.sqrt(1 / math.pi) * math.cosh(2.0), rel=1e-13
    )
    # degenerate eigenvalue: plain power of r
    assert bessel_series(1.5, 0.0, 4.0) == 8.0


def test_series_domain_and_convergence_errors():
    with pytest.raises(DomainError):
        bessel_series(0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        bessel_series(0.5, 1.0, -1.0)
    with pytest.raises(DomainError):
        bessel_series(1.0, 1.0, 1.0)  # integer order is outside the contract
    with pytest.raises(NumericError):
        bessel_series(0.5, 1e4, 1.0)  # far outside the supported a*r range


def test_series_prime_matches_finite_differences():
    for p in (-2.5, -0.5, 0.5, 3.5):
        for a in (0.0, 1.3):
            r, h = 0.8, 1e-5
            fd = (
                8 * (bessel_series(p, a, r + h) - bessel_series(p, a, r - h))
                - (bessel_series(p, a, r + 2 * h) - bessel_series(p, a, r - 2 * h))
            ) / (12 * h)
            assert bessel_series_prime(p, a, r) == pytest.approx(fd, rel=1e-9, abs=1e-9)


def test_radial_rhs_matrix_values():
    assert radial_rhs(0, 0.0, (1.0, 1.0), 1.0) == (-0.5, -0.5)
    assert radial_rhs(1, 2.0, (1.0, 0.0), 2.0) == (0.25, -2.0)
    assert radial_rhs(0, 1.0, (0.0, 1.0), 1.0) == (-1.0, -0.5)
    with pytest.raises(DomainError):
        radial_rhs(0, 1.0, (1.0, 0.0), 0.0)


def test_assemble_degenerate_eigenvalue_powers():
    sol = assemble_solution(0, 0.0, 1.0, 0.0)
    for r in (0.3, 1.0, 2.5):
        v = sol.value(r)
        assert v[0] == pytest.approx(r ** (-0.5), rel=1e-14)
        assert v[1] == 0.0
    # the sqrt(z)-type regular branch lives at angular index -1
    sol2 = assemble_solution(-1, 0.0, 0.0, 1.0)
    for r in (0.3, 1.0, 2.5):
        v = sol2.value(r)
        assert v[0] == 0.0
        assert v[1] == pytest.approx(r ** 0.5, rel=1e-14)
    # mirrored orders: at k=0 the second branch is 1/sqrt(r), not sqrt(r)
    sol3 = assemble_solution(0, 0.0, 0.0, 1.0)
    assert sol3.value(1.44)[1] == pytest.approx(1.2 ** (-1.0), rel=1e-14)


def test_assemble_value_spec_case():
    sol = assemble_solution(0, 1.0, 1.0, 0.0)
    v = sol.value(1.0)
    assert v[0] == pytest.approx(bessel_series(-0.5, 1.0, 1.0), rel=1e-14)
    assert v[1] == pytest.approx(-bessel_series(0.5, 1.0, 1.0), rel=1e-14)


@pytest.mark.parametrize("k", [-3, -1, 0, 2])
@pytest.mark.parametrize("a", [0.0, 0.7, 2.0])
@pytest.mark.parametrize("coeffs", [(1.0, 0.0), (0.0, 1.0), (0.4 - 0.3j, 1.1 + 0.2j)])
def test_assembled_solutions_satisfy_the_system(k, a, coeffs):
    sol = assemble_solution(k, a, *coeffs)
    for r in (0.11, 0.63, 1.7):
        h = 1e-4 * r / (abs(k) + 1)
        val = sol.value(r)
        scale = max(1.0, abs(val[0]), abs(val[1]))
        for comp in (0, 1):
            fd = (
                8 * (sol.value(r + h)[comp] - sol.value(r - h)[comp])
                - (sol.value(r + 2 * h)[comp] - sol.value(r - 2 * h)[comp])
            ) / (12 * h)
            rhs = complex(
                radial_rhs(k, a, (val[0].real, val[1].real), r)[comp],
                radial_rhs(k, a, (val[0].imag, val[1].imag), r)[comp],
            )
            assert abs(fd - rhs) / scale < 1e-8


def test_straight_order_second_branch_fails_the_system():
    # regression pin for the mirrored-order convention: the straight-order
    # combination (-a J[k-1/2], J[k+1/2]) is not a solution away from a = 1
    k, a, r = 1, 2.0, 0.8

    def straight(rr):
        return (-a * bessel_series(k - 0.5, a, rr), bessel_series(k + 0.5, a, rr))

    h = 1e-5
    fd0 = (8 * (straight(r + h)[0] - straight(r - h)[0])
           - (straight(r + 2 * h)[0] - straight(r - 2 * h)[0])) / (12 * h)
    rhs0 = radial_rhs(k, a, straight(r), r)[0]
    assert abs(fd0 - rhs0) > 1e-2


def test_growth_tags():
    assert assemble_solution(0, 0.0, 1.0, 1.0).growth == GROWTH_POLYNOMIAL
    assert assemble_solution(0, 2.0, 1.0, 0.3).growth == GROWTH_GROWING
    assert assemble_solution(0, 2.0, 1.0, 1.0).growth == GROWTH_DECAYING
    assert decaying_solution(1, 2.0).growth == GROWTH_DECAYING
    with pytest.raises(DomainError):
        assemble_solution(0, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        decaying_solution(0, 0.0)


def test_decaying_solution_is_the_macdonald_pair():
    for k in (-2, 0, 1):
        for a in (0.5, 2.0):
            sol = decaying_solution(k, a)
            for r in (0.4, 1.1):
                v = sol.value(r)
                pref = (2.0 / math.pi) * (-1.0) ** k
                assert v[0] == pytest.approx(pref * modified_bessel_k_half(k - 0.5, a * r), rel=1e-14)
                assert v[1] == pytest.approx(pref * modified_bessel_k_half(k + 0.5, a * r), rel=1e-14)
            assert abs(sol.value(30.0 / a)[0]) < 1e-10 * abs(sol.value(1.0 / a)[0])


def test_decaying_matches_bessel_branch_combination_at_moderate_radius():
    # cross-validation in the regime where the I-branch cancellation is mild
    k, a = 1, 1.5
    direct = decaying_solution(k, a)
    ray = (a ** (k - 0.5), a ** (-k - 0.5))

    def by_branches(r):
        p, q = k - 0.5, k + 0.5
        c1 = ray[0] * bessel_series(p, a, r) - ray[1] * a * bessel_series(-p, a, r)
        c2 = -ray[0] * a * bessel_series(q, a, r) + ray[1] * bessel_series(-q, a, r)
        return c1, c2

    for r in (0.2, 0.8, 1.5):
        v = direct.value(r)
        w = by_branches(r)
        assert v[0] == pytest.approx(w[0], rel=1e-10, abs=1e-12)
        assert v[1] == pytest.approx(w[1], rel=1e-10, abs=1e-12)


def test_classify_regularity_cases():
    c = classify_regularity(assemble_solution(0, 0.0, 1.0, 0.0))
    assert (c.tag, c.leading_exponent) == ("L2", -0.5)
    c = classify_regularity(assemble_solution(-1, 0.0, 0.0, 1.0))
    assert (c.tag, c.leading_exponent) == ("L2_1", 0.5)
    c = classify_regularity(assemble_solution(-1, 0.0, 1.0, 0.0))
    assert (c.tag, c.leading_exponent) == ("neither", -1.5)
    c = classify_regularity(decaying_solution(0, 1.0))
    assert (c.tag, c.leading_exponent) == ("L2", -0.5)
    c = classify_regularity(decaying_solution(2, 1.0))
    assert c.tag == "neither"


def test_classify_regularity_tag_exponent_contract():
    for k in range(-4, 5):
        for coeffs in ((1.0, 0.0), (0.0, 1.0)):
            cls = classify_regularity(assemble_solution(k, 0.0, *coeffs))
            if cls.tag == "L2_1":
                assert cls.leading_exponent >= 0.5
            if cls.tag == "L2":
                assert cls.leading_exponent >= -0.5


def test_classify_regularity_monotone_per_branch():
    def rank(tag):
        return {"neither": 0, "L2": 1, "L2_1": 2}[tag]

    # raising k never lowers the class of the regular branch, and never
    # raises the class of the mirrored branch
    for k in range(-4, 4):
        up_lo = rank(classify_regularity(assemble_solution(k, 0.0, 1.0, 0.0)).tag)
        up_hi = rank(classify_regularity(assemble_solution(k + 1, 0.0, 1.0, 0.0)).tag)
        assert up_hi >= up_lo
        dn_lo = rank(classify_regularity(assemble_solution(k, 0.0, 0.0, 1.0)).tag)
        dn_hi = rank(classify_regularity(assemble_solution(k + 1, 0.0, 0.0, 1.0)).tag)
        assert dn_hi <= dn_lo


def test_decaying_trace_values():
    assert decaying_trace(Mode(1.0, 0.0)) == (1.0, 1j)
    # substitute sign(0, 1) = i
    assert decaying_trace(Mode(0.0, 1.0)) == (1.0, -1.0)
    assert decaying_trace(Mode(-1.0)) == (1.0, -1j)
    with pytest.raises(DomainError):
        decaying_trace(Mode(0.0, 0.0))


def test_decaying_trace_is_plus_i_sign_everywhere():
    for l in range(-5, 6):
        for m in range(-5, 6):
            if l == 0 and m == 0:
                continue
            mode = Mode(float(l), float(m))
            assert decaying_trace(mode) == (1.0, 1j * generalized_sign(mode))


def test_trace_coefficients_of_radial_solutions():
    got = decaying_solution(0, 2.0).r_minus_half_coefficients()
    pref = (2.0 / math.pi) * 0.5 * math.gamma(0.5) * (2.0 / 2.0) ** 0.5
    assert got[0] == pytest.approx(pref, rel=1e-13)
    assert got[1] == pytest.approx(pref, rel=1e-13)
    with pytest.raises(DomainError):
        decaying_solution(2, 1.0).r_minus_half_coefficients()


# ---------------------------------------------------------------------------
# array-valued evaluation

RADII = np.linspace(0.05, 2.0, 50)
ARRAY_ORDERS = [s * (j + 0.5) for j in range(9) for s in (-1, 1)]  # +-1/2 ... +-17/2


def _rel(x, y):
    return abs(x - y) / abs(y) if y != 0 else abs(x)


def _series_loop(p, a, r):
    """Reference: the term-by-term scalar series in plain Python floats."""
    if a == 0.0:
        return r**p
    half = 0.5 * (a * r)
    term = half**p / math.gamma(p + 1.0)
    total = term
    for n in range(10_000):
        term *= half * half / ((n + 1.0) * (n + p + 1.0))
        total += term
        if abs(term) < 1e-16 * abs(total) + 1e-300:
            return a ** (-p) * total
    raise AssertionError("reference series did not converge")


def _k_half_loop(p, x):
    """Reference: the half-odd-order K closed form in plain Python floats."""
    m = int(round(abs(p) - 0.5))
    s = 0.0
    for j in range(m + 1):
        s += math.factorial(m + j) / (math.factorial(j) * math.factorial(m - j) * (2.0 * x) ** j)
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * s


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 3.5, 8.0])
def test_bessel_series_array_matches_scalar(a):
    worst = 0.0
    for p in ARRAY_ORDERS:
        got = bessel_series(p, a, RADII)
        assert got.shape == RADII.shape
        for r, v in zip(RADII, got):
            worst = max(worst, _rel(v, bessel_series(p, a, float(r))), _rel(v, _series_loop(p, a, float(r))))
    # orders broadcast against the radii in one call
    block = bessel_series(np.array(ARRAY_ORDERS)[:, None], a, RADII)
    for i, p in enumerate(ARRAY_ORDERS):
        for r, v in zip(RADII, block[i]):
            worst = max(worst, _rel(v, bessel_series(p, a, float(r))))
    assert worst <= 1e-15


def test_series_prime_and_k_half_array_match_scalar():
    worst = 0.0
    for p in ARRAY_ORDERS:
        for a in (0.0, 1.0, 3.5):
            got = bessel_series_prime(p, a, RADII)
            worst = max(worst, max(_rel(v, bessel_series_prime(p, a, float(r))) for r, v in zip(RADII, got)))
        x = 4.0 * RADII
        got = modified_bessel_k_half(p, x)
        worst = max(worst, max(_rel(v, _k_half_loop(p, float(xi))) for xi, v in zip(x, got)))
        for fn in (modified_bessel_k_half, modified_bessel_k_half_prime):
            got = fn(p, x)
            worst = max(worst, max(_rel(v, fn(p, float(xi))) for xi, v in zip(x, got)))
    assert worst <= 1e-15


@pytest.mark.parametrize("sol", [
    assemble_solution(2, 1.5, 1.0, 0.3 - 0.2j),  # growing
    assemble_solution(-3, 0.0, 0.4, 1.1j),  # polynomial
    assemble_solution(1, 2.0, 0.0, 1.0),  # mirrored branch only
    decaying_solution(-2, 3.5),  # decaying
    assemble_solution(0, 1.0, 1.0, 1.0),  # rerouted onto the decaying ray
], ids=["growing", "polynomial", "mirrored", "decaying", "rerouted"])
def test_radial_mode_array_matches_scalar(sol):
    for method in (sol.value, sol.derivative):
        arr = method(RADII)
        for i, r in enumerate(RADII):
            scalar = method(float(r))
            for comp in (0, 1):
                assert _rel(arr[comp][i], scalar[comp]) <= 1e-15
    # a shared branch block gives the same values as a fresh evaluation
    if sol.growth != GROWTH_DECAYING:
        shared = sol.value(RADII, block=branch_block(sol.k, sol.a, RADII))
        assert all(np.array_equal(x, y) for x, y in zip(shared, sol.value(RADII)))


def test_scalar_in_scalar_out():
    assert type(bessel_series(0.5, 1.0, 0.7)) is float
    assert type(bessel_series(0.5, 0.0, 0.7)) is float
    assert type(bessel_series(0.5, 1.0, np.float64(0.7))) is float
    assert type(bessel_series_prime(-1.5, 1.0, 0.7)) is float
    assert type(modified_bessel_k_half(2.5, 0.7)) is float
    assert type(modified_bessel_k_half_prime(2.5, 0.7)) is float
    for sol in (assemble_solution(1, 2.0, 1.0, 0.5), decaying_solution(1, 2.0)):
        assert all(type(c) is complex for c in sol.value(0.7) + sol.derivative(0.7))


def test_array_with_one_nonpositive_radius_raises():
    for bad in (0.0, -0.3):
        r = RADII.copy()
        r[17] = bad
        with pytest.raises(DomainError):
            bessel_series(0.5, 1.0, r)
        with pytest.raises(DomainError):
            bessel_series(0.5, 0.0, r)
        with pytest.raises(DomainError):
            modified_bessel_k_half(0.5, r)
        with pytest.raises(DomainError):
            assemble_solution(0, 1.0, 1.0, 0.2).value(r)


def test_array_with_one_entry_outside_supported_range_raises():
    r = RADII.copy()
    r[3] = 200.0 * SUPPORTED_AR
    with pytest.raises(NumericError):
        bessel_series(0.5, 1.0, r)
