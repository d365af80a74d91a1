import math

import numpy as np
import pytest

from diraclab import (
    DomainError,
    Mode,
    ModeLattice,
    SubspaceTag,
    ZeroModePolicy,
    apply_e0,
    assemble_solution,
    convention_probe,
    decaying_trace_field,
    field,
    field_add,
    field_from_json,
    field_scale,
    field_to_json,
    generalized_sign,
    green_check,
    pairing_B,
    pairing_hermitian,
    pattern_second_weight,
    project,
    split,
)
from diraclab.boundary import _angular_factor, random_field
from diraclab.radial import RadialMode, decaying_solution

LAT1 = ModeLattice(dim_link=1, offset_t=0.5, cutoff=4)
LAT1_TRIVIAL = ModeLattice(dim_link=1, offset_t=0.0, cutoff=4)
LAT2 = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=3)


def single(lattice, mode, pair):
    return field(lattice, {mode: pair})


def test_project_pure_patterns_short_circuit():
    mode = Mode(1.0, 0.0)
    plus = single(LAT2, mode, (1.0, -1j))
    assert project(plus, SubspaceTag.EXP_PLUS) == plus
    assert project(plus, SubspaceTag.EXP_MINUS).coefficients == {}


def test_project_explicit_decomposition():
    # oracle: decompose (1, 0) onto (1, -i)/sqrt(2) and (1, i)/sqrt(2) at mode (1, 0)
    mode = Mode(1.0, 0.0)
    X = single(LAT2, mode, (1.0, 0.0))
    plus = project(X, SubspaceTag.EXP_PLUS)
    minus = project(X, SubspaceTag.EXP_MINUS)
    assert plus.pair(mode) == (0.5, -0.5j)
    assert minus.pair(mode) == (0.5, 0.5j)
    total = field_add(plus, minus)
    assert total.pair(mode) == (1.0, 0.0)
    assert abs(pairing_hermitian(plus, minus)) < 1e-15


def test_project_zero_mode_routes_to_kernel_summand():
    zero = Mode(0.0, 0.0)
    X = single(LAT2, zero, (0.3 + 1j, -0.4))
    assert project(X, SubspaceTag.KER_DSIGMA) == X
    assert project(X, SubspaceTag.EXP_PLUS).coefficients == {}
    assert project(X, SubspaceTag.EXP_MINUS).coefficients == {}


def test_zero_mode_policy_assignment():
    lat = ModeLattice(dim_link=1, offset_t=0.0, cutoff=2, zero_mode_policy=ZeroModePolicy.ASSIGN_MINUS)
    X = single(lat, Mode(0.0), (1.0, 2.0))
    assert project(X, SubspaceTag.EXP_MINUS) == X
    assert project(X, SubspaceTag.EXP_PLUS).coefficients == {}
    with pytest.raises(DomainError):
        project(X, SubspaceTag.KER_DSIGMA)


def test_zero_bearing_tags_need_zero_mode():
    X = single(LAT1, Mode(0.5), (1.0, 0.0))
    with pytest.raises(DomainError):
        project(X, SubspaceTag.KER_DSIGMA)


def test_exp_plus_zero_tag_collects_both():
    zero = Mode(0.0, 0.0)
    mode = Mode(1.0, 2.0)
    w = pattern_second_weight(SubspaceTag.EXP_PLUS, mode)
    X = field(LAT2, {zero: (1.0, 2.0), mode: (1.0, w)})
    got = project(X, SubspaceTag.EXP_PLUS_ZERO)
    assert got.pair(zero) == (1.0, 2.0)
    assert got.pair(mode) == (1.0, w)


def test_project_idempotent_on_random_fields():
    rng = np.random.default_rng(11)
    for lat in (LAT1, LAT1_TRIVIAL, LAT2):
        for _ in range(20):
            X = random_field(lat, rng)
            for tag in (SubspaceTag.EXP_PLUS, SubspaceTag.EXP_MINUS,
                        SubspaceTag.EEXP_PLUS, SubspaceTag.EEXP_MINUS):
                P = project(X, tag)
                assert project(P, tag) == P


def test_split_sums_exactly_and_matches_projections():
    rng = np.random.default_rng(23)
    total_modes = 0
    patterned_modes = 0
    for lat in (LAT1, LAT2):
        for _ in range(50):
            X = random_field(lat, rng)
            p, m, k = split(X)
            assert field_add(field_add(p, m), k) == X
            pp = project(X, SubspaceTag.EXP_PLUS)
            mm = project(X, SubspaceTag.EXP_MINUS)
            for mode in X.modes():
                if mode.is_zero:
                    continue
                total_modes += 1
                w = pattern_second_weight(SubspaceTag.EXP_PLUS, mode)
                v = pattern_second_weight(SubspaceTag.EXP_MINUS, mode)
                pm, mp = p.pair(mode), m.pair(mode)
                if pm[1] == w * pm[0] or mp[1] == v * mp[0]:
                    patterned_modes += 1
                    err = max(
                        abs(pm[i] - pp.pair(mode)[i]) for i in (0, 1)
                    ) + max(abs(mp[i] - mm.pair(mode)[i]) for i in (0, 1))
                    assert err < 1e-12
    # the always-exact halving fallback must stay a rare corner case
    assert patterned_modes > 0.99 * total_modes


def test_apply_e0_action_and_square():
    mode = Mode(0.5)
    assert apply_e0(single(LAT1, mode, (1.0, 0.0))).pair(mode) == (0.0, -1.0)
    assert apply_e0(single(LAT1, mode, (0.0, 1.0))).pair(mode) == (1.0, 0.0)
    rng = np.random.default_rng(3)
    X = random_field(LAT2, rng)
    assert apply_e0(apply_e0(X)) == field_scale(X, -1.0)
    # isometry for the Hermitian pairing
    Y = random_field(LAT2, rng)
    assert pairing_hermitian(apply_e0(X), apply_e0(Y)) == pytest.approx(
        pairing_hermitian(X, Y), rel=1e-14
    )


def test_pairing_hermitian_values():
    mode = Mode(1.0, 0.0)
    X = single(LAT2, mode, (1.0, -1j))
    assert pairing_hermitian(X, X) == 2.0
    s = generalized_sign(mode)
    plus = single(LAT2, mode, (1.0, -1j * s))
    minus = single(LAT2, mode, (1.0, 1j * s))
    assert abs(pairing_hermitian(plus, minus)) < 1e-15
    other = single(LAT2, Mode(2.0, 1.0), (1.0, 1.0))
    assert pairing_hermitian(X, other) == 0.0
    with pytest.raises(DomainError):
        pairing_hermitian(X, single(LAT1, Mode(0.5), (1.0, 0.0)))


def test_pairing_B_values():
    mode = Mode(0.5)
    X = single(LAT1, mode, (1.0, 0.0))
    Y = single(LAT1, mode, (0.0, -1.0))
    assert pairing_B(X, Y) == -1.0
    assert pairing_B(X, X) == 0.0
    # value of the form on the plus pattern pins the convention
    P = single(LAT1, mode, (1.0, -1j))
    assert pairing_B(P, P) == 2j
    # bilinear convention pairs a mode against its negative
    A = single(LAT1, Mode(0.5), (1.0, 0.0))
    B = single(LAT1, Mode(-0.5), (0.0, 1.0))
    assert pairing_B(A, B, convention="bilinear") == 1.0
    assert pairing_B(A, B, convention="hermitian") == 0.0


def test_e0_maps_patterns_onto_mirrored_families():
    from diraclab import enumerate_modes

    for lat in (LAT2, ModeLattice(dim_link=2, offset_t=0.5, offset_s=0.5, cutoff=3)):
        for mode in enumerate_modes(lat):
            if mode.is_zero:
                continue
            for coeff in (1.0, 1j, 0.3 - 0.2j):
                plus = single(lat, mode, (coeff, pattern_second_weight(SubspaceTag.EXP_PLUS, mode) * coeff))
                image = apply_e0(plus)
                # the defining invariant: no component in the like-signed mirror family
                assert project(image, SubspaceTag.EEXP_PLUS).coefficients == {}
                back = project(image, SubspaceTag.EEXP_MINUS)
                assert field_add(back, field_scale(image, -1.0)).norm() < 1e-14
                minus = single(lat, mode, (coeff, pattern_second_weight(SubspaceTag.EXP_MINUS, mode) * coeff))
                image = apply_e0(minus)
                assert project(image, SubspaceTag.EEXP_MINUS).coefficients == {}
                back = project(image, SubspaceTag.EEXP_PLUS)
                assert field_add(back, field_scale(image, -1.0)).norm() < 1e-14


def test_decaying_traces_are_minus_patterned():
    lat = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=8)
    from diraclab import enumerate_modes

    for mode in enumerate_modes(lat):
        if mode.is_zero:
            continue
        f = decaying_trace_field(lat, mode, coeff=0.7 - 0.2j)
        assert project(f, SubspaceTag.EXP_MINUS) == f


def test_serialization_round_trip_is_exact():
    rng = np.random.default_rng(5)
    for lat in (LAT1, LAT2):
        X = random_field(lat, rng, balanced=False)
        Y = field_from_json(field_to_json(X))
        assert Y == X


def test_green_check_matched_pair_small_residual():
    m = Mode(1.0)
    v = [assemble_solution(0, 1.0, 1.0, 0.3, link_mode=m)]
    w = [assemble_solution(0, 1.0, 0.5, -0.2j, link_mode=m)]
    assert green_check(v, w, R=2.0, quad_n=64) < 1e-10


def test_green_check_empty_second_list():
    m = Mode(1.0)
    v = [assemble_solution(0, 1.0, 1.0, 0.0, link_mode=m)]
    assert green_check(v, [], R=2.0, quad_n=16) == 0.0


def test_green_check_sqrt_z_pair_has_vanishing_inner_term():
    # the sqrt(z)-type solution has no 1/sqrt(r) part: the identity reduces
    # to outer-flux consistency and the residual stays at roundoff
    m = Mode(1.0)
    sol = assemble_solution(-1, 0.0, 0.0, 1.0, link_mode=m)
    assert sol.r_minus_half_coefficients() == (0.0, 0.0)
    assert green_check([sol], [sol], R=2.0, quad_n=32) < 1e-12


def test_green_check_negative_circle_mode():
    m = Mode(-2.0)
    v = [assemble_solution(0, 2.0, 1.0, 0.1, link_mode=m)]
    w = [decaying_solution(0, 2.0, link_mode=m)]
    assert green_check(v, w, R=2.0, quad_n=48) < 1e-10


def test_green_check_convergence_on_annulus_identity():
    m = Mode(1.0)
    v = [assemble_solution(0, 1.0, 1.0, 0.2, link_mode=m)]
    w = [RadialMode(k=0, a=5.0, u_plus=0.4 + 0j, u_minus=-0.3 + 0.1j, growth="growing", link_mode=m)]
    ladder = [green_check(v, w, R=2.0, quad_n=n, inner="edge") for n in (4, 8, 16, 32)]
    assert ladder[1] < ladder[0] / 4
    assert ladder[-1] < 1e-8


def test_green_check_requires_placement():
    sol = assemble_solution(0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        green_check([sol], [sol], R=2.0, quad_n=8)


def test_convention_probe_findings():
    report = convention_probe()
    assert report["lagrangian_realized_by"] == ["hermitian-real/conjugated"]
    assert report["lagrangian_isotropy_residuals"]["hermitian/standard"] > 0.1
    assert report["e0_exp_to_mirrored_families_residual"] < 1e-12
    assert report["e0_plus_pattern_stays_plus_fraction"] == pytest.approx(1.0)


def test_green_check_refinement_guard():
    # with the r->0 inner term, a mismatched pair is limited by the inner
    # quadrature edge: once the quadrature resolves everything else the
    # residual stops decreasing and the guard reports nonconvergence
    from diraclab import NumericError

    m = Mode(1.0)
    v = [assemble_solution(0, 1.0, 1.0, 0.2, link_mode=m)]
    w = [RadialMode(k=0, a=2.2, u_plus=0.4 + 0j, u_minus=-0.3 + 0.1j, growth="growing", link_mode=m)]
    with pytest.raises(NumericError):
        green_check(v, w, R=2.0, quad_n=64, inner="leading", check_refinement=True)
    # the annulus identity for the same pair converges and stays quiet
    assert green_check(v, w, R=2.0, quad_n=64, inner="edge", check_refinement=True) < 1e-8


def test_serialization_includes_zero_mode_and_policy():
    lat = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=2)
    X = field(lat, {Mode(0.0, 0.0): (0.1 + 0.2j, -0.3j), Mode(1.0, -2.0): (1.0, 2.0)})
    Y = field_from_json(field_to_json(X))
    assert Y == X
    assert Y.lattice.zero_mode_policy == lat.zero_mode_policy


def _trapezoid_loop(delta, n):
    """Reference: the node-by-node trapezoid sum of exp(i*delta*x) over [0, 2pi)."""
    total = 0.0 + 0.0j
    for j in range(n):
        total += np.exp(1j * delta * (2.0 * math.pi * j / n))
    return total * (2.0 * math.pi / n)


@pytest.mark.parametrize("n", [3, 5, 19, 35])
def test_angular_factor_closed_form_matches_node_sum(n):
    for twice in range(-80, 81):  # integer and half-integer delta, multiples of n included
        delta = twice / 2.0
        got = _angular_factor(delta, n)
        ref = _trapezoid_loop(delta, n)
        assert abs(got - ref) < 1e-13, (delta, n, got, ref)
        if delta % n == 0:
            assert got == 2.0 * math.pi
