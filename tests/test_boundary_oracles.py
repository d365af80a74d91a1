"""The array kernels of the boundary-field layer against the per-mode code they replaced.

Each oracle below is the earlier scalar implementation: ``split`` with its
per-mode ulp search, ``project`` with its per-mode projection, the dict
``poly_mul`` and the loop field builder ``engine_kernel_field``.  Results must
agree bit for bit, including the sign of zero, and list modes in the same
order.
"""

import itertools
import math

import numpy as np
import pytest

from diraclab import (
    DomainError,
    Mode,
    ModeLattice,
    SubspaceTag,
    ZeroModePolicy,
    build_T_full,
    field,
    pattern_second_weight,
    project,
    random_symbol,
    split,
)
from diraclab import engine, verify
from diraclab.boundary import pair_field, random_field, zero_mode_home
from diraclab.lattice import enumerate_modes

# ---------------------------------------------------------------------------
# oracles


def project_pair_loop(pair, w):
    x, y = pair
    if y == w * x:
        return (x, y)
    c = 0.5 * (x + w.conjugate() * y)
    return (c, w * c)


def project_loop(fld, tag):
    lattice = fld.lattice
    if tag in (SubspaceTag.KER_DSIGMA, SubspaceTag.EXP_PLUS_ZERO, SubspaceTag.EEXP_MINUS_ZERO):
        if not lattice.contains_zero_mode or lattice.zero_mode_policy is not ZeroModePolicy.SEPARATE:
            raise DomainError("zero-bearing tag on this lattice")
    home = zero_mode_home(lattice)
    out = {}
    for mode, pair in fld.coefficients.items():
        if mode.is_zero:
            if tag is home or (
                tag in (SubspaceTag.EXP_PLUS_ZERO, SubspaceTag.EEXP_MINUS_ZERO)
                and home is SubspaceTag.KER_DSIGMA
            ):
                out[mode] = pair
            continue
        if tag is SubspaceTag.KER_DSIGMA:
            continue
        out[mode] = project_pair_loop(pair, pattern_second_weight(tag, mode))
    return field(lattice, out)


def complement_component_loop(total, part):
    m = total - part
    if part + m == total:
        return m, True
    for _ in range(3):
        overshoot = (part + m) - total
        m = np.nextafter(m, -math.inf) if overshoot > 0 else np.nextafter(m, math.inf)
        if part + m == total:
            return m, True
    return total - part, False


def complement_pair_loop(total, part):
    out = []
    ok = True
    for t, p in zip(total, part):
        mr, okr = complement_component_loop(t.real, p.real)
        mi, oki = complement_component_loop(t.imag, p.imag)
        out.append(complex(mr, mi))
        ok = ok and okr and oki
    return (out[0], out[1]), ok


def ulp_steps_loop(x, radius):
    down, up = [x], [x]
    for _ in range(radius):
        down.append(np.nextafter(down[-1], -math.inf))
        up.append(np.nextafter(up[-1], math.inf))
    return [x] + down[1:] + up[1:]


def ulp_candidates_loop(c, radius=2):
    cands = [complex(re, im) for re in ulp_steps_loop(c.real, radius) for im in ulp_steps_loop(c.imag, radius)]
    cands.sort(key=lambda z: (abs(z.real - c.real) + abs(z.imag - c.imag), z.real, z.imag))
    return cands


def split_mode_loop(pair, w, v):
    """Plus and minus parts at one mode, and the branch that produced them."""
    x, y = pair
    if y == w * x:
        return pair, (0.0 + 0.0j, 0.0 + 0.0j), "pure-plus"
    if y == v * x:
        return (0.0 + 0.0j, 0.0 + 0.0j), pair, "pure-minus"
    c_plus = 0.5 * (x + w.conjugate() * y)
    for cand in ulp_candidates_loop(c_plus):
        p = (cand, w * cand)
        m, ok = complement_pair_loop(pair, p)
        if ok:
            return p, m, "plus"
    c_minus = 0.5 * (x + v.conjugate() * y)
    for cand in ulp_candidates_loop(c_minus):
        m2 = (cand, v * cand)
        p2, ok = complement_pair_loop(pair, m2)
        if ok:
            return p2, m2, "minus"
    half = (0.5 * x, 0.5 * y)
    return half, half, "halving"


def split_loop(fld):
    lattice = fld.lattice
    home = zero_mode_home(lattice)
    plus, minus, ker = {}, {}, {}
    for mode, pair in fld.coefficients.items():
        if mode.is_zero:
            {SubspaceTag.EXP_PLUS: plus, SubspaceTag.EXP_MINUS: minus, SubspaceTag.KER_DSIGMA: ker}[home][mode] = pair
            continue
        w = pattern_second_weight(SubspaceTag.EXP_PLUS, mode)
        v = pattern_second_weight(SubspaceTag.EXP_MINUS, mode)
        p, m, _ = split_mode_loop(pair, w, v)
        if p != (0, 0):
            plus[mode] = p
        if m != (0, 0):
            minus[mode] = m
    return field(lattice, plus), field(lattice, minus), field(lattice, ker)


def poly_mul_loop(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0.0 + 0.0j) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def engine_kernel_field(lattice, symbol, eta):
    plus_part = poly_mul_loop(symbol.d_plus, eta)
    minus_part = poly_mul_loop(symbol.d_minus, engine.poly_conj(eta))
    coeffs = {}
    for key, val in plus_part.items():
        mode = Mode(*key)
        x, y = coeffs.get(mode, (0.0 + 0.0j, 0.0 + 0.0j))
        coeffs[mode] = (x + val, y)
    for key, val in minus_part.items():
        mode = Mode(*key)
        x, y = coeffs.get(mode, (0.0 + 0.0j, 0.0 + 0.0j))
        coeffs[mode] = (x, y + val)
    return field(lattice, coeffs)


def realify_field_loop(fld, op):
    index = {desc: i for i, desc in enumerate(op.col_basis)}
    vec = np.zeros(len(op.col_basis))
    for mode, (x, y) in fld.coefficients.items():
        key = mode.as_tuple()
        vec[index[(key, "comp1", "re")]] = x.real
        vec[index[(key, "comp1", "im")]] = x.imag
        vec[index[(key, "comp2", "re")]] = y.real
        vec[index[(key, "comp2", "im")]] = y.imag
    return vec


# ---------------------------------------------------------------------------
# comparisons and inputs


def bits(value):
    z = complex(value)
    return (z.real.hex(), z.imag.hex())


def field_bits(fld):
    return [(mode, bits(x), bits(y)) for mode, (x, y) in fld.coefficients.items()]


def poly_bits(poly):
    return [(key, bits(value)) for key, value in poly.items()]


CIRCLES = [
    ModeLattice(dim_link=1, offset_t=off, cutoff=6, zero_mode_policy=policy)
    for off in (0.0, 0.5)
    for policy in ZeroModePolicy
]
TORI = [ModeLattice(dim_link=2, offset_t=t, offset_s=s, cutoff=4) for t in (0.0, 0.5) for s in (0.0, 0.5)]


def wild_field(lattice, rng):
    """Random pairs whose four components span forty decades: most reach the halving fallback."""
    coeffs = {}
    for mode in enumerate_modes(lattice):
        re1, im1, re2, im2 = rng.uniform(-1.0, 1.0, 4) * 10.0 ** rng.integers(-20, 20, 4)
        coeffs[mode] = (complex(re1, im1), complex(re2, im2))
    return field(lattice, coeffs)


def pattern_field(lattice, rng, tag):
    """Random pairs exactly on the tag's pattern (y == w * x); the zero mode gets a raw pair."""
    coeffs = {}
    for mode in enumerate_modes(lattice):
        x = complex(*rng.uniform(-1.0, 1.0, 2))
        coeffs[mode] = (x, complex(*rng.uniform(-1.0, 1.0, 2))) if mode.is_zero else (
            x, pattern_second_weight(tag, mode) * x)
    return field(lattice, coeffs)


def fields_for(lattice, seed):
    rng = np.random.default_rng(seed)
    out = [random_field(lattice, rng), random_field(lattice, rng, balanced=False), wild_field(lattice, rng)]
    out += [pattern_field(lattice, rng, tag) for tag in (SubspaceTag.EXP_PLUS, SubspaceTag.EXP_MINUS)]
    # sparse fields with signed zeros in the components
    signed = {mode: (complex(-0.0, x.imag), complex(y.real, -0.0))
              for i, (mode, (x, y)) in enumerate(out[0].coefficients.items()) if i % 3 == 0}
    out.append(field(lattice, signed))
    return out


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("lattice", CIRCLES + TORI, ids=str)
def test_split_is_bitwise_equal_to_the_per_mode_search(lattice):
    for fld in fields_for(lattice, 5):
        got, want = split(fld), split_loop(fld)
        assert [field_bits(f) for f in got] == [field_bits(f) for f in want]


@pytest.mark.parametrize("lattice", CIRCLES + TORI, ids=str)
def test_project_is_bitwise_equal_to_the_per_mode_projection(lattice):
    for fld in fields_for(lattice, 6):
        for tag in SubspaceTag:
            try:
                want = project_loop(fld, tag)
            except DomainError:
                with pytest.raises(DomainError):
                    project(fld, tag)
                continue
            assert field_bits(project(fld, tag)) == field_bits(want)


def test_split_reaches_every_branch_bitwise():
    """Seeded pairs searched with the oracle until each fallback branch was hit."""
    modes = [Mode(0.5), Mode(-1.5), Mode(1.0, 2.0), Mode(-3.0, 1.0), Mode(0.5, -0.5)]

    def lattice_of(mode):
        offsets = [c % 1.0 for c in mode.as_tuple()]
        return ModeLattice(dim_link=len(offsets), offset_t=offsets[0], offset_s=offsets[-1], cutoff=4)

    rng = np.random.default_rng(17)
    hits = {}
    for trial in range(2000):
        mode = modes[trial % len(modes)]
        scale = 10.0 ** rng.integers(-20, 20, 4) if trial % 2 else np.ones(4)
        re1, im1, re2, im2 = rng.uniform(-1.0, 1.0, 4) * scale
        pair = (complex(re1, im1), complex(re2, im2))
        w = pattern_second_weight(SubspaceTag.EXP_PLUS, mode)
        v = pattern_second_weight(SubspaceTag.EXP_MINUS, mode)
        branch = split_mode_loop(pair, w, v)[2]
        hits.setdefault(branch, []).append((mode, pair))
        if branch == "plus":
            hits.setdefault("pure-plus", []).append((mode, (pair[0], w * pair[0])))
            hits.setdefault("pure-minus", []).append((mode, (pair[0], v * pair[0])))
    assert set(hits) == {"pure-plus", "pure-minus", "plus", "minus", "halving"}
    for branch, cases in hits.items():
        for mode, pair in cases[:40]:
            fld = field(lattice_of(mode), {mode: pair})
            assert [field_bits(f) for f in split(fld)] == [field_bits(f) for f in split_loop(fld)], branch
        # one field per lattice holding the last case of the branch at each mode
        by_lattice = {}
        for mode, pair in cases[:200]:
            by_lattice.setdefault(lattice_of(mode), {})[mode] = pair
        for lattice, coeffs in by_lattice.items():
            fld = field(lattice, coeffs)
            assert [field_bits(f) for f in split(fld)] == [field_bits(f) for f in split_loop(fld)], branch


def test_poly_mul_is_bitwise_equal_to_the_dict_loop():
    rng = np.random.default_rng(23)
    for dim in (1, 2):
        for offset in (0.0, 0.5):
            for _ in range(40):
                n_a, n_b = rng.integers(1, 8, 2)
                keys = [tuple(float(k) + offset for k in rng.integers(-3, 4, dim)) for _ in range(n_a + n_b)]
                vals = [complex(*rng.uniform(-1.0, 1.0, 2)) if rng.uniform() < 0.7 else float(rng.uniform(-1, 1))
                        for _ in keys]
                a = dict(zip(keys[:n_a], vals[:n_a]))
                b = dict(zip(keys[n_a:], vals[n_a:]))
                assert poly_bits(engine.poly_mul(a, b)) == poly_bits(poly_mul_loop(a, b))
                conj = engine.poly_conj(b)
                assert poly_bits(engine.poly_mul(a, conj)) == poly_bits(poly_mul_loop(a, conj))
    # exact cancellation drops the key, signed zeros and empty factors
    a = {(0.5,): 1.0 + 0.0j, (1.5,): -1.0 + 0.0j}
    b = {(0.5,): 1.0 + 0.0j, (-0.5,): 1.0 + 0.0j}
    assert poly_bits(engine.poly_mul(a, b)) == poly_bits(poly_mul_loop(a, b))
    assert (1.0,) not in engine.poly_mul(a, b)
    signed = {(0.0,): complex(-0.0, 1.0), (1.0,): complex(1.0, -0.0)}
    assert poly_bits(engine.poly_mul(signed, signed)) == poly_bits(poly_mul_loop(signed, signed))
    assert engine.poly_mul({}, b) == poly_mul_loop({}, b) == {}


@pytest.mark.parametrize("lattice", [ModeLattice(dim_link=1, offset_t=0.5, cutoff=8),
                                     ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=4),
                                     ModeLattice(dim_link=2, offset_t=0.5, offset_s=0.0, cutoff=4)], ids=str)
def test_pair_field_and_realify_match_the_loop_builders(lattice):
    rng = np.random.default_rng(29)
    bandwidth = 1.5 if lattice.dim_link == 1 else 1.0
    for _ in range(10):
        symbol = random_symbol(lattice, rng, bandwidth)
        eta_bw = lattice.cutoff - math.ceil(symbol.bandwidth)
        eta = {key: complex(*rng.uniform(-1.0, 1.0, 2)) for key in engine._eta_modes(lattice, symbol, eta_bw)}
        got = pair_field(lattice, engine.poly_mul(symbol.d_plus, eta),
                         engine.poly_mul(symbol.d_minus, engine.poly_conj(eta)))
        want = engine_kernel_field(lattice, symbol, eta)
        assert field_bits(got) == field_bits(want)
        op = build_T_full(symbol, lattice, lattice.cutoff)
        lam2, pairs = engine._field_pairs(got, symbol)
        assert np.array_equal(verify._realified(op.col_basis, lam2, pairs)[0], realify_field_loop(want, op))


def test_batched_trace_check_finds_the_same_modes_as_single_mode_fields(monkeypatch):
    """A perturbed trace at some modes is reported at exactly those modes, in lattice order."""
    from diraclab import radial

    def perturbed(mode):
        c1, c2 = radial.decaying_trace(mode)
        return (c1, c2 * (1.0 + 1e-12)) if mode.l == 2.0 or mode.as_tuple()[-1] == -1.5 else (c1, c2)

    monkeypatch.setattr(verify, "decaying_trace", perturbed)
    for lattice in (ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=6),
                    ModeLattice(dim_link=1, offset_t=0.5, cutoff=6)):
        want = []
        for mode in enumerate_modes(lattice):
            if mode.is_zero:
                continue
            f = field(lattice, {mode: perturbed(mode)})
            if project_loop(f, SubspaceTag.EXP_MINUS) != f:
                want.append(mode)
        assert want
        assert verify._trace_pattern_failures(lattice) == want


@pytest.mark.parametrize("lattice", [CIRCLES[4], TORI[0]], ids=str)
def test_split_and_project_on_signed_zeros_and_extreme_components(lattice):
    """Every pair with components from a grid of signed zeros, subnormals and huge values."""
    grid = [0.0, -0.0, 1.0, -1.0, 5e-324, -1e300]
    pairs = [(complex(a, b), complex(c, d)) for a, b, c, d in itertools.product(grid, repeat=4)]
    modes = enumerate_modes(lattice)
    for start in range(0, len(pairs), len(modes)):
        fld = field(lattice, dict(zip(modes, pairs[start:start + len(modes)])))
        assert [field_bits(f) for f in split(fld)] == [field_bits(f) for f in split_loop(fld)]
        for tag in (SubspaceTag.EXP_PLUS, SubspaceTag.EXP_MINUS, SubspaceTag.EEXP_PLUS, SubspaceTag.EEXP_MINUS):
            assert field_bits(project(fld, tag)) == field_bits(project_loop(fld, tag))
