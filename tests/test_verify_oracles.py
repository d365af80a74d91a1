"""The array-pass splitting suite and its draw kernel against the per-trial code they replaced.

``random_field_loop`` is the earlier per-mode draw (numpy ``uniform`` and
``choice`` calls) and ``suite_splitting_loop`` the earlier per-trial suite
built on fields.  Draws must agree bit for bit and leave the generator in the
same state; the suite payloads must serialize to the same JSON.
"""

import json

import numpy as np
import pytest

from diraclab import DomainError, ModeLattice, SubspaceTag, boundary, field, project, split, verify
from diraclab.boundary import _draw_pairs, random_field
from diraclab.lattice import enumerate_modes

# ---------------------------------------------------------------------------
# oracles


def random_field_loop(lattice, rng, balanced=True):
    coeffs = {}
    for mode in enumerate_modes(lattice):
        if balanced:
            re1, im1, re2, im2 = rng.uniform(0.25, 1.0, 4) * rng.choice([-1.0, 1.0], 4)
        else:
            re1, im1, re2, im2 = rng.uniform(-1.0, 1.0, 4)
        coeffs[mode] = (complex(re1, im1), complex(re2, im2))
    return field(lattice, coeffs)


SPLITTING_LATTICES = (
    ModeLattice(dim_link=1, offset_t=0.5, cutoff=6),
    ModeLattice(dim_link=1, offset_t=0.0, cutoff=5),
    ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=3),
    ModeLattice(dim_link=2, offset_t=0.5, offset_s=0.5, cutoff=3),
)


def suite_splitting_loop(config, rng):
    failures = []
    orth_worst = 0.0
    for lattice in SPLITTING_LATTICES:
        for trial in range(int(config.get("samples", 20))):
            X = random_field_loop(lattice, rng)
            plus = project(X, SubspaceTag.EXP_PLUS)
            minus = project(X, SubspaceTag.EXP_MINUS)
            if project(plus, SubspaceTag.EXP_PLUS) != plus or project(minus, SubspaceTag.EXP_MINUS) != minus:
                failures.append({"lattice": str(lattice), "trial": trial, "what": "idempotency"})
            Y = random_field_loop(lattice, rng)
            orth = abs(
                boundary.pairing_hermitian(project(X, SubspaceTag.EXP_PLUS), project(Y, SubspaceTag.EXP_MINUS))
            )
            orth_worst = max(orth_worst, orth)
            if orth > 1e-12 * max(1.0, X.norm() * Y.norm()):
                failures.append({"lattice": str(lattice), "trial": trial, "what": "orthogonality", "value": orth})
            p, m, kpart = split(X)
            if boundary.field_add(boundary.field_add(p, m), kpart) != X:
                failures.append({"lattice": str(lattice), "trial": trial, "what": "sum-to-identity"})
    big = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=32)
    off_pattern = verify._trace_pattern_failures(big)
    trace_exact = not off_pattern
    failures += [{"what": "decaying-trace-pattern", "mode": mode.as_tuple()} for mode in off_pattern]
    ok = not failures and trace_exact
    return ok, {"failures": failures, "max_hermitian_cross": orth_worst, "trace_pattern_exact": trace_exact}


# ---------------------------------------------------------------------------
# comparisons and inputs


def field_bits(fld):
    return [(mode, x.real.hex(), x.imag.hex(), y.real.hex(), y.imag.hex()) for mode, (x, y) in fld.coefficients.items()]


def payload_json(result):
    return json.dumps(result, sort_keys=True)


DRAW_LATTICES = [
    ModeLattice(dim_link=1, offset_t=0.0, cutoff=5),
    ModeLattice(dim_link=1, offset_t=0.5, cutoff=6),
    ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=3),
    ModeLattice(dim_link=2, offset_t=0.5, offset_s=0.5, cutoff=4),
]


def twin_generators(seed, buffered_half):
    """Two generators in one state; with ``buffered_half`` each holds an unused 32-bit half."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered_half:
        for rng in pair:
            rng.integers(0, 2)
    return pair


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("buffered_half", [False, True], ids=["fresh", "buffered-half"])
@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "unbalanced"])
@pytest.mark.parametrize("lattice", DRAW_LATTICES, ids=str)
def test_random_field_draws_the_per_mode_stream(lattice, balanced, buffered_half):
    for seed in (1, 2, 3):
        rng, ref = twin_generators(seed, buffered_half)
        assert rng.bit_generator.state["has_uint32"] == int(buffered_half)
        for _ in range(3):
            got, want = random_field(lattice, rng, balanced), random_field_loop(lattice, ref, balanced)
            assert list(got.coefficients) == enumerate_modes(lattice)
            assert field_bits(got) == field_bits(want)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.uniform(-1.0, 1.0, 3).tolist() == ref.uniform(-1.0, 1.0, 3).tolist()
        assert rng.integers(0, 1000, 5).tolist() == ref.integers(0, 1000, 5).tolist()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "unbalanced"])
@pytest.mark.parametrize("lattice", DRAW_LATTICES, ids=str)
def test_draw_kernel_stacks_consecutive_fields(lattice, balanced):
    rng, ref = twin_generators(4, buffered_half=True)
    got = _draw_pairs(lattice, rng, balanced, 7)
    want = [list(random_field_loop(lattice, ref, balanced).coefficients.values()) for _ in range(7)]
    assert got.shape == (7, len(enumerate_modes(lattice)), 2)
    assert np.array_equal(got.view(np.uint64), np.array(want, dtype=complex).view(np.uint64))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert _draw_pairs(lattice, rng, balanced, 0).shape == (0, len(enumerate_modes(lattice)), 2)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "rng",
    [np.random.Generator(np.random.MT19937(1)), np.random.Generator(np.random.Philox(1)),
     np.random.Generator(np.random.SFC64(1)), np.random.Generator(np.random.PCG64DXSM(1)),
     np.random.RandomState(1)],
    ids=["MT19937", "Philox", "SFC64", "PCG64DXSM", "RandomState"],
)
def test_random_field_rejects_generators_other_than_pcg64(rng):
    with pytest.raises(DomainError, match="PCG64"):
        random_field(DRAW_LATTICES[0], rng)


@pytest.mark.parametrize("samples", [1, 7, 25, 50])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_splitting_suite_payload_matches_the_per_trial_suite(seed, samples):
    """Sample counts below, at and across the block size of every lattice (5 to 23 trials a block)."""
    got = verify.suite_splitting({"samples": samples}, np.random.default_rng(seed))
    want = suite_splitting_loop({"samples": samples}, np.random.default_rng(seed))
    assert got[0] is True
    assert payload_json(got) == payload_json(want)


def test_injected_idempotency_failure_is_reported_alike(monkeypatch):
    """A projection that moves one plus-pure row by an ulp fails one trial in both suites."""
    original = boundary._project_rows

    def broken(lattice, at, pairs, tag):
        out = original(lattice, at, pairs, tag)
        if tag is SubspaceTag.EXP_PLUS:
            w = boundary._pattern_weights(lattice, tag)[at]
            x = pairs[:, 0]
            hit = (pairs[:, 1] == boundary._cmul(w, x)) & (x.real >= 0.6) & (x.real < 0.6 + 2**-10)
            out[hit, 1] = np.nextafter(out[hit, 1].real, np.inf) + 1j * out[hit, 1].imag
        return out

    monkeypatch.setattr(boundary, "_project_rows", broken)
    got = verify.suite_splitting({"samples": 25}, np.random.default_rng(3))
    want = suite_splitting_loop({"samples": 25}, np.random.default_rng(3))
    assert got[0] is False
    assert [(f["what"], f["trial"]) for f in got[1]["failures"]] == [("idempotency", 20)]
    assert payload_json(got) == payload_json(want)


def test_injected_orthogonality_failure_is_reported_alike(monkeypatch):
    """A minus projection that passes a few raw rows through unprojected fails orthogonality alike in both suites.

    The passed rows are fixed points of the broken projection, so
    idempotency still holds and the orthogonality check alone fires.
    """
    original = boundary._project_rows

    def broken(lattice, at, pairs, tag):
        out = original(lattice, at, pairs, tag)
        if tag is SubspaceTag.EXP_MINUS:
            x = pairs[:, 0]
            hit = (x.real >= 0.6) & (x.real < 0.6 + 2**-11)
            out[hit] = pairs[hit]
        return out

    monkeypatch.setattr(boundary, "_project_rows", broken)
    got = verify.suite_splitting({"samples": 25}, np.random.default_rng(3))
    want = suite_splitting_loop({"samples": 25}, np.random.default_rng(3))
    assert got[0] is False
    failures = got[1]["failures"]
    assert [(f["what"], f["trial"]) for f in failures] == [("orthogonality", 18), ("orthogonality", 13)]
    assert all(f["value"] > 0.1 for f in failures)
    assert payload_json(got) == payload_json(want)


def test_trace_check_builds_no_field_and_no_mode_table(monkeypatch):
    """The 3,481-mode torus goes through the projection kernel in seven blocks of rows."""
    built = []
    monkeypatch.setattr(boundary.BoundaryField, "__post_init__", lambda self: built.append(self))
    lattice = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=29)
    boundary._mode_rows.cache_clear()
    assert verify._trace_pattern_failures(lattice) == []
    assert not built
    assert boundary._mode_rows.cache_info().currsize == 0
