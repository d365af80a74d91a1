"""The array-pass verify suites and the draw kernel against the per-trial code they replaced.

``random_field_loop`` is the earlier per-mode draw (numpy ``uniform`` and
``choice`` calls) and ``suite_splitting_loop`` the earlier per-trial suite
built on fields.  ``suite_kernel_identity_loop``, ``suite_eta_loop`` and
``suite_cokernel_loop`` are the earlier per-trial algebra suites, built on
one field, one operator and one correspondence per trial.  Draws must agree
bit for bit and leave the generator in the same state; the suite payloads
must serialize to the same JSON.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from diraclab import DomainError, ModeLattice, NumericError, SubspaceTag, boundary, engine, field, project, split, verify
from diraclab.boundary import _draw_pairs, pair_field, random_field
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


ALGEBRA_LATTICES = (
    ModeLattice(dim_link=1, offset_t=0.5, cutoff=8),
    ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=4),
)


def realify_field(fld, op):
    """Realified coefficient vector of a field in a full-basis operator's column order."""
    dim = fld.lattice.dim_link
    modes2 = engine._doubled([key for key, _, _ in op.col_basis[::4]], dim)
    _, rows = engine._key_rows(engine._doubled([mode.as_tuple() for mode in fld.coefficients], dim), modes2)
    pairs = np.array(list(fld.coefficients.values()), dtype=complex).reshape(-1, 2)
    vec = np.zeros(len(op.col_basis))
    vec[4 * rows[:, None] + np.arange(4)] = np.stack((pairs.real, pairs.imag), axis=-1).reshape(-1, 4)
    return vec


def draw_coefficients(lattice, symbol, rng):
    cutoff = lattice.cutoff - math.ceil(symbol.bandwidth)
    return {key: complex(*rng.uniform(-1.0, 1.0, 2)) for key in engine._eta_modes(lattice, symbol, cutoff)}


def suite_kernel_identity_loop(config, rng):
    worst = 0.0
    worst_case = None
    for lattice in ALGEBRA_LATTICES:
        bandwidth = 1.5 if lattice.offset_t == 0.5 else 1.0
        for trial in range(int(config.get("samples", 50))):
            symbol = verify._random_symbol(lattice, rng, bandwidth)
            eta = draw_coefficients(lattice, symbol, rng)
            kernel_field = pair_field(
                lattice, engine.poly_mul(symbol.d_plus, eta), engine.poly_mul(symbol.d_minus, engine.poly_conj(eta))
            )
            op = engine.build_T_full(symbol, lattice, lattice.cutoff)
            vec = realify_field(kernel_field, op)
            resid = float(np.max(np.abs(op.matrix @ vec))) if vec.size else 0.0
            image = engine.apply_T(symbol, kernel_field)
            resid = max(resid, max((abs(v) for v in image.values()), default=0.0))
            if resid > worst:
                worst = resid
                worst_case = {"lattice_dim": lattice.dim_link, "trial": trial, "residual": resid}
    return worst < 1e-13, {"max_residual": worst, "tolerance": 1e-13, "worst_case": worst_case}


def poly_distance(a, b):
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in set(a) | set(b)), default=0.0)


def suite_eta_loop(config, rng):
    worst = 0.0
    worst_case = None
    for lattice in ALGEBRA_LATTICES:
        bandwidth = 1.5 if lattice.offset_t == 0.5 else 1.0
        for trial in range(int(config.get("samples", 50))):
            symbol = verify._random_symbol(lattice, rng, bandwidth)
            eta = draw_coefficients(lattice, symbol, rng)
            u = pair_field(
                lattice, engine.poly_mul(symbol.d_plus, eta), engine.poly_mul(symbol.d_minus, engine.poly_conj(eta))
            )
            err = poly_distance(engine.reconstruct_eta(u, symbol), eta)
            if err > worst:
                worst = err
                worst_case = {"lattice_dim": lattice.dim_link, "trial": trial, "error": err}
    return worst < 1e-10, {"max_roundtrip_error": worst, "tolerance": 1e-10, "worst_case": worst_case}


def suite_cokernel_loop(config, rng):
    worst = 0.0
    worst_case = None
    failures = []
    for lattice in ALGEBRA_LATTICES:
        bandwidth = 1.5 if lattice.offset_t == 0.5 else 1.0
        for trial in range(int(config.get("samples", 50))):
            symbol = verify._random_symbol(lattice, rng, bandwidth)
            c0 = draw_coefficients(lattice, symbol, rng)
            u = pair_field(
                lattice, engine.poly_mul(engine.poly_conj(c0), symbol.d_plus), engine.poly_mul(c0, symbol.d_minus)
            )
            try:
                got = engine.cokernel_correspondence(u, symbol)
            except (DomainError, NumericError) as exc:
                failures.append({"lattice_dim": lattice.dim_link, "trial": trial, "error": str(exc)})
                continue
            err = poly_distance(got, c0)
            if err > worst:
                worst = err
                worst_case = {"lattice_dim": lattice.dim_link, "trial": trial, "error": err}
    ok = worst < 1e-10 and not failures
    return ok, {"max_roundtrip_error": worst, "tolerance": 1e-10, "failures": failures, "worst_case": worst_case}


ALGEBRA_ORACLES = {
    "kernel-identity": (verify.suite_kernel_identity, suite_kernel_identity_loop),
    "eta": (verify.suite_eta, suite_eta_loop),
    "cokernel": (verify.suite_cokernel, suite_cokernel_loop),
}


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


# ---------------------------------------------------------------------------
# the algebra suites


@pytest.mark.parametrize("samples", [1, 7, 25, 50])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_algebra_suite_payloads_match_the_per_trial_suites(seed, samples):
    """Sample counts below, at and across the torus block size (5 trials); the circle holds 64 a block."""
    for name, (batched, loop) in ALGEBRA_ORACLES.items():
        got = batched({"samples": samples}, np.random.default_rng(seed))
        want = loop({"samples": samples}, np.random.default_rng(seed))
        assert got[0] is True, name
        assert payload_json(got) == payload_json(want), name


def test_trial_blocks_hold_what_fits_the_grid_budget():
    rng = np.random.default_rng(6)
    circle, torus = ALGEBRA_LATTICES
    assert [len(block) for block in verify._trial_blocks(circle, rng, 70)] == [64, 6]
    blocks = list(verify._trial_blocks(torus, rng, 12))
    assert [len(block) for block in blocks] == [5, 5, 2]
    assert [trial for block in blocks for trial, _, _, _ in block] == list(range(12))


TARGET = 7  # a torus trial in the middle of its block (trials 5 to 9) at 25 samples


def recorded_argument(monkeypatch, name, run, call, position):
    """Argument ``position`` of the engine kernel ``name`` at its ``call``-th call while ``run`` runs."""
    original = getattr(engine, name)
    seen = []

    def recording(*args):
        seen.append(np.array(args[position]))
        return original(*args)

    monkeypatch.setattr(engine, name, recording)
    run()
    monkeypatch.setattr(engine, name, original)
    assert seen[call].shape[0] == 1
    return seen[call][0]


def planted(monkeypatch, name, position, target, perturb):
    """Wrap the engine kernel ``name`` so that ``perturb`` changes its result for the stacked rows
    whose argument ``position`` equals ``target`` bitwise: only the target trial, in either suite."""
    original = getattr(engine, name)

    def wrapper(*args):
        result = original(*args)
        rows = np.asarray(args[position])
        if rows.shape[1:] != target.shape:
            return result
        hit = (rows.reshape(len(rows), -1).view(np.uint64) == target.ravel().view(np.uint64)).all(axis=1)
        return perturb(result, hit) if hit.any() else result

    monkeypatch.setattr(engine, name, wrapper)


def perturb_products(result, hit):
    keys2, values = result
    values = values.copy()
    values[hit, 0] += 1e-3
    return keys2, values


def run_both(name, seed=3, samples=25):
    batched, loop = ALGEBRA_ORACLES[name]
    return (batched({"samples": samples}, np.random.default_rng(seed)),
            loop({"samples": samples}, np.random.default_rng(seed)))


def test_perturbed_kernel_field_names_its_trial_alike(monkeypatch):
    """One torus trial's field, moved off the kernel mid-block, is the worst case of both suites."""
    # per trial the loop multiplies d+ by eta, then d- by conj(eta): call 2 * (25 + TARGET) is the
    # target's first product, whose second factor is its eta
    eta = recorded_argument(monkeypatch, "_poly_products",
                            lambda: suite_kernel_identity_loop({"samples": 25}, np.random.default_rng(3)),
                            2 * (25 + TARGET), 3)
    planted(monkeypatch, "_poly_products", 3, eta, perturb_products)
    got, want = run_both("kernel-identity")
    assert got[0] is False
    assert got[1]["worst_case"]["lattice_dim"] == 2 and got[1]["worst_case"]["trial"] == TARGET
    assert got[1]["max_residual"] > 1e-4
    assert payload_json(got) == payload_json(want)


def test_cokernel_relation_failure_mid_block_is_listed_alike(monkeypatch):
    """A torus trial whose field breaks the cokernel relation is a failure at its index; the later
    trials of its block are still checked, as the per-trial suite checks them."""
    # per trial the loop multiplies conj(c0) by d+, then c0 by d-: call 2 * (25 + TARGET) + 1 has the target's c0 first
    c0 = recorded_argument(monkeypatch, "_poly_products",
                           lambda: suite_cokernel_loop({"samples": 25}, np.random.default_rng(3)),
                           2 * (25 + TARGET) + 1, 1)
    planted(monkeypatch, "_poly_products", 1, c0, perturb_products)
    got, want = run_both("cokernel")
    assert got[0] is False
    [failure] = got[1]["failures"]
    assert (failure["lattice_dim"], failure["trial"]) == (2, TARGET)
    assert failure["error"].startswith("not a cokernel element: relation residual")
    assert payload_json(got) == payload_json(want)


def test_cokernel_duality_failure_mid_block_is_listed_alike(monkeypatch):
    """A duality residual planted on one torus trial fails that trial alone, with the loop's message."""
    c = recorded_argument(monkeypatch, "_duality_residuals",
                          lambda: suite_cokernel_loop({"samples": 25}, np.random.default_rng(3)),
                          25 + TARGET, 5)

    def perturb(result, hit):
        result = result.copy()
        result[hit] += 1.0
        return result

    planted(monkeypatch, "_duality_residuals", 5, c, perturb)
    got, want = run_both("cokernel")
    [failure] = got[1]["failures"]
    assert (failure["lattice_dim"], failure["trial"]) == (2, TARGET)
    assert failure["error"].startswith("cokernel orthogonality residual 1.0")
    assert payload_json(got) == payload_json(want)


def test_eta_round_trip_error_mid_block_names_its_trial_alike(monkeypatch):
    """A projection that misses by 1e-6 on one torus trial makes it the worst round trip of both suites."""
    values = recorded_argument(monkeypatch, "_project_stack",
                               lambda: suite_eta_loop({"samples": 25}, np.random.default_rng(3)),
                               25 + TARGET, 0)

    def perturb(result, hit):
        result = result.copy()
        result[hit, 0] += 1e-6
        return result

    planted(monkeypatch, "_project_stack", 0, values, perturb)
    got, want = run_both("eta")
    assert got[0] is False
    assert (got[1]["worst_case"]["lattice_dim"], got[1]["worst_case"]["trial"]) == (2, TARGET)
    assert payload_json(got) == payload_json(want)


def test_eta_reconstruction_error_mid_block_is_raised_alike(monkeypatch):
    """A kernel field moved off the kernel fails its reconstruction: both suites raise that error."""
    eta = recorded_argument(monkeypatch, "_poly_products",
                            lambda: suite_eta_loop({"samples": 25}, np.random.default_rng(3)),
                            2 * (25 + TARGET), 3)
    planted(monkeypatch, "_poly_products", 3, eta, perturb_products)
    errors = []
    for suite in ALGEBRA_ORACLES["eta"]:
        with pytest.raises(DomainError, match="input is not kernel data") as info:
            suite({"samples": 25}, np.random.default_rng(3))
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_algebra_suite_memory_does_not_grow_with_the_sample_count(monkeypatch):
    """The trial blocks bound what a suite holds: 200 samples peak within 0.25 MB of 50.

    The symbols cycle through a fixed pool, so neither the draws nor the
    symbol memo (bounded on its own) grow with the sample count.
    """
    pool = {}

    def pooled_symbol(lattice, rng, bandwidth):
        symbols = pool.setdefault(lattice, [])
        if len(symbols) < 8:
            symbols.append(engine.random_symbol(lattice, np.random.default_rng(len(symbols)), bandwidth))
            return symbols[-1]
        pool[lattice] = symbols[1:] + symbols[:1]
        return symbols[0]

    monkeypatch.setattr(verify, "_random_symbol", pooled_symbol)
    for suite in (verify.suite_kernel_identity, verify.suite_eta, verify.suite_cokernel):
        suite({"samples": 50}, np.random.default_rng(1))  # fill the pool and the mode caches
        peaks = []
        for samples in (50, 200):
            tracemalloc.start()
            try:
                suite({"samples": samples}, np.random.default_rng(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 250_000, (suite.__name__, peaks)
