import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import grid_bras, patch_key, sampling_error_bound, square_torus
from torusq import cli, finite, memory, suites, symbolic, torus
from torusq.finite import (
    LABEL_ACTION,
    RAISE,
    dft_basis_change,
    physical_grid_overlaps,
    table1_matrices,
    table1_verify,
    weyl_commutation_check,
)
from torusq.suites import run_suites, suite_weyl
from torusq.symbolic import WaveFunction
from torusq.torus import (
    GridShift,
    grid_coordinates,
    grid_shift_operator,
    make_geometry,
    make_torus_P_basis,
    make_torus_Q_basis,
    sample,
)


def non_square_torus(N):
    """a = 1, b = 2, with h chosen so that a*b/h = N."""
    return make_geometry(1.0, 2.0, 2.0 / N)


def counting_samples(monkeypatch):
    """Replace the grid sampler torus.sample, in every torusq module that
    holds it, with a wrapper that records every state it samples."""
    sampled = []
    real = torus.sample

    def counted(wf, *args, **kwargs):
        sampled.append(wf)
        return real(wf, *args, **kwargs)

    for module in (torus, finite, suites, cli):
        if hasattr(module, "sample"):
            monkeypatch.setattr(module, "sample", counted)
    return sampled


def counting_grid_exps(monkeypatch):
    """Record the shape of every grid-sized (2-D) exp that finite takes."""
    shapes = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(x, *args, **kwargs):
            if np.ndim(x) == 2:
                shapes.append(np.shape(x))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(finite, "np", Numpy())
    return shapes


def counting_builds(monkeypatch):
    """Record every wave function built: each one is made by WaveFunction._merge
    or, term by term from another, by WaveFunction._map_terms."""
    built = []
    real_merge, real_map = WaveFunction._merge, WaveFunction._map_terms

    def merge(self, *args, **kwargs):
        built.append(self)
        return real_merge(self, *args, **kwargs)

    def map_terms(*args, **kwargs):
        built.append(real_map(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(WaveFunction, "_merge", merge)
    monkeypatch.setattr(WaveFunction, "_map_terms", map_terms)
    return built


def counting_keys(monkeypatch):
    """Record the basis and the shapes of both labels of every phase-key
    evaluation finite makes through torus._basis_key."""
    calls = []

    def key(geometry, basis, n, m, primed=False):
        calls.append((basis, np.shape(n), np.shape(m)))
        return torus._basis_key(geometry, basis, n, m, primed)

    monkeypatch.setattr(finite, "_basis_key", key)
    return calls


def oracle_bras(geometry):
    """The dft oracle's N Q-basis bras as one (N, N, N) array, formed from
    the keys (finite._basis_key, so a patched key reaches them): bra n is
    conj(e^{i cp_Q[n] p/hbar}) times the conjugated chirp."""
    N, hbar = geometry.N, geometry.hbar
    _, _, cp_Q, cqp = finite._basis_key(geometry, "Q", np.arange(N), 0, primed=True)
    q, p = grid_coordinates(geometry, N)
    chirp = np.conjugate(np.exp(np.multiply.outer(p, 1j * cqp / hbar * q)))
    return np.stack([np.conjugate(np.exp(1j * cp_Q[n] * p / hbar))[:, None] * chirp
                     for n in range(N)])


def exhaustive_overlaps(geometry):
    """All N^3 grid overlaps O[n, s, r] = <Q n, 0 | P s, r> that the dft
    oracle sketches, in the batched form the oracle took before: every bra
    in one array and two stacked products, 2 N^4 multiply-adds.  The keys
    are read through finite._basis_key, as the oracle reads them."""
    N, hbar = geometry.N, geometry.hbar
    c0 = finite._basis_key(geometry, "P", *np.indices((N, N)), primed=True)[0]
    _, cq, cp, _ = finite._basis_key(geometry, "P", np.arange(N), np.arange(N))
    q, p = grid_coordinates(geometry, N)
    U = np.exp(1j / hbar * np.multiply.outer(cp, p))
    V = np.exp(1j / hbar * np.multiply.outer(cq, q))
    d = np.exp(1j / hbar * c0) / (N * N)
    return (U @ oracle_bras(geometry)) @ V.T * d


def exhaustive_residual(overlaps):
    """The exhaustive oracle: max |O[n, s, r] - K[n][r] / sqrt(N)| over every
    shadow index s, with K from finite.dft_basis_change."""
    N = len(overlaps)
    return float(np.abs(overlaps - (finite.dft_basis_change(N) / np.sqrt(N))[:, None, :]).max())


def projected_residual(overlaps):
    """The sketch applied to given overlaps: max |sum_s x_s O[n, s, r] -
    (sum_s x_s) K[n][r] / sqrt(N)| with the oracle's phases x_s."""
    N = len(overlaps)
    x = finite._sketch_phases(N)
    Z = np.einsum("s,nsr->nr", x, overlaps)
    return float(np.abs(Z - x.sum() * finite.dft_basis_change(N) / np.sqrt(N)).max())


def sketch_roundoff(N):
    """A bound on the gap between the oracle and projected_residual of the
    exhaustive overlaps: both sum the same N^3 terms of modulus 1/N^2, whose
    phase arguments reach about 2 pi N, in different orders, so each entry of
    |Z| <= 1 differs by a few N eps (at most 2.8 N eps measured up to N = 64);
    16 N eps leaves room for other BLAS kernels."""
    return 16 * N * np.finfo(float).eps


def clock(N):
    """The Q-basis matrix of exp(2 pi i Q_LEFT / b), read from the table."""
    return table1_matrices(GridShift.EXP_QLEFT, N)[1]


def shift(N):
    """The Q-basis matrix of exp(-2 pi i P_LEFT / a), read from the table."""
    return table1_matrices(GridShift.EXP_PLEFT, N)[1]


class TestClockShift:
    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
    def test_table_matches_closed_forms(self, N):
        # The closed forms of the clock and shift, computed without the table.
        assert np.array_equal(clock(N), np.diag(np.exp(2j * np.pi * np.arange(N) / N)))
        assert np.array_equal(shift(N), np.roll(np.eye(N), 1, axis=0))

    def test_clock_small_cases(self):
        assert np.array_equal(clock(1), np.eye(1))
        c2 = clock(2)
        assert np.abs(c2 - np.diag([1.0, -1.0])).max() <= 1e-15

    def test_clock_order(self):
        for N in (1, 2, 3, 8, 64):
            C = clock(N)
            assert np.abs(np.linalg.matrix_power(C, N) - np.eye(N)).max() <= 1e-12

    def test_shift_is_exact_cyclic_permutation(self):
        S = shift(3)
        assert np.array_equal(S, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex))
        assert np.array_equal(np.linalg.matrix_power(S, 3), np.eye(3))

    def test_shift_wraps_state(self):
        moved = shift(3) @ np.array([0, 0, 1], dtype=complex)
        assert np.array_equal(moved, np.array([1, 0, 0], dtype=complex))

    def test_unitarity(self):
        for N in (1, 2, 5, 16, 64):
            for U in (clock(N), shift(N)):
                assert np.abs(U.conj().T @ U - np.eye(N)).max() <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            table1_matrices(GridShift.EXP_QLEFT, 0)
        with pytest.raises(ValueError):
            table1_matrices(GridShift.EXP_PLEFT, -2)
        with pytest.raises(ValueError):
            dft_basis_change(0)
        with pytest.raises(ValueError):
            shift(3) @ np.array([1, 0], dtype=complex)


class TestWeylCommutation:
    def test_dimension_one_commutes(self):
        assert weyl_commutation_check(1) == 1.0

    def test_brute_force_fixes_sign(self):
        # The commutator's exponent from the group law, no assumed sign.
        omega = weyl_commutation_check(4)
        assert abs(omega**4 - 1.0) <= 1e-12
        assert abs(omega - 1.0) > 0.5
        assert abs(omega - np.exp(2j * np.pi / 4)) <= 1e-12

    def test_primitive_for_primes(self):
        for N in (2, 3, 5, 7):
            omega = weyl_commutation_check(N)
            assert abs(omega**N - 1.0) <= 1e-12
            for k in range(1, N):
                assert abs(omega**k - 1.0) > 0.1

    @pytest.mark.parametrize("N", [63, 64, 128])
    def test_weyl_suite_passes_where_roots_crowd(self, N):
        # Consecutive N-th roots of unity lie 2 sin(pi/N) apart, below 0.1
        # from N = 63 on; the primitivity threshold must follow N.
        for check in suite_weyl(square_torus(N)):
            assert check.passed, (check.name, check.max_residual, check.params)

    def test_nth_power_commutes(self):
        for N in (2, 3, 8):
            C = clock(N)
            SN = np.linalg.matrix_power(shift(N), N)
            assert np.abs(C @ SN - SN @ C).max() <= 1e-12

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_weyl_follows_the_table(self, monkeypatch, N):
        # A conjugated clock in the table conjugates omega, and of all the
        # suites only its own table1 cell and its dft intertwining see it.
        monkeypatch.setitem(LABEL_ACTION[GridShift.EXP_QLEFT], "Q", (0, -1))
        assert abs(weyl_commutation_check(N) - np.exp(-2j * np.pi / N)) <= 1e-12
        failing = sorted(c.name for c in run_suites("all", square_torus(N)) if not c.passed)
        assert failing == ["dft/intertwines_exp_qleft", "table1/exp_qleft/Q-basis"]


def patch_reader(monkeypatch, mutate):
    """Pass every monomial the reader returns through mutate(which, basis, k, e),
    in finite and in the suites that import it."""
    real = finite._physical_action

    def reader(which, basis, N):
        return mutate(which, basis, *real(which, basis, N))

    for module in (finite, suites):
        monkeypatch.setattr(module, "_physical_action", reader)


def raised_exponent(target):
    """A reader mutation: the target's exponent at label 0 raised by one."""
    def mutate(which, basis, k, e):
        if (which, basis) == target:
            e = e.copy()
            e[0] = (e[0] + 1) % len(e)
        return k, e

    return mutate


CLOCK, SHIFT = (GridShift.EXP_QLEFT, "Q"), (GridShift.EXP_PLEFT, "Q")


def negated_dft_table(monkeypatch):
    """K with every exponent of its table negated: its complex conjugate."""
    real = finite._dft_exponents
    for module in (finite, suites):
        monkeypatch.setattr(module, "_dft_exponents", lambda N: -real(N))


class TestGroupFormControls:
    """Mutants of the clock, the reader and K, each failing only the checks
    that should see it, with the exact count the group law predicts."""

    @pytest.mark.parametrize("N", [4, 6])
    def test_clock_sign_two_is_not_primitive(self, monkeypatch, N):
        monkeypatch.setitem(LABEL_ACTION[GridShift.EXP_QLEFT], "Q", (0, 2))
        failing = [c for c in suite_weyl(square_torus(N)) if not c.passed]
        assert [(c.name, c.max_residual) for c in failing] == [("weyl/phase_primitive", 1.0)]
        assert failing[0].params["exponent"] == 2

    @pytest.mark.parametrize("N", [5, 8])
    def test_one_wrong_clock_exponent_breaks_two_labels(self, monkeypatch, N):
        # C S and S C read the wrong exponent at two labels, n = N - 1 and
        # n = 0; every other label still carries w^1, and k is what most share.
        patch_reader(monkeypatch, raised_exponent(CLOCK))
        failing = [(c.name, c.max_residual) for c in suite_weyl(square_torus(N)) if not c.passed]
        assert failing == [("weyl/scalar_phase_order", 2.0)]

    @pytest.mark.parametrize("N", [5, 8])
    def test_one_shift_phase_breaks_its_nth_power(self, monkeypatch, N):
        # The phase commutes through the clock's constant step, so C S = w S C
        # still holds, but S^N = w I misses the identity on all N labels.
        patch_reader(monkeypatch, raised_exponent(SHIFT))
        failing = [(c.name, c.max_residual) for c in suite_weyl(square_torus(N)) if not c.passed]
        assert failing == [("weyl/shift_nth_power_identity", float(N))]

    @pytest.mark.parametrize("N", [3, 4])
    def test_negated_K_fails_the_physical_intertwinings_and_the_oracle(self, monkeypatch, N):
        negated_dft_table(monkeypatch)
        failing = sorted(c.name for c in suites.suite_dft(square_torus(N)) if not c.passed)
        assert failing == ["dft/grid_overlap_oracle", "dft/intertwines_exp_pleft",
                           "dft/intertwines_exp_qleft"]

    @pytest.mark.parametrize("mutant", [None, "clock_sign_two", "wrong_exponent", "negated_K"])
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
    def test_intertwining_count_agrees_with_dense_products(self, monkeypatch, N, mutant):
        # The dense matrices, built from the same (mutated) reader and table,
        # are the reference: a count of 0 exactly where |K mp - mq K| <= 1e-12.
        if mutant == "clock_sign_two":
            monkeypatch.setitem(LABEL_ACTION[GridShift.EXP_QLEFT], "Q", (0, 2))
        elif mutant == "wrong_exponent":
            patch_reader(monkeypatch, raised_exponent(CLOCK))
        elif mutant == "negated_K":
            negated_dft_table(monkeypatch)
        counts = {c.name: c.max_residual for c in suites.suite_dft(square_torus(N))}
        K = dft_basis_change(N)
        for which in GridShift:
            mp, mq = table1_matrices(which, N)
            dense = float(np.abs(K @ mp - mq @ K).max())
            count = counts[f"dft/intertwines_{which.name.lower()}"]
            assert (count == 0) == (dense <= 1e-12), which


class TestDftBasisChange:
    def test_dimension_one(self):
        K = dft_basis_change(1)
        assert K.shape == (1, 1) and abs(abs(K[0, 0]) - 1.0) <= 1e-15

    def test_unitary(self):
        for N in (1, 2, 3, 4, 8):
            K = dft_basis_change(N)
            assert np.abs(K.conj().T @ K - np.eye(N)).max() <= 1e-12

    def test_intertwines_shift_with_p_basis_diagonal(self):
        # K . diag(e^{-2 pi i m / N}) = shift . K
        N = 4
        K = dft_basis_change(N)
        D = np.diag(np.exp(-2j * np.pi * np.arange(N) / N))
        assert np.abs(K @ D - shift(N) @ K).max() <= 1e-12

    def test_intertwines_all_table_cells(self):
        for N in (1, 2, 3, 4, 8):
            K = dft_basis_change(N)
            for which in GridShift:
                mp, mq = table1_matrices(which, N)
                assert np.abs(K @ mp - mq @ K).max() <= 1e-12

    def test_grid_overlap_oracle(self):
        # Inner products of sampled basis states on the physical grid agree
        # with the closed form on every entry, for every shadow index.
        for N in (1, 2, 3, 4, 8):
            assert physical_grid_overlaps(square_torus(N)) <= 1e-10

    @pytest.mark.parametrize("geometry", [square_torus(N) for N in (*range(1, 9), 16, 32, 64)]
                             + [non_square_torus(N) for N in (1, 3, 4, 5, 7)])
    def test_sketch_equals_the_projected_exhaustive_overlaps(self, geometry):
        # The oracle of the oracle: all N^3 overlaps in the batched form,
        # projected over s with the oracle's phases, read the oracle's
        # residual to roundoff; and the exhaustive max over s passes with it.
        overlaps = exhaustive_overlaps(geometry)
        residual = physical_grid_overlaps(geometry)
        assert abs(residual - projected_residual(overlaps)) <= sketch_roundoff(geometry.N)
        assert residual <= suites.ORACLE_TOL and exhaustive_residual(overlaps) <= suites.ORACLE_TOL

    @pytest.mark.parametrize("geometry", [square_torus(1), non_square_torus(5), square_torus(64)])
    def test_key_formed_bras_match_the_sampled_states(self, geometry):
        # Each bra is a product of separate phase factors, the sampled state
        # one exp of the summed phase: they agree to roundoff in the phase.
        N = geometry.N
        q, p = grid_coordinates(geometry, N)
        states = [make_torus_Q_basis(geometry, n, 0, primed=True) for n in range(N)]
        sampled = grid_bras(states, geometry, N)
        for n, (bra, wf) in enumerate(zip(oracle_bras(geometry), states)):
            assert np.abs(bra.ravel() - sampled[n]).max() <= sampling_error_bound(wf, q, p), n

    @pytest.mark.parametrize("N", [1, 3, 4])
    def test_grid_overlaps_equal_direct_inner_products(self, N):
        geometry = non_square_torus(N)
        qs = [sample(make_torus_Q_basis(geometry, n, 0, primed=True), geometry, N)
              for n in range(N)]
        direct = np.zeros((N, N, N), dtype=complex)
        for s, r in itertools.product(range(N), repeat=2):
            ket = sample(make_torus_P_basis(geometry, s, r, primed=True), geometry, N)
            for n in range(N):
                direct[n, s, r] = np.vdot(qs[n], ket) / N**2
        want = projected_residual(direct)
        assert abs(physical_grid_overlaps(geometry) - want) <= sketch_roundoff(N)

    def test_grid_overlaps_sample_each_state_once(self, monkeypatch):
        # No state is built or sampled: both bases are read from phase keys,
        # one evaluation each, the kets' c0 on broadcast labels (np.ogrid)
        # and their cq, cp and the bras on label vectors.  The grid-sized
        # exps are the kets' d, U and V,
        # the chirp and the bras' B_Q, shared by all N bras, and K.
        N = 4
        geometry = square_torus(N)
        sampled = counting_samples(monkeypatch)
        built = counting_builds(monkeypatch)
        exps = counting_grid_exps(monkeypatch)
        keys = counting_keys(monkeypatch)
        physical_grid_overlaps(geometry)
        assert built == [] and sampled == []
        assert keys == [("P", (N, 1), (1, N)), ("P", (N,), (N,)), ("Q", (N,), ())]
        assert exps == [(N, N)] * 6

    def test_sketch_runs_in_cubic_time_at_N_1024(self):
        # Three N x N products: about 1 s on 2 vCPUs, where the exhaustive
        # loop's 2 N^4 multiply-adds took about 3 minutes.
        start = time.perf_counter()
        checks = suites.suite_dft(square_torus(1024))
        assert time.perf_counter() - start <= 5.0
        assert all(c.passed for c in checks)


def key_mutant(basis, change):
    """A mutant that reads every key of one basis as change(geometry, n, m, key)."""
    def apply(monkeypatch, geometry):
        patch_key(monkeypatch, finite, basis, lambda n, m, key: change(geometry, n, m, key))
    return apply


def c0_defect(where):
    """A P-basis mutant whose c0 is one lattice unit h/N off where where(N, s, r)."""
    return key_mutant("P", lambda g, n, m, key: (
        key[0] + np.where(where(g.N, n, m), g.h / g.N, 0.0), *key[1:]))


SKETCH_MUTANTS = {
    "P c0 negated": key_mutant("P", lambda g, n, m, key: (-key[0], *key[1:])),
    # The unprimed key differs only in c0 = 0.
    "P unprimed": key_mutant("P", lambda g, n, m, key: (np.zeros_like(key[0]), *key[1:])),
    "Q cp flipped": key_mutant("Q", lambda g, n, m, key: (*key[:2], -key[2], key[3])),
    "P cq flipped": key_mutant("P", lambda g, n, m, key: (key[0], -key[1], *key[2:])),
    "chirp conjugated": key_mutant("Q", lambda g, n, m, key: (*key[:3], -key[3])),
    "K conjugated": lambda monkeypatch, geometry: negated_dft_table(monkeypatch),
    "c0 off on row s = 1": c0_defect(lambda N, s, r: s == 1),
    "c0 off on cell (N-1, 2)": c0_defect(lambda N, s, r: (s == N - 1) & (r == 2)),
}


@pytest.mark.parametrize("mutant", sorted(SKETCH_MUTANTS))
@pytest.mark.parametrize("geometry", [square_torus(N) for N in (3, 4, 5)]
                         + [make_geometry(1.5, 2, 0.5)], ids=["N3", "N4", "N5", "N6-nonsquare"])
def test_seeded_defects_fail_the_sketch_and_the_exhaustive_oracle(monkeypatch, geometry, mutant):
    # Each defect is applied by monkeypatching the keys the oracle reads (the
    # chirp is the Q key's cqp) or K's exponent table; the sketch and the
    # exhaustive max over every shadow index must both fail it.
    SKETCH_MUTANTS[mutant](monkeypatch, geometry)
    oracle = {c.name: c for c in suites.suite_dft(geometry)}["dft/grid_overlap_oracle"]
    assert not oracle.passed
    assert exhaustive_residual(exhaustive_overlaps(geometry)) > suites.ORACLE_TOL


def reference_table1_residuals(geometry, M):
    """Every cell's worst residual, sampling source and target separately
    for each cell and label pair: the straightforward form of the check."""
    N = geometry.N
    factories = {"P": make_torus_P_basis, "Q": make_torus_Q_basis}
    out = {}
    for which, cells in LABEL_ACTION.items():
        for basis, (label, sign) in cells.items():
            worst = 0.0
            for labels in itertools.product(range(N), repeat=2):
                state = sample(factories[basis](geometry, *labels, primed=True), geometry, M)
                moved = grid_shift_operator(which, state, geometry)
                shifted = list(labels)
                if sign == RAISE:
                    shifted[label] += 1
                    phase = 1.0
                else:
                    phase = np.exp(sign * 2j * np.pi * labels[label] / N)
                target = sample(factories[basis](geometry, *shifted, primed=True), geometry, M)
                worst = max(worst, float(np.abs(moved - phase * target).max()))
            out[f"table1/{which.name.lower()}/{basis}-basis"] = worst
    return out


def materialized_table1(geometry):
    """Every (name, max_residual) pair of table1_verify, computed on
    materialized keys: all four entries broadcast to the (N+1, N+1) label
    arrays and stacked into (N+1, N+1, 4), each cell's image likewise, in
    float lattice units.  The keys are read through finite._basis_key, so a
    patched key reaches it."""
    N = geometry.N
    unit = np.array([geometry.h / N, geometry.h / geometry.b, geometry.h / geometry.a, 1.0])
    turns = np.array([1.0 / N, 1.0, 1.0, N])
    labels = np.indices((N + 1, N + 1))
    mismatched, distance = {}, 0.0

    def on_lattice(keys):
        nonlocal distance
        units = keys / unit
        rounded = np.rint(units)
        units -= rounded
        np.abs(units, out=units)
        units *= turns
        distance = max(distance, float(units.max()))
        return rounded

    for basis in "PQ":
        keys = np.stack(np.broadcast_arrays(
            *finite._basis_key(geometry, basis, *labels, primed=True)), axis=-1)
        lattice = on_lattice(keys)
        for which, cells in finite.LABEL_ACTION.items():
            label, sign = cells[basis]
            key_map = symbolic.exp_key_map(*torus.grid_shift_coefficient(which, geometry))
            image = on_lattice(np.stack(key_map(*np.moveaxis(keys[:N, :N], -1, 0)), axis=-1))
            if sign == RAISE:
                image -= (lattice[1:, :N], lattice[:N, 1:])[label]
            else:
                image -= lattice[:N, :N]
                image[..., 0] -= sign * labels[label, :N, :N]
            image[..., 0] %= N
            mismatched[which, basis] = float(np.count_nonzero(image.any(axis=-1)))
    return [(f"table1/{which.name.lower()}/{basis}-basis", mismatched[which, basis])
            for which, cells in finite.LABEL_ACTION.items() for basis in cells] + [
        ("table1/lattice", distance)]


# Key mutants that break the separable shape of the keys: each makes an
# entry depend on a label it does not depend on, or makes c0 not bilinear,
# or moves c0 at one label only.
SEPARABILITY_MUTANTS = {
    "cq depends on n": key_mutant(
        "P", lambda g, n, m, key: (key[0], key[1] + n * g.h / g.b, *key[2:])),
    "cqp depends on n": key_mutant(
        "Q", lambda g, n, m, key: (*key[:3], key[3] + n)),
    "cp depends on m": key_mutant(
        "Q", lambda g, n, m, key: (*key[:2], key[2] + m * g.h / g.a, key[3])),
    "c0 times n": key_mutant(
        "P", lambda g, n, m, key: (key[0] * n, *key[1:])),
    "quarter-step c0 at one label": key_mutant(
        "Q", lambda g, n, m, key: (
            key[0] + np.where((n == 1) & (m == 0), g.h / g.N / 4, 0.0), *key[1:])),
}


class TestTable1:
    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_all_cells_pass(self, N):
        results = table1_verify(square_torus(N))
        assert len(results) == 9 and results[-1].name == "table1/lattice"
        for res in results:
            assert res.passed, (res.name, res.max_residual)
            assert res.max_residual <= 1e-12
        assert all(res.max_residual == 0.0 and res.tolerance == 0.0 for res in results[:8])

    def test_dimension_one_is_trivial(self):
        for res in table1_verify(square_torus(1)):
            assert res.max_residual <= 1e-15

    @pytest.mark.parametrize("shape", [square_torus, non_square_torus])
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_residuals_match_reference_bit_for_bit(self, N, refine, shape):
        # The table on keys agrees with the grid, the cross-layer oracle:
        # on the physical grid every reference cell holds to roundoff where
        # table1_verify counts no mismatched label.
        geometry = shape(N)
        results = table1_verify(geometry)
        assert [r.max_residual for r in results[:8]] == [0.0] * 8
        reference = reference_table1_residuals(geometry, refine * N)
        assert sorted(reference) == sorted(r.name for r in results[:8])
        if refine == 1:
            assert max(reference.values()) <= 1e-12
        else:
            # The omitted-transition control: off the physical grid the
            # wrapped strip of a Q-basis section is misrepresented, and the
            # plain roll fails every Q-basis cell, by about 2, and no other.
            for name, residual in reference.items():
                if name.endswith("Q-basis"):
                    assert abs(residual - 2.0) <= 1e-6, name
                else:
                    assert residual <= 1e-12, name

    @pytest.mark.parametrize("geometry", [square_torus(N) for N in (*range(1, 9), 16, 64)]
                             + [make_geometry(1.0, 2.0 * N, 2.0) for N in (1, 3, 7)]
                             + [make_geometry(1.5, 2, 0.5), make_geometry(1, 2, 0.4)],
                             ids=lambda g: f"a{g.a}-b{g.b}-h{g.h}")
    def test_equals_the_materialized_form(self, geometry):
        # The materialized form is the oracle of the broadcast one: every
        # count and the lattice distance agree bit for bit.
        got = [(r.name, r.max_residual) for r in table1_verify(geometry)]
        assert got == materialized_table1(geometry)

    @pytest.mark.parametrize("mutant", sorted(SEPARABILITY_MUTANTS))
    @pytest.mark.parametrize("geometry", [square_torus(2), square_torus(5), non_square_torus(4),
                                          make_geometry(1.5, 2, 0.5)],
                             ids=["N2", "N5", "N4-nonsquare", "N6-nonsquare"])
    def test_equals_the_materialized_form_on_inseparable_keys(self, monkeypatch, geometry, mutant):
        # A slice that reused a length-1 axis, or a form that assumed each
        # entry depends only on its own label, would pass the true keys and
        # fail these; every mutant fails some check.
        SEPARABILITY_MUTANTS[mutant](monkeypatch, geometry)
        got = [(r.name, r.max_residual) for r in table1_verify(geometry)]
        assert got == materialized_table1(geometry)
        assert any(residual != 0.0 for _, residual in got)

    def test_samples_each_state_once(self, monkeypatch):
        # No state is built or sampled: the keys of each basis are evaluated
        # once, on the broadcast labels n (N+1, 1) and m (1, N+1).
        N = 5
        sampled = counting_samples(monkeypatch)
        built = counting_builds(monkeypatch)
        keys = counting_keys(monkeypatch)
        assert all(r.passed for r in table1_verify(square_torus(N)))
        assert built == [] and sampled == []
        assert keys == [(basis, (N + 1, 1), (1, N + 1)) for basis in "PQ"]

    @staticmethod
    def verdicts(geometry):
        return {r.name: r.passed for r in table1_verify(geometry)}

    def test_flipped_cq_sign_fails_cells(self, monkeypatch):
        # A Q-basis factory with cq = +m h/b: the keys stay on the lattice,
        # so only cells can see it.
        patch_key(monkeypatch, finite, "Q", lambda n, m, key: (key[0], -key[1], *key[2:]))
        verdicts = self.verdicts(non_square_torus(4))
        failing = sorted(name for name, passed in verdicts.items() if not passed)
        assert failing and all(name.endswith("Q-basis") for name in failing)
        assert verdicts["table1/lattice"]

    @pytest.mark.parametrize("basis", ["P", "Q"])
    def test_quarter_step_c0_fails_the_lattice(self, monkeypatch, basis):
        # A constant phase shared by every state is invisible to the cells
        # (and to the grid); its distance from the lattice is not.
        N = 4
        geometry = non_square_torus(N)
        step = geometry.h / N
        patch_key(monkeypatch, finite, basis, lambda n, m, key: (key[0] + step / 4, *key[1:]))
        results = table1_verify(geometry)
        assert [r.name for r in results if not r.passed] == ["table1/lattice"]
        assert abs(results[-1].max_residual - 0.25 / N) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_fails_the_lattice(self, monkeypatch, bad):
        # A key with a quarter-step c0 everywhere and one non-finite cqp
        # reads half a unit off there, times cqp's weight N, with no
        # RuntimeWarning, not even from inf - inf.
        N = 4
        geometry = non_square_torus(N)
        step = geometry.h / N
        patch_key(monkeypatch, finite, "Q", lambda n, m, key: (
            key[0] + step / 4, key[1], key[2], np.where((n == 1) & (m == 1), bad, key[3])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = table1_verify(geometry)
        lattice = results[-1]
        assert lattice.name == "table1/lattice" and not lattice.passed
        assert lattice.max_residual == 0.5 * N

    @pytest.mark.parametrize("which, basis, corrupted", [
        (GridShift.EXP_QLEFT, "Q", (0, -1)),      # phase sign flipped
        (GridShift.EXP_QRIGHT, "P", (0, -1)),     # phase sign flipped
        (GridShift.EXP_PLEFT, "Q", (1, RAISE)),   # raises m instead of n
        (GridShift.EXP_PRIGHT, "P", (1, RAISE)),  # raises r instead of s
        (GridShift.EXP_QLEFT, "P", (0, RAISE)),   # raises s instead of r
    ])
    def test_corrupted_cell_fails_alone(self, monkeypatch, which, basis, corrupted):
        table = {w: dict(cells) for w, cells in LABEL_ACTION.items()}
        table[which][basis] = corrupted
        monkeypatch.setattr(finite, "LABEL_ACTION", table)
        results = table1_verify(non_square_torus(4))
        assert len(results) == 9
        failing = [r.name for r in results if not r.passed]
        assert failing == [f"table1/{which.name.lower()}/{basis}-basis"]


@pytest.mark.parametrize("func", [table1_verify, physical_grid_overlaps])
def test_peak_memory_is_the_stated_formula(func):
    # The traced peak at N = 128 is the bytes the docstrings state within
    # one ufunc buffer of np.getbufsize() complex values, 19% of table1's
    # stated bytes and 12.5% of the dft oracle's; table1's stated bytes
    # bound its peak.
    N = 128
    stated = {
        table1_verify: 40 * (N + 1)**2 + 80 * (N + 1) + 2**14,
        physical_grid_overlaps: 16 * 4 * N**2,
    }[func]
    func(square_torus(2))  # numpy's lazily built state is not the function's
    tracemalloc.start()
    try:
        func(square_torus(N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(peak - stated) <= 16 * np.getbufsize()
    if func is table1_verify:
        assert peak <= stated


def test_dft_oracle_streams_in_quadratic_memory():
    # At N = 128 the oracle holds at most four N x N complex arrays at once,
    # never an (N, N, N) one: its traced peak is the stated formula within
    # the slack above, and over 10x below the batched form's
    # 16 (2 N^3 + 4 N^2) bytes.
    N = 128
    stated = 16 * 4 * N**2
    physical_grid_overlaps(square_torus(2))
    tracemalloc.start()
    try:
        physical_grid_overlaps(square_torus(N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(peak - stated) <= 16 * np.getbufsize()
    assert 10 * peak <= 16 * (2 * N**3 + 4 * N**2)


def test_weyl_peak_is_within_its_estimate():
    # The clock and shift are integer monomials: the suite holds a few int64
    # arrays of N labels (about 65 N bytes measured), no N x N matrix.
    N = 4096
    suite_weyl(square_torus(2))  # numpy's lazily built state is not the suite's
    tracemalloc.start()
    try:
        suite_weyl(square_torus(N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * N + 2**16


@pytest.mark.parametrize("suite", ["orthonormality", "table1", "weyl", "dft", "charts", "all"])
@pytest.mark.parametrize("geometry", [square_torus(1), square_torus(4), non_square_torus(5)],
                         ids=["N1", "N4", "N5-nonsquare"])
def test_key_suites_build_and_sample_no_state(monkeypatch, suite, geometry):
    # These suites read every basis state from its phase key: none builds or
    # evaluates a wave function, and none samples one on a grid.  All suites
    # together build only the commutators suite's random family members.
    built = counting_builds(monkeypatch)
    sampled = counting_samples(monkeypatch)
    evaluated = []
    monkeypatch.setattr(symbolic.BilinearPhaseTerm, "evaluate", lambda *args: evaluated.append(args))
    assert all(c.passed for c in run_suites(suite, geometry))
    assert sampled == [] and evaluated == []
    if suite == "all":
        count = len(built)
        built.clear()
        run_suites("commutators", geometry)
        assert len(built) == count
    else:
        assert built == []


class TestMemoryRefusal:
    """table1_verify and physical_grid_overlaps refuse a run whose stated peak
    exceeds the available memory themselves, for library callers too."""

    @pytest.mark.parametrize("func, name", [(table1_verify, "table1"),
                                            (physical_grid_overlaps, "dft")])
    def test_refused_before_any_state_is_sampled(self, monkeypatch, func, name):
        sampled = counting_samples(monkeypatch)
        built = counting_builds(monkeypatch)
        keys = counting_keys(monkeypatch)
        # 512 bytes is below both stated peaks at N = 4 (table1's 17784, the
        # dft oracle's 1024).
        monkeypatch.setattr(memory, "_available_memory", lambda: 512)
        with pytest.raises(MemoryError, match=f"^{name} at N=4 needs ~"):
            func(square_torus(4))
        assert sampled == [] and built == [] and keys == []


class TestCrossModuleConsistency:
    @pytest.mark.parametrize("N", [2, 3, 4, 8])
    def test_grid_matrix_elements_match_clock_and_shift(self, N):
        # <Q-basis n, 0 | operator | Q-basis n', 0> on the physical grid, all
        # N kets moved in one stacked grid_shift_operator call.
        geometry = square_torus(N)
        bras = grid_bras([make_torus_Q_basis(geometry, n, 0, primed=True) for n in range(N)],
                         geometry, N)

        def elements(which):
            moved = grid_shift_operator(which, bras.conj().reshape(N, N, N), geometry)
            return bras @ moved.reshape(N, N * N).T / N**2

        assert np.abs(elements(GridShift.EXP_PLEFT) - shift(N)).max() <= 1e-12
        assert np.abs(elements(GridShift.EXP_QLEFT) - clock(N)).max() <= 1e-12

    def test_matrix_elements_independent_of_shadow_label(self):
        # The physical words never see m: matrix elements taken in the m = 0
        # sheet agree with those taken in any other fixed-m sheet.
        N = 4
        geometry = square_torus(N)

        def elements(m, which):
            states = [
                sample(make_torus_Q_basis(geometry, n, m, primed=True), geometry, N)
                for n in range(N)
            ]
            out = np.zeros((N, N), dtype=complex)
            for col, st in enumerate(states):
                moved = grid_shift_operator(which, st, geometry)
                for row, bra in enumerate(states):
                    out[row, col] = np.vdot(bra, moved) / N**2
            return out

        for which in (GridShift.EXP_PLEFT, GridShift.EXP_QLEFT):
            base = elements(0, which)
            for m in (1, 2, 3):
                assert np.abs(elements(m, which) - base).max() <= 1e-12


class TestTraceObstruction:
    def test_clock_shift_commutator_is_traceless(self):
        C = clock(2)
        S = shift(2)
        assert abs(np.trace(C @ S - S @ C)) <= 1e-12

    def test_equal_operators_commute_exactly(self):
        A = clock(5)
        assert abs(np.trace(A @ A - A @ A)) == 0.0

    @pytest.mark.parametrize("N", [2, 3, 8])
    def test_random_pairs(self, N):
        # The N^2 words clock^j shift^k span all N x N matrices, so random
        # combinations of them are generic operators on the physical space;
        # every commutator among them is traceless, while [Q, P] = i hbar
        # would need trace i hbar N.
        C, S = clock(N), shift(N)
        words = np.array([np.linalg.matrix_power(C, j) @ np.linalg.matrix_power(S, k)
                          for j in range(N) for k in range(N)])
        assert np.linalg.matrix_rank(words.reshape(N * N, N * N)) == N * N
        rng = np.random.default_rng(1)
        for _ in range(100):
            A, B = np.tensordot(rng.standard_normal((2, N * N, 2)) @ [1, 1j], words, axes=1)
            resid = abs(np.trace(A @ B - B @ A)) / (np.linalg.norm(A) * np.linalg.norm(B))
            assert resid <= 1e-10
