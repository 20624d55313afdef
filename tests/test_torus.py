import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import grid_bras, patch_key, random_wavefunction, square_torus
from torusq.plane import make_plane_Q_basis
from torusq import plane, suites, torus
from torusq.suites import suite_orthonormality
from torusq.symbolic import (
    BilinearPhaseTerm,
    OperatorKind,
    WaveFunction,
    exp_operator_apply,
    is_eigenstate,
)
from torusq.torus import (
    N_DETECT_REL_TOL,
    GridShift,
    _basis_key,
    chart_consistency_check,
    grid_coordinates,
    grid_shift_coefficient,
    grid_shift_operator,
    holonomy,
    make_geometry,
    make_torus_P_basis,
    make_torus_Q_basis,
    sample,
    transition_function,
)


def boundary_loop_integral(geometry, steps=10_000):
    """Numerical oracle for the holonomy exponent: integrate the gauge
    potential A_q = 0, A_p = q/hbar counterclockwise around the
    fundamental-domain boundary."""

    def a_q(q, p):
        return 0.0 * q

    def a_p(q, p):
        return q / geometry.hbar

    a, b = geometry.a, geometry.b
    total = 0.0
    qs = (np.arange(steps) + 0.5) * (b / steps)
    ps = (np.arange(steps) + 0.5) * (a / steps)
    total += np.sum(a_q(qs, np.zeros_like(qs))) * (b / steps)        # (0,0) -> (b,0)
    total += np.sum(a_p(np.full_like(ps, b), ps)) * (a / steps)      # (b,0) -> (b,a)
    total -= np.sum(a_q(qs, np.full_like(qs, a))) * (b / steps)      # (b,a) -> (0,a)
    total -= np.sum(a_p(np.zeros_like(ps), ps)) * (a / steps)        # (0,a) -> (0,0)
    return total


# Every N up to 8 on the square torus, and two tori whose cq and cp lattice
# units differ.
KEY_GEOMETRIES = [square_torus(N) for N in range(1, 9)] + [
    make_geometry(1.5, 2.0, 0.5), make_geometry(1.0, 2.0, 0.4)]
KEY_IDS = [f"N{N}" for N in range(1, 9)] + ["a1.5-b2-h0.5", "a1-b2-h0.4"]


class TestGeometry:
    def test_integer_detection(self):
        assert make_geometry(2.0, 3.0, 1.0).N == 6
        assert make_geometry(1.0, 1.0, 1.0).N == 1
        assert make_geometry(1.0, 0.5, 1.0).N is None

    def test_rejects_non_positive(self):
        for bad in ((0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, 0.0)):
            with pytest.raises(ValueError):
                make_geometry(*bad)

    def test_quantized_invariant(self):
        g = make_geometry(1.5, 2.0, 0.5)
        assert g.N == 6
        assert abs(g.a * g.b - g.N * g.h) <= 1e-9 * g.a * g.b

    def test_hbar(self):
        g = make_geometry(1.0, 1.0, 2.0)
        assert g.hbar == 2.0 / (2 * math.pi)


class TestHolonomy:
    def test_quantized_geometry_has_unit_holonomy(self):
        for args in ((2.0, 3.0, 1.0), (1.0, 1.0, 1.0), (0.5, 4.0, 0.25)):
            assert abs(holonomy(make_geometry(*args)) - 1.0) <= 1e-12

    def test_bound_when_n_present(self):
        # N is detected within a relative tolerance, so the holonomy of a
        # quantized geometry is 1 only within 2 pi N_DETECT_REL_TOL ab/h.
        g = make_geometry(1.0000000004, 4.0, 1.0)
        assert g.N == 4
        deviation = abs(holonomy(g) - 1.0)
        assert 1e-9 < deviation <= 2 * math.pi * N_DETECT_REL_TOL * g.a * g.b / g.h

    def test_half_integer_area(self):
        assert abs(holonomy(make_geometry(1.0, 0.5, 1.0)) - (-1.0)) <= 1e-12

    def test_multiplicative_under_doubling(self):
        g1 = make_geometry(1.0, 0.7, 1.0)
        g2 = make_geometry(1.0, 1.4, 1.0)
        assert abs(holonomy(g2) - holonomy(g1) ** 2) <= 1e-12

    def test_against_boundary_line_integral(self):
        for args in ((1.0, 0.5, 1.0), (2.0, 3.0, 1.0), (1.3, 0.9, 0.7)):
            g = make_geometry(*args)
            want = np.exp(1j * boundary_loop_integral(g))
            assert abs(holonomy(g) - want) <= 1e-10


class TestTransitionFunction:
    def test_unit_at_zero(self):
        assert transition_function(make_geometry(1.0, 2.0, 1.0), 0.0) == 1.0

    def test_periodic_iff_quantized(self):
        gq = make_geometry(2.0, 1.5, 1.0)
        assert gq.N == 3
        for p in (0.0, 0.3, 1.1):
            assert abs(transition_function(gq, p + gq.a) - transition_function(gq, p)) <= 1e-12
        gn = make_geometry(1.0, 0.5, 1.0)
        assert abs(transition_function(gn, 1.0) / transition_function(gn, 0.0) - (-1.0)) <= 1e-12

    def test_ratio_over_period_is_holonomy(self):
        g = make_geometry(1.0, 0.8, 1.0)
        ratio = transition_function(g, 0.4 + g.a) / transition_function(g, 0.4)
        assert abs(ratio - holonomy(g)) <= 1e-12


MUTANT_GEOMETRIES = [square_torus(N) for N in (3, 4, 5)] + [make_geometry(1.5, 2.0, 0.5)]
MUTANT_IDS = ["N3", "N4", "N5", "a1.5-b2-h0.5"]
CHART_MUTANTS = ["negated_cqp", "halved_cq", "halved_cp", "conjugated_transition"]


def q_key_mutant(monkeypatch, mutant):
    """Seed one defect of the chart data: the Q key's cqp negated, or its cq
    or cp halved, at its one statement (plane._basis_key), or the transition
    conjugated (t = -1)."""
    if mutant == "conjugated_transition":
        monkeypatch.setattr(torus, "TRANSITION_CQP", -torus.TRANSITION_CQP)
        return
    real = plane._basis_key

    def key(basis, l, k, c0=0.0):
        c0, cq, cp, cqp = real(basis, l, k, c0)
        if basis == "Q":
            cq, cp, cqp = {"negated_cqp": (cq, cp, -cqp), "halved_cq": (cq / 2, cp, cqp),
                           "halved_cp": (cq, cp / 2, cqp)}[mutant]
        return c0, cq, cp, cqp

    monkeypatch.setattr(plane, "_basis_key", key)


def seam_oracle(geometry, labels):
    """Largest pointwise mismatch of the Q-basis states across both periods,
    from public functions: f(q + b, p) against transition_function(p) f(q, p)
    and f(q, p + a) against e^{2 pi i N q/b} f(q, p), at random points of
    the fundamental domain."""
    rng = np.random.default_rng(11)
    q = rng.uniform(0.0, geometry.b, 64)
    p = rng.uniform(0.0, geometry.a, 64)
    across_q_factor = np.array([transition_function(geometry, x) for x in p])
    across_p_factor = np.exp(2j * np.pi * geometry.N * q / geometry.b)
    worst = 0.0
    for n, m in labels:
        wf = make_torus_Q_basis(geometry, n, m)
        here = wf.evaluate(q, p)
        across_q = wf.evaluate(q + geometry.b, p) - across_q_factor * here
        across_p = wf.evaluate(q, p + geometry.a) - across_p_factor * here
        worst = max(worst, float(np.abs(across_q).max()), float(np.abs(across_p).max()))
    return worst


class TestCharts:
    def test_consistency_on_quantized_geometry(self):
        g = square_torus(2)
        for n, m in ((0, 0), (1, 1)):
            res = chart_consistency_check(g, n, m)
            assert res.passed and res.max_residual <= 1e-12

    @pytest.mark.parametrize("N", [1024, 4096, 65536])
    def test_suite_passes_at_large_N(self, N):
        # The boundary factors are read from the key in turns, so nothing
        # grows with N: the sampled strip failed here from N = 1024.
        checks = suites.suite_charts(make_geometry(1.0, float(N), 1.0))
        assert all(c.passed for c in checks)
        assert [c.max_residual for c in checks] == [0.0, 0.0, N + 0.5]

    def test_underflowing_lattice_unit(self):
        # h/b underflows to 0 on this quantized geometry; the turns cq b/h
        # and cp a/h never divide by a lattice unit.
        g = make_geometry(1e-300, 1e200, 1e-125)
        assert g.N is not None and g.h / g.b == 0.0
        assert all(c.passed for c in suites.suite_charts(g))

    @pytest.mark.parametrize("geometry", KEY_GEOMETRIES, ids=KEY_IDS)
    def test_keys_off_the_suite_labels_sit_on_whole_turns(self, geometry):
        for n, m in itertools.product(range(-1, geometry.N + 2), repeat=2):
            assert chart_consistency_check(geometry, n, m).max_residual <= 1e-14, (n, m)

    @pytest.mark.parametrize("geometry", MUTANT_GEOMETRIES, ids=MUTANT_IDS)
    @pytest.mark.parametrize("mutant", CHART_MUTANTS)
    def test_seeded_defects_fail_chart_consistency(self, monkeypatch, mutant, geometry):
        q_key_mutant(monkeypatch, mutant)
        checks = suites.suite_charts(geometry)
        assert any(c.name == "chart_consistency" and not c.passed for c in checks)
        assert checks[-1].name == "chart_mismatch_without_transition" and checks[-1].passed

    @pytest.mark.parametrize("geometry", MUTANT_GEOMETRIES, ids=MUTANT_IDS)
    def test_pointwise_oracle_agrees_with_the_key_check(self, monkeypatch, geometry):
        # The values across both periods obey the transition data to
        # roundoff on the true key, and every mutant the key check fails
        # is visible pointwise too.
        labels = [(0, 0), (1, 1)]
        assert seam_oracle(geometry, labels) <= 1e-12
        for mutant in CHART_MUTANTS:
            with monkeypatch.context() as patch:
                q_key_mutant(patch, mutant)
                assert seam_oracle(geometry, labels) > 0.1, mutant

    def test_omitting_transition_is_detected(self):
        # The missing factor e^{ibp/hbar} is a chirp of a b/h = N = 2 turns
        # across the domain: residual 2 (turns)
        g = square_torus(2)
        res = chart_consistency_check(g, 0, 0, apply_transition=False)
        assert res.name == "chart_mismatch_without_transition"
        assert res.passed and res.max_residual > 0.1
        assert abs(res.max_residual - 2.0) < 1e-6

    def test_non_quantized_diagnostic_mode(self):
        broken = make_geometry(1.0, 2.5, 1.0)  # area/h = N + 1/2
        assert broken.N is None
        res = chart_consistency_check(broken, 0, 0, apply_transition=False)
        assert res.passed and res.max_residual > 0.1
        with pytest.raises(ValueError):
            chart_consistency_check(broken, 0, 0, apply_transition=True)

    @pytest.mark.parametrize("geometry", KEY_GEOMETRIES, ids=KEY_IDS)
    def test_section_is_the_torus_q_state(self, geometry):
        # The plane factory at the torus labels is the torus factory's
        # state: both read plane._basis_key, as the chart check does
        # through torus._basis_key (TestBasisKey).
        for n, m in itertools.product(range(geometry.N + 1), repeat=2):
            section = make_plane_Q_basis(n * geometry.h / geometry.a, m * geometry.h / geometry.b,
                                         geometry.hbar)
            assert section.to_json() == make_torus_Q_basis(geometry, n, m).to_json(), (n, m)


class TestBases:
    def test_p_basis_zero_labels_is_one(self):
        g = square_torus(2)
        wf = make_torus_P_basis(g, 0, 0)
        assert wf.evaluate(0.3, 0.9) == 1.0 + 0j

    def test_p_basis_eigenvalues(self):
        g = make_geometry(2.0, 1.0, 1.0)  # N = 2, b = 1
        wf = make_torus_P_basis(g, 1, 2)
        assert abs(is_eigenstate(OperatorKind.P_LEFT, wf) - 2.0) < 1e-12  # m h / b
        assert abs(is_eigenstate(OperatorKind.Q_RIGHT, wf) - 0.5) < 1e-12  # n h / a

    def test_p_basis_periodicity(self):
        g = square_torus(3)
        wf = make_torus_P_basis(g, 1, 0)
        for q in (0.0, 0.4):
            assert abs(wf.evaluate(q, g.a) - wf.evaluate(q, 0.0)) < 1e-12
        wf2 = make_torus_P_basis(g, 0, 2)
        for p in (0.0, 0.7):
            assert abs(wf2.evaluate(g.b, p) - wf2.evaluate(0.0, p)) < 1e-12

    def test_q_basis_eigenvalues(self):
        g = make_geometry(4.0, 1.0, 1.0)  # N = 4, b = 1
        wf = make_torus_Q_basis(g, 1, 0)
        assert abs(is_eigenstate(OperatorKind.Q_LEFT, wf) - 0.25) < 1e-12  # n b / N
        g2 = make_geometry(1.0, 3.0, 1.0)  # a = 1, h = 1, so b = N
        wf2 = make_torus_Q_basis(g2, 1, 0)
        assert abs(is_eigenstate(OperatorKind.Q_LEFT, wf2) - 1.0) < 1e-12  # n h / a

    def test_q_basis_pright_eigenvalue(self):
        g = square_torus(4)
        wf = make_torus_Q_basis(g, 0, 3)
        want = 3 * g.a / 4  # m a / N
        assert abs(is_eigenstate(OperatorKind.P_RIGHT, wf) - want) < 1e-12

    def test_primed_differs_by_constant_phase(self):
        g = square_torus(4)
        for n, m in ((1, 1), (2, 3), (3, 1)):
            plain = make_torus_Q_basis(g, n, m, primed=False)
            primed = make_torus_Q_basis(g, n, m, primed=True)
            want = np.exp(2j * np.pi * n * m / 4)
            for q, p in ((0.1, 0.3), (1.0, 0.5)):
                ratio = primed.evaluate(q, p) / plain.evaluate(q, p)
                assert abs(ratio - want) < 1e-12

    def test_primed_value_at_own_gridpoint_is_one(self):
        g = square_torus(4)
        for n, m in ((0, 0), (1, 2), (3, 3)):
            wf = make_torus_Q_basis(g, n, m, primed=True)
            assert abs(wf.evaluate(n * g.b / 4, m * g.a / 4) - 1.0) < 1e-12

    @pytest.mark.parametrize("geometry", KEY_GEOMETRIES, ids=KEY_IDS)
    def test_factories_wrap_the_basis_key(self, geometry):
        # Each factory state is the one term of amplitude 1 whose key the
        # suites read as arrays, and the array path gives the int path's
        # key bit for bit, on 2-D and on 1-D labels.
        N = geometry.N
        labels = np.indices((N + 1, N + 1))
        line = np.arange(N + 1)
        for basis, factory in (("P", make_torus_P_basis), ("Q", make_torus_Q_basis)):
            _, cq, cp, _ = _basis_key(geometry, basis, line, line)
            for primed in (False, True):
                arrays = np.broadcast_arrays(*_basis_key(geometry, basis, *labels, primed))
                for n, m in itertools.product(range(N + 1), repeat=2):
                    key = _basis_key(geometry, basis, n, m, primed)
                    state = WaveFunction.single(1.0, *key, hbar=geometry.hbar)
                    assert factory(geometry, n, m, primed).to_json() == state.to_json()
                    bits = [float(k).hex() for k in key]
                    assert [float(a[n, m]).hex() for a in arrays] == bits, (basis, n, m)
                    assert [float(cq[m]).hex(), float(cp[n]).hex()] == bits[1:3]

    def test_non_quantized_geometry_refused(self):
        broken = make_geometry(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            make_torus_P_basis(broken, 0, 0)
        with pytest.raises(ValueError):
            make_torus_Q_basis(broken, 0, 0)


class TestBasisKey:
    """Both bases are stated once, by plane._basis_key; torus._basis_key
    reads it at the lattice eigenvalues, and every suite reads that."""

    BROKEN = make_geometry(1.0, 2.5, 1.0)  # a*b/h = 2.5, not quantized

    def test_primed_key_refuses_a_non_quantized_geometry(self):
        for basis in "PQ":
            with pytest.raises(ValueError, match="not quantized"):
                _basis_key(self.BROKEN, basis, 1, 1, primed=True)

    def test_unprimed_key_is_the_plane_key_on_any_geometry(self):
        g = self.BROKEN
        arrays = tuple(np.indices((4, 4)) - 1)  # labels -1 to 2
        for basis in "PQ":
            for n, m in ((0, 0), (-1, 2), (3, 1), arrays):
                got = np.broadcast_arrays(*_basis_key(g, basis, n, m))
                want = np.broadcast_arrays(*plane._basis_key(basis, n * g.h / g.a, m * g.h / g.b))
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (basis, n, m)

    def test_both_chart_checks_read_the_torus_key(self, monkeypatch):
        calls = []
        patch_key(monkeypatch, torus, "Q", lambda n, m, key: calls.append((n, m)) or key)
        checks = suites.suite_charts(square_torus(4))
        assert [c.name for c in checks] == ["chart_consistency"] * 2 + [
            "chart_mismatch_without_transition"]
        assert all(c.passed for c in checks)
        assert calls == [(0, 0), (1, 1), (0, 0)]

    @pytest.mark.parametrize("basis", ["P", "Q"])
    @pytest.mark.parametrize("N", [4, 5, 6])
    def test_flipped_plane_signs_fail_verify(self, monkeypatch, basis, N):
        # cq and cp of one basis negated at their one statement: the keys
        # stay on the lattice and the flipped basis is still orthonormal, so
        # exactly that basis's four action cells and the dft oracle fail.
        real = plane._basis_key

        def flipped(b, l, k, c0=0.0):
            key = real(b, l, k, c0)
            return (key[0], -key[1], -key[2], key[3]) if b == basis else key

        monkeypatch.setattr(plane, "_basis_key", flipped)
        checks = suites.run_suites("all", make_geometry(1.0, float(N), 1.0))
        assert len(checks) == 28
        assert sorted(c.name for c in checks if not c.passed) == sorted(
            [f"table1/{which.name.lower()}/{basis}-basis" for which in GridShift]
            + ["dft/grid_overlap_oracle"])


class TestSampling:
    def test_constant_gives_all_ones(self):
        g = square_torus(2)
        wf = make_torus_P_basis(g, 0, 0)
        grid = sample(wf, g, 8)
        assert grid.dtype == complex
        assert np.array_equal(grid, np.ones((8, 8), dtype=complex))

    def test_q_basis_values_on_unit_torus(self):
        # For N = 1, a = b = h = 1 the sampled values are e^{2 pi i (i/M)(j/M)}
        g = make_geometry(1.0, 1.0, 1.0)
        grid = sample(make_torus_Q_basis(g, 0, 0, primed=True), g, 4)
        i, j = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        want = np.exp(2j * np.pi * (i / 4) * (j / 4))
        assert np.abs(grid - want).max() < 1e-14

    def test_sampling_is_linear(self):
        g = square_torus(2)
        f = make_torus_Q_basis(g, 0, 1)
        h = make_torus_P_basis(g, 1, 0)
        alpha, beta = 0.75 - 0.5j, -1.25j
        combo = sample(f.scale(alpha) + h.scale(beta), g, 8)
        direct = alpha * sample(f, g, 8) + beta * sample(h, g, 8)
        assert np.abs(combo - direct).max() <= 1e-14

    def test_sample_holds_one_grid_beside_its_output(self):
        # Each term's phase is built and exponentiated in place in one
        # complex array, which is then added into the output: one sample of
        # a basis state peaks at two (M, M) complex arrays, where separate
        # temporaries for the prefactor, the phase and its exp took 5.5.
        g = square_torus(64)
        wf = make_torus_Q_basis(g, 3, 5, primed=True)
        M = 512
        sample(wf, g, 64)  # numpy's lazily built state is not the sample's
        tracemalloc.start()
        try:
            sample(wf, g, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * M**2 + 16 * np.getbufsize() + 2**16

    def test_m_validation(self):
        g = square_torus(2)
        wf = make_torus_P_basis(g, 0, 0)
        with pytest.raises(ValueError):
            sample(wf, g, 3)  # not a multiple of N = 2
        with pytest.raises(ValueError):
            sample(wf, g, 0)

    def test_validation_precedes_allocation(self):
        # An (M, M) array at M = 10^6 + 1 cannot be allocated: an M that is
        # not a multiple of N must be refused before the array is requested.
        g = square_torus(2)
        wf = make_torus_P_basis(g, 0, 1)
        for M in (3, 10**6 + 1, 0):
            with pytest.raises(ValueError):
                sample(wf, g, M)
        with pytest.raises(ValueError):
            sample(wf, make_geometry(1.0, 0.5, 1.0), 4)  # not quantized

    def test_grid_layout(self):
        g = make_geometry(2.0, 4.0, 1.0)
        wf = make_torus_P_basis(g, 1, 1)
        grid = sample(wf, g, 8)
        # values[i, j] = f(q = j b / M, p = i a / M)
        assert grid.shape == (8, 8)
        assert abs(grid[2, 5] - wf.evaluate(5 * g.b / 8, 2 * g.a / 8)) < 1e-15
        q, p = grid_coordinates(g, 8)
        assert q[1] == g.b / 8
        assert p[1] == g.a / 8


class TestSampleStack:
    """sample is WaveFunction.evaluate on the grid coordinates, bit for bit."""

    @staticmethod
    def states(geometry, seed):
        N, hbar = geometry.N, geometry.hbar
        rng = np.random.default_rng(seed)
        # One state whose terms have cqp 0, 1 and a dyadic value, with
        # non-constant prefactors; random multi-term states (dyadic cqp);
        # basis states of both kinds; the zero state.
        mixed = WaveFunction([
            BilinearPhaseTerm(1.0 - 0.5j, 0.25, -0.5 * k, 0.75, cqp, hbar=hbar,
                              prefactor={(0, 0): 1.0, (1, 2): 0.5j, (2, 0): -0.25})
            for k, cqp in enumerate((0.0, 1.0, 0.375))])
        return ([mixed] + [random_wavefunction(rng.integers, hbar) for _ in range(4)]
                + [make_torus_Q_basis(geometry, N - 1, 1, primed=True),
                   make_torus_P_basis(geometry, 1, N - 1, primed=True),
                   WaveFunction.zero(hbar)])

    @pytest.mark.parametrize("refine", [1, 2, 8])
    @pytest.mark.parametrize("geometry", [square_torus(1), make_geometry(1.0, 2.0, 0.4),
                                          square_torus(64, h=0.75)])
    def test_matches_evaluate(self, geometry, refine):
        M = refine * geometry.N
        states = self.states(geometry, seed=M)
        q, p = grid_coordinates(geometry, M)
        for wf in states:
            values = sample(wf, geometry, M)
            assert values.shape == (M, M)
            assert np.array_equal(values, wf.evaluate(q[None, :], p[:, None]))
        assert not values.any()  # the zero state


class TestInnerProduct:
    def test_orthonormal_pairs(self):
        g = square_torus(2)
        M = 16
        psi00 = sample(make_torus_Q_basis(g, 0, 0, primed=True), g, M)
        psi10 = sample(make_torus_Q_basis(g, 1, 0, primed=True), g, M)
        assert abs(np.vdot(psi00, psi00) / M**2 - 1.0) <= 1e-12
        assert abs(np.vdot(psi00, psi10) / M**2) <= 1e-12
        phi00 = sample(make_torus_P_basis(g, 0, 0), g, M)
        phi01 = sample(make_torus_P_basis(g, 0, 1), g, M)
        assert abs(np.vdot(phi00, phi01) / M**2) <= 1e-12

    def test_gram_identity_small(self):
        for N in (2, 3):
            g = square_torus(N)
            M = 8 * N
            qs = [sample(make_torus_Q_basis(g, n, m, primed=True), g, M)
                  for n in range(N) for m in range(N)]
            gram = np.array([[np.vdot(x, y) / M**2 for y in qs] for x in qs])
            assert np.abs(gram - np.eye(N * N)).max() <= 1e-12

    @pytest.mark.parametrize("geometry", [
        square_torus(1),
        square_torus(3),
        make_geometry(1.0, 2.0, 0.4),  # N = 5, M = 40
        make_geometry(3.0, 1.0, 0.25),  # N = 12, M = 96
    ])
    def test_streamed_gram_matches_one_shot(self, geometry):
        # The suite's factored residual against the full Gram of the bases
        # sampled on the M x M grid.
        N = geometry.N
        M = 8 * N
        labels = [(n, m) for n in range(N) for m in range(N)]
        checks = suite_orthonormality(geometry)
        for check, states in zip(checks, (
                [make_torus_Q_basis(geometry, n, m, primed=True) for n, m in labels],
                [make_torus_P_basis(geometry, n, m) for n, m in labels])):
            bras = grid_bras(states, geometry, M)
            one_shot = float(np.abs(bras @ bras.conj().T / M**2 - np.eye(N * N)).max())
            assert abs(check.max_residual - one_shot) <= 2e-15, check.name

    @pytest.mark.parametrize("cq_scale, cp_scale", [(1.0, 0.5), (0.5, 1.0)])
    def test_factored_gram_is_exact_off_the_identity(self, monkeypatch, cq_scale, cp_scale):
        # Halving every P-basis cp (or cq) keeps the product structure but
        # breaks the orthogonality: the residual, now an off-diagonal entry of
        # A (or B), must still equal the full sampled Gram's.
        geometry = make_geometry(1.0, 2.0, 0.4)
        N, M = geometry.N, 8 * geometry.N

        def squeezed(n, m, key):
            c0, cq, cp, cqp = key
            return c0, cq_scale * cq, cp_scale * cp, cqp

        patch_key(monkeypatch, suites, "P", squeezed)
        residual = suite_orthonormality(geometry)[1].max_residual
        bras = grid_bras([WaveFunction.single(1.0, *suites._basis_key(geometry, "P", n, m),
                                              hbar=geometry.hbar)
                          for n in range(N) for m in range(N)], geometry, M)
        one_shot = float(np.abs(bras @ bras.conj().T / M**2 - np.eye(N * N)).max())
        assert one_shot > 0.5
        assert abs(residual - one_shot) <= 1e-12

    def test_conjugate_symmetry_and_positivity(self):
        rng = np.random.default_rng(41)
        f = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        M = 4
        assert abs(np.vdot(f, h) / M**2 - np.conj(np.vdot(h, f) / M**2)) <= 1e-12
        norm = np.vdot(f, f) / M**2
        assert abs(norm.imag) <= 1e-12 and norm.real > 0

    def test_mismatched_grids_rejected(self):
        # Samples on grids of different M have different lengths and cannot
        # be paired.
        g2 = square_torus(2)
        g3 = square_torus(3)
        f = sample(make_torus_P_basis(g2, 0, 0), g2, 8)
        h = sample(make_torus_P_basis(g2, 0, 0), g2, 16)
        with pytest.raises(ValueError):
            np.vdot(f, h)
        k = sample(make_torus_P_basis(g3, 0, 0), g3, 9)
        with pytest.raises(ValueError):
            np.vdot(f, k)


class TestGridShifts:
    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_grid_map_samples_the_symbolic_exponential(self, N):
        # The grid and symbolic layers derive their maps from the same
        # operator rows; on the physical grid they must agree on every state.
        g = square_torus(N)
        for which in GridShift:
            kind, s = grid_shift_coefficient(which, g)
            for factory in (make_torus_P_basis, make_torus_Q_basis):
                for n in range(N):
                    for m in range(N):
                        state = factory(g, n, m, primed=True)
                        symbolic = sample(exp_operator_apply(kind, s, state), g, N)
                        grid = grid_shift_operator(which, sample(state, g, N), g)
                        assert np.abs(symbolic - grid).max() <= 1e-12

    def test_shift_actions_on_physical_grid(self):
        # On the M = N grid the four exponentials act exactly as tabulated.
        for N in (1, 2, 4):
            g = square_torus(N)
            for n in range(N):
                for m in range(N):
                    psi = sample(make_torus_Q_basis(g, n, m, primed=True), g, N)
                    up_n = grid_shift_operator(GridShift.EXP_PLEFT, psi, g)
                    want = sample(make_torus_Q_basis(g, n + 1, m, primed=True), g, N)
                    assert np.abs(up_n - want).max() <= 1e-12
                    up_m = grid_shift_operator(GridShift.EXP_QRIGHT, psi, g)
                    want = sample(make_torus_Q_basis(g, n, m + 1, primed=True), g, N)
                    assert np.abs(up_m - want).max() <= 1e-12

    def test_full_cycle_is_identity_at_any_grid(self):
        # N applications translate by a full period: the original samples.
        g = square_torus(3)
        psi = sample(make_torus_Q_basis(g, 1, 2, primed=True), g, 24)
        out = psi
        for _ in range(3):
            out = grid_shift_operator(GridShift.EXP_PLEFT, out, g)
        assert np.array_equal(out, psi)

    def test_nth_power_identities_on_physical_grid(self):
        # exp(-2 pi i N P_RIGHT / a) and exp(2 pi i N Q_LEFT / b) fix the
        # sampled Q-basis states; the left/right roles swap for the P-basis.
        for N in (2, 4):
            g = square_torus(N)
            for which in GridShift:
                psi = sample(make_torus_Q_basis(g, 1, 1, primed=True), g, N)
                phi = sample(make_torus_P_basis(g, 1, 1, primed=True), g, N)
                out_psi, out_phi = psi, phi
                for _ in range(N):
                    out_psi = grid_shift_operator(which, out_psi, g)
                    out_phi = grid_shift_operator(which, out_phi, g)
                assert np.abs(out_psi - psi).max() <= 1e-12
                assert np.abs(out_phi - phi).max() <= 1e-12

    def test_section_wrap_visible_on_fine_grids(self):
        # On M > N the Q-basis states are sections, not periodic functions;
        # cyclic translation misrepresents the wrapped strip by the
        # transition factor.  This is the expected diagnostic.
        N = 2
        g = square_torus(N)
        M = 8 * N
        psi = sample(make_torus_Q_basis(g, 0, 0, primed=True), g, M)
        moved = grid_shift_operator(GridShift.EXP_PLEFT, psi, g)
        want = sample(make_torus_Q_basis(g, 1, 0, primed=True), g, M)
        wrapped = np.abs(moved - want)[:, : M // N]
        untouched = np.abs(moved - want)[:, M // N:]
        assert untouched.max() <= 1e-12
        assert wrapped.max() > 0.1

    def test_p_basis_clock_phase_any_grid(self):
        # Plane waves are honestly periodic, so this cell holds on fine grids.
        g = square_torus(4)
        phi = sample(make_torus_P_basis(g, 2, 1, primed=True), g, 32)
        moved = grid_shift_operator(GridShift.EXP_PLEFT, phi, g)
        want = np.exp(-2j * np.pi * 1 / 4) * phi
        assert np.abs(moved - want).max() <= 1e-12


    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("refine", [1, 2])
    def test_stack_equals_each_state_bit_for_bit(self, N, refine):
        g = square_torus(N)
        M = refine * N
        for factory in (make_torus_P_basis, make_torus_Q_basis):
            stack = np.stack([sample(factory(g, n, m, primed=True), g, M)
                              for n in range(N) for m in range(N)])
            for which in GridShift:
                moved = grid_shift_operator(which, stack, g)
                assert moved.shape == (N * N, M, M)
                for k, state in enumerate(stack):
                    assert np.array_equal(moved[k], grid_shift_operator(which, state, g))

    def test_refuses_grid_not_multiple_of_n(self):
        g = square_torus(2)
        for values in (np.zeros((3, 3), dtype=complex), np.zeros((2, 3, 3), dtype=complex)):
            with pytest.raises(ValueError, match="multiple of N=2"):
                grid_shift_operator(GridShift.EXP_QLEFT, values, g)
        with pytest.raises(ValueError):
            grid_shift_operator(GridShift.EXP_QLEFT, np.zeros((2, 4), dtype=complex), g)
