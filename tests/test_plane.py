import cmath

import numpy as np
import pytest

from conftest import curl, dyadic, random_wavefunction
from torusq.plane import (
    DisplacementLabel,
    GaugeField,
    displacement_compose,
    make_plane_P_basis,
    make_plane_Q_basis,
    path_phase,
)
from torusq.symbolic import OperatorKind, differentiate, apply_operator, exp_operator_apply, is_eigenstate

Q_LEFT, P_LEFT = OperatorKind.Q_LEFT, OperatorKind.P_LEFT
Q_RIGHT, P_RIGHT = OperatorKind.Q_RIGHT, OperatorKind.P_RIGHT


def line_integral_phase(field, endpoint, steps=10_000):
    """Independent oracle: midpoint-rule line integration of A along the
    two-leg path, through the field's callables."""
    q, p = endpoint
    qs = (np.arange(steps) + 0.5) * (q / steps)
    leg1 = np.sum(field.a_q(qs, np.zeros_like(qs))) * (q / steps)
    ps = (np.arange(steps) + 0.5) * (p / steps)
    leg2 = np.sum(field.a_p(np.full_like(ps, q), ps)) * (p / steps)
    return cmath.exp(1j * (leg1 + leg2))


class TestPBasis:
    def test_zero_labels_give_constant_one(self):
        wf = make_plane_P_basis(0.0, 0.0, 1.0)
        assert len(wf.terms) == 1
        assert wf.terms[0].phase_key == (0.0, 0.0, 0.0, 0.0)
        assert wf.evaluate(0.3, -0.4) == 1.0 + 0j

    def test_coefficients(self):
        wf = make_plane_P_basis(1.0, 2.0, 1.0)
        assert wf.terms[0].phase_key == (0.0, 2.0, -1.0, 0.0)

    def test_eigenvalues(self):
        wf = make_plane_P_basis(4.0, 0.0, 1.0)
        assert is_eigenstate(Q_RIGHT, wf) == 4.0
        wf2 = make_plane_P_basis(1.0, 3.0, 2.0)
        assert is_eigenstate(P_LEFT, wf2) == 3.0

    def test_rejects_bad_hbar(self):
        with pytest.raises(ValueError):
            make_plane_P_basis(1.0, 1.0, 0.0)


class TestQBasis:
    def test_zero_labels_primed_equals_unprimed(self):
        a = make_plane_Q_basis(0.0, 0.0, 1.0, primed=False)
        b = make_plane_Q_basis(0.0, 0.0, 1.0, primed=True)
        assert a.max_coeff_residual(b) == 0.0
        assert a.terms[0].phase_key == (0.0, 0.0, 0.0, 1.0)

    def test_eigenvalues(self):
        wf = make_plane_Q_basis(3.0, 2.0, 1.0)
        assert is_eigenstate(Q_LEFT, wf) == 3.0
        assert is_eigenstate(P_RIGHT, wf) == 2.0

    def test_primed_is_global_phase_times_unprimed(self):
        # (p-k)(q-l) = pq - kq - lp + kl, so the primed form carries e^{ikl/hbar}
        l, k, hbar = 1.0, 2.0, 1.0
        primed = make_plane_Q_basis(l, k, hbar, primed=True)
        plain = make_plane_Q_basis(l, k, hbar, primed=False)
        q, p = 0.3, 0.7
        ratio = primed.evaluate(q, p) / plain.evaluate(q, p)
        assert abs(ratio - cmath.exp(2j)) < 1e-14
        # the two differ only in the constant phase coefficient c0 = k*l
        assert primed.terms[0].c0 == k * l
        assert plain.terms[0].c0 == 0.0
        assert primed.terms[0].phase_key[1:] == plain.terms[0].phase_key[1:]

    def test_shift_covariance_matches_label_arithmetic(self):
        # Building the shifted state directly equals applying the exponential.
        rng = np.random.default_rng(23)
        for _ in range(20):
            l, k = dyadic(rng), dyadic(rng)
            a, b = dyadic(rng), dyadic(rng)
            base = make_plane_Q_basis(l, k, 1.0, primed=True)
            up_k = exp_operator_apply(Q_RIGHT, a, base)
            assert up_k.max_coeff_residual(make_plane_Q_basis(l, k + a, 1.0, primed=True)) == 0.0
            up_l = exp_operator_apply(P_LEFT, b, base)
            assert up_l.max_coeff_residual(make_plane_Q_basis(l + b, k, 1.0, primed=True)) == 0.0

    def test_distinct_labels_have_distinct_eigenvalue_pairs(self):
        # The plane Dirac-delta orthonormality is kept as a symbolic
        # eigenvalue-distinctness property.
        labels = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, -0.5), (2.0, 3.0)]
        pairs = set()
        for l, k in labels:
            wf = make_plane_Q_basis(l, k, 1.0)
            pairs.add((is_eigenstate(Q_LEFT, wf), is_eigenstate(P_RIGHT, wf)))
        assert len(pairs) == len(labels)


class TestDisplacement:
    def test_identity_element(self):
        d = displacement_compose(DisplacementLabel(0.0, 0.0), DisplacementLabel(0.4, -1.2), 1.0)
        assert (d.q_shift, d.p_shift) == (0.4, -1.2)
        assert abs(d.phase - 1.0) < 1e-15

    def test_cocycle_phase(self):
        # D(b=1, a=0) D(q=0, p=1) picks up e^{i(a q - b p)/(2 hbar)} = e^{-i/2}
        d = displacement_compose(DisplacementLabel(1.0, 0.0), DisplacementLabel(0.0, 1.0), 1.0)
        assert (d.q_shift, d.p_shift) == (1.0, 1.0)
        assert abs(d.phase - cmath.exp(-0.5j)) < 1e-15

    def test_inverse_pair_has_unit_phase(self):
        d = displacement_compose(DisplacementLabel(0.7, -1.1), DisplacementLabel(-0.7, 1.1), 1.0)
        assert (d.q_shift, d.p_shift) == (0.0, 0.0)
        assert abs(d.phase - 1.0) < 1e-15

    def test_associativity(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            labels = [DisplacementLabel(*rng.uniform(-2, 2, 2)) for _ in range(3)]
            left = displacement_compose(displacement_compose(labels[0], labels[1]), labels[2])
            right = displacement_compose(labels[0], displacement_compose(labels[1], labels[2]))
            assert abs(left.q_shift - right.q_shift) < 1e-12
            assert abs(left.p_shift - right.p_shift) < 1e-12
            assert abs(left.phase - right.phase) < 1e-12

    def test_rejects_non_unit_phase(self):
        with pytest.raises(ValueError):
            DisplacementLabel(0.0, 0.0, 2.0)


class TestGaugeField:
    def test_field_strength_is_inverse_hbar(self):
        # The curl of the potential itself, so a wrong A_p shows here.
        rng = np.random.default_rng(37)
        for hbar in (0.5, 1.0, 2.0):
            for q, p in rng.uniform(-3, 3, size=(10, 2)):
                assert abs(curl(GaugeField(hbar), q, p) - 1.0 / hbar) <= 1e-12

    def test_field_strength_constant_across_points(self):
        f = GaugeField(0.5)
        rng = np.random.default_rng(41)
        for q, p in rng.uniform(-20, 20, size=(10, 2)):
            assert abs(curl(f, q, p) - curl(f, 0.0, 0.0)) <= 1e-12

    def test_covariant_derivative_identities(self):
        # Q_LEFT = i hbar (d_p - i A_p), P_LEFT = -i hbar (d_q - i A_q),
        # assembled through the separate differentiate() code path.
        rng = np.random.default_rng(31)
        for hbar in (1.0, 0.5):
            field = GaugeField(hbar)
            for _ in range(10):
                wf = random_wavefunction(rng, hbar=hbar)
                dq_wf = differentiate(wf, "q")
                dp_wf = differentiate(wf, "p")
                q_img = apply_operator(Q_LEFT, wf)
                p_img = apply_operator(P_LEFT, wf)
                for q, p in rng.uniform(-2, 2, size=(5, 2)):
                    base = wf.evaluate(q, p)
                    cov_q = 1j * hbar * (dp_wf.evaluate(q, p) - 1j * field.a_p(q, p) * base)
                    cov_p = -1j * hbar * (dq_wf.evaluate(q, p) - 1j * field.a_q(q, p) * base)
                    assert abs(q_img.evaluate(q, p) - cov_q) <= 1e-10 * max(1.0, abs(cov_q))
                    assert abs(p_img.evaluate(q, p) - cov_p) <= 1e-10 * max(1.0, abs(cov_p))


class TestPathPhase:
    def test_degenerate_paths(self):
        f = GaugeField(1.0)
        assert path_phase(f, (0.0, 3.7)) == 1.0
        assert path_phase(f, (-2.5, 0.0)) == 1.0

    def test_closed_form_value(self):
        # Two legs: the q leg sees A_q = 0, the p leg integrates A_p(q) = q/hbar
        assert abs(path_phase(GaugeField(1.0), (2.0, 3.0)) - cmath.exp(6j)) < 1e-15

    def test_matches_numerical_line_integration(self):
        rng = np.random.default_rng(37)
        for hbar in (1.0, 0.5, 2.0):
            field = GaugeField(hbar)
            for _ in range(5):
                endpoint = tuple(rng.uniform(-2, 2, 2))
                got = path_phase(field, endpoint)
                want = line_integral_phase(field, endpoint)
                assert abs(got - want) < 1e-10

    def test_cancels_prequantum_factor_of_q_basis(self):
        # path_phase times the conjugate of the zero-label Q-basis value is 1
        f = GaugeField(1.0)
        wf = make_plane_Q_basis(0.0, 0.0, 1.0)
        for q, p in [(0.2, 0.4), (-1.0, 2.0), (3.0, -0.5)]:
            assert abs(path_phase(f, (q, p)) * np.conj(wf.evaluate(q, p)) - 1.0) < 1e-13

    def test_rejects_non_finite_endpoint(self):
        with pytest.raises(ValueError):
            path_phase(GaugeField(1.0), (float("inf"), 0.0))
