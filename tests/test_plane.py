import cmath

import numpy as np
import pytest

from conftest import (
    displace,
    displacement_law_residual,
    dyadic,
    random_wavefunction,
    relative_gap,
)
from torusq.plane import make_plane_P_basis, make_plane_Q_basis
from torusq.symbolic import (
    OperatorKind,
    apply_operator,
    commutator_apply,
    differentiate,
    exp_operator_apply,
    is_eigenstate,
)

Q_LEFT, P_LEFT = OperatorKind.Q_LEFT, OperatorKind.P_LEFT
Q_RIGHT, P_RIGHT = OperatorKind.Q_RIGHT, OperatorKind.P_RIGHT


def line_integral_phase(endpoint, hbar, steps=10_000):
    """Independent oracle: midpoint-rule line integral of the potential
    A_q = 0, A_p = q/hbar along the path from the origin along the q-axis to
    (q, 0), then parallel to the p-axis to (q, p)."""
    q, p = endpoint
    qs = (np.arange(steps) + 0.5) * (q / steps)
    leg1 = np.sum(0.0 * qs) * (q / steps)
    ps = (np.arange(steps) + 0.5) * (p / steps)
    leg2 = np.sum(np.full_like(ps, q) / hbar) * (p / steps)
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
        for hbar in (0.0, float("nan")):
            with pytest.raises(ValueError, match="hbar must be positive"):
                make_plane_P_basis(1.0, 1.0, hbar)


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
            l, k = dyadic(rng.integers), dyadic(rng.integers)
            a, b = dyadic(rng.integers), dyadic(rng.integers)
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
    """D(q, p) = exp(i(p Q_LEFT - q P_LEFT)/hbar), built by conftest.displace
    from exp_operator_apply."""

    def test_identity_element(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            wf = random_wavefunction(rng.integers)
            assert displace(0.0, 0.0, wf).max_coeff_residual(wf) == 0.0

    def test_cocycle_phase(self):
        # D(b=1, a=0) D(q=0, p=1) picks up e^{i(a q - b p)/(2 hbar)} = e^{-i/2}
        rng = np.random.default_rng(43)
        for _ in range(10):
            wf = random_wavefunction(rng.integers)
            composed = displace(1.0, 0.0, displace(0.0, 1.0, wf))
            target = displace(1.0, 1.0, wf)
            assert relative_gap(composed, target.scale(cmath.exp(-0.5j)), rng) <= 1e-12
            assert relative_gap(composed, target.scale(cmath.exp(0.5j)), rng) > 0.9

    def test_inverse_pair_has_unit_phase(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            wf = random_wavefunction(rng.integers, hbar=0.5)
            assert relative_gap(displace(-0.7, 1.1, displace(0.7, -1.1, wf)), wf, rng) <= 1e-12

    def test_composition_law(self):
        assert displacement_law_residual(np.random.default_rng(29), 100) <= 1e-12

    @pytest.mark.parametrize("cocycle", [-1, 0], ids=["conjugated", "omitted"])
    def test_wrong_cocycle_is_detected(self, cocycle):
        assert displacement_law_residual(np.random.default_rng(29), 100, cocycle) >= 1.0


class TestGaugeField:
    """The potential A_q = 0, A_p = q/hbar behind the left-invariant pair:
    Q_LEFT = i hbar D_p and P_LEFT = -i hbar D_q with D_i = d_i - i A_i."""

    def test_field_strength_is_inverse_hbar(self):
        # [D_q, D_p] = -i F, so [Q_LEFT, P_LEFT] = hbar^2 [D_p, D_q] = i hbar^2 F,
        # which is i hbar exactly when F = 1/hbar.
        rng = np.random.default_rng(37)
        for hbar in (0.5, 1.0, 2.0):
            for _ in range(10):
                wf = random_wavefunction(rng.integers, hbar=hbar)
                target = wf.scale(1j * hbar)
                assert commutator_apply(Q_LEFT, P_LEFT, wf).max_coeff_residual(target) == 0.0

    def test_field_strength_constant_across_points(self):
        # The curl through the separate differentiate() path: with A_q = 0,
        # D_q = d_q, and A_p psi = q psi / hbar = (Q_LEFT - Q_RIGHT) psi / hbar.
        # [D_q, D_p] is then multiplication by the constant -i/hbar.
        rng = np.random.default_rng(41)
        for hbar in (0.5, 1.0, 2.0):
            def d_p(wf):
                a_p = (apply_operator(Q_LEFT, wf) - apply_operator(Q_RIGHT, wf)).scale(1.0 / hbar)
                return differentiate(wf, "p") - a_p.scale(1j)

            for _ in range(10):
                wf = random_wavefunction(rng.integers, hbar=hbar)
                curl = differentiate(d_p(wf), "q") - d_p(differentiate(wf, "q"))
                assert curl.max_coeff_residual(wf.scale(-1j / hbar)) == 0.0

    def test_covariant_derivative_identities(self):
        # Q_LEFT = i hbar (d_p - i A_p), P_LEFT = -i hbar (d_q - i A_q),
        # assembled through the separate differentiate() code path.
        rng = np.random.default_rng(31)
        for hbar in (1.0, 0.5):
            for _ in range(10):
                wf = random_wavefunction(rng.integers, hbar=hbar)
                dq_wf = differentiate(wf, "q")
                dp_wf = differentiate(wf, "p")
                q_img = apply_operator(Q_LEFT, wf)
                p_img = apply_operator(P_LEFT, wf)
                for q, p in rng.uniform(-2, 2, size=(5, 2)):
                    cov_q = 1j * hbar * (dp_wf.evaluate(q, p) - 1j * (q / hbar) * wf.evaluate(q, p))
                    cov_p = -1j * hbar * dq_wf.evaluate(q, p)  # A_q = 0
                    assert abs(q_img.evaluate(q, p) - cov_q) <= 1e-10 * max(1.0, abs(cov_q))
                    assert abs(p_img.evaluate(q, p) - cov_p) <= 1e-10 * max(1.0, abs(cov_p))


class TestPathPhase:
    """The phase accumulated along the standard path is the prequantum
    factor e^{ipq/hbar} of the zero-label Q-basis state."""

    def test_degenerate_paths(self):
        wf = make_plane_Q_basis(0.0, 0.0, 1.0)
        assert wf.evaluate(0.0, 3.7) == 1.0
        assert wf.evaluate(-2.5, 0.0) == 1.0

    def test_closed_form_value(self):
        # Two legs: the q leg sees A_q = 0, the p leg integrates A_p(q) = q/hbar
        assert abs(make_plane_Q_basis(0.0, 0.0, 1.0).evaluate(2.0, 3.0) - cmath.exp(6j)) < 1e-15

    def test_matches_numerical_line_integration(self):
        rng = np.random.default_rng(37)
        for hbar in (1.0, 0.5, 2.0):
            wf = make_plane_Q_basis(0.0, 0.0, hbar)
            for _ in range(5):
                endpoint = tuple(rng.uniform(-2, 2, 2))
                want = line_integral_phase(endpoint, hbar)
                assert abs(wf.evaluate(*endpoint) - want) < 1e-10

    def test_cancels_prequantum_factor_of_q_basis(self):
        # The path phase times the conjugate of the zero-label Q-basis value is 1
        wf = make_plane_Q_basis(0.0, 0.0, 1.0)
        for q, p in [(0.2, 0.4), (-1.0, 2.0), (3.0, -0.5)]:
            phase = line_integral_phase((q, p), 1.0)
            assert abs(phase * np.conj(wf.evaluate(q, p)) - 1.0) < 1e-13
