"""Each independent check accepts the program's answer and rejects a wrong one."""

import cmath
import json
import math
import random

import numpy as np
import pytest

import checks
import workloads
from torusq import finite, report, suites, symbolic, torus


def _report(N, names, h=1.0):
    side = math.sqrt(N * h)
    g = torus.make_geometry(side, side, h)
    found = [c for name in names for c in suites.run_suites(name, g)]
    text = report.VerificationReport("test", g.to_dict(), found, "").to_json()
    return json.loads(text), {"a": side, "b": side, "h": h, "N": N}


def _entries(matrix):
    return getattr(matrix, "entries", matrix)


@pytest.mark.parametrize("N", [3, 8, 64])
def test_dft_check_rejects_conjugated_K(N):
    K = _entries(finite.dft_basis_change(N))
    assert checks.check_dft_matrix(K, N) == []
    assert checks.check_dft_matrix(K.conj(), N)


@pytest.mark.parametrize("N", [3, 16, 64])
def test_omega_check_rejects_inverse_root(N):
    assert checks.check_omega(finite.weyl_commutation_check(N), N) == []
    assert checks.check_omega(cmath.exp(-2j * math.pi / N), N)


def _wavefunction(seed=5, count=40):
    raw = workloads.make_terms(random.Random(seed), count)
    terms = [symbolic.BilinearPhaseTerm(a, *k, prefactor=p) for a, k, p in raw]
    return raw, symbolic.WaveFunction(terms)


def test_commutator_check_rejects_flipped_sign():
    raw, wf = _wavefunction()
    ihbar = {k: {m: 1j * c for m, c in pref.items()}
             for k, pref in checks.coefficient_map(raw).items()}
    kinds = symbolic.OperatorKind
    result = symbolic.commutator_apply(kinds.Q_LEFT, kinds.P_LEFT, wf)
    assert checks.check_coefficients("c", checks.coefficient_map(result.terms), ihbar) == []
    flipped = result.scale(-1.0)
    assert checks.check_coefficients("c", checks.coefficient_map(flipped.terms), ihbar)


@pytest.mark.parametrize("kind", workloads.OPERATORS)
def test_exp_check_rejects_misshifted_result(kind):
    raw, wf = _wavefunction()
    rng = np.random.default_rng(0)
    q, p = rng.uniform(-1, 1, 16), rng.uniform(-1, 1, 16)
    s, scale = 0.375, 1.0 + checks.magnitude(raw)
    want = checks.expected_exp(kind, s, raw, q, p, 1.0)
    good = symbolic.exp_operator_apply(symbolic.OperatorKind[kind], s, wf)
    assert checks.check_sampled(kind, checks.evaluate(good.terms, q, p, 1.0), want, scale) == []
    for wrong_s in (-s, s + 0.125):
        bad = symbolic.exp_operator_apply(symbolic.OperatorKind[kind], wrong_s, wf)
        assert checks.check_sampled(kind, checks.evaluate(bad.terms, q, p, 1.0), want, scale)


@pytest.mark.parametrize("kind", workloads.OPERATORS)
def test_apply_check_matches_and_rejects_other_operator(kind):
    raw, wf = _wavefunction()
    rng = np.random.default_rng(1)
    q, p = rng.uniform(-1, 1, 16), rng.uniform(-1, 1, 16)
    scale = 1.0 + checks.magnitude(raw)
    want = checks.expected_apply(kind, raw, q, p, 1.0)
    for other in workloads.OPERATORS:
        got = symbolic.apply_operator(symbolic.OperatorKind[other], wf)
        problems = checks.check_sampled(kind, checks.evaluate(got.terms, q, p, 1.0), want, scale)
        assert (problems == []) == (other == kind)


def test_build_check_rejects_dropped_term():
    raw, wf = _wavefunction()
    merged = checks.coefficient_map(raw)
    assert checks.check_coefficients("b", checks.coefficient_map(wf.terms), merged) == []
    assert checks.check_coefficients("b", checks.coefficient_map(wf.terms[1:]), merged)


def test_report_check_accepts_true_verdicts_and_names_known_fault():
    rep, geometry = _report(4, checks.SUITE_ORDER)
    assert checks.check_report(rep, checks.SUITE_ORDER, geometry) == (27, 0, [], [])
    rep, geometry = _report(64, ("weyl",))
    attempted, failed, known, problems = checks.check_report(rep, ("weyl",), geometry)
    assert (attempted, failed, known, problems) == (6, 1, [checks.KNOWN_FAULT], [])


def test_report_check_rejects_wrong_verdicts_and_geometry():
    rep, geometry = _report(4, ("charts", "weyl"))
    detection = next(c for c in rep["checks"] if c["check"] == "chart_mismatch_without_transition")
    detection["pass"] = False
    rep["overall_pass"] = False
    _, failed, known, problems = checks.check_report(rep, ("charts", "weyl"), geometry)
    assert failed == 1 and known == [] and problems
    rep, geometry = _report(4, ("weyl",))
    assert checks.check_report(rep, ("weyl",), {**geometry, "h": 2.0})[3]
    del rep["checks"][0]
    assert checks.check_report(rep, ("weyl",), geometry)[3]


def test_known_fault_threshold():
    assert not checks.is_known_fault(checks.KNOWN_FAULT, 62)
    assert checks.is_known_fault(checks.KNOWN_FAULT, 63)
    assert not checks.is_known_fault("weyl/clock_unitary", 64)
