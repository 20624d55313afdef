import cmath
import json
import math
import random
import re
import time
import tracemalloc
from operator import itemgetter

import numpy as np
import pytest

from conftest import dyadic, random_points, random_wavefunction, square_torus
from torusq import memory, suites
from torusq.symbolic import (
    PHASE_MERGE_TOL,
    BilinearPhaseTerm,
    OperatorKind,
    WaveFunction,
    apply_operator,
    commutator_apply,
    differentiate,
    exp_key_map,
    exp_operator_apply,
    is_eigenstate,
)
from torusq.torus import make_torus_P_basis, make_torus_Q_basis

Q_LEFT, P_LEFT = OperatorKind.Q_LEFT, OperatorKind.P_LEFT
Q_RIGHT, P_RIGHT = OperatorKind.Q_RIGHT, OperatorKind.P_RIGHT

ALL_KINDS = (Q_LEFT, P_LEFT, Q_RIGHT, P_RIGHT)


def plane_q_basis(l, k, hbar=1.0, primed=False):
    # e^{ipq/hbar} e^{-i(kq+lp)/hbar}; primed adds the constant kl
    return WaveFunction.single(1.0, k * l if primed else 0.0, -k, -l, 1.0, hbar=hbar)


def plane_p_basis(l, k, hbar=1.0):
    return WaveFunction.single(1.0, 0.0, k, -l, 0.0, hbar=hbar)


class TestConstruction:
    def test_hbar_must_be_positive(self):
        with pytest.raises(ValueError):
            BilinearPhaseTerm(1.0, 0.0, 0.0, 0.0, 0.0, hbar=0.0)
        with pytest.raises(ValueError):
            WaveFunction.zero(hbar=-1.0)

    def test_terms_merge_by_phase_tuple(self):
        t1 = BilinearPhaseTerm(2.0, 0.0, 1.0, 0.0, 0.0, {(0, 0): 1.0})
        t2 = BilinearPhaseTerm(1.0, 0.0, 1.0, 0.0, 0.0, {(0, 0): 3.0, (1, 0): 1.0})
        wf = WaveFunction([t1, t2])
        assert len(wf.terms) == 1
        assert wf.terms[0].prefactor == {(0, 0): 5.0 + 0j, (1, 0): 1.0 + 0j}

    def test_exact_cancellation_gives_zero(self):
        t = BilinearPhaseTerm(1.5, 0.25, -0.5, 0.0, 1.0, {(1, 1): 2.0 - 1.0j})
        wf = WaveFunction([t])
        assert (wf - wf).is_zero()
        assert (wf - wf).terms == ()

    def test_terms_sorted_by_phase_tuple(self):
        tA = BilinearPhaseTerm(1.0, 1.0, 0.0, 0.0, 0.0)
        tB = BilinearPhaseTerm(1.0, -1.0, 0.0, 0.0, 0.0)
        wf = WaveFunction([tA, tB])
        assert [t.c0 for t in wf.terms] == [-1.0, 1.0]

    @pytest.mark.parametrize("hbar", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("build", [
        lambda hbar: BilinearPhaseTerm(1.0, 0.0, 0.5, 0.0, 0.0, hbar=hbar),
        lambda hbar: WaveFunction.zero(hbar=hbar),
        lambda hbar: WaveFunction([], hbar=hbar),
    ], ids=["term", "zero", "empty"])
    def test_hbar_must_be_positive_and_finite(self, build, hbar):
        with pytest.raises(ValueError, match="hbar must be positive"):
            build(hbar)

    def test_mixed_hbar_rejected(self):
        t1 = BilinearPhaseTerm(1.0, 0.0, 0.0, 0.0, 0.0, hbar=1.0)
        t2 = BilinearPhaseTerm(1.0, 0.0, 1.0, 0.0, 0.0, hbar=2.0)
        with pytest.raises(ValueError):
            WaveFunction([t1, t2])

    def test_empty_wave_function_needs_hbar(self):
        with pytest.raises(ValueError, match="hbar is required for the empty wave function"):
            WaveFunction([])

    def test_sum_of_different_hbar_rejected(self):
        a = WaveFunction.single(1.0, 0.0, 0.5, 0.0, 0.0, hbar=1.0)
        b = WaveFunction.single(1.0, 0.0, 0.5, 0.0, 0.0, hbar=2.0)
        for combine in (lambda: a + b, lambda: a - b, lambda: b + a):
            with pytest.raises(ValueError, match="cannot add wave functions with different hbar"):
                combine()

    def test_evaluation_matches_definition(self):
        t = BilinearPhaseTerm(2.0 + 1.0j, 0.5, -1.0, 0.25, 1.0, {(2, 1): 1.0 - 2.0j}, hbar=0.5)
        q, p = 0.3, -0.7
        expected = (2.0 + 1.0j) * (1.0 - 2.0j) * q**2 * p * np.exp(
            1j * (0.5 - 1.0 * q + 0.25 * p + q * p) / 0.5
        )
        assert abs(t.evaluate(q, p) - expected) < 1e-15

    def test_wave_function_evaluates_through_its_terms(self, monkeypatch):
        # The sum is formed from BilinearPhaseTerm.evaluate, term by term, so
        # a wrapper of that one method (a tracer, a call counter) sees every
        # evaluation.
        wf = random_wavefunction(np.random.default_rng(3).integers)
        assert len(wf.terms) == 3
        q, p = np.linspace(-1.0, 1.0, 5)[:, None], np.linspace(0.0, 2.0, 4)
        expected = sum(t.evaluate(q, p) for t in wf.terms)
        real, seen = BilinearPhaseTerm.evaluate, []

        def counted(term, *args):
            seen.append(term)
            return real(term, *args)

        monkeypatch.setattr(BilinearPhaseTerm, "evaluate", counted)
        assert np.array_equal(wf.evaluate(q, p), expected)
        assert seen == list(wf.terms)


class TestCanonicalForm:
    def test_json_independent_of_term_order(self):
        rng = np.random.default_rng(23)
        lists = []
        for _ in range(10):
            terms = [t for _ in range(3) for t in random_wavefunction(rng.integers).terms]
            # Repeat some terms with keys moved by roundoff so that cells merge.
            for t in terms[:2]:
                nudged = [float(np.nextafter(k, np.inf)) for k in t.phase_key]
                terms.append(BilinearPhaseTerm(0.5, *nudged, prefactor=t.prefactor))
            lists.append(terms)
        # Keys spread over up to two merge widths; -0.0 and 0.0 are one key.
        lists.append([BilinearPhaseTerm(1.0, c0, 0.0, 0.0, 0.0)
                      for c0 in (0.0, 0.6 * PHASE_MERGE_TOL, 1.2 * PHASE_MERGE_TOL)])
        lists.append([BilinearPhaseTerm(1.0, 0.0, -0.0, 0.0, 0.0),
                      BilinearPhaseTerm(2.0, 0, 0.0, 0.0, 0.0)])
        for terms in lists:
            want = WaveFunction(terms).to_json()
            for _ in range(12):
                order = rng.permutation(len(terms))
                assert WaveFunction([terms[i] for i in order]).to_json() == want

    def test_merge_cell_and_stored_key(self):
        eps = PHASE_MERGE_TOL
        wf = WaveFunction([BilinearPhaseTerm(1.0, 0.3 * eps, 0.0, 0.0, 0.0),
                           BilinearPhaseTerm(1.0, 0.1 * eps, 0.0, 0.0, 0.0),
                           BilinearPhaseTerm(1.0, 0.7 * eps, 0.0, 0.0, 0.0)])
        assert [t.phase_key for t in wf.terms] == [(0.1 * eps, 0.0, 0.0, 0.0),
                                                   (0.7 * eps, 0.0, 0.0, 0.0)]
        assert [t.prefactor for t in wf.terms] == [{(0, 0): 2.0 + 0j}, {(0, 0): 1.0 + 0j}]

    def test_zero_amplitude_term_claims_no_merge_cell(self):
        # Both keys round to one merge cell.  The zero term sorts first, but it
        # must not open the cell, or the surviving term would take its key 0.
        wf = WaveFunction([BilinearPhaseTerm(0, 0.0, 0, 0, 0),
                           BilinearPhaseTerm(1, 1e-13, 0, 0, 0)], hbar=1.0)
        assert [t.phase_key for t in wf.terms] == [(1e-13, 0.0, 0.0, 0.0)]
        assert [t.prefactor for t in wf.terms] == [{(0, 0): 1.0 + 0j}]
        assert wf.scale(0).is_zero()

    def test_exponential_compositions_merge_back(self):
        # Roundoff in translated phase tuples must not split a term in two.
        for N in (2, 3, 5, 7):
            geometry = square_torus(N)
            s = geometry.h / geometry.a
            for factory in (make_torus_Q_basis, make_torus_P_basis):
                for n in range(N):
                    for m in range(N):
                        wf = factory(geometry, n, m)
                        for kind in ALL_KINDS:
                            back = exp_operator_apply(kind, s, exp_operator_apply(kind, -s, wf))
                            assert back.max_coeff_residual(wf) <= 1e-12
                            split = exp_operator_apply(
                                kind, 0.3 * s, exp_operator_apply(kind, 0.7 * s, wf))
                            whole = exp_operator_apply(kind, s, wf)
                            assert split.max_coeff_residual(whole) <= 1e-12

    def test_merge_cells_are_relative_to_hbar(self):
        # Wave numbers 0 and 1 at the SI hbar: phase keys 0 and hbar are
        # far apart in units of hbar and must stay two terms.
        hbar = 1.054571817e-34
        wf = plane_p_basis(0.0, 0.0, hbar) + plane_p_basis(0.0, hbar, hbar)
        assert len(wf.terms) == 2
        for q in (0.0, 1.0, 2.0):
            assert abs(wf.evaluate(q, 0.0) - (1.0 + cmath.exp(1j * q))) <= 1e-15

    def test_finite_cell_is_relative_to_hbar(self):
        BilinearPhaseTerm(1.0, 3.3e299, 0.0, 0.0, 0.0, hbar=1.6e299)
        with pytest.raises(ValueError, match="cqp=1.0 has no finite merge cell at hbar=1e-300"):
            BilinearPhaseTerm(1.0, 0.0, 0.0, 0.0, 1.0, hbar=1e-300)

    @pytest.mark.parametrize("key, hbar", [((math.inf, 0.0, 0.0, 0.0), 1.0),
                                           ((0.0, 0.0, 0.0, 1.0), 1e-300)])
    def test_every_producer_rejects_a_key_without_finite_cell(self, key, hbar):
        # single and from_json make new keys, so each checks them as the term does.
        with pytest.raises(ValueError) as want:
            BilinearPhaseTerm(1.0, *key, hbar=hbar)
        term = {"amp": [1.0, 0.0], **dict(zip(("c0", "cq", "cp", "cqp"), key)),
                "prefactor": [[0, 0, 1.0, 0.0]]}
        text = json.dumps({"hbar": hbar, "terms": [term]})
        for make in (lambda: WaveFunction.single(1.0, *key, hbar=hbar),
                     lambda: WaveFunction.from_json(text)):
            with pytest.raises(ValueError) as got:
                make()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("value", [complex(math.inf, 0.0), complex(-math.inf, 0.0),
                                       complex(math.nan, 0.0), complex(1.0, math.inf),
                                       complex(1.0, -math.inf), complex(1.0, math.nan)])
    @pytest.mark.parametrize("where", ["amplitude", "prefactor"])
    def test_every_producer_rejects_a_non_finite_coefficient(self, value, where):
        # The merge's complex products would turn an infinite part into a nan
        # one (inf * (1 + 0j) is inf + nanj), so each producer that takes
        # coefficients checks them, as it checks phase keys.
        amplitude, prefactor = (value, {(0, 0): 1.0}) if where == "amplitude" else (
            1.0, {(0, 0): 1.0, (1, 0): value})
        term = {"amp": [complex(amplitude).real, complex(amplitude).imag],
                "c0": 0.0, "cq": 0.0, "cp": 0.0, "cqp": 0.0,
                "prefactor": [[dq, dp, complex(c).real, complex(c).imag]
                              for (dq, dp), c in prefactor.items()]}
        text = json.dumps({"hbar": 1.0, "terms": [term]})
        for make in (lambda: BilinearPhaseTerm(amplitude, 0.0, 0.0, 0.0, 0.0, prefactor),
                     lambda: WaveFunction.single(amplitude, 0.0, 0.0, 0.0, 0.0, prefactor),
                     lambda: WaveFunction.from_json(text)):
            with pytest.raises(ValueError, match="is not finite"):
                make()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e300, -1e300])
    def test_phase_coefficient_without_finite_cell_rejected(self, value):
        for position in range(4):
            key = [0.0] * 4
            key[position] = value
            with pytest.raises(ValueError):
                BilinearPhaseTerm(1.0, *key)

    def test_large_build_is_fast(self):
        rng = np.random.default_rng(29)
        keys = [tuple(dyadic(rng.integers) * 64 for _ in range(4)) for _ in range(2600)]
        terms = [BilinearPhaseTerm(complex(dyadic(rng.integers), 1.0), *keys[int(rng.integers(len(keys)))],
                                   prefactor={(int(rng.integers(0, 3)), 0): 1.0})
                 for _ in range(4000)]
        start = time.perf_counter()
        wf = WaveFunction(terms)
        assert time.perf_counter() - start < 2.0
        assert len(wf.terms) == len({t.phase_key for t in terms})


class TestApplyOperator:
    def test_qleft_eigenstate(self):
        # Q_LEFT on the Q-basis state with labels l=3, k=2 returns 3x the state
        psi = plane_q_basis(3.0, 2.0)
        out = apply_operator(Q_LEFT, psi)
        assert out.max_coeff_residual(psi.scale(3.0)) == 0.0

    def test_qright_kills_constants(self):
        one = WaveFunction.single(1.0, 0.0, 0.0, 0.0, 0.0)
        assert apply_operator(Q_RIGHT, one).is_zero()

    def test_pleft_raises_degree(self):
        # P_LEFT on the Q-basis state multiplies by (p - k)
        psi = plane_q_basis(1.0, 2.0)
        out = apply_operator(P_LEFT, psi)
        assert len(out.terms) == 1
        assert out.terms[0].prefactor == {(0, 0): -2.0 + 0j, (0, 1): 1.0 + 0j}

    def test_qright_on_q_basis(self):
        # Q_RIGHT multiplies by (l - q)
        psi = plane_q_basis(1.5, 0.5)
        out = apply_operator(Q_RIGHT, psi)
        assert out.terms[0].prefactor == {(0, 0): 1.5 + 0j, (1, 0): -1.0 + 0j}

    def test_closure_is_structural(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            wf = random_wavefunction(rng.integers)
            for kind in ALL_KINDS:
                out = apply_operator(kind, wf)
                assert isinstance(out, WaveFunction)
                assert out.hbar == wf.hbar
                # differentiation and multiplication never change phase tuples
                in_keys = {t.phase_key for t in wf.terms}
                assert {t.phase_key for t in out.terms} <= in_keys

    def test_differentiate_rejects_unknown_variable(self):
        with pytest.raises(ValueError, match="var must be 'q' or 'p', got 'x'"):
            differentiate(plane_q_basis(1.0, 2.0), "x")


class TestTransformOutputsAreCanonical:
    def test_zero_contributions_leave_no_trace(self):
        # Inputs on which the transforms produce zero contributions: cqp = 0
        # (zero y coefficient under P_LEFT and Q_RIGHT, zero cqp terms of
        # the derivatives), c_x = 0, and degree-2 prefactors in the variable
        # an exponential does not translate (zero binomial factors).
        pref = {(2, 2): 1.0 - 0.5j, (2, 0): 0.25, (0, 2): -0.75j, (0, 0): 0.5, (1, 1): 2.0}
        for hbar in (1.0, 0.5):
            wf = WaveFunction([
                BilinearPhaseTerm(1.0, 0.0, 0.0, 0.0, 0.0, pref, hbar),
                BilinearPhaseTerm(1.0, 0.25, 0.5, 0.0, 0.0, pref, hbar),
                BilinearPhaseTerm(1.0, 0.5, 0.0, -0.5, 0.0, pref, hbar),
                BilinearPhaseTerm(1.0, 0.75, 0.0, 0.0, 1.0, pref, hbar),
            ], hbar=hbar)
            outs = [apply_operator(kind, wf) for kind in ALL_KINDS]
            outs += [exp_operator_apply(kind, s, wf) for kind in ALL_KINDS for s in (0.5, -0.25)]
            outs += [differentiate(wf, var) for var in ("q", "p")]
            for out in outs:
                assert not out.is_zero()
                for t in out.terms:
                    assert t.prefactor
                    assert all(c != 0 for c in t.prefactor.values())
                assert WaveFunction(out.terms, hbar=out.hbar).to_json() == out.to_json()

    def test_overflowing_output_key_raises_value_error(self):
        # The translated c0 = -cq * s overflows to -inf: the merge must reject
        # it with the same message as the term constructor.
        wf = WaveFunction.single(1.0, 0.0, 1e10, 1e10, 1.0)
        with pytest.raises(ValueError, match="c0=-inf has no finite merge cell"):
            exp_operator_apply(P_RIGHT, 1e300, wf)

    def test_overflowing_output_coefficient_raises_value_error(self):
        # The term constructor refuses a non-finite coefficient, so no producer
        # may store one: a product or sum that overflows raises ValueError.
        big = WaveFunction.single(1.0, 0.0, 0.5, 0.25, 0.0, {(2, 0): 1e300, (0, 1): 1.0})
        top = WaveFunction.single(1.0, 0.0, 0.5, 0.25, 0.0, {(2, 0): 1e308})
        outputs = {
            "merge": lambda: WaveFunction.single(1e300, 0, 0.5, 0.25, 0, {(2, 0): 1e10}),
            "sum": lambda: top + top,
            "scale": lambda: big.scale(1e10),
            "scale by inf": lambda: big.scale(math.inf),
            "apply": lambda: apply_operator(P_LEFT, WaveFunction.single(1.0, 0.0, 1e290, 0.0, 0.0,
                                                                        {(0, 0): 1e20})),
            "commutator": lambda: commutator_apply(Q_LEFT, P_LEFT, big.scale(1e8)),
            "derivative": lambda: differentiate(big, "q").scale(1e300),
            # (-s)^2 = 1e400 overflows the float power itself.
            "exp": lambda: exp_operator_apply(P_LEFT, 1e200, big),
        }
        for name, make in outputs.items():
            with pytest.raises(ValueError, match="is not finite"):
                make()
                pytest.fail(name)

    def test_negative_exponent_rejected(self):
        # The prefactor is a polynomial: the transforms index its coefficients
        # by exponent, and exp_operator_apply's binomial expansion is finite.
        with pytest.raises(ValueError, match=r"prefactor\[\(-1, 0\)\] has a negative exponent"):
            BilinearPhaseTerm(1.0, 0.0, 0.0, 0.0, 0.0, {(0, 0): 1.0, (-1, 0): 1.0})
        text = json.dumps({"hbar": 1.0, "terms": [{"amp": [1.0, 0.0], "c0": 0.0, "cq": 0.0,
                                                   "cp": 0.0, "cqp": 0.0,
                                                   "prefactor": [[0, -2, 1.0, 0.0]]}]})
        with pytest.raises(ValueError, match="negative exponent"):
            WaveFunction.from_json(text)

    def test_no_term_built_until_terms_is_read(self, monkeypatch):
        # Every producer stores its arrays, and to_json writes them: the chain
        # build, four applies, four exponentials, 16 commutators, + and -, and
        # to_json makes no term object, nor do the residual and the other
        # readers.  The first read of terms makes one term per key, through
        # the one canonical constructor, which skips __post_init__; a second
        # read returns the same tuple.
        calls = {"canonical": 0, "post_init": 0}

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        monkeypatch.setattr(BilinearPhaseTerm, "_canonical",
                            staticmethod(counted("canonical", BilinearPhaseTerm._canonical)))
        monkeypatch.setattr(BilinearPhaseTerm, "__post_init__",
                            counted("post_init", BilinearPhaseTerm.__post_init__))
        rng = np.random.default_rng(31)
        for i in range(20):
            hbar = (1.0, 0.5)[i % 2]
            terms = non_dyadic_terms(rng, hbar) if i % 4 else dyadic_sum(rng, 60, hbar=hbar).terms
            calls.update(canonical=0, post_init=0)
            wf = WaveFunction(terms, hbar)
            outs = [wf] + [apply_operator(k, wf) for k in ALL_KINDS]
            outs += [exp_operator_apply(k, dyadic(rng.integers), wf) for k in ALL_KINDS]
            outs += [commutator_apply(a, b, wf) for a in ALL_KINDS for b in ALL_KINDS]
            outs += [outs[1] + outs[5], outs[1] - outs[5], differentiate(wf, "p"), wf.scale(0.5)]
            texts = [out.to_json() for out in outs]
            for out in outs:
                repr(out), out.is_zero(), out.max_abs_coeff(), out.max_coeff_residual(wf)
            assert outs[-1].max_coeff_residual(wf.scale(0.5)) == 0.0
            assert calls == {"canonical": 0, "post_init": 0}
            for out, text in zip(outs, texts):
                calls["canonical"] = 0
                first = out.terms
                assert calls["canonical"] == len(first) == len(json.loads(text)["terms"])
                assert out.terms is first and calls["canonical"] == len(first)
                assert out.to_json() == text
            assert calls["post_init"] == 0

    def test_suite_commutators_builds_no_term(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a term object was built")

        want = [r.max_residual for r in suites.suite_commutators(square_torus(4))]
        monkeypatch.setattr(BilinearPhaseTerm, "_canonical", staticmethod(refuse))
        assert [r.max_residual for r in suites.suite_commutators(square_torus(4))] == want

    def test_output_terms_are_what_the_term_constructor_makes(self):
        # Skipping __post_init__ must not change a field's value or type.
        rng = np.random.default_rng(37)
        for i in range(30):
            hbar = (1.0, 0.5, 0.3)[i % 3]
            a, b = random_wavefunction(rng.integers, hbar=hbar), random_wavefunction(rng.integers, hbar=hbar)
            ops = _transforms(rng, a, b)
            ops += [lambda: WaveFunction.from_json(a.to_json()), lambda: WaveFunction(a.terms)]
            for op in ops:
                for t in op().terms:
                    assert t == BilinearPhaseTerm(t.amplitude, *t.phase_key,
                                                  prefactor=t.prefactor, hbar=t.hbar)
                    assert type(t.amplitude) is complex
                    assert all(type(k) is float and (k != 0 or math.copysign(1.0, k) == 1.0)
                               for k in t.phase_key)
                    assert all(type(d) is int for mon in t.prefactor for d in mon)
                    assert all(type(c) is complex for c in t.prefactor.values())

    def test_single_normalises_its_prefactor(self):
        loose = WaveFunction.single(1.0, 0.5, 0, -0.0, 1, prefactor={(1.0, 2): 3, (0, True): 0.5})
        exact = WaveFunction.single(1.0, 0.5, 0.0, 0.0, 1.0,
                                    prefactor={(1, 2): 3.0 + 0j, (0, 1): 0.5 + 0j})
        assert loose.to_json() == exact.to_json()
        assert [type(d) for mon in loose.terms[0].prefactor for d in mon] == [int] * 4
        assert all(type(k) is float for k in loose.terms[0].phase_key)


def _transforms(rng, a, b):
    """Thunks for every transform, sum and single over the members a and b."""
    hbar = a.hbar
    ops = [lambda k=k: apply_operator(k, a) for k in ALL_KINDS]
    ops += [lambda k=k: exp_operator_apply(k, dyadic(rng.integers), a) for k in ALL_KINDS]
    ops += [lambda v=v: differentiate(a, v) for v in ("q", "p")]
    ops += [lambda: a.scale(complex(dyadic(rng.integers), dyadic(rng.integers))), lambda: a + b, lambda: a - b,
            lambda: WaveFunction.single(1.0, *a.terms[0].phase_key, a.terms[0].prefactor, hbar)]
    return ops


# -- the dict merge: the reference for every producer ----------------------

def _merged(entries, hbar):
    """The canonical sum of entries (checked phase key, amplitude, pairs), an
    entry being amplitude * sum(c q^dq p^dp) e^{i phase/hbar} over its
    (monomial, c) pairs: the reference for WaveFunction._merge.  The entries
    are sorted by key; a nonzero amplitude's entry opens its cell at its key
    unless an earlier one did, and adds each amp * c into the cell's dict from
    0j, in order."""
    cells = {}
    for key, amp, pairs in sorted(entries, key=itemgetter(0)):
        if amp == 0:
            continue
        cell = tuple([round(k / hbar / PHASE_MERGE_TOL) for k in key])
        pref = cells.setdefault(cell, (key, {}))[1]
        for mon, c in pairs:
            pref[mon] = pref.get(mon, 0j) + amp * c
    terms = []
    for key, pref in cells.values():
        pref = {mon: c for mon, c in sorted(pref.items()) if c != 0}
        if pref:
            for mon, c in pref.items():
                if not cmath.isfinite(c):
                    raise ValueError(f"prefactor[{mon}]={c} of the term at phase key {key} "
                                     "is not finite")
            terms.append(BilinearPhaseTerm._canonical(key, pref, hbar))
    out = WaveFunction.__new__(WaveFunction)
    out.hbar, out.terms = hbar, tuple(terms)
    return out


def merged_build(terms, hbar):
    """WaveFunction(terms, hbar) by the dict merge."""
    return _merged([(t.phase_key, t.amplitude, t.prefactor.items()) for t in terms], hbar)


def merged_sum(a, b, factor):
    """a + factor * b by the dict merge, factor 1 or -1 as in + and -."""
    return _merged([(t.phase_key, 1.0 + 0.0j, t.prefactor.items()) for t in a.terms]
                   + [(t.phase_key, complex(factor), t.prefactor.items()) for t in b.terms],
                   a.hbar)


def merged_exp(kind, s, wf):
    """exp_operator_apply by the per-term binomial expansion and the dict merge."""
    axis = kind.value.axis
    key_map = exp_key_map(kind, s)

    def pairs(prefactor):
        for (a, b), c in prefactor.items():
            degree = (a, b)[axis]
            for i in range(degree + 1):
                yield ((i, b), (a, i))[axis], c * (math.comb(degree, i) * (-s) ** (degree - i))

    return _merged([(tuple(float(k) or 0.0 for k in key_map(*t.phase_key)), 1.0 + 0.0j,
                     pairs(t.prefactor)) for t in wf.terms], wf.hbar)


def merged_from_json(text):
    """from_json as each term built by its constructor, then the dict merge."""
    data = json.loads(text)
    hbar = float(data["hbar"])
    return merged_build([BilinearPhaseTerm(
        complex(*td["amp"]), td["c0"], td["cq"], td["cp"], td["cqp"],
        prefactor={(dq, dp): complex(re, im) for dq, dp, re, im in td["prefactor"]},
        hbar=hbar) for td in data["terms"]], hbar)


# -- the key-preserving transforms against the dict merge ------------------

def merged_apply(kind, wf):
    """apply_operator as every contribution of every term fed to the merge."""
    axis, sign, multiplies = kind.value

    def pairs(t):
        c_x = t.phase_key[1 + axis]
        y_coeff = float(multiplies) - sign * t.cqp
        for (a, b), c in t.prefactor.items():
            yield (a + axis, b + 1 - axis), c * y_coeff
            yield (a, b), -c * (sign * c_x)
            degree = (a, b)[axis]
            if degree:
                yield (a - 1 + axis, b - axis), c * (sign * 1j * t.hbar * degree)

    return _merged(((t.phase_key, 1.0 + 0.0j, pairs(t)) for t in wf.terms), wf.hbar)


def merged_differentiate(wf, var):
    """differentiate as every contribution of every term fed to the merge."""
    axis = "qp".index(var)

    def pairs(t):
        c_x = t.phase_key[1 + axis]
        for (a, b), c in t.prefactor.items():
            degree = (a, b)[axis]
            if degree:
                yield (a - 1 + axis, b - axis), degree * c
            yield (a, b), c * (1j * c_x / t.hbar)
            yield (a + axis, b + 1 - axis), c * (1j * t.cqp / t.hbar)

    return _merged(((t.phase_key, 1.0 + 0.0j, pairs(t)) for t in wf.terms), wf.hbar)


def merged_scale(wf, factor):
    return _merged(((t.phase_key, complex(factor), t.prefactor.items()) for t in wf.terms),
                   wf.hbar)


def merged_commutator(kind_a, kind_b, wf):
    """AB wf - BA wf, each side and their difference made by the merge."""
    ab = merged_apply(kind_a, merged_apply(kind_b, wf))
    ba = merged_apply(kind_b, merged_apply(kind_a, wf))
    return _merged([(t.phase_key, 1.0 + 0.0j, t.prefactor.items()) for t in ab.terms]
                   + [(t.phase_key, -1.0 + 0.0j, t.prefactor.items()) for t in ba.terms],
                   wf.hbar)


def dyadic_sum(rng, count, repeated=0.35, hbar=1.0):
    """count dyadic terms of two monomials each; a share `repeated` of them
    reuses an earlier phase key, so the build merges prefactors."""
    keys = [tuple(dyadic(rng.integers) for _ in range(4))
            for _ in range(count - int(round(repeated * count)))]
    keys += [keys[int(rng.integers(len(keys)))] for _ in range(count - len(keys))]
    terms = []
    for i in rng.permutation(count):
        mons = rng.choice(9, size=2, replace=False)
        pref = {(int(m) // 3, int(m) % 3): complex(dyadic(rng.integers), dyadic(rng.integers)) for m in mons}
        amp = complex(int(rng.integers(1, 5)), int(rng.integers(-2, 3)))
        terms.append(BilinearPhaseTerm(amp, *keys[i], prefactor=pref, hbar=hbar))
    return WaveFunction(terms, hbar=hbar)


def with_signed_zeros():
    """Two terms whose coefficients carry -0.0 parts.  A build would turn
    them into 0.0, so the terms are set in place: the transforms meet the
    -0.0 parts themselves."""
    make = BilinearPhaseTerm._canonical
    wf = WaveFunction.__new__(WaveFunction)
    wf.hbar, wf.terms = 0.5, (
        make((0.0, -0.5, 0.25, 0.0), {(0, 0): complex(-0.0, 1.0), (1, 2): complex(0.5, -0.0)}, 0.5),
        make((0.25, 0.5, -0.25, 0.75), {(0, 1): complex(-0.0, 0.25), (1, 1): complex(-1.5, -0.0)},
             0.5))
    return wf


def equivalence_input(name):
    if name.startswith("seed"):
        seed = int(name[4:])
        return random_wavefunction(np.random.default_rng(seed).integers, hbar=(1.0, 0.5)[seed % 2])
    if name == "dyadic1000":
        return dyadic_sum(np.random.default_rng(41), 1000)
    if name == "signed_zero":
        return with_signed_zeros()
    if name == "inexact":
        # Coefficients that round when multiplied and summed, so a change in
        # the order of any sum shows in the bytes.
        rng = np.random.default_rng(53)
        return WaveFunction([BilinearPhaseTerm(
            1.0, *rng.uniform(-2, 2, 4),
            prefactor={(int(i), int(j)): complex(*rng.normal(size=2))
                       for i, j in rng.integers(0, 4, size=(5, 2))}, hbar=0.3)
            for _ in range(40)], hbar=0.3)
    if name == "zero":
        return WaveFunction.zero(hbar=0.37)
    if name == "constant":
        # Constant prefactors only: one coefficient per term, no exponent to
        # raise or lower in the input.
        return WaveFunction([BilinearPhaseTerm(0.3 - 0.7j, 0.1, -0.2, 0.3, 0.4, hbar=0.37),
                             BilinearPhaseTerm(1.1, -0.5, 0.6, 0.0, -0.7, hbar=0.37)], hbar=0.37)
    if name == "padding":
        # Terms of degree 0 to 3 side by side, so the lower-degree terms sit
        # in zero padding of the highest degree.
        rng = np.random.default_rng(59)
        prefactors = [{(0, 0): 1.0}, {(1, 0): 0.5, (0, 1): -1.5j}, {(2, 1): 0.3 + 0.1j},
                      {(0, 3): -0.7, (3, 3): 0.2j, (3, 0): 1.3}]
        return WaveFunction([BilinearPhaseTerm(complex(*rng.normal(size=2)), *rng.uniform(-2, 2, 4),
                                               prefactor=pref, hbar=0.37)
                             for pref in prefactors], hbar=0.37)
    # The constant term is annihilated by P_LEFT and Q_RIGHT, and by both
    # derivatives; the other term is not.
    assert name == "annihilated"
    return (WaveFunction.single(1.0, 0.0, 0.0, 0.0, 0.0)
            + WaveFunction.single(0.5 - 0.25j, 0.0, 0.5, -0.25, 1.0, {(1, 0): 1.0}))


EQUIVALENCE_INPUTS = [f"seed{i}" for i in range(50)] + ["dyadic1000", "inexact", "signed_zero",
                                                         "annihilated", "zero", "constant",
                                                         "padding"]
# A general complex factor rounds in each of its four products, so a fused
# complex multiply shows in the bytes.
SCALE_FACTORS = (2, -1, 1j, 0, 0.3 + 0.7j, 0.1)


def key_preserving_outputs(wf):
    """(name, output, reference made by the merge) for every key-preserving transform."""
    out = [(f"apply {k.name}", apply_operator(k, wf), merged_apply(k, wf)) for k in ALL_KINDS]
    out += [(f"d/d{v}", differentiate(wf, v), merged_differentiate(wf, v)) for v in "qp"]
    out += [(f"scale {f}", wf.scale(f), merged_scale(wf, f)) for f in SCALE_FACTORS]
    out += [(f"[{a.name}, {b.name}]", commutator_apply(a, b, wf), merged_commutator(a, b, wf))
            for a in ALL_KINDS for b in ALL_KINDS]
    return out


def assert_canonical(wf):
    keys = [t.phase_key for t in wf.terms]
    assert keys == sorted(set(keys))
    cells = {tuple(round(k / wf.hbar / PHASE_MERGE_TOL) for k in key) for key in keys}
    assert len(cells) == len(keys)
    for t in wf.terms:
        assert t.prefactor and list(t.prefactor) == sorted(t.prefactor)
        assert all(c != 0 for c in t.prefactor.values())
        assert t.amplitude == 1.0 and t.hbar == wf.hbar


class TestTermByTerm:
    """apply_operator, differentiate, scale and commutator_apply keep every
    phase key and map the terms one by one: the same bytes as the merge,
    without it."""

    @pytest.mark.parametrize("name", EQUIVALENCE_INPUTS)
    def test_same_bytes_as_the_merge(self, name):
        wf = equivalence_input(name)
        for label, got, want in key_preserving_outputs(wf):
            assert got.to_json() == want.to_json(), label
            assert_canonical(got)
        for a in ALL_KINDS:
            for b in ALL_KINDS:
                composed = (apply_operator(a, apply_operator(b, wf))
                            - apply_operator(b, apply_operator(a, wf)))
                assert commutator_apply(a, b, wf).to_json() == composed.to_json()
        assert wf.scale(0).terms == () and wf.scale(0).hbar == wf.hbar

    def test_inputs_reach_every_case(self):
        # The inputs above do what their names say: the large one merges
        # repeated keys, the signed zeros reach the transforms, and the
        # annihilated term leaves no term behind under Q_RIGHT.
        assert len(equivalence_input("dyadic1000").terms) < 1000
        parts = [math.copysign(1.0, x) for t in with_signed_zeros().terms
                 for c in t.prefactor.values() for x in (c.real, c.imag)]
        assert -1.0 in parts
        wf = equivalence_input("annihilated")
        assert len(wf.terms) == 2 and len(apply_operator(Q_RIGHT, wf).terms) == 1
        assert equivalence_input("zero").terms == ()
        degrees = lambda name: {d for t in equivalence_input(name).terms for mon in t.prefactor
                                for d in mon}
        assert degrees("constant") == {0} and degrees("padding") == {0, 1, 2, 3}

    def test_zero_factor_drops_even_a_non_finite_coefficient(self):
        # As in the merge, a zero factor contributes nothing: 0 * inf is not
        # summed into a nan coefficient.  Every producer refuses an infinite
        # coefficient, so the term is set in place, as in with_signed_zeros.
        wf = WaveFunction.__new__(WaveFunction)
        wf.hbar, wf.terms = 1.0, (BilinearPhaseTerm._canonical(
            (0.0, 0.5, 0.0, 0.0), {(0, 0): complex(math.inf, 0.0), (1, 0): 1.0 + 0j}, 1.0),)
        assert wf.scale(0).terms == () and merged_scale(wf, 0).terms == ()

    def test_each_wave_function_packed_once(self, monkeypatch):
        # The dense pack is made from the state arrays on the first operator
        # or derivative of a wave function and read by the next ones; scale
        # maps the state arrays and makes none; terms set in place replace the
        # state and are packed anew.
        wf, other = equivalence_input("seed3"), equivalence_input("seed4")
        made = []
        real = WaveFunction._packed

        def packed(self):
            if self._pack is None:
                made.append(self)
            return real(self)

        monkeypatch.setattr(WaveFunction, "_packed", packed)
        outs = []
        for kind in ALL_KINDS:
            outs.append(apply_operator(kind, wf))
            for other_kind in ALL_KINDS:
                commutator_apply(kind, other_kind, wf)
        differentiate(wf, "q")
        wf.scale(2)
        assert made == [wf]
        for out in outs:
            out.scale(2)
        assert made == [wf]
        for out in outs:
            for kind in ALL_KINDS:
                apply_operator(kind, out)
        assert made == [wf] + outs
        wf.hbar, wf.terms = other.hbar, other.terms
        assert wf.scale(2).to_json() == other.scale(2).to_json()
        assert made == [wf] + outs
        assert apply_operator(Q_LEFT, wf).to_json() == apply_operator(Q_LEFT, other).to_json()
        assert made == [wf] + outs + [wf, other]

    @staticmethod
    def counting_merges(monkeypatch):
        calls = []
        real = WaveFunction._merge

        def merge(self, *args, **kwargs):
            calls.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(WaveFunction, "_merge", merge)
        return calls

    def test_key_preserving_transforms_never_merge(self, monkeypatch):
        rng = np.random.default_rng(43)
        inputs = [random_wavefunction(rng.integers) for _ in range(5)] + [dyadic_sum(rng, 200)]
        calls = self.counting_merges(monkeypatch)
        for wf in inputs:
            ops = [lambda k=k: apply_operator(k, wf) for k in ALL_KINDS]
            ops += [lambda v=v: differentiate(wf, v) for v in "qp"]
            ops += [lambda f=f: wf.scale(f) for f in SCALE_FACTORS]
            ops += [lambda a=a, b=b: commutator_apply(a, b, wf)
                    for a in ALL_KINDS for b in ALL_KINDS]
            for op in ops:
                assert_canonical(op())
        assert calls == []

    def test_key_making_and_two_operand_producers_merge_once(self, monkeypatch):
        rng = np.random.default_rng(47)
        a, b = random_wavefunction(rng.integers), random_wavefunction(rng.integers)
        calls = self.counting_merges(monkeypatch)
        ops = [lambda k=k: exp_operator_apply(k, 0.25, a) for k in ALL_KINDS]
        ops += [lambda: a + b, lambda: a - b, lambda: WaveFunction(a.terms + b.terms),
                lambda: WaveFunction.from_json(a.to_json())]
        for op in ops:
            calls.clear()
            out = op()
            assert calls == [out]

    def test_residual_of_equal_terms_needs_no_merge(self, monkeypatch):
        # Equal terms make every merged sum c - c = 0, so the residual is
        # 0.0 without a merge; any other pair is merged, as a - b is.
        rng = np.random.default_rng(53)
        inputs = [random_wavefunction(rng.integers, hbar=0.37) for _ in range(5)]
        inputs += [WaveFunction(non_dyadic_terms(rng)) for _ in range(5)]
        calls = self.counting_merges(monkeypatch)
        for a in inputs:
            calls.clear()
            assert a.max_coeff_residual(WaveFunction.from_json(a.to_json())) == 0.0
            assert len(calls) == 1  # from_json only
            for b in (a.scale(0.5), a + a, WaveFunction.zero(a.hbar)):
                calls.clear()
                assert a.max_coeff_residual(b) == (a - b).max_abs_coeff()
                assert len(calls) == 2


# -- the key-making producers against the dict merge ------------------------

def term_bytes(wf):
    """Every bit of a wave function's terms, signed zeros included, read
    without to_json."""
    return repr((wf.hbar, [(t.amplitude, t.phase_key, list(t.prefactor.items()))
                           for t in wf.terms]))


def non_dyadic_terms(rng, hbar=0.37):
    """1-6 terms with non-dyadic keys, amplitudes and coefficients, so that
    every product and sum rounds.  Keys repeat or sit one ulp apart, so that
    cells merge and three or more coefficients meet in one sum, whose order
    then shows in the bits; about one amplitude in ten is 0."""
    keys = [tuple(rng.uniform(-2, 2, 4).tolist()) for _ in range(int(rng.integers(1, 3)))]
    terms = []
    for _ in range(int(rng.integers(1, 7))):
        key = keys[int(rng.integers(len(keys)))]
        if rng.random() < 0.3:
            key = tuple(np.nextafter(key, np.inf).tolist())
        amp = 0.0 if rng.random() < 0.1 else complex(*rng.normal(size=2))
        pref = {(int(i), int(j)): complex(*rng.normal(size=2))
                for i, j in rng.integers(0, [4, 2], size=(int(rng.integers(1, 4)), 2))}
        terms.append(BilinearPhaseTerm(amp, *key, prefactor=pref, hbar=hbar))
    return terms


class TestKeyMakingProducers:
    """The constructor, the exponentials, + and - and from_json merge flat
    rows on arrays; each gives the bits of the per-term dict merge."""

    def test_same_bytes_as_the_dict_merge(self):
        rng = np.random.default_rng(61)
        merged_cells = 0
        for _ in range(300):
            terms, other = non_dyadic_terms(rng), WaveFunction(non_dyadic_terms(rng), 0.37)
            wf = WaveFunction(terms, 0.37)
            merged_cells += len(wf.terms) < len({t.phase_key for t in terms if t.amplitude})
            pairs = [("build", wf, merged_build(terms, 0.37)),
                     ("+", wf + other, merged_sum(wf, other, 1)),
                     ("-", wf - other, merged_sum(wf, other, -1)),
                     ("from_json", WaveFunction.from_json(wf.to_json()),
                      merged_from_json(wf.to_json()))]
            for kind in ALL_KINDS:
                s = float(rng.uniform(-1.5, 1.5))
                pairs.append((f"exp {kind.name}", exp_operator_apply(kind, s, wf),
                              merged_exp(kind, s, wf)))
            for label, got, want in pairs:
                assert term_bytes(got) == term_bytes(want), label
                assert got.to_json() == want.to_json(), label
                assert_canonical(got)
        assert merged_cells > 30  # the inputs do merge cells

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                                       (2, 1, 0)])
    def test_cells_that_are_not_adjacent_in_key_order(self, order):
        # The three c0 sit in one cell; the middle cq does not share the cell
        # of the outer two.  In key order the outer two are not neighbours,
        # yet they merge, under the first key.
        hbar = 0.37
        tol = hbar * PHASE_MERGE_TOL
        x = 6.6 * tol
        terms = [BilinearPhaseTerm(1.0, x, 5.0, 0.0, 0.0, {(0, 0): 1.0}, hbar),
                 BilinearPhaseTerm(1.0, x + 0.4 * tol, 3.0, 0.0, 0.0, {(0, 0): 4.0}, hbar),
                 BilinearPhaseTerm(1.0, x + 0.8 * tol, 5.0, 0.0, 0.0, {(0, 0): 2.0, (1, 0): 1.0},
                                   hbar)]
        wf = WaveFunction([terms[i] for i in order], hbar)
        assert [t.phase_key for t in wf.terms] == [terms[0].phase_key, terms[1].phase_key]
        assert [t.prefactor for t in wf.terms] == [{(0, 0): 3.0 + 0j, (1, 0): 1.0 + 0j},
                                                   {(0, 0): 4.0 + 0j}]
        assert term_bytes(wf) == term_bytes(merged_build([terms[i] for i in order], hbar))

    @pytest.mark.parametrize("text", [
        # prefactor entries out of order, a repeated monomial (the last one
        # counts), an amplitude other than 1, a zero amplitude, exponents
        # written as floats, and an empty prefactor
        '{"hbar": 0.5, "terms": [{"amp": [1.0, 0.0], "c0": 0.5, "cq": 0, "cp": 0, "cqp": 0,'
        ' "prefactor": [[2, 0, 1.5, 0.0], [0, 1, 0.25, -1.0]]}]}',
        '{"hbar": 0.5, "terms": [{"amp": [1.0, 0.0], "c0": 0.5, "cq": 0, "cp": 0, "cqp": 0,'
        ' "prefactor": [[0, 1, 1.5, 0.0], [0, 1, 0.25, -1.0]]}]}',
        '{"hbar": 0.5, "terms": [{"amp": [0.5, 2.0], "c0": 0.5, "cq": 0, "cp": 0, "cqp": 0,'
        ' "prefactor": [[0, 1, 1.5, 0.0]]}, {"amp": [1, 0], "c0": 0.5, "cq": 0, "cp": 0,'
        ' "cqp": 0, "prefactor": [[0, 1, 0.5, 0.0]]}]}',
        '{"hbar": 0.5, "terms": [{"amp": [0.0, 0.0], "c0": 0.25, "cq": 0, "cp": 0, "cqp": 0,'
        ' "prefactor": [[0, 1, 1.5, 0.0]]}, {"amp": [1, 0], "c0": 0.5, "cq": 0, "cp": 0,'
        ' "cqp": 0, "prefactor": [[0, 1, 0.5, 0.0]]}]}',
        '{"hbar": 0.5, "terms": [{"amp": [1.0, 0.0], "c0": 0.5, "cq": 0, "cp": 0, "cqp": 0,'
        ' "prefactor": [[1.0, 2.0, 1.5, 0.0]]}]}',
        '{"hbar": 0.5, "terms": [{"amp": [1.0, 0.0], "c0": 0.5, "cq": 0, "cp": 0, "cqp": 0,'
        ' "prefactor": []}, {"amp": [1.0, 0.0], "c0": 0.5, "cq": 0, "cp": 0, "cqp": 0,'
        ' "prefactor": [[0, 0, 1.0, 0.0]]}]}',
        # strings and booleans the term constructor converts
        '{"hbar": 0.5, "terms": [{"amp": [1.0, 0.0], "c0": "0.5", "cq": 0.0, "cp": 0.0,'
        ' "cqp": 0.0, "prefactor": [["1", 0, 1.5, 0.0], [2, 0, true, false]]}]}',
    ])
    def test_json_not_as_written_is_read_term_by_term(self, text):
        assert term_bytes(WaveFunction.from_json(text)) == term_bytes(merged_from_json(text))

    @pytest.mark.parametrize("row, key", [
        # a string coefficient, an exponent beyond the float range, a negative
        # exponent, an infinite coefficient, a row of five, a list as a key
        ('[1, 0, "1.5", 0.0]', "0.5"), (f"[1, {10**400}, 1.0, 0.0]", "0.5"),
        ("[1, -1, 1.0, 0.0]", "0.5"), ("[1, 0, Infinity, 0.0]", "0.5"),
        ("[1, 0, 1.0, 0.0, 0.0]", "0.5"), ("[1, 0, 1.0, 0.0]", "[0.5]"),
        ("[1, 0, 1.0, 0.0]", "Infinity"),
    ], ids=["string", "huge-exponent", "negative-exponent", "infinite", "row-of-five",
            "list-key", "infinite-key"])
    def test_json_refused_as_term_by_term(self, row, key):
        # JSON is input from outside: each is refused with the exception and
        # message of the term constructor, whatever path from_json takes.
        text = ('{"hbar": 0.5, "terms": [{"amp": [1.0, 0.0], "c0": %s, "cq": 0.0, "cp": 0.0,'
                ' "cqp": 0.0, "prefactor": [[0, 0, 1.0, 0.0], %s]}]}' % (key, row))
        with pytest.raises(Exception) as want:
            merged_from_json(text)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            WaveFunction.from_json(text)

    def test_exponent_of_2_to_the_63_refused(self):
        # The merge and the pack index exponents as int64, so the term
        # constructor refuses what would not fit, in from_json too.
        BilinearPhaseTerm(1.0, 0.0, 0.0, 0.0, 0.0, {(2**63 - 1, 0): 1.0})
        text = json.dumps({"hbar": 1.0, "terms": [{"amp": [1.0, 0.0], "c0": 0.0, "cq": 0.0,
                                                   "cp": 0.0, "cqp": 0.0,
                                                   "prefactor": [[0, 2**63, 1.0, 0.0]]}]})
        for make in (lambda: BilinearPhaseTerm(1.0, 0.0, 0.0, 0.0, 0.0, {(0, 2**63): 1.0}),
                     lambda: WaveFunction.from_json(text)):
            with pytest.raises(ValueError, match=r"prefactor\[\(0, 9223372036854775808\)\] has an "
                                                 r"exponent of 2\^63 or more"):
                make()

    @staticmethod
    def traced_peak(make):
        tracemalloc.start()
        try:
            make()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_high_degrees_stay_sparse(self, monkeypatch):
        # Memory is linear in the monomials: no producer that merges, and
        # neither scale nor the readers of the coefficients, makes a dense
        # array of the degrees or asks the memory guard for one.  A (3001,
        # 3001) array would be 144 MB.  The exponential makes d + 1 rows of a
        # degree d monomial; C(3000, i) is beyond the float range, so it
        # translates degree 1000.
        term = BilinearPhaseTerm(1.0, 0.0, 0.5, 0.0, 0.0, {(0, 0): 1.0, (3000, 3000): 1.0})
        wf = WaveFunction([term])
        text = wf.to_json()
        lower = WaveFunction.single(1.0, 0.0, 0.5, 0.0, 0.0, {(0, 0): 1.0, (1000, 1000): 1.0})

        def unasked():
            raise AssertionError("the memory guard was asked")

        monkeypatch.setattr(memory, "_available_memory", unasked)
        for make in (lambda: WaveFunction([term]), lambda: wf + wf,
                     lambda: WaveFunction.from_json(text),
                     lambda: exp_operator_apply(P_RIGHT, 0.5, lower),
                     lambda: wf.scale(0.5 - 2j), lambda: wf.scale(0), wf.is_zero,
                     wf.max_abs_coeff):
            assert self.traced_peak(make) <= 2**20
        assert wf.scale(0.5 - 2j).terms[0].prefactor == {(0, 0): 0.5 - 2j, (3000, 3000): 0.5 - 2j}
        assert wf.scale(0).is_zero() and wf.max_abs_coeff() == 1.0

    def test_pack_refused_before_it_is_allocated(self, monkeypatch):
        # The pack of T terms with exponents below D peaks at 16 T (9 D^2 +
        # 4 D (D + 1)) bytes of arrays, plus under 512 bytes a term and 512 KiB
        # of lists and numpy buffers.  Above 1 MiB it asks the memory guard,
        # and one byte less than that available is refused before any of it
        # is allocated.
        wf = WaveFunction.single(1.0, 0.0, 0.5, 0.0, 0.0, {(0, 0): 1.0, (3000, 3000): 1.0})
        monkeypatch.setattr(memory, "_available_memory", lambda: 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="^packing 1 terms with exponents below 3001 "
                                                  "needs"):
                apply_operator(Q_LEFT, wf)
            assert tracemalloc.get_traced_memory()[1] <= 2**20
        finally:
            tracemalloc.stop()
        wide = WaveFunction.single(1.0, 0.0, 0.5, 0.0, 0.0, {(129, 0): 1.0, (0, 3): 0.5})
        need = 16 * (9 * 130 * 130 + 4 * 130 * 131 + 32) + 2**19
        assert need > 2**20
        monkeypatch.setattr(memory, "_available_memory", lambda: need - 1)
        with pytest.raises(MemoryError):
            apply_operator(Q_LEFT, wide)
        monkeypatch.setattr(memory, "_available_memory", lambda: need)
        assert apply_operator(Q_LEFT, wide).to_json() == merged_apply(Q_LEFT, wide).to_json()
        # A pack of at most 1 MiB does not ask.
        monkeypatch.setattr(memory, "_available_memory", lambda: 0)
        small = equivalence_input("seed3")
        assert apply_operator(Q_LEFT, small).to_json() == merged_apply(Q_LEFT, small).to_json()

    @pytest.mark.parametrize("count, size", [(2000, 1), (2000, 3), (400, 8), (60, 40)])
    def test_pack_peak_within_the_guard_estimate(self, count, size):
        # The bytes the guard is asked for bound the traced peak of packing.
        wf = WaveFunction([BilinearPhaseTerm(1.0, k / 8, 0.0, 0.0, 0.0,
                                             {(0, 0): 2.0, (size - 1, size - 1): 1.0})
                           for k in range(count)])
        tracemalloc.start()
        try:
            wf._packed()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * count * (9 * size * size + 4 * size * (size + 1) + 32) + 2**19


def is_dyadic(wf):
    """Whether every amplitude, phase key and prefactor coefficient of wf is
    an integer over a power of two."""
    values = [x for t in wf.terms for c in (t.amplitude, *t.prefactor.values())
              for x in (c.real, c.imag)] + [k for t in wf.terms for k in t.phase_key]
    return all(d & (d - 1) == 0 for d in (x.as_integer_ratio()[1] for x in values))


class TestCommutators:
    def test_single_term_canonical_pair(self):
        wf = WaveFunction.single(1.0, 0.0, 0.5, -0.25, 0.75, hbar=0.5)
        out = commutator_apply(Q_LEFT, P_LEFT, wf)
        assert out.max_coeff_residual(wf.scale(0.5j)) == 0.0

    def test_single_term_mixed_pair_vanishes(self):
        wf = WaveFunction.single(1.0, 0.0, 0.5, -0.25, 0.75)
        assert commutator_apply(Q_LEFT, P_RIGHT, wf).is_zero()

    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(3)
        wf = random_wavefunction(rng.integers)
        for kind in ALL_KINDS:
            assert commutator_apply(kind, kind, wf).is_zero()

    def test_algebra_on_random_members_is_exact(self):
        # Any draw(lo, hi) gives nonzero dyadic members: numpy's
        # Generator.integers, as the tests use, and the standard library's
        # randrange, as suite_commutators does.
        rng = np.random.default_rng(5)
        mixed = ((Q_LEFT, P_RIGHT), (Q_RIGHT, P_LEFT), (Q_LEFT, Q_RIGHT), (P_RIGHT, P_LEFT))
        for draw in (rng.integers, random.Random(5).randrange):
            for hbar in (1.0, 0.5):
                for _ in range(10):
                    wf = random_wavefunction(draw, hbar=hbar)
                    assert not wf.is_zero() and is_dyadic(wf)
                    target = wf.scale(1j * hbar)
                    assert commutator_apply(Q_LEFT, P_LEFT, wf).max_coeff_residual(target) == 0.0
                    assert commutator_apply(Q_RIGHT, P_RIGHT, wf).max_coeff_residual(target) == 0.0
                    for pair in mixed:
                        assert commutator_apply(*pair, wf).max_abs_coeff() == 0.0


class TestExpOperator:
    def test_qright_shifts_k(self):
        psi = plane_q_basis(1.0, 2.0, primed=True)
        out = exp_operator_apply(Q_RIGHT, 0.75, psi)
        assert out.max_coeff_residual(plane_q_basis(1.0, 2.75, primed=True)) == 0.0

    def test_pleft_shifts_l(self):
        psi = plane_q_basis(1.0, 2.0, primed=True)
        out = exp_operator_apply(P_LEFT, 0.5, psi)
        assert out.max_coeff_residual(plane_q_basis(1.5, 2.0, primed=True)) == 0.0

    def test_zero_coefficient_is_identity(self):
        rng = np.random.default_rng(7)
        wf = random_wavefunction(rng.integers)
        for kind in ALL_KINDS:
            assert exp_operator_apply(kind, 0.0, wf).max_coeff_residual(wf) == 0.0

    def test_semigroup_exact_on_coefficients(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            wf = random_wavefunction(rng.integers)
            s = dyadic(rng.integers)
            for kind in ALL_KINDS:
                twice = exp_operator_apply(kind, s, exp_operator_apply(kind, s, wf))
                once = exp_operator_apply(kind, 2.0 * s, wf)
                assert twice.max_coeff_residual(once) == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_agrees_with_taylor_series(self, kind):
        # The affine substitution must match the operator exponential's series.
        wf = WaveFunction.single(1.0, 0.0, 0.5, -0.25, 0.5, {(1, 0): 0.5, (0, 1): -0.25j})
        s = 0.5
        pts = [(0.2, -0.3), (-0.6, 0.1), (0.4, 0.7)]
        exact = exp_operator_apply(kind, s, wf)
        sgn = -1.0 if kind is P_LEFT else 1.0
        for q, p in pts:
            total = wf.evaluate(q, p)
            iterate = wf
            fac = 1.0 + 0j
            for order in range(1, 30):
                iterate = apply_operator(kind, iterate)
                fac *= sgn * 1j * s / wf.hbar / order
                total += fac * iterate.evaluate(q, p)
            assert abs(exact.evaluate(q, p) - total) < 1e-9


class TestIsEigenstate:
    def test_qleft_eigenvalue(self):
        assert is_eigenstate(Q_LEFT, plane_q_basis(5.0, 0.0)) == 5.0

    def test_nonconstant_prefactor_returns_none(self):
        assert is_eigenstate(P_LEFT, plane_q_basis(1.0, 2.0)) is None

    def test_pleft_on_plane_wave(self):
        assert is_eigenstate(P_LEFT, plane_p_basis(1.0, 7.0)) == 7.0

    def test_annihilated_state_has_eigenvalue_zero(self):
        one = WaveFunction.single(1.0, 0.0, 0.0, 0.0, 0.0)
        assert is_eigenstate(Q_RIGHT, one) == 0j

    def test_zero_wavefunction_rejected(self):
        with pytest.raises(ValueError):
            is_eigenstate(Q_LEFT, WaveFunction.zero())

    def test_superposition_of_different_eigenvalues_returns_none(self):
        wf = plane_q_basis(1.0, 0.0) + plane_q_basis(2.0, 0.0)
        assert is_eigenstate(Q_LEFT, wf) is None


class TestPointwiseConsistency:
    def test_operators_match_finite_differences(self):
        # Central differences of the evaluation agree with the symbolic image.
        rng = np.random.default_rng(13)
        step = 1e-5
        pts = random_points(rng, 100)
        wfs = [random_wavefunction(rng.integers) for _ in range(5)]
        for wf in wfs:
            hbar = wf.hbar
            images = {kind: apply_operator(kind, wf) for kind in ALL_KINDS}
            for q, p in pts:
                dq = (wf.evaluate(q + step, p) - wf.evaluate(q - step, p)) / (2 * step)
                dp = (wf.evaluate(q, p + step) - wf.evaluate(q, p - step)) / (2 * step)
                base = wf.evaluate(q, p)
                expected = {
                    Q_LEFT: q * base + 1j * hbar * dp,
                    P_LEFT: -1j * hbar * dq,
                    Q_RIGHT: 1j * hbar * dp,
                    P_RIGHT: p * base + 1j * hbar * dq,
                }
                for kind in ALL_KINDS:
                    got = images[kind].evaluate(q, p)
                    assert abs(got - expected[kind]) <= 1e-6 * max(1.0, abs(got))

    def test_differentiate_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        wf = random_wavefunction(rng.integers)
        step = 1e-5
        for q, p in random_points(rng, 20):
            fd_q = (wf.evaluate(q + step, p) - wf.evaluate(q - step, p)) / (2 * step)
            fd_p = (wf.evaluate(q, p + step) - wf.evaluate(q, p - step)) / (2 * step)
            assert abs(differentiate(wf, "q").evaluate(q, p) - fd_q) <= 1e-6 * max(1.0, abs(fd_q))
            assert abs(differentiate(wf, "p").evaluate(q, p) - fd_p) <= 1e-6 * max(1.0, abs(fd_p))


def terms_json(wf):
    """to_json written term by term from wf.terms: the reference for the
    serializer, which writes the state arrays."""
    return json.dumps({
        "hbar": wf.hbar,
        "terms": [
            {
                "amp": [t.amplitude.real, t.amplitude.imag],
                "c0": t.c0,
                "cq": t.cq,
                "cp": t.cp,
                "cqp": t.cqp,
                "prefactor": [
                    [dq, dp, c.real, c.imag]
                    for (dq, dp), c in sorted(t.prefactor.items())
                ],
            }
            for t in wf.terms
        ],
    })


class TestSerialization:
    @staticmethod
    def outputs(name):
        """A member of EQUIVALENCE_INPUTS and outputs of every producer on it."""
        wf = equivalence_input(name)
        outs = [wf, wf + wf, wf - wf, wf.scale(0.3 + 0.7j), WaveFunction.from_json(wf.to_json())]
        outs += [apply_operator(k, wf) for k in ALL_KINDS]
        outs += [exp_operator_apply(k, 0.375, wf) for k in ALL_KINDS]
        return outs + [commutator_apply(Q_LEFT, P_LEFT, wf)]

    @pytest.mark.parametrize("name", EQUIVALENCE_INPUTS)
    def test_same_bytes_as_written_term_by_term(self, name):
        for out in self.outputs(name):
            assert out.to_json() == terms_json(out)

    @pytest.mark.parametrize("name", EQUIVALENCE_INPUTS)
    def test_readers_agree_with_the_terms(self, name):
        # max_abs_coeff, is_zero and repr read the state arrays.
        for out in self.outputs(name):
            values = [c for t in out.terms for c in t.prefactor.values()]
            assert out.max_abs_coeff() == max(map(abs, values), default=0.0)
            assert out.is_zero() == (not out.terms)
            assert repr(out) == f"WaveFunction({len(out.terms)} terms, hbar={out.hbar})"

    def test_roundtrip_preserves_canonical_form(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            wf = random_wavefunction(rng.integers, hbar=0.5)
            back = WaveFunction.from_json(wf.to_json())
            assert back.hbar == wf.hbar
            assert back.max_coeff_residual(wf) == 0.0
            assert [t.phase_key for t in back.terms] == [t.phase_key for t in wf.terms]

    def test_schema_shape(self):
        wf = WaveFunction.single(2.0 - 1.0j, 0.5, 1.0, -1.0, 0.0, {(1, 2): 3.0})
        data = json.loads(wf.to_json())
        assert set(data) == {"hbar", "terms"}
        term = data["terms"][0]
        assert set(term) == {"amp", "c0", "cq", "cp", "cqp", "prefactor"}
        # amplitude is folded into the prefactor in canonical form
        assert term["amp"] == [1.0, 0.0]
        assert term["prefactor"] == [[1, 2, 6.0, -3.0]]

    def test_prefactor_entries_sorted(self):
        wf = WaveFunction.single(1.0, 0.0, 0.0, 0.0, 0.0, {(2, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0})
        entries = json.loads(wf.to_json())["terms"][0]["prefactor"]
        assert [(dq, dp) for dq, dp, _, _ in entries] == [(0, 1), (1, 1), (2, 0)]
