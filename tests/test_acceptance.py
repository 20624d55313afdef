"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; coefficient-exact criteria compare against
literal zero using dyadic-rational random inputs (see conftest).
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from conftest import displacement_law_residual, dyadic, random_wavefunction, square_torus
from torusq.finite import (
    dft_basis_change,
    physical_grid_overlaps,
    table1_matrices,
    table1_verify,
    weyl_commutation_check,
)
from torusq.plane import make_plane_Q_basis
from torusq.suites import suite_orthonormality
from torusq.symbolic import (
    OperatorKind,
    apply_operator,
    commutator_apply,
    differentiate,
    exp_operator_apply,
)
from torusq.torus import (
    GridShift,
    chart_consistency_check,
    holonomy,
    make_geometry,
    make_torus_P_basis,
    make_torus_Q_basis,
    sample,
    transition_function,
)

Q_LEFT, P_LEFT = OperatorKind.Q_LEFT, OperatorKind.P_LEFT
Q_RIGHT, P_RIGHT = OperatorKind.Q_RIGHT, OperatorKind.P_RIGHT

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "torusq.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def conclude(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_01_symbolic_heisenberg_algebra():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    mixed_pairs = ((Q_LEFT, P_RIGHT), (Q_RIGHT, P_LEFT), (Q_LEFT, Q_RIGHT), (P_RIGHT, P_LEFT))
    for _ in range(50):
        wf = random_wavefunction(rng.integers)
        target = wf.scale(1j * wf.hbar)
        worst = max(worst, commutator_apply(Q_LEFT, P_LEFT, wf).max_coeff_residual(target))
        worst = max(worst, commutator_apply(Q_RIGHT, P_RIGHT, wf).max_coeff_residual(target))
        for pair in mixed_pairs:
            worst = max(worst, commutator_apply(*pair, wf).max_abs_coeff())
    elapsed = time.monotonic() - start
    conclude(
        "criterion 1: symbolic Heisenberg algebra",
        worst == 0.0 and elapsed < 1.0,
        f"coefficient residual {worst!r} over 50 wave functions in {elapsed:.2f}s",
    )


def test_criterion_02_plane_shift_actions_and_displacement():
    rng = np.random.default_rng(102)
    worst_shift = 0.0
    for _ in range(20):
        l, k, a, b = (dyadic(rng.integers) for _ in range(4))
        base = make_plane_Q_basis(l, k, 1.0, primed=True)
        up_k = exp_operator_apply(Q_RIGHT, a, base)
        worst_shift = max(
            worst_shift, up_k.max_coeff_residual(make_plane_Q_basis(l, k + a, 1.0, primed=True))
        )
        up_l = exp_operator_apply(P_LEFT, b, base)
        worst_shift = max(
            worst_shift, up_l.max_coeff_residual(make_plane_Q_basis(l + b, k, 1.0, primed=True))
        )
    worst_law = displacement_law_residual(rng, 100)
    conjugated = displacement_law_residual(rng, 100, cocycle=-1)
    omitted = displacement_law_residual(rng, 100, cocycle=0)
    conclude(
        "criterion 2: plane shift actions and displacement law",
        worst_shift == 0.0 and worst_law <= 1e-12 and min(conjugated, omitted) >= 1.0,
        f"label-shift residual {worst_shift!r}, displacement-law residual {worst_law:.2e}, "
        f"conjugated cocycle {conjugated:.2f}, omitted cocycle {omitted:.2f}",
    )


def test_criterion_03_gauge_picture():
    # The potential A_q = 0, A_p = q/hbar, written inline.
    rng = np.random.default_rng(103)
    worst_cov = 0.0
    worst_strength = 0.0
    for hbar in (1.0, 0.5):
        for _ in range(10):
            wf = random_wavefunction(rng.integers, hbar=hbar)
            dq_wf, dp_wf = differentiate(wf, "q"), differentiate(wf, "p")
            q_img, p_img = apply_operator(Q_LEFT, wf), apply_operator(P_LEFT, wf)
            for q, p in rng.uniform(-2, 2, size=(5, 2)):
                cov_q = 1j * hbar * (dp_wf.evaluate(q, p) - 1j * (q / hbar) * wf.evaluate(q, p))
                cov_p = -1j * hbar * dq_wf.evaluate(q, p)
                scale_q = max(1.0, abs(cov_q))
                scale_p = max(1.0, abs(cov_p))
                worst_cov = max(worst_cov,
                                abs(q_img.evaluate(q, p) - cov_q) / scale_q,
                                abs(p_img.evaluate(q, p) - cov_p) / scale_p)
            # With Q_LEFT = i hbar D_p and P_LEFT = -i hbar D_q, [D_q, D_p] = -iF
            # makes [Q_LEFT, P_LEFT] = i hbar exactly when F = 1/hbar.
            commutator = commutator_apply(Q_LEFT, P_LEFT, wf)
            worst_strength = max(worst_strength, commutator.max_coeff_residual(wf.scale(1j * hbar)))
    worst_path = 0.0
    steps = 10_000
    for hbar in (0.5, 1.0, 2.0):
        prequantum = make_plane_Q_basis(0.0, 0.0, hbar)
        for _ in range(7):
            q, p = rng.uniform(-2, 2, 2)
            qs = (np.arange(steps) + 0.5) * (q / steps)
            leg1 = np.sum(0.0 * qs) * (q / steps)
            ps = (np.arange(steps) + 0.5) * (p / steps)
            leg2 = np.sum(np.full_like(ps, q) / hbar) * (p / steps)
            oracle = np.exp(1j * (leg1 + leg2))
            worst_path = max(worst_path, abs(prequantum.evaluate(q, p) - oracle))
    conclude(
        "criterion 3: gauge picture (covariant derivatives, field strength, path phase)",
        worst_cov <= 1e-10 and worst_strength == 0.0 and worst_path <= 1e-10,
        f"covariant residual {worst_cov:.2e}, field-strength residual {worst_strength!r}, "
        f"path residual {worst_path:.2e}",
    )


def test_criterion_04_quantization_dichotomy():
    rng = np.random.default_rng(104)
    geometries = []
    for _ in range(50):
        N = int(rng.integers(1, 11))
        a = float(rng.uniform(0.5, 3.0))
        h = float(rng.choice([0.5, 1.0, 2.0]))
        geometries.append(make_geometry(a, N * h / a, h))
    for _ in range(50):
        N = int(rng.integers(1, 11))
        frac = float(rng.choice([0.5, 0.25, 0.75]))
        a = float(rng.uniform(0.5, 3.0))
        h = float(rng.choice([0.5, 1.0, 2.0]))
        geometries.append(make_geometry(a, (N + frac) * h / a, h))
    dichotomy_ok = True
    for g in geometries:
        hol_flat = abs(holonomy(g) - 1.0) <= 1e-12
        ps = np.linspace(0.0, g.a, 8, endpoint=False)
        periodic = max(
            abs(transition_function(g, p + g.a) - transition_function(g, p)) for p in ps
        ) <= 1e-12
        if not ((g.N is not None) == hol_flat == periodic):
            dichotomy_ok = False
            break
    worst_chart = 0.0
    for g in geometries[:10]:
        worst_chart = max(worst_chart, chart_consistency_check(g, 0, 0).max_residual)
    detection_ok = True
    for N in (1, 2, 3):
        broken = make_geometry(1.0, (N + 0.5), 1.0)
        res = chart_consistency_check(broken, 0, 0, apply_transition=False)
        detection_ok = detection_ok and res.max_residual > 0.1
    conclude(
        "criterion 4: quantization dichotomy and chart consistency",
        dichotomy_ok and worst_chart <= 1e-12 and detection_ok,
        f"dichotomy over 100 geometries, chart residual {worst_chart:.2e}, "
        f"omitted-transition detected {detection_ok}",
    )


def test_criterion_05_torus_orthonormality():
    start = time.monotonic()
    worst = 0.0
    for N in (1, 2, 3, 4, 8):
        g = square_torus(N)
        M = 8 * N
        for factory, primed in ((make_torus_Q_basis, True), (make_torus_P_basis, False)):
            grids = [
                sample(factory(g, n, m, primed=primed), g, M).reshape(-1)
                for n in range(N) for m in range(N)
            ]
            V = np.stack(grids)
            gram = (V.conj() @ V.T) / (M * M)
            worst = max(worst, float(np.abs(gram - np.eye(N * N)).max()))
    elapsed = time.monotonic() - start
    conclude(
        "criterion 5: torus orthonormality (both bases, N in {1,2,3,4,8}, M=8N)",
        worst <= 1e-12 and elapsed < 10.0,
        f"Gram residual {worst:.2e} in {elapsed:.2f}s",
    )


def test_criterion_05_gram_holds_one_basis_at_a_time():
    # The suite holds one basis at a time: three N x N arrays, the grid
    # coordinates and the (N, M) factors of one one-dimensional Gram with
    # their conjugate are the estimate it refuses by, and the traced peak
    # must stay near it.
    N = 8
    M = 8 * N
    estimate = 16 * (3 * N**2 + 2 * N * M + M)
    suite_orthonormality(square_torus(2))  # lazily built state is not the suite's
    tracemalloc.start()
    try:
        checks = suite_orthonormality(square_torus(N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    conclude(
        "criterion 5: orthonormality memory (N=8, M=8N)",
        all(c.passed for c in checks) and peak <= 1.25 * estimate,
        f"peak {peak / estimate:.2f} x the suite's estimate",
    )


def test_criterion_06_operator_action_table():
    worst = 0.0
    for N in (1, 2, 4):
        for res in table1_verify(square_torus(N)):
            worst = max(worst, res.max_residual)
            assert res.passed, (res.name, res.max_residual)
    conclude(
        "criterion 6: eight-cell operator action table (N in {1,2,4})",
        worst <= 1e-12,
        f"max cell residual {worst:.2e}",
    )


def test_criterion_07_weyl_commutation():
    worst_order = 0.0
    primitive_ok = True
    for N in (2, 3, 5, 7):
        omega = weyl_commutation_check(N)
        worst_order = max(worst_order, abs(omega**N - 1.0))
        primitive_ok = primitive_ok and all(abs(omega**k - 1.0) > 0.1 for k in range(1, N))
    worst_unitary = 0.0
    shift_exact = True
    for N in range(1, 65):
        C = table1_matrices(GridShift.EXP_QLEFT, N)[1]
        S = table1_matrices(GridShift.EXP_PLEFT, N)[1]
        eye = np.eye(N)
        worst_unitary = max(
            worst_unitary,
            float(np.abs(C.conj().T @ C - eye).max()),
            float(np.abs(S.conj().T @ S - eye).max()),
        )
        shift_exact = shift_exact and np.array_equal(np.linalg.matrix_power(S, N), eye)
    conclude(
        "criterion 7: Weyl commutation phase, unitarity to N=64, shift order",
        worst_order <= 1e-12 and primitive_ok and worst_unitary <= 1e-12 and shift_exact,
        f"|omega^N - 1| {worst_order:.2e}, unitarity residual {worst_unitary:.2e}, "
        f"shift^N exact {shift_exact}",
    )


def test_criterion_08_dft_relation():
    worst_unitary = 0.0
    worst_intertwine = 0.0
    worst_oracle = 0.0
    for N in (1, 2, 3, 4, 8):
        K = dft_basis_change(N)
        worst_unitary = max(worst_unitary, float(np.abs(K.conj().T @ K - np.eye(N)).max()))
        for which in GridShift:
            mp, mq = table1_matrices(which, N)
            worst_intertwine = max(worst_intertwine, float(np.abs(K @ mp - mq @ K).max()))
        worst_oracle = max(worst_oracle, physical_grid_overlaps(square_torus(N)))
    conclude(
        "criterion 8: discrete Fourier basis change (unitary, intertwining, grid oracle)",
        worst_unitary <= 1e-12 and worst_intertwine <= 1e-12 and worst_oracle <= 1e-10,
        f"unitarity {worst_unitary:.2e}, intertwining {worst_intertwine:.2e}, "
        f"oracle {worst_oracle:.2e}",
    )


def test_criterion_09_trace_obstruction():
    rng = np.random.default_rng(109)
    worst = 0.0
    for N in (2, 3, 8):
        for _ in range(100):
            A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            resid = abs(np.trace(A @ B - B @ A)) / (np.linalg.norm(A) * np.linalg.norm(B))
            worst = max(worst, float(resid))
    conclude(
        "criterion 9: trace obstruction (300 random pairs)",
        worst <= 1e-10,
        f"relative trace residual {worst:.2e}",
    )


def test_criterion_10_cli_end_to_end():
    start = time.monotonic()
    full = run_cli("verify", "--N", "4", "--suite", "all")
    elapsed = time.monotonic() - start
    quantize = run_cli("quantize", "--a", "1", "--b", "0.5", "--h", "1", "--json")
    quantize_report = json.loads(quantize.stdout)
    holonomy_reported = quantize_report["checks"][0]["params"]["holonomy"]
    first = run_cli("verify", "--N", "3", "--suite", "dft", "--json")
    second = run_cli("verify", "--N", "3", "--suite", "dft", "--json")
    a, b = json.loads(first.stdout), json.loads(second.stdout)
    a.pop("timestamp")
    b.pop("timestamp")
    stable = json.dumps(a) == json.dumps(b)
    ok = (
        full.returncode == 0
        and elapsed < 30.0
        and quantize.returncode == 1
        and abs(holonomy_reported[0] - (-1.0)) < 1e-12
        and stable
    )
    conclude(
        "criterion 10: CLI end to end",
        ok,
        f"verify-all exit {full.returncode} in {elapsed:.1f}s, quantize exit "
        f"{quantize.returncode} with holonomy {holonomy_reported}, byte-stable {stable}",
    )
