"""The three benchmark workloads.

Each workload makes its inputs from the seed in `__init__`, runs one
operation per `operation()` call (the part that is timed) and judges the
outputs in `check()`, which returns (attempted, failed, known_faults,
problems).  Every operation of a run is the same work on the same inputs,
so the share of failed verdicts is the same in every run.

torusq functions are looked up on their modules at call time, so the
wrappers that traced mode installs are the ones called.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent

# Planck constants drawn by the seed.  Each is a dyadic rational, so a*b/h
# with a = b = sqrt(N h) detects N exactly, and every verdict is PASS (apart
# from the named known fault) for every value; see README.md.
H_VALUES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)

SIZES = {
    "verify-all-n16": {"full": 16, "small": 4},
    "physical-n64": {"full": 64, "small": 8},
    "algebra-large": {"full": 1000, "small": 60},
}


def _symmetric_geometry(rng: random.Random, N: int) -> dict:
    h = rng.choice(H_VALUES)
    side = math.sqrt(N * h)
    return {"a": side, "b": side, "h": h, "N": N}


class VerifyAll:
    """`torusq verify --suite all --json` as a subprocess of a fresh
    interpreter: exactly what a CLI user waits for."""

    in_process = False

    def __init__(self, seed: int, size: str, trace: bool, outdir: Path):
        N = SIZES["verify-all-n16"][size]
        self.geometry = _symmetric_geometry(random.Random(seed), N)
        g = self.geometry
        self.argv = ["verify", "--N", str(N), "--suite", "all", "--json",
                     "--a", repr(g["a"]), "--b", repr(g["b"]), "--h", repr(g["h"])]
        self.summary_path = outdir / "summary-verify-all-n16.json"
        if trace:
            self.command = [sys.executable, str(HERE / "traced_cli.py"),
                            str(outdir / "spans-verify-all-n16.json"),
                            str(self.summary_path), *self.argv]
        else:
            self.command = [sys.executable, "-m", "torusq", *self.argv]

    def operation(self):
        return subprocess.run(self.command, capture_output=True, text=True, env=os.environ)

    def layers(self) -> dict:
        return json.loads(self.summary_path.read_text())

    def check(self, proc):
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return 1, 1, [], [f"no JSON report (exit {proc.returncode}): {proc.stderr[-500:]}"]
        attempted, failed, known, problems = checks.check_report(report, checks.SUITE_ORDER,
                                                                  self.geometry)
        if proc.returncode != (0 if failed == 0 else 1):
            problems.append(f"exit status {proc.returncode} with {failed} failed checks")
        return attempted, failed, known, problems


class Physical:
    """The table1, dft and weyl suites on the physical grid M = N, in process,
    assembled into a report as the CLI does."""

    in_process = True
    SUITES = ("table1", "dft", "weyl")

    def __init__(self, seed: int, size: str, trace: bool, outdir: Path):
        from torusq import torus

        self.geometry = _symmetric_geometry(random.Random(seed), SIZES["physical-n64"][size])
        g = self.geometry
        self.torus_geometry = torus.make_geometry(g["a"], g["b"], g["h"])

    def operation(self):
        from torusq import __version__, report, suites

        found = []
        for name in self.SUITES:
            found.extend(suites.run_suites(name, self.torus_geometry, suites.DEFAULT_TOL))
        return report.VerificationReport(
            tool_version=__version__, geometry=self.torus_geometry.to_dict(),
            checks=found, timestamp="").to_json()

    def check(self, text):
        from torusq import finite

        attempted, failed, known, problems = checks.check_report(json.loads(text), self.SUITES,
                                                                  self.geometry)
        N = self.geometry["N"]
        K = finite.dft_basis_change(N)
        problems += checks.check_dft_matrix(getattr(K, "entries", K), N)
        return attempted, failed, known, problems


OPERATORS = ("Q_LEFT", "P_LEFT", "Q_RIGHT", "P_RIGHT")
CANONICAL = (("Q_LEFT", "P_LEFT"), ("Q_RIGHT", "P_RIGHT"))
MIXED = (("Q_LEFT", "P_RIGHT"), ("Q_RIGHT", "P_LEFT"), ("Q_LEFT", "Q_RIGHT"), ("P_RIGHT", "P_LEFT"))

# Share of input terms whose phase key repeats an earlier one, so that the
# canonical merge adds prefactors instead of only appending terms.
REPEATED_KEY_SHARE = 0.35
DYADIC_DENOM = 8.0
HBAR = 1.0
POINTS = 16
# Prefactor monomials q^dq p^dp of degree at most 2 in each variable.
MONOMIALS = [(dq, dp) for dq in range(3) for dp in range(3)]


def _dyadic(rng: random.Random, lo=-8, hi=8) -> float:
    return rng.randint(lo, hi) / DYADIC_DENOM


def make_terms(rng: random.Random, count: int) -> list[tuple]:
    """(amplitude, phase key, prefactor) tuples with dyadic coefficients and
    two prefactor monomials each; REPEATED_KEY_SHARE of them reuse an earlier
    phase key."""
    distinct = count - int(round(REPEATED_KEY_SHARE * count))
    keys: list[tuple] = []
    seen = set()
    while len(keys) < distinct:
        key = tuple(_dyadic(rng) for _ in range(4))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    order = keys + [rng.choice(keys) for _ in range(count - distinct)]
    rng.shuffle(order)
    terms = []
    for key in order:
        pref = {mon: complex(_dyadic(rng), _dyadic(rng)) for mon in rng.sample(MONOMIALS, 2)}
        amp = complex(rng.randint(1, 4), rng.randint(-2, 2))
        terms.append((amp, key, pref))
    return terms


class Algebra:
    """One large wave function pushed through the whole symbolic layer:
    build, the four operators, their exponentials, the canonical and mixed
    commutators and a JSON round trip."""

    in_process = True

    def __init__(self, seed: int, size: str, trace: bool, outdir: Path):
        import numpy as np
        from torusq import symbolic

        rng = random.Random(seed)
        self.raw = make_terms(rng, SIZES["algebra-large"][size])
        self.terms = [symbolic.BilinearPhaseTerm(amp, *key, prefactor=pref, hbar=HBAR)
                      for amp, key, pref in self.raw]
        self.shifts = {k: rng.choice((-1, 1)) * rng.randint(1, 8) / DYADIC_DENOM for k in OPERATORS}
        self.q = np.array([rng.uniform(-1.0, 1.0) for _ in range(POINTS)])
        self.p = np.array([rng.uniform(-1.0, 1.0) for _ in range(POINTS)])
        self.merged = checks.coefficient_map(self.raw)
        self.scale = 1.0 + checks.magnitude(self.raw)
        self.want_apply = {k: checks.expected_apply(k, self.raw, self.q, self.p, HBAR)
                           for k in OPERATORS}
        self.want_exp = {k: checks.expected_exp(k, self.shifts[k], self.raw, self.q, self.p, HBAR)
                         for k in OPERATORS}

    def operation(self):
        from torusq import symbolic

        kinds = symbolic.OperatorKind
        wf = symbolic.WaveFunction(self.terms, hbar=HBAR)
        out = {"build": wf}
        for k in OPERATORS:
            out[f"apply/{k}"] = symbolic.apply_operator(kinds[k], wf)
        for k in OPERATORS:
            out[f"exp/{k}"] = symbolic.exp_operator_apply(kinds[k], self.shifts[k], wf)
        for a, b in CANONICAL + MIXED:
            out[f"commutator/{a},{b}"] = symbolic.commutator_apply(kinds[a], kinds[b], wf)
        out["json"] = symbolic.WaveFunction.from_json(wf.to_json())
        return out

    def check(self, out):
        problems = []
        q, p = self.q, self.p
        built = checks.coefficient_map(out["build"].terms)
        problems += checks.check_coefficients("build", built, self.merged)
        for k in OPERATORS:
            problems += checks.check_sampled(f"apply/{k}", checks.evaluate(
                out[f"apply/{k}"].terms, q, p, HBAR), self.want_apply[k], self.scale)
            problems += checks.check_sampled(f"exp/{k}", checks.evaluate(
                out[f"exp/{k}"].terms, q, p, HBAR), self.want_exp[k], self.scale)
        ihbar = {key: {mon: 1j * HBAR * c for mon, c in pref.items()}
                 for key, pref in self.merged.items()}
        for a, b in CANONICAL:
            name = f"commutator/{a},{b}"
            problems += checks.check_coefficients(name, checks.coefficient_map(out[name].terms), ihbar)
        for a, b in MIXED:
            name = f"commutator/{a},{b}"
            problems += checks.check_coefficients(name, checks.coefficient_map(out[name].terms), {})
        if out["json"].hbar != out["build"].hbar:
            problems.append("json: hbar changed in the round trip")
        problems += checks.check_coefficients("json", checks.coefficient_map(out["json"].terms), built)
        failed = len({msg.split(":", 1)[0] for msg in problems})
        return len(out), failed, [], problems


WORKLOADS = {
    "verify-all-n16": VerifyAll,
    "physical-n64": Physical,
    "algebra-large": Algebra,
}
