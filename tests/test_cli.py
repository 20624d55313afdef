import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import patch_key, square_torus
from torusq import cli, finite, memory, suites, torus
from torusq.symbolic import WaveFunction

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, timeout=120, preexec_fn=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "torusq.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout, preexec_fn=preexec_fn,
    )


def cap_address_space():
    """Cap the child's address space at 2 GiB (a preexec_fn for run_cli)."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestQuantize:
    def test_quantized_geometry(self):
        res = run_cli("quantize", "--a", "2", "--b", "3", "--h", "1")
        assert res.returncode == 0
        assert "N = 6" in res.stdout

    def test_non_quantized_reports_holonomy(self):
        res = run_cli("quantize", "--a", "1", "--b", "0.5", "--h", "1")
        assert res.returncode == 1
        assert "holonomy" in res.stdout
        assert "-1" in res.stdout

    def test_non_quantized_json_report(self):
        res = run_cli("quantize", "--a", "1", "--b", "0.5", "--h", "1", "--json")
        assert res.returncode == 1
        report = json.loads(res.stdout)
        assert report["schema"] == 1
        assert report["overall_pass"] is False
        check = report["checks"][0]
        hol = check["params"]["holonomy"]
        assert abs(hol[0] - (-1.0)) < 1e-12 and abs(hol[1]) < 1e-12

    def test_verdict_agrees_with_residual_and_exit_code(self):
        # a*b/h within the detection tolerance of an integer is quantized;
        # the reported residual and tolerance must say so too.
        cases = [("1.0000000001", "1", 0), ("2", "3", 0), ("1", "0.5", 1),
                 ("1.00001", "1", 1), ("1e-200", "1e-200", 1)]
        for a, b, code in cases:
            res = run_cli("quantize", "--a", a, "--b", b, "--h", "1", "--json")
            assert res.returncode == code, (a, b)
            check = json.loads(res.stdout)["checks"][0]
            assert check["pass"] is (code == 0), (a, b)
            assert check["pass"] is (check["max_residual"] <= check["tolerance"]), (a, b)

    def test_invalid_input_exits_2(self):
        res = run_cli("quantize", "--a", "-1", "--b", "1", "--h", "1")
        assert res.returncode == 2
        res = run_cli("quantize", "--a", "zzz", "--b", "1", "--h", "1")
        assert res.returncode == 2

    def test_overflowing_area_exits_2(self):
        # a*b/h overflows to inf: an input error, not a traceback.
        res = run_cli("quantize", "--a", "1e200", "--b", "1e200", "--h", "1")
        assert res.returncode == 2
        assert "not finite" in res.stderr
        assert "Traceback" not in res.stderr


class TestVerify:
    def test_table1_suite(self):
        res = run_cli("verify", "--N", "4", "--suite", "table1", "--json")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert len(report["checks"]) == 9
        assert report["overall_pass"] is True
        for check in report["checks"]:
            assert check["max_residual"] <= 1e-12

    def test_all_suites_dimension_one(self):
        res = run_cli("verify", "--N", "1", "--suite", "all")
        assert res.returncode == 0
        assert "overall: PASS" in res.stdout

    def test_all_suites_never_import_numpy_random(self):
        # Every seeded draw comes from random.Random (the commutators suite's
        # members and the dft oracle's sketch), so a fresh interpreter that
        # verifies every suite never pays for importing numpy.random.
        code = ("import sys; from torusq.cli import main; "
                "status = main(['verify', '--N', '4', '--suite', 'all']); "
                "print(status, 'numpy.random' in sys.modules)")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert res.returncode == 0 and res.stderr == ""
        assert "overall: PASS" in res.stdout
        assert res.stdout.splitlines()[-1] == "0 False"

    def test_weyl_reports_primitive_root(self):
        res = run_cli("verify", "--N", "3", "--suite", "weyl", "--json")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        order_check = next(c for c in report["checks"] if c["check"] == "weyl/scalar_phase_order")
        omega = complex(*order_check["params"]["omega"])
        assert abs(omega**3 - 1.0) <= 1e-12
        assert abs(omega - 1.0) > 0.5  # primitive cube root of unity

    def test_run_suites_names_the_choices_for_an_unknown_suite(self):
        choices = "['charts', 'commutators', 'dft', 'orthonormality', 'table1', 'weyl'] or 'all'"
        with pytest.raises(ValueError, match=re.escape(f"unknown suite 'bogus'; choose from {choices}")):
            suites.run_suites("bogus", square_torus(4))

    def test_unknown_suite_exits_2(self):
        res = run_cli("verify", "--N", "4", "--suite", "nonsense")
        assert res.returncode == 2

    def test_inconsistent_geometry_override_exits_2(self):
        res = run_cli("verify", "--N", "2", "--suite", "weyl", "--a", "1", "--b", "1")
        assert res.returncode == 2

    def test_geometry_override_accepted_when_consistent(self):
        res = run_cli("verify", "--N", "2", "--suite", "orthonormality", "--a", "1", "--b", "2")
        assert res.returncode == 0

    def test_suites_check_the_overridden_geometry(self):
        for suite in ("table1", "dft"):
            res = run_cli("verify", "--N", "2", "--a", "1", "--b", "2", "--suite", suite, "--json")
            assert res.returncode == 0, suite
            report = json.loads(res.stdout)
            assert report["overall_pass"] is True
            geometric = [c for c in report["checks"]
                         if c["check"].startswith("table1/") or c["check"] == "dft/grid_overlap_oracle"]
            assert geometric
            for check in geometric:
                assert (check["params"]["a"], check["params"]["b"]) == (1.0, 2.0), check["check"]

    def test_tolerance_reaches_table1_and_charts(self, monkeypatch, capsys):
        # The table1 cells count mismatched labels against tolerance 0 and
        # pass at any --tolerance; table1/lattice, which carries the
        # floating point, takes the tolerance given.  N = 5 puts the keys a
        # few eps off the lattice.
        res = run_cli("verify", "--N", "5", "--suite", "table1", "--tolerance", "1e-30", "--json")
        assert res.returncode == 1
        checks = {c["check"]: c for c in json.loads(res.stdout)["checks"]}
        lattice = checks.pop("table1/lattice")
        assert (lattice["tolerance"], lattice["pass"]) == (1e-30, False)
        assert len(checks) == 8
        for check in checks.values():
            assert (check["tolerance"], check["max_residual"], check["pass"]) == (0.0, 0.0, True)
        # Every Q key read with cq b/h 1e-13 turns off the lattice (a = b = 2,
        # h = 1): the chart checks pass at the default tolerance and fail at
        # the one given; the detection threshold keeps its own bound.
        patch_key(monkeypatch, torus, "Q", lambda n, m, k: (k[0], k[1] + 5e-14, *k[2:]))
        args = ["verify", "--N", "4", "--suite", "charts", "--json"]
        assert cli.main(args) == 0
        capsys.readouterr()
        assert cli.main([*args, "--tolerance", "1e-30"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [c["check"] for c in report["checks"] if not c["pass"]]
        assert failed == ["chart_consistency", "chart_consistency"]
        for check in report["checks"]:
            if check["check"] != "chart_mismatch_without_transition":
                assert check["tolerance"] == 1e-30, check["check"]

    def test_tolerance_reaches_weyl_without_traceback(self):
        # --tolerance is a verdict threshold, never an internal invariant.
        for N, suite in (("2", "weyl"), ("3", "weyl"), ("64", "weyl"), ("2", "all")):
            res = run_cli("verify", "--N", N, "--suite", suite, "--tolerance", "1e-30", "--json")
            assert "Traceback" not in res.stderr, (N, suite)
            report = json.loads(res.stdout)
            assert res.returncode == (0 if report["overall_pass"] else 1), (N, suite)
            assert report["overall_pass"] is all(c["pass"] for c in report["checks"])
            weyl = [c for c in report["checks"] if c["check"].startswith("weyl/")]
            assert len(weyl) == 6, (N, suite)

    def test_huge_hbar_passes(self):
        # Merge cells are in units of hbar, so the phases of the h = 1e300
        # geometry (c0 up to ~3e299) have finite cells.
        res = run_cli("verify", "--N", "3", "--h", "1e300", "--suite", "all")
        assert res.returncode == 0, res.stderr
        assert "overall: PASS (28 checks)" in res.stdout

    def test_tiny_hbar_passes(self):
        # No suite builds a state at the geometry's hbar: the keys of the
        # h = 1e-300 geometry are read as floats and arrays, never merged.
        res = run_cli("verify", "--N", "3", "--h", "1e-300", "--suite", "all")
        assert res.returncode == 0, res.stderr
        assert "overall: PASS (28 checks)" in res.stdout

    def test_charts_control_does_not_overflow_at_large_b_N(self, capsys):
        # The negative control stretches b by (N + 1/2)/N; b (N + 1/2) alone
        # overflows to inf on this quantized geometry.
        args = ["verify", "--N", "999999999999999879147136483328", "--a", "1e-300",
                "--b", "1e300", "--h", "1e-30", "--suite", "charts", "--json"]
        assert cli.main(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert [(c["check"], c["pass"]) for c in report["checks"]] == [
            ("chart_consistency", True), ("chart_consistency", True),
            ("chart_mismatch_without_transition", True)]

    @pytest.mark.skipif(not os.path.exists("/proc/meminfo"), reason="needs /proc/meminfo")
    def test_orthonormality_too_large_is_refused(self):
        # The address-space cap and the timeout keep a run that builds the
        # states anyway from exhausting the machine.
        res = run_cli("verify", "--N", "100000", "--suite", "orthonormality",
                      timeout=30, preexec_fn=cap_address_space)
        assert res.returncode == 2
        assert res.stderr.startswith("error: orthonormality at N=100000 needs ~")
        assert "GiB is available" in res.stderr

    def test_orthonormality_refused_before_sampling(self, monkeypatch):
        # Count every state handed to the grid sampler, every wave function
        # built (by the merge or term by term) and every phase-key
        # evaluation: a refusal comes before all.
        calls = []
        real_sampler, real_merge = torus.sample, WaveFunction._merge
        real_map = WaveFunction._map_terms

        def counted_sampler(*args, **kwargs):
            calls.append("sampled")
            return real_sampler(*args, **kwargs)

        def counted_merge(self, *args, **kwargs):
            calls.append("built")
            return real_merge(self, *args, **kwargs)

        def counted_map(*args, **kwargs):
            calls.append("built")
            return real_map(*args, **kwargs)

        monkeypatch.setattr(torus, "sample", counted_sampler)
        monkeypatch.setattr(WaveFunction, "_merge", counted_merge)
        monkeypatch.setattr(WaveFunction, "_map_terms", counted_map)
        monkeypatch.setattr(suites, "_basis_key", lambda *args, **kwargs: (
            calls.append("key") or torus._basis_key(*args, **kwargs)))
        monkeypatch.setattr(memory, "_available_memory", lambda: 1024)
        with pytest.raises(MemoryError, match="N=4 needs"):
            suites.suite_orthonormality(square_torus(4))
        assert calls == []
        # Where the available memory is unknown the suite runs as before: at
        # N = 2 the keys of each basis are evaluated once, as 1-D label
        # arrays, and no state is built or sampled.
        monkeypatch.setattr(memory, "_available_memory", lambda: None)
        assert all(c.passed for c in suites.suite_orthonormality(square_torus(2)))
        assert [calls.count(name) for name in ("sampled", "built", "key")] == [0, 0, 2]

    def test_orthonormality_refused_one_byte_below_its_estimate(self, monkeypatch):
        # The stated peak, 16 (3 N^2 + 2 N M + M) bytes at M = 8N, is the threshold.
        N, M = 4, 32
        need = 16 * (3 * N**2 + 2 * N * M + M)
        monkeypatch.setattr(memory, "_available_memory", lambda: need - 1)
        with pytest.raises(MemoryError, match="orthonormality at N=4 needs"):
            suites.suite_orthonormality(square_torus(N))
        monkeypatch.setattr(memory, "_available_memory", lambda: need)
        assert all(c.passed for c in suites.suite_orthonormality(square_torus(N)))

    @pytest.mark.skipif(not os.path.exists("/proc/meminfo"), reason="needs /proc/meminfo")
    @pytest.mark.parametrize("suite", ["table1", "dft"])
    def test_other_suites_too_large_are_refused(self, suite):
        # As for orthonormality: the cap and the timeout keep a run that
        # builds its matrices anyway from exhausting the machine.
        res = run_cli("verify", "--N", "100000", "--suite", suite,
                      timeout=30, preexec_fn=cap_address_space)
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: {suite} at N=100000 needs ~")

    @pytest.mark.parametrize("N", ["65536", "100000"])
    def test_weyl_passes_at_large_N_in_bounded_memory(self, N):
        # The clock and shift are integer monomials, O(N) labels: weyl needs
        # no refusal, and passes under the same cap and timeout.
        res = run_cli("verify", "--N", N, "--suite", "weyl",
                      timeout=30, preexec_fn=cap_address_space)
        assert res.returncode == 0, res.stderr
        assert "overall: PASS (6 checks)" in res.stdout

    # Each suite's estimate, checked at N = 4 and N = 20.
    ESTIMATES = {
        "table1": lambda N: 40 * (N + 1)**2 + 80 * (N + 1) + 2**14,
        "dft": lambda N: 16 * 4 * N**2,
    }

    @pytest.mark.parametrize("suite", sorted(ESTIMATES))
    def test_suite_refused_before_building_anything(self, monkeypatch, suite):
        # Every builder of states, keys or matrices the suites call is
        # counted, and every wave function built, by the merge or term by
        # term, and every call of the grid sampler: a refusal must come
        # before all of them.  table1_verify and
        # physical_grid_overlaps refuse from inside, so they are not counted;
        # the keys and states they make are.
        calls = []

        def counted(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        monkeypatch.setattr(torus, "sample", counted("sampled", torus.sample))
        monkeypatch.setattr(WaveFunction, "_merge", counted("built", WaveFunction._merge))
        monkeypatch.setattr(WaveFunction, "_map_terms", counted("built", WaveFunction._map_terms))
        for module in (finite, suites):
            monkeypatch.setattr(module, "_basis_key", counted("key", torus._basis_key))
        for name in ("_physical_action", "_dft_exponents", "dft_basis_change"):
            monkeypatch.setattr(suites, name, counted(name, getattr(suites, name)))
        for N in (4, 20):
            need = self.ESTIMATES[suite](N)
            monkeypatch.setattr(memory, "_available_memory", lambda: need - 1)
            with pytest.raises(MemoryError, match=f"{suite} at N={N} needs"):
                suites.SUITES[suite](square_torus(N))
            assert calls == []
        monkeypatch.setattr(memory, "_available_memory", lambda: self.ESTIMATES[suite](4))
        assert all(c.passed for c in suites.SUITES[suite](square_torus(4)))
        assert calls

    def test_reports_byte_stable_modulo_timestamp(self):
        first = run_cli("verify", "--N", "2", "--suite", "weyl", "--json")
        second = run_cli("verify", "--N", "2", "--suite", "weyl", "--json")
        assert first.returncode == 0 and second.returncode == 0
        a = json.loads(first.stdout)
        b = json.loads(second.stdout)
        a.pop("timestamp")
        b.pop("timestamp")
        assert json.dumps(a, sort_keys=False) == json.dumps(b, sort_keys=False)


class TestOrthonormalityPrecondition:
    """The factored Gram measures a basis of the right structure, one term per
    state with state (n, m) carrying cp[n] and cq[m]; a fault in those keys
    is a failed check, not a refusal."""

    def test_duplicated_row_fails_the_gram(self, monkeypatch, capsys):
        # Row n = 1 read with the cp of row 0: the repeated cp is an
        # off-diagonal 1 in A, and the Gram measures the fault.
        patch_key(monkeypatch, suites, "Q", lambda n, m, key: (
            *key[:2], np.where(n == 1, key[2][0], key[2]), key[3]))
        q_check, p_check = suites.suite_orthonormality(square_torus(4))
        assert not q_check.passed and p_check.passed
        assert q_check.max_residual == 1.0
        assert cli.main(["verify", "--N", "4", "--suite", "orthonormality"]) == 1
        assert "FAIL  orthonormality/q_basis_gram" in capsys.readouterr().out


class TestDump:
    def test_q_basis_csv_values(self):
        res = run_cli("dump", "qbasis", "--N", "1", "--n", "0", "--m", "0", "--M", "4")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "i,j,q,p,re,im"
        assert len(lines) == 1 + 16
        for line in lines[1:]:
            i, j, _q, _p, re, im = line.split(",")
            want = np.exp(2j * np.pi * (int(i) / 4) * (int(j) / 4))
            assert abs(complex(float(re), float(im)) - want) < 1e-12

    def test_p_basis_zero_labels_all_ones(self):
        res = run_cli("dump", "pbasis", "--N", "2", "--n", "0", "--m", "0", "--M", "8")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert len(lines) == 1 + 64
        for line in lines[1:]:
            *_rest, re, im = line.split(",")
            assert float(re) == 1.0 and float(im) == 0.0

    def test_out_of_range_label_exits_2(self):
        res = run_cli("dump", "qbasis", "--N", "2", "--n", "5", "--m", "0", "--M", "8")
        assert res.returncode == 2

    def test_reduce_folds_label_into_range(self):
        res = run_cli("dump", "qbasis", "--N", "2", "--n", "5", "--m", "0", "--M", "8", "--reduce")
        assert res.returncode == 0
        direct = run_cli("dump", "qbasis", "--N", "2", "--n", "1", "--m", "0", "--M", "8")
        assert res.stdout == direct.stdout

    @staticmethod
    def dump(capsys, *args):
        code = cli.main(["dump", *args])
        return code, capsys.readouterr().out

    @staticmethod
    def labels(kind, physical, shadow):
        """--n and --m with the physical label (n of qbasis, m of pbasis) and
        the shadow label set to the given values."""
        n, m = (physical, shadow) if kind == "qbasis" else (shadow, physical)
        return "--n", str(n), "--m", str(m)

    @pytest.mark.parametrize("kind", ["qbasis", "pbasis"])
    def test_reduce_negative_label(self, capsys, kind):
        for label in range(-9, 0):
            code, reduced = self.dump(capsys, kind, "--N", "4", *self.labels(kind, label, 0),
                                      "--M", "4", "--primed", "--reduce")
            assert code == 0
            direct = self.dump(capsys, kind, "--N", "4", *self.labels(kind, label % 4, 0),
                               "--M", "4", "--primed")
            assert (code, reduced) == direct

    @pytest.mark.parametrize("kind", ["qbasis", "pbasis"])
    def test_reduce_label_at_or_above_N(self, capsys, kind):
        for N, label, shadow, folded in [("4", 4, 0, 0), ("4", 7, 3, 3), ("3", 9, 1, 0),
                                         ("1", 5, 0, 0)]:
            code, reduced = self.dump(capsys, kind, "--N", N, *self.labels(kind, label, shadow),
                                      "--M", N, "--primed", "--reduce")
            assert code == 0
            assert (code, reduced) == self.dump(capsys, kind, "--N", N,
                                                *self.labels(kind, folded, 0), "--M", N,
                                                "--primed")

    @pytest.mark.parametrize("kind", ["qbasis", "pbasis"])
    def test_reduce_ignores_shadow_label(self, capsys, kind):
        # The shadow label, m of qbasis and n of pbasis, does not survive the
        # reduction: it folds to 0 for any value, also one out of range.
        for label in range(-9, 10):
            direct = self.dump(capsys, kind, "--N", "3", *self.labels(kind, label % 3, 0),
                               "--M", "3", "--primed")
            for shadow in (0, 2, 5, -4):
                assert self.dump(capsys, kind, "--N", "3", *self.labels(kind, label, shadow),
                                 "--M", "3", "--primed", "--reduce") == direct

    def test_reduce_rejects_bad_modulus(self, capsys):
        code = cli.main(["dump", "qbasis", "--N", "0", "--n", "0", "--m", "0", "--M", "1",
                         "--reduce"])
        assert code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_tiny_hbar_exits_2_naming_hbar(self):
        # dump builds the state: cqp / hbar ~ 6e300 has no finite cell at
        # h = 1e-300.
        res = run_cli("dump", "qbasis", "--N", "3", "--h", "1e-300", "--n", "0", "--m", "0",
                      "--M", "3")
        assert res.returncode == 2
        assert "no finite merge cell at hbar=" in res.stderr
        assert "Traceback" not in res.stderr

    def test_m_not_multiple_exits_2(self):
        res = run_cli("dump", "qbasis", "--N", "2", "--n", "0", "--m", "0", "--M", "7")
        assert res.returncode == 2

    def test_grid_too_large_for_memory_exits_2(self, monkeypatch, capsys):
        # Stands in for numpy's allocation failure; no huge grid is requested.
        def sample(*args):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr(cli, "sample", sample)
        code = cli.main(["dump", "qbasis", "--N", "2", "--n", "0", "--m", "0", "--M", "1000000"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: Unable to allocate 14.6 TiB for an array\n"
        assert "Traceback" not in err

    def test_csv_format(self, capsys):
        code = cli.main(["dump", "qbasis", "--N", "1", "--n", "0", "--m", "0", "--M", "2",
                         "--primed"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "i,j,q,p,re,im"
        assert len(lines) == 1 + 4
        i, j, q, p, re, im = lines[2].split(",")
        assert (i, j) == ("0", "1")
        assert float(q) == 0.5 and float(p) == 0.0
        assert float(re) == 1.0 and float(im) == 0.0

    def test_out_into_missing_directory_exits_2(self, tmp_path):
        dest = tmp_path / "missing" / "x.csv"
        res = run_cli("dump", "qbasis", "--N", "2", "--n", "0", "--m", "0", "--M", "2",
                      "--out", str(dest))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        assert not dest.parent.exists()

    def test_out_is_a_directory_exits_2(self, tmp_path, capsys):
        code = cli.main(["dump", "qbasis", "--N", "2", "--n", "0", "--m", "0", "--M", "2",
                         "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_closed_stdout_exits_141_quietly(self):
        # The reader takes one line and closes the pipe, as `| head -1` does.
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "torusq.cli", "dump", "qbasis", "--N", "4", "--n", "0",
             "--m", "0", "--M", "400"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        assert proc.stdout.readline() == "i,j,q,p,re,im\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == ""

    def test_out_file(self, tmp_path):
        dest = tmp_path / "grid.csv"
        res = run_cli("dump", "pbasis", "--N", "1", "--n", "0", "--m", "0", "--M", "2",
                      "--out", str(dest))
        assert res.returncode == 0
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "i,j,q,p,re,im"
        assert len(lines) == 1 + 4
