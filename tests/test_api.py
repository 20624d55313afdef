"""The public surface of torusq, pinned: adding, removing or renaming a
public name is an edit to this list, and README.md names each of them."""

import re
from pathlib import Path

import torusq

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "BilinearPhaseTerm",
    "CheckResult",
    "GridShift",
    "LABEL_ACTION",
    "OperatorKind",
    "OperatorRow",
    "TorusGeometry",
    "VerificationReport",
    "WaveFunction",
    "apply_operator",
    "chart_consistency_check",
    "commutator_apply",
    "dft_basis_change",
    "differentiate",
    "exp_operator_apply",
    "grid_shift_operator",
    "holonomy",
    "is_eigenstate",
    "make_geometry",
    "make_plane_P_basis",
    "make_plane_Q_basis",
    "make_torus_P_basis",
    "make_torus_Q_basis",
    "physical_grid_overlaps",
    "sample",
    "table1_matrices",
    "table1_verify",
    "transition_function",
    "weyl_commutation_check",
]


def test_all_is_the_pinned_list():
    assert len(PUBLIC) == 29
    assert sorted(torusq.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(torusq, name) is not None, name


def test_readme_names_every_public_name():
    # A name counts when a code span starts with it: `name`, `name(...)`.
    text = README.read_text(encoding="utf-8")
    missing = [name for name in torusq.__all__ if not re.search(f"`{name}\\b", text)]
    assert missing == []
