"""The public surface of torusq, pinned: adding, removing or renaming a
public name is an edit to this list."""

import torusq

PUBLIC = [
    "BilinearPhaseTerm",
    "CheckResult",
    "DisplacementLabel",
    "GaugeField",
    "GridShift",
    "LABEL_ACTION",
    "OperatorKind",
    "OperatorRow",
    "TorusGeometry",
    "VerificationReport",
    "WaveFunction",
    "apply_operator",
    "chart_consistency_check",
    "clock_matrix",
    "commutator_apply",
    "dft_basis_change",
    "differentiate",
    "displacement_compose",
    "exp_operator_apply",
    "field_strength",
    "grid_matrix_elements",
    "grid_shift_operator",
    "holonomy",
    "is_eigenstate",
    "make_geometry",
    "make_plane_P_basis",
    "make_plane_Q_basis",
    "make_torus_P_basis",
    "make_torus_Q_basis",
    "path_phase",
    "physical_grid_overlaps",
    "reduce_label",
    "sample",
    "sample_bras",
    "shift_matrix",
    "table1_matrices",
    "table1_verify",
    "trace_obstruction_demo",
    "transition_function",
    "weyl_commutation_check",
]


def test_all_is_the_pinned_list():
    assert len(PUBLIC) == 40
    assert sorted(torusq.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(torusq, name) is not None, name
