import pytest

from conftest import square_torus
from torusq.finite import table1_verify
from torusq.report import CheckResult


class TestCheckResult:
    def test_verdict_follows_residual_and_mode(self):
        assert CheckResult("c", {}, 0.1, 0.1).passed
        assert not CheckResult("c", {}, 0.2, 0.1).passed
        assert CheckResult("c", {}, 0.2, 0.1, mode="gt").passed
        assert not CheckResult("c", {}, 0.1, 0.1, mode="gt").passed
        with pytest.raises(ValueError):
            CheckResult("c", {}, 0.0, 0.1, mode="eq")

    def test_fragment_shape(self):
        res = table1_verify(square_torus(3))[0]
        data = res.to_dict()
        assert set(data) == {"check", "params", "max_residual", "tolerance", "pass"}
        assert data["check"] == "table1/exp_pleft/P-basis"
        assert data["params"]["N"] == 3
