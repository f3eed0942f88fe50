"""Command-line behavior: flows, exit codes, output stability."""

import json
import time

import pytest

from degreecalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_exact_pair(self, capsys):
        code, out, _ = run(capsys, "compute", "K(2;2) -> K(2;6)")
        assert code == 0
        assert out.splitlines()[0] == "exact {0, 3}"
        assert "circle_bundle_pair" in out

    def test_bounds_pair(self, capsys):
        code, out, _ = run(capsys, "compute", "K(2;0) -> K(2;5)")
        assert code == 0
        assert "lower {0}" in out
        assert "upper unknown" in out

    def test_output_is_stable(self, capsys):
        first = run(capsys, "compute", "K(2;3) # K(2;3) # K(2;2) # K(2;4) -> K(2;3) # K(2;4)")
        second = run(capsys, "compute", "K(2;3) # K(2;3) # K(2;2) # K(2;4) -> K(2;3) # K(2;4)")
        assert first == second
        assert first[1].splitlines()[0] == "exact {0, 1, 2}"

    def test_bad_expression_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "K(1;3) -> K(2;3)")
        assert code == 2
        assert "error" in err

    def test_missing_arrow_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "compute", "K(2;3)")
        assert code == 2

    def test_dimension_mismatch_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "compute", "S1 -> S(2)")
        assert code == 2

    def test_deep_nesting_is_usage_error(self, capsys):
        deep = "(" * 3000 + "K(2;1)" + ")" * 3000
        code, _, err = run(capsys, "compute", f"{deep} -> K(2;1)")
        assert code == 2
        assert "nested" in err

    def test_degree_overflow_is_reported_not_wrapped(self, capsys):
        huge = 2**62
        code, _, err = run(capsys, "compute", f"K(2;1) # K(2;1) -> K(2;{huge})")
        assert code == 2
        assert "64-bit" in err

    def test_wide_sparse_sum_answers_quickly(self, capsys):
        # a bit mask over this span would need 4 * 10**12 bits
        start = time.perf_counter()
        code, out, _ = run(capsys, "compute", "K(2;1) # K(2;3) -> K(2;3000000000000)")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out.splitlines()[0] == "exact {0, 1000000000000, 3000000000000, 4000000000000}"
        assert elapsed < 1.0

    def test_covering_lift_over_huge_euler_answers_quickly(self, capsys):
        # trial division up to the square root of 10**15 took seconds
        e = 10**15
        start = time.perf_counter()
        code, out, _ = run(capsys, "compute", f"K(2;1) -> K(2;1) # K(2;{e})")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out.splitlines() == [
            "exact {0}",
            "trace:",
            "  circle_bundle_pair: K(2;1), K(2;1) => {0, 1}",
            f"  circle_bundle_pair: K(2;1), K(2;{e}) => {{0, {e}}}",
            f"  target_summand_intersection: K(2;1), K(2;1) # K(2;{e}) => {{0}}",
            f"  constant_map: K(2;1), K(2;1) # K(2;{e}) => {{0}}",
        ]
        assert elapsed < 1.0


class TestRealize:
    def test_arith_progression_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "realize", "arith", "--progression", "0:4:3", "--out", str(out_path)
        )
        assert code == 0
        assert "target {0, 4, 8}" in out
        payload = json.loads(out_path.read_text())
        assert payload["target"] == {"kind": "finite", "elements": [0, 4, 8]}

    def test_arith_intervals_stdout(self, capsys):
        # values starting with '-' need the = form, as usual with argparse
        code, out, _ = run(capsys, "realize", "arith", "--intervals=-1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["target"]["elements"] == [-1, 0, 1]

    def test_subset_sums(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "realize", "subset-sums", "--values=-2,3", "--out", str(out_path)
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["target"]["elements"] == [-2, 0, 1, 3]

    def test_geom(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "realize", "geom", "--values", "3,3", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["target"]["elements"] == [0, 1, 3, 9]

    def test_progression_without_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "realize", "arith", "--progression", "1:4:3")
        assert code == 2
        assert "0" in err

    def test_bad_values_usage_error(self, capsys):
        code, _, _ = run(capsys, "realize", "geom", "--values", "2,x")
        assert code == 2
        code, _, _ = run(capsys, "realize", "geom", "--values", "3,2")
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "realize", "geom", "--values", "2", "--fast")
        assert code == 2


class TestVerify:
    def test_good_certificate(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        run(capsys, "realize", "geom", "--values", "2,3", "--out", str(out_path))
        code, out, _ = run(capsys, "verify", str(out_path))
        assert code == 0
        assert out.startswith("certificate check: OK")

    def test_tampered_certificate_fails_with_one(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        run(capsys, "realize", "geom", "--values", "2", "--out", str(out_path))
        payload = json.loads(out_path.read_text())
        payload["target"]["elements"] = [0, 1, 3]
        out_path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", str(out_path))
        assert code == 1
        assert "FAIL" in out

    def test_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        run(capsys, "realize", "arith", "--intervals=-1,1", "--out", str(out_path))
        code, out, _ = run(capsys, "verify", str(out_path), "--json")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 2

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, _ = run(capsys, "verify", str(bad))
        assert code == 2

    @pytest.mark.parametrize(
        "values, part, key, value",
        [
            ("subset-sums --values=-2,3", "spec", "d", ["a", 2]),
            ("subset-sums --values=-2,3", "spec", "d", [2.0, 3]),
            ("geom --values 2", "spec", "d", [2.5]),
            ("subset-sums --values=-2,3", "params", "d_i_prime", 5),
            ("geom --values 2", "params", "q", "5"),
            ("geom --values 2", "params", "q", ["5"]),
            ("geom --values 2", "params", "d_core", 2),
        ],
        ids=[
            "d_text",
            "d_float",
            "geometric_d_float",
            "d_i_prime_int",
            "q_text",
            "q_text_list",
            "d_core_int",
        ],
    )
    def test_hostile_field_is_never_an_internal_error(
        self, capsys, tmp_path, values, part, key, value
    ):
        out_path = tmp_path / "cert.json"
        run(capsys, "realize", *values.split(), "--out", str(out_path))
        payload = json.loads(out_path.read_text())
        payload[part][key] = value
        out_path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "verify", str(out_path))
        assert code in (1, 2), err

    @pytest.mark.parametrize("cap", ["abc", "1e3"])
    def test_malformed_enum_cap_is_usage_error(self, capsys, tmp_path, monkeypatch, cap):
        out_path = tmp_path / "cert.json"
        run(capsys, "realize", "subset-sums", "--values=-2,3", "--out", str(out_path))
        monkeypatch.setenv("DEGREECALC_ENUM_CAP", cap)
        code, out, err = run(capsys, "verify", str(out_path))
        assert code == 2
        assert "DEGREECALC_ENUM_CAP" in err
        assert out == ""
