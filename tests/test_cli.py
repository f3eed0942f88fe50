"""Command-line behavior: flows, exit codes, output stability."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest

from degreecalc import engine, realiser
from degreecalc.cli import main
from degreecalc.realiser import certificate_from_json
from degreecalc.verify import check_certificate

from conftest import count_step_comparisons, force_walk


# The first nine primes, and K(2;1) against K(2;0).  K(2;0) is not free of
# product domination, so its pair must come first, and then no prime target
# kills K(2;1): no factor order exists.  A backtracking search took seconds
# to try every order of the primes before giving up.
HOSTILE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
HOSTILE_M = " x ".join(f"K(2;{e})" for e in (1, *HOSTILE_PRIMES))
HOSTILE_N = " x ".join(f"K(2;{e})" for e in (0, *HOSTILE_PRIMES))


SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


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

    def test_truncation_to_units_is_shown(self, capsys):
        code, out, _ = run(capsys, "compute", "S1 x K(2;1) -> S1 x K(2;2)")
        assert code == 0
        assert out.splitlines() == [
            "lower {-2, 0, 2}",
            "upper unknown",
            "trace:",
            "  circle_pair: S1, S1 => Z",
            "  circle_bundle_pair: K(2;1), K(2;2) => {0, 2}",
            "  product_of_factor_degrees: S1 x K(2;1), S1 x K(2;2) => {-2, 0, 2}"
            " (lower truncated to units)",
        ]
        _, out, _ = run(capsys, "compute", "K(2;2) x K(2;3) -> K(2;2) x K(2;3)")
        assert "product_of_factor_degrees" in out and "truncated" not in out

    @pytest.mark.parametrize("pair", ["K(1;3) -> K(2;3)", "K(2;²) -> K(2;1)", "K(2;٢) -> K(2;1)"])
    def test_bad_expression_is_usage_error(self, capsys, pair):
        code, _, err = run(capsys, "compute", pair)
        assert code == 2
        assert "error" in err

    def test_integer_too_long_to_convert_is_usage_error(self, capsys):
        # int() refuses more than 4,300 digits; that must not be an internal error
        code, _, err = run(capsys, "compute", f"S({'1' * 5000}) -> S(1)")
        assert code == 2
        assert "too long at line 1, column 3" in err

    def test_interval_too_long_to_store_is_usage_error(self, capsys):
        # the surface pair's interval [-(2^63 - 2), 2^63 - 2] has more
        # elements than a range can count
        start = time.perf_counter()
        code, _, err = run(capsys, "compute", "S(9223372036854775807) -> S(2)")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == (
            "error: interval [-9223372036854775806, 9223372036854775806] "
            "has too many elements to store\n"
        )

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

    def test_bundle_quotient_outside_int64_is_usage_error(self, capsys):
        code, out, err = run(capsys, "compute", "K(2;1) -> K(2;99999999999999999999)")
        assert code == 2 and out == ""
        assert "element 99999999999999999999 exceeds the signed 64-bit range" in err

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

    def test_hostile_product_pair_answers_quickly(self, capsys):
        engine.clear_cache()
        start = time.perf_counter()
        code, out, _ = run(capsys, "compute", f"{HOSTILE_M} -> {HOSTILE_N}")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out.splitlines()[:2] == ["lower {0}", "upper unknown"]
        assert elapsed < 1.0

    def test_long_sum_source_onto_target_sum_answers_quickly(self, capsys):
        # a packing search recursing once per pinch ran out of stack here
        source = " # ".join(["K(2;1)"] * 1100 + ["K(2;2)"] * 1100)
        engine.clear_cache()
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", f"{source} -> K(2;1) # K(2;2)")
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert out.splitlines()[0] == "exact {" + ", ".join(map(str, range(1101))) + "}"
        assert elapsed < 1.0


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform has no SIGPIPE")
def test_closed_stdout_ends_by_sigpipe_without_a_message():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        result = subprocess.run(
            [sys.executable, "-m", "degreecalc.cli", "compute", "K(2;1) -> K(2;1)"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == -signal.SIGPIPE
    assert result.stderr == b""


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

    @pytest.mark.parametrize(
        "arg, message",
        [
            ("--intervals=0,1,2", "interval '0,1,2' is not of the form b,c"),
            ("--intervals=0,x", "interval '0,x' has non-integer bounds"),
            ("--intervals=;", "interval sequence must be non-empty"),
            ("--progression=0:1", "progression '0:1' is not start:step:count"),
            ("--progression=0:x:3", "progression '0:x:3' has non-integer fields"),
            ("--progression=0:1:0", "interval sequence must be non-empty"),
            ("--progression=0:0:3", "progression step must be positive"),
            ("--progression=0:-1:3", "progression step must be positive"),
        ],
    )
    def test_bad_interval_spec_is_usage_error(self, capsys, arg, message):
        code, out, err = run(capsys, "realize", "arith", arg)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.skipif(resource is None, reason="platform has no resource limits")
    @pytest.mark.parametrize("progression", ["0:0:1000000000000", "0:-1:1000000000"])
    def test_nonpositive_step_is_refused_before_the_values_are_built(self, progression):
        # in a child under a 1 GiB address-space limit: were the values built
        # before the step is checked, the list would grow until memory ran out
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "degreecalc.cli", "realize", "arith",
             "--progression", progression],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            preexec_fn=limit_memory,
            timeout=60,
        )
        assert time.perf_counter() - start < 5.0
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: progression step must be positive\n"

    def test_empty_interval_chunk_is_skipped(self, capsys):
        assert run(capsys, "realize", "arith", "--intervals=0,1;") == run(
            capsys, "realize", "arith", "--intervals=0,1"
        )

    def test_bad_values_usage_error(self, capsys):
        code, _, _ = run(capsys, "realize", "geom", "--values", "2,x")
        assert code == 2
        code, _, _ = run(capsys, "realize", "geom", "--values", "3,2")
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "realize", "geom", "--values", "2", "--fast")
        assert code == 2

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        out_path = tmp_path if where == "directory" else tmp_path / "absent" / "cert.json"
        code, out, err = run(capsys, "realize", "geom", "--values", "2", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write certificate: ")

    def test_internal_error_without_message_names_the_exception(self, capsys, monkeypatch):
        def out_of_memory(spec):
            raise MemoryError()

        monkeypatch.setattr(realiser, "realise_geometric", out_of_memory)
        code, _, err = run(capsys, "realize", "geom", "--values", "2")
        assert code == 3
        assert err == "internal error: MemoryError\n"


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

    @pytest.mark.parametrize("name", ["geometric_2_3", "subset_sums"])
    def test_json_report_is_json_dumps_of_the_report(self, capsys, name):
        path = GOLDEN / f"{name}.json"
        report = check_certificate(certificate_from_json(path.read_text(encoding="utf-8")))
        code, out, _ = run(capsys, "verify", str(path), "--json")
        assert code == 0
        assert out == json.dumps(report.to_jsonable(), indent=2) + "\n"

    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
    def test_json_report_of_a_golden_compares_no_step(self, capsys, monkeypatch, name):
        path = GOLDEN / f"{name}.json"
        calls = count_step_comparisons(monkeypatch)
        written = run(capsys, "verify", str(path), "--json")
        assert (written[0], calls) == (0, [])
        force_walk(monkeypatch)
        assert run(capsys, "verify", str(path), "--json") == written
        assert calls

    def test_written_certificate_compares_no_step(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "cert.json"
        run(capsys, "realize", "geom", "--values", "2,3,5", "--out", str(out_path))
        assert out_path.read_text(encoding="utf-8").endswith("}\n")
        calls = count_step_comparisons(monkeypatch)
        code, out, _ = run(capsys, "verify", str(out_path))
        assert (code, calls) == (0, [])
        assert out.startswith("certificate check: OK")

    def test_integer_too_long_to_convert_is_usage_error(self, capsys, tmp_path):
        payload = json.loads((GOLDEN / "geometric_2_3.json").read_text(encoding="utf-8"))
        payload["params"]["q"] = ["LONG"]
        out_path = tmp_path / "cert.json"
        out_path.write_text(json.dumps(payload, indent=2).replace('"LONG"', "7" * 5000))
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", str(out_path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "internal error" not in err

    @pytest.mark.parametrize("depth", [990, 5000, 100000])
    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path, depth):
        text = (GOLDEN / "geometric_2_3.json").read_text(encoding="utf-8")
        deep = "[" * depth + "]" * depth
        out_path = tmp_path / "cert.json"
        out_path.write_text(text.replace('"params": {', f'"params": {{"deep": {deep},', 1))
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", str(out_path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "internal error" not in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 2

    def test_file_not_in_utf8_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read certificate: ")

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, _ = run(capsys, "verify", str(bad))
        assert code == 2

    def test_hostile_product_pair_is_rejected_quickly(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        run(capsys, "realize", "geom", "--values", "2", "--out", str(out_path))
        payload = json.loads(out_path.read_text())
        payload["M"], payload["N"] = HOSTILE_M, HOSTILE_N
        out_path.write_text(json.dumps(payload))
        engine.clear_cache()
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", str(out_path))
        elapsed = time.perf_counter() - start
        assert code == 1
        assert "calculator does not decide the pair exactly" in out
        assert elapsed < 1.0

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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c["target"]["elements"].reverse(),
            lambda c: c["target"]["elements"].insert(0, 0),
            lambda c: c["target"].update(note=1),
            lambda c: c.update(M=c["M"].replace(" # ", "  #  ")),
            lambda c: c.update(M=" x ".join(reversed(c["M"].split(" x ")))),
            lambda c: c["spec"].update(note=1),
            lambda c: c.update(note=1),
            lambda c: c.pop("params"),
            lambda c: c.pop("derivation"),
        ],
        ids=[
            "reversed_target",
            "repeated_target_element",
            "extra_target_key",
            "respaced_m",
            "reordered_m_factors",
            "extra_spec_key",
            "extra_top_level_key",
            "missing_params",
            "missing_derivation",
        ],
    )
    def test_certificate_not_in_the_written_form_is_usage_error(self, capsys, tmp_path, edit):
        payload = json.loads((GOLDEN / "geometric_2_3.json").read_text())
        edit(payload)
        out_path = tmp_path / "cert.json"
        out_path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(out_path))
        assert code == 2, out
        assert "not in the form the realiser writes" in err or "cannot decode" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("params", "ab"),
            ("params", 5),
            ("params", None),
            ("params", [["q", 1]]),
            ("derivation", 5),
            ("derivation", "ab"),
            ("derivation", {}),
            ("derivation", ""),
        ],
    )
    def test_params_or_derivation_of_another_shape_is_usage_error(
        self, capsys, tmp_path, key, value
    ):
        payload = json.loads((GOLDEN / "geometric_2_3.json").read_text())
        payload[key] = value
        out_path = tmp_path / "cert.json"
        out_path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(out_path))
        assert code == 2, (out, err)
        assert "not in the form the realiser writes" in err or "cannot decode" in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda steps: steps[0].update(note=1),
            lambda steps: next(s for s in steps if s["details"] == {}).pop("details"),
        ],
        ids=["extra_step_key", "missing_empty_details"],
    )
    def test_derivation_step_with_other_keys_is_one_mismatch(self, capsys, tmp_path, edit):
        payload = json.loads((GOLDEN / "geometric_2_3.json").read_text())
        edit(payload["derivation"])
        out_path = tmp_path / "cert.json"
        out_path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", str(out_path), "--json")
        assert code == 1
        [mismatch] = json.loads(out)["mismatches"]
        assert mismatch.startswith("derivation step ")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: [c], "certificate must be an object, got list"),
            (
                lambda c: {**c, "target": {"kind": "all_integers"}},
                "certificate target must be a finite set",
            ),
            (lambda c: {**c, "M": "S(2)"}, "certificate manifolds have different dimensions"),
            (
                lambda c: {**c, "target": {**c["target"], "elements": c["target"]["elements"][1:]}},
                "certificate target must contain 0",
            ),
        ],
        ids=["not_an_object", "all_integers_target", "dimensions_differ", "target_without_0"],
    )
    def test_certificate_without_a_checkable_pair_is_usage_error(
        self, capsys, tmp_path, edit, message
    ):
        payload = json.loads((GOLDEN / "geometric_2_3.json").read_text())
        out_path = tmp_path / "cert.json"
        # compact, and in the writer's layout, which the decoder takes apart first
        for indent in (None, 2):
            out_path.write_text(json.dumps(edit(payload), indent=indent))
            code, out, err = run(capsys, "verify", str(out_path))
            assert code == 2
            assert out == ""
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("cap", ["abc", "1e3"])
    def test_malformed_enum_cap_is_usage_error(self, capsys, tmp_path, monkeypatch, cap):
        out_path = tmp_path / "cert.json"
        run(capsys, "realize", "subset-sums", "--values=-2,3", "--out", str(out_path))
        monkeypatch.setenv("DEGREECALC_ENUM_CAP", cap)
        code, out, err = run(capsys, "verify", str(out_path))
        assert code == 2
        assert "DEGREECALC_ENUM_CAP" in err
        assert out == ""
