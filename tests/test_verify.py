"""Oracles and the certificate checker, including injected faults."""

import dataclasses
import functools
import json
import pickle
import random
import sys
import time
from pathlib import Path

import pytest

from degreecalc import engine, intset, realiser, verify
from degreecalc.engine import RuleApplication
from degreecalc.intset import DegreeSet
from degreecalc.manifold import CircleBundle, conn_sum, dimension, product
from degreecalc.realiser import (
    ArithIntervals,
    Geometric,
    SubsetSums,
    SumsetFamily,
    certificate_from_json,
    certificate_to_json,
    next_prime,
    realise_arith_intervals,
    realise_geometric,
    realise_subset_sums,
    realise_sumset,
)
from degreecalc.verify import (
    EnumerationTooLarge,
    MalformedCertificate,
    brute_subset_products,
    brute_subset_sums,
    brute_sumset,
    _recheck_entry,
    check_certificate,
    interval_union,
    oracle_set,
)

from conftest import check_walked, count_step_comparisons, random_expr, report_key
from test_digests import sumset_certificates

# every decoded certificate checked here is checked with and without its text
pytestmark = pytest.mark.usefixtures("check_both_ways")

fin = DegreeSet.finite

GOLDEN = Path(__file__).parent / "data" / "golden"

# one certificate per construction, for the params and derivation edits
PARAMS_CERTS = {
    "subset_sums": realise_subset_sums(SubsetSums((-2, 0, 3))),
    "intervals": realise_arith_intervals(ArithIntervals(((-2, -1), (0, 1), (2, 3)))),
    "sumset": realise_sumset(SumsetFamily((1, 3), (0, 2), (0, 1))),
    "geometric": realise_geometric(Geometric((2, 3))),
}


def _with_detail(cert, rule, key, value):
    """The index of cert's first ``rule`` step, and cert with that step's
    detail ``key`` set to ``value``."""
    step = next(i for i, e in enumerate(cert.derivation) if e.rule == rule)
    entry = cert.derivation[step]
    details = tuple((k, value if k == key else v) for k, v in entry.details)
    derivation = list(cert.derivation)
    derivation[step] = dataclasses.replace(entry, details=details)
    return step, dataclasses.replace(cert, derivation=tuple(derivation))


class TestBruteSumset:
    def test_reference_case(self):
        assert brute_sumset((1, 3), (0, 2), (0, 1)) == fin([-3, 0, 3, 6])

    def test_empty_choice_range(self):
        assert brute_sumset((5,), (0,), (0,)) == fin([0])

    def test_four_tuples(self):
        assert brute_sumset((2, 2), (1, 1), (0, 0)) == fin([0, 2, 4])

    def test_always_contains_zero(self):
        rng = random.Random(41)
        for _ in range(50):
            k = rng.randint(1, 3)
            d = tuple(rng.randint(1, 9) for _ in range(k))
            n = tuple(rng.randint(0, 3) for _ in range(k))
            np_ = tuple(rng.randint(0, 3) for _ in range(k))
            assert 0 in brute_sumset(d, n, np_)

    def test_swap_symmetry_negates(self):
        rng = random.Random(42)
        for _ in range(50):
            k = rng.randint(1, 3)
            d = tuple(rng.randint(1, 9) for _ in range(k))
            n = tuple(rng.randint(0, 3) for _ in range(k))
            np_ = tuple(rng.randint(0, 3) for _ in range(k))
            a = brute_sumset(d, n, np_)
            b = brute_sumset(d, np_, n)
            assert a == fin(-x for x in b.elements)

    def test_agrees_with_closed_form_union(self):
        # two-term families with d = (1, d2) form a union of translated windows
        rng = random.Random(43)
        for _ in range(50):
            d2 = rng.randint(1, 9)
            n1, n1p = rng.randint(0, 4), rng.randint(0, 4)
            n2, n2p = rng.randint(0, 3), rng.randint(0, 3)
            got = brute_sumset((1, d2), (n1, n2), (n1p, n2p))
            expected = set()
            for i in range(-n2p, n2 + 1):
                expected.update(range(d2 * i - n1p, d2 * i + n1 + 1))
            assert got == fin(expected)

    def test_cap_is_enforced(self, monkeypatch):
        monkeypatch.setenv("DEGREECALC_ENUM_CAP", str(10**6))
        with pytest.raises(EnumerationTooLarge):
            brute_sumset((1,) * 10, (9,) * 10, (9,) * 10)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("DEGREECALC_ENUM_CAP", "3")
        with pytest.raises(EnumerationTooLarge):
            brute_sumset((1,), (3,), (3,))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            brute_sumset((0,), (1,), (1,))
        with pytest.raises(ValueError):
            brute_sumset((1, 2), (1,), (1, 1))
        with pytest.raises(ValueError, match="at least one term"):
            brute_sumset((), (), ())
        with pytest.raises(ValueError, match="multiplicities"):
            brute_sumset((1,), (1,), (-1,))


class Enumerated(Exception):
    """Raised by a stub in place of the subset oracles' enumeration."""


class TestSubsetCap:
    """The subset oracles refuse exactly when 2^len(d) exceeds the cap."""

    @pytest.mark.parametrize("brute", [brute_subset_sums, brute_subset_products])
    def test_cap_above_two_to_the_25_is_honoured(self, monkeypatch, brute):
        def stop(values):
            raise Enumerated

        # reaching the 2^26-subset enumeration shows that the cap let it through
        monkeypatch.setattr(verify, "enumerate", stop, raising=False)
        monkeypatch.setenv("DEGREECALC_ENUM_CAP", str(10**9))
        with pytest.raises(Enumerated):
            brute((2,) * 26)

    @pytest.mark.parametrize("brute", [brute_subset_sums, brute_subset_products])
    def test_cap_refuses_exactly_above_the_subset_count(self, monkeypatch, brute):
        monkeypatch.setenv("DEGREECALC_ENUM_CAP", str(2**26 - 1))
        with pytest.raises(EnumerationTooLarge, match=r"2\^26 subsets exceed the cap of 67108863"):
            brute((2,) * 26)
        monkeypatch.setenv("DEGREECALC_ENUM_CAP", "8")
        assert 0 in brute((2, 3, 4))  # 2^3 subsets: at the cap, not above it


class TestBruteSubsetProducts:
    def test_two_values(self):
        assert brute_subset_products((2, 3)) == fin([0, 1, 2, 3, 6])

    def test_all_ones(self):
        assert brute_subset_products((1, 1, 1)) == fin([0, 1])

    def test_duplicates(self):
        assert brute_subset_products((2, 2)) == fin([0, 1, 2, 4])

    def test_contains_zero_and_one_and_permutation_invariant(self):
        rng = random.Random(44)
        for _ in range(50):
            d = [rng.randint(1, 7) for _ in range(rng.randint(1, 6))]
            got = brute_subset_products(d)
            assert 0 in got and 1 in got
            shuffled = d[:]
            rng.shuffle(shuffled)
            assert brute_subset_products(shuffled) == got

    def test_values_below_one_rejected(self):
        with pytest.raises(ValueError):
            brute_subset_products((2, 0))

    def test_length_cap(self):
        with pytest.raises(EnumerationTooLarge):
            brute_subset_products((2,) * 26)


class TestHelpers:
    def test_subset_sums(self):
        assert brute_subset_sums((-2, 3)) == fin([-2, 0, 1, 3])
        assert brute_subset_sums(()) == fin([0])

    def test_no_oracle_for_an_unknown_spec(self):
        with pytest.raises(TypeError):
            oracle_set(object())

    def test_interval_union(self):
        assert interval_union(((-2, -1), (1, 2))) == fin([-2, -1, 1, 2])

    def test_oracles_call_neither_the_calculator_nor_set_sums_or_products(self, monkeypatch):
        specs = [
            SumsetFamily((1, 3), (0, 2), (0, 1)),
            ArithIntervals(((-2, -1), (0, 1), (2, 3))),
            SubsetSums((-2, 0, 3)),
            Geometric((2, 3)),
        ]
        answers = [oracle_set(spec) for spec in specs]

        def forbidden(*args):
            raise AssertionError("an oracle called the calculator or a set operation")

        for module, name in [
            (verify, "degree_bounds"),
            (engine, "degree_bounds"),
            (engine, "_bounds"),
            (intset, "sumset"),
            (intset, "weighted_sumset"),
            (intset, "product_set"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        assert [oracle_set(spec) for spec in specs] == answers


class TestCheckCertificate:
    def test_accepts_all_families(self):
        certs = [
            realise_sumset(SumsetFamily((1, 3), (0, 2), (0, 1))),
            realise_arith_intervals(ArithIntervals(((-1, 1),))),
            realise_subset_sums(SubsetSums((-2, 3))),
            realise_geometric(Geometric((2,))),
            realise_geometric(Geometric((2, 3))),
        ]
        for cert in certs:
            report = check_certificate(cert)
            assert report.ok, report.mismatches
            assert report.engine_bound.exact
            assert report.oracle == cert.target

    def test_tampered_target_rejected(self):
        cert = realise_geometric(Geometric((2,)))
        bad = dataclasses.replace(cert, target=fin([0, 1, 3]))
        report = check_certificate(bad)
        assert not report.ok
        assert any("calculator" in m for m in report.mismatches)
        assert any("oracle" in m for m in report.mismatches)

    def test_swapped_euler_rejected(self):
        cert = realise_sumset(SumsetFamily((2,), (2,), (1,)))
        bad = dataclasses.replace(cert, n=CircleBundle(2, cert.n.euler + 1))
        report = check_certificate(bad)
        assert not report.ok

    def test_inadmissible_prime_rejected(self):
        cert = realise_geometric(Geometric((3,)))
        params = dict(cert.params)
        params["q"] = [2]
        bad = dataclasses.replace(cert, params=params)
        report = check_certificate(bad)
        assert not report.ok
        assert any("q1" in m or "prime" in m or "construction" in m for m in report.mismatches)

    def test_first_prime_equal_to_max_d_rejected(self):
        cert = realise_geometric(Geometric((3,)))
        bad = dataclasses.replace(cert, params={**cert.params, "q": [3]})
        assert "q1 = 3 does not exceed max d = 3" in check_certificate(bad).mismatches

    def test_report_text_and_json(self):
        cert = realise_geometric(Geometric((2,)))
        report = check_certificate(cert)
        assert report.to_text().startswith("certificate check: OK")
        payload = report.to_jsonable()
        assert payload["ok"] is True
        assert payload["oracle"] == {"kind": "finite", "elements": [0, 1, 2]}

    def test_round_trip_through_json(self):
        cert = realise_geometric(Geometric((2, 3)))
        again = certificate_from_json(certificate_to_json(cert))
        report = check_certificate(again)
        assert report.ok, report.mismatches

    def test_malformed_json_rejected(self):
        with pytest.raises(MalformedCertificate):
            certificate_from_json("{not json")
        with pytest.raises(MalformedCertificate):
            certificate_from_json(json.dumps({"spec": {"variant": "sumset_family"}}))
        good = json.loads(certificate_to_json(realise_geometric(Geometric((2,)))))
        bad = dict(good)
        bad["M"] = "K(1;3)"
        with pytest.raises(MalformedCertificate):
            certificate_from_json(json.dumps(bad))
        bad = dict(good)
        bad["target"] = {"kind": "finite", "elements": [1, 2]}
        with pytest.raises(MalformedCertificate):
            certificate_from_json(json.dumps(bad))

    def test_json_round_trip_across_random_specs(self):
        rng = random.Random(45)
        for _ in range(25):
            pick = rng.randrange(3)
            if pick == 0:
                k = rng.randint(1, 3)
                cert = realise_sumset(
                    SumsetFamily(
                        tuple(rng.randint(1, 6) for _ in range(k)),
                        tuple(rng.randint(0, 2) for _ in range(k)),
                        tuple(rng.randint(0, 2) for _ in range(k)),
                    )
                )
            elif pick == 1:
                cert = realise_subset_sums(
                    SubsetSums(tuple(rng.randint(-4, 6) for _ in range(rng.randint(0, 4))))
                )
            else:
                d = tuple(sorted(rng.randint(1, 5) for _ in range(rng.randint(1, 2))))
                cert = realise_geometric(Geometric(d))
            again = certificate_from_json(certificate_to_json(cert))
            assert again.target == cert.target
            assert again.m == cert.m and again.n == cert.n
            assert check_certificate(again).ok

    def test_tampered_derivation_step_rejected(self):
        cert = realise_geometric(Geometric((2,)))
        payload = json.loads(certificate_to_json(cert))
        for entry in payload["derivation"]:
            if entry["rule"] == "fiberwise_covering_lift":
                entry["details"]["degree"] = 3
                entry["produced"] = {"kind": "finite", "elements": [3]}
        tampered = certificate_from_json(json.dumps(payload))
        report = check_certificate(tampered)
        assert not report.ok

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda derivation: [],
            lambda derivation: [dict(derivation[0], rule="made_up_rule")] + derivation[1:],
        ],
        ids=["empty_derivation", "unknown_rule"],
    )
    def test_fake_derivation_rejected(self, tamper):
        cert = realise_geometric(Geometric((2,)))
        payload = json.loads(certificate_to_json(cert))
        payload["derivation"] = tamper(payload["derivation"])
        report = check_certificate(certificate_from_json(json.dumps(payload)))
        assert not report.ok
        assert any("derivation is empty" in m or "made_up_rule" in m for m in report.mismatches)

    @pytest.mark.parametrize(
        "cert",
        [
            realise_sumset(SumsetFamily((1, 3), (0, 2), (0, 1))),
            realise_sumset(SumsetFamily((2,), (0,), (0,))),
            realise_arith_intervals(ArithIntervals(((-1, 1),))),
            realise_subset_sums(SubsetSums((-2, 0, 3))),
        ],
        ids=["sumset", "degenerate_sumset", "single_interval", "subset_sums"],
    )
    @pytest.mark.parametrize("field, value", [("base_genus", 7), ("degenerate_euler", 999)])
    def test_tampered_family_params_rejected(self, cert, field, value):
        assert check_certificate(cert).ok
        bad = dataclasses.replace(cert, params={**cert.params, field: value})
        report = check_certificate(bad)
        assert not report.ok
        assert any(field in m or "K(" in m for m in report.mismatches)

    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
    def test_decoded_golden_passes_with_cold_cache(self, name):
        cert = certificate_from_json((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        engine.clear_cache()
        report = check_certificate(cert)
        assert report.ok, report.mismatches

    def test_decoded_check_serialises_nothing(self, monkeypatch):
        calls = []
        for module, name in [
            (engine, "jsonable"),
            (engine, "trace_to_jsonable"),
            (realiser, "certificate_to_jsonable"),
        ]:
            convert = getattr(module, name)
            monkeypatch.setattr(module, name, lambda v, f=convert: calls.append(v) or f(v))
        cert = certificate_from_json((GOLDEN / "geometric_2_3.json").read_text(encoding="utf-8"))
        assert check_certificate(cert).ok
        assert calls == []

    def test_in_memory_and_decoded_checks_agree(self):
        certs = [certificate_from_json(p.read_text(encoding="utf-8")) for p in GOLDEN.glob("*.json")]
        rng = random.Random(2020)
        for _ in range(6):
            values = sorted(rng.randint(1, 9) for _ in range(rng.randint(1, 3)))
            certs.append(realise_geometric(Geometric(tuple(values))))
            d = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
            n = tuple(rng.randint(0, 4) for _ in d)
            nprime = tuple(rng.randint(0, 4) for _ in d)
            certs.append(realise_sumset(SumsetFamily(d, n, nprime)))
        tampers = [
            _with_detail(PARAMS_CERTS["geometric"], "circle_bundle_pair", "quotient", 2.0)[1],
            _with_detail(PARAMS_CERTS["intervals"], "connected_sum_source_sum", "exact", 1)[1],
        ]
        for cert in PARAMS_CERTS.values():
            for steps in (cert.derivation[1:], cert.derivation[:-1]):
                tampers.append(dataclasses.replace(cert, derivation=steps))
        cert = PARAMS_CERTS["geometric"]
        for max_d in (float(cert.params["max_d"]), cert.params["max_d"] + 1):
            tampers.append(dataclasses.replace(cert, params={**cert.params, "max_d": max_d}))
        for cert in certs + tampers:
            held = check_certificate(cert)
            decoded = check_certificate(certificate_from_json(certificate_to_json(cert)))
            assert (held.ok, held.mismatches) == (decoded.ok, decoded.mismatches)
            # by identity: a tamper may equal a certificate, as max_d 3.0 equals 3
            assert held.ok == (not any(cert is t for t in tampers)), held.mismatches

    def test_held_tuple_params_compare_as_their_written_lists(self):
        # d_core is written as a list, so a tuple in memory is the same value;
        # q is checked to be a list before it is used
        cert = PARAMS_CERTS["geometric"]
        core = dataclasses.replace(cert, params={**cert.params, "d_core": (2, 3)})
        assert check_certificate(core).ok
        qs = dataclasses.replace(cert, params={**cert.params, "q": tuple(cert.params["q"])})
        assert check_certificate(qs).mismatches == (f"q {qs.params['q']!r} is not a list of integers",)

    def test_non_text_derivation_input_is_malformed(self):
        payload = json.loads(certificate_to_json(realise_geometric(Geometric((2,)))))
        payload["derivation"][0]["inputs"][0] = 3
        with pytest.raises(MalformedCertificate):
            certificate_from_json(json.dumps(payload))

    def test_respaced_derivation_input_is_a_mismatch(self):
        payload = json.loads(certificate_to_json(realise_subset_sums(SubsetSums((3, 3)))))
        step = next(e for e in payload["derivation"] if "K(2;3) # K(2;3)" in e["inputs"])
        step["inputs"] = [x.replace(" # ", "#") for x in step["inputs"]]
        report = check_certificate(certificate_from_json(json.dumps(payload)))
        assert not report.ok
        assert any("not the calculator's trace" in m for m in report.mismatches)

    @pytest.mark.parametrize(
        "cert, rule, key, value",
        [
            (PARAMS_CERTS["geometric"], "circle_bundle_pair", "quotient", 2.0),
            (PARAMS_CERTS["intervals"], "connected_sum_source_sum", "exact", 1),
        ],
        ids=["float_quotient", "int_exact"],
    )
    def test_derivation_detail_of_another_json_type_is_a_mismatch(self, cert, rule, key, value):
        # 2.0 == 2 and 1 == True in Python, but not in the certificate format
        step, bad = _with_detail(cert, rule, key, value)
        for candidate in (bad, certificate_from_json(certificate_to_json(bad))):
            assert check_certificate(candidate).mismatches == (
                f"derivation step {step + 1} is {rule}, not the calculator's trace for (M, N)",
            )

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda elements: elements[::-1],
            lambda elements: elements + elements[-1:],
            lambda elements: elements[:-1] + [float(elements[-1])],
        ],
        ids=["reordered", "repeated", "float"],
    )
    def test_produced_set_is_kept_as_recorded(self, tamper):
        payload = json.loads(certificate_to_json(realise_geometric(Geometric((2, 3)))))
        step, entry = next(
            (i, e)
            for i, e in enumerate(payload["derivation"])
            if len(e["produced"].get("elements", ())) > 1
        )
        entry["produced"]["elements"] = tamper(entry["produced"]["elements"])
        text = json.dumps(payload, indent=2)
        cert = certificate_from_json(text)
        assert certificate_to_json(cert) == text
        assert check_certificate(cert).mismatches == (
            f"derivation step {step + 1} is {entry['rule']}, not the calculator's trace for (M, N)",
        )

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("sumset", {"base_genus": 1}, "base genus 1 is not hyperbolic"),
            ("geometric", {"q": [5]}, "one prime per block is required"),
            ("geometric", {"q": [7, 5]}, "q values [7, 5] are not strictly ascending"),
            ("sumset", {"d_prime": None}, "params missing 'd_prime'"),
        ],
        ids=["base_genus_1", "one_prime_for_two_blocks", "descending_primes", "missing_key"],
    )
    def test_inadmissible_or_missing_params_are_named(self, kind, edit, message):
        cert = PARAMS_CERTS[kind]
        params = {k: v for k, v in {**cert.params, **edit}.items() if v is not None}
        report = check_certificate(dataclasses.replace(cert, params=params))
        assert message in report.mismatches, report.mismatches

    def test_spec_that_skipped_validation_is_rejected_by_the_oracle(self):
        spec = object.__new__(SumsetFamily)
        for field, value in (("d", (1, 3)), ("n", (0, -2)), ("nprime", (0, 1))):
            object.__setattr__(spec, field, value)
        report = check_certificate(dataclasses.replace(PARAMS_CERTS["sumset"], spec=spec))
        assert "oracle rejected the spec: multiplicities must be >= 0" in report.mismatches

    def test_source_summands_must_match_family(self):
        cert = realise_sumset(SumsetFamily((1, 3), (0, 2), (0, 1)))
        bad = dataclasses.replace(cert, m=conn_sum(CircleBundle(2, 1), CircleBundle(2, 3)))
        report = check_certificate(bad)
        assert "source summands do not match the family multiplicities" in report.mismatches

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            (kind, field, 7)
            for kind in PARAMS_CERTS
            for field in ("dropped_zeros", "prime_hygiene", "degenerate_all_ones")
        ]
        + [("geometric", "base_genus", 7)]
        + [(kind, "extra", 1) for kind in PARAMS_CERTS],
    )
    def test_edited_or_extra_params_key_rejected(self, kind, field, value):
        cert = PARAMS_CERTS[kind]
        bad = dataclasses.replace(cert, params={**cert.params, field: value})
        for candidate in (bad, certificate_from_json(certificate_to_json(bad))):
            report = check_certificate(candidate)
            assert not report.ok
            assert any(field in m or "K(" in m for m in report.mismatches), report.mismatches

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("geometric", "degenerate_all_ones", 0),
            ("geometric", "max_d", 3.0),
            ("geometric", "prime_hygiene", {"ascending_distinct": 1, "q1_exceeds_all_d": True}),
            ("geometric", "d_core", [2.0, 3]),
            ("sumset", "d_prime", 3.0),
            ("subset_sums", "dropped_zeros", True),
        ],
    )
    def test_params_value_of_another_type_rejected(self, kind, field, value):
        cert = PARAMS_CERTS[kind]
        assert cert.params[field] == value  # equal as numbers, wrong JSON type
        bad = dataclasses.replace(cert, params={**cert.params, field: value})
        for candidate in (bad, certificate_from_json(certificate_to_json(bad))):
            report = check_certificate(candidate)
            assert not report.ok
            assert any(m.startswith(f"{field} ") for m in report.mismatches), report.mismatches

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda c: dataclasses.replace(c, m=realise_arith_intervals(ArithIntervals(((0, 1),))).m),
                "source summands do not match the family multiplicities",
            ),
            (
                lambda c: dataclasses.replace(c, n=CircleBundle(2, c.n.euler + 1)),
                "target is not the construction's K(2;2)",
            ),
            (
                lambda c: dataclasses.replace(c, params={**c.params, "n1": True}),
                "n1 True is not the construction's 1",
            ),
            (
                lambda c: dataclasses.replace(c, params={**c.params, "n2": 1.0}),
                "n2 1.0 is not the construction's 1",
            ),
            (
                lambda c: dataclasses.replace(c, params={**c.params, "d_i_prime": [2, True]}),
                "d_i_prime [2, True] is not the construction's [2, 1]",
            ),
        ],
        ids=["other_m", "other_n", "true_for_1", "float_for_int", "true_in_list"],
    )
    def test_interval_construction_edits_are_reported(self, edit, message):
        # the checker compares with the construction the realiser has just
        # built: M and N by identity first, params by their written form
        cert = PARAMS_CERTS["intervals"]
        realise_arith_intervals(cert.spec)  # its construction in the memo, as in a pass
        bad = edit(cert)
        for candidate in (bad, certificate_from_json(certificate_to_json(bad))):
            report = check_certificate(candidate)
            assert message in report.mismatches, report.mismatches

    def test_huge_prime_q_is_rejected_quickly(self):
        cert = realise_geometric(Geometric((2,)))
        bad = dataclasses.replace(cert, params={**cert.params, "q": [10**16 + 61]})
        start = time.perf_counter()
        report = check_certificate(certificate_from_json(certificate_to_json(bad)))
        assert time.perf_counter() - start < 1.0
        assert not report.ok

    def test_huge_geometric_values_are_checked_without_expanding_copies(self):
        # each block source holds d copies of K(2;q); expanding the copies
        # made this take seconds and hundreds of MB
        d = 5 * 10**6
        payload = json.loads(certificate_to_json(realise_geometric(Geometric((2, 3)))))
        payload["spec"]["d"] = [d, d]
        q1 = next_prime(d)
        payload["params"].update(q=[q1, next_prime(q1)], d_core=[d, d], max_d=d)
        start = time.perf_counter()
        report = check_certificate(certificate_from_json(json.dumps(payload)))
        assert time.perf_counter() - start < 1.0
        assert not report.ok

    def test_q_beyond_the_exact_primality_test_is_a_mismatch(self):
        cert = realise_geometric(Geometric((2,)))
        bad = dataclasses.replace(cert, params={**cert.params, "q": [2**89 - 1]})
        report = check_certificate(bad)
        assert "q values [618970019642690137449562111] are not all prime" in report.mismatches

    def test_missing_zero_interval_is_a_mismatch(self):
        cert = realise_arith_intervals(ArithIntervals(((-1, 1), (3, 5))))
        bad = dataclasses.replace(cert, spec=ArithIntervals(((1, 3), (5, 7))))
        report = check_certificate(bad)
        assert not report.ok
        assert any("contains 0" in m for m in report.mismatches)


class Genus(int):
    """An int subclass with a repr of its own, held as a base genus."""

    def __repr__(self):
        return f"Genus({int(self)})"


def _step_edit(key, value):
    """Set the second step's ``key`` detail, or its first produced element, to ``value``."""

    def edit(payload):
        step = payload["derivation"][1]
        if key == "produced":
            step["produced"]["elements"][0] = value
        else:
            step["details"][key] = value

    return edit


def _params_edit(key, value):
    return lambda payload: payload["params"].__setitem__(key, value)


_STEP_2 = "derivation step 2 is circle_bundle_pair, not the calculator's trace for (M, N)"


class TestWrittenValues:
    """Params and derivation steps are the construction's and the trace's
    only as written JSON, in type too, whichever way the text is laid out."""

    @pytest.mark.parametrize("layout", [2, None], ids=["writer", "compact"])
    @pytest.mark.parametrize(
        "edit, mismatches",
        [
            (_params_edit("n1", True), ("n1 True is not the construction's 1",)),
            (_params_edit("n2", 1.0), ("n2 1.0 is not the construction's 1",)),
            (_params_edit("base_genus", True), ("base genus True is not hyperbolic",)),
            (_params_edit("d_prime", -0.0), ("d_prime -0.0 is not the construction's 2",)),
            (_params_edit("d_prime", float("nan")), ("d_prime nan is not the construction's 2",)),
            (_params_edit("d_prime", float("inf")), ("d_prime inf is not the construction's 2",)),
            (_params_edit("base_genus", float("nan")), ("base genus nan is not hyperbolic",)),
            (_params_edit("extra", float("-inf")), ("params key 'extra' is not part of the construction",)),
            (_step_edit("euler_source", True), (_STEP_2,)),
            (_step_edit("euler_source", 1.0), (_STEP_2,)),
            (_step_edit("euler_source", float("nan")), (_STEP_2,)),
            (_step_edit("produced", -0.0), (_STEP_2,)),
            (lambda payload: None, ()),
        ],
        ids=[
            "params_true_for_1", "params_float_for_int", "genus_true", "params_negative_zero",
            "params_nan", "params_infinity", "genus_nan", "extra_key_infinity", "step_true_for_1",
            "step_float_for_int", "step_nan", "step_negative_zero", "unedited",
        ],
    )
    def test_edited_value_gets_its_report_in_either_layout(self, layout, edit, mismatches):
        payload = json.loads(certificate_to_json(PARAMS_CERTS["intervals"]))
        edit(payload)
        text = json.dumps(payload, indent=layout)
        assert check_certificate(certificate_from_json(text)).mismatches == mismatches

    @pytest.mark.parametrize("layout", [2, None], ids=["writer", "compact"])
    @pytest.mark.parametrize("name", ["geometric_2_3", "intervals"])
    def test_reordered_keys_pass_in_either_layout(self, layout, name):
        payload = json.loads(_golden_text(name))
        payload = {
            **dict(reversed(payload.items())),
            "params": dict(reversed(payload["params"].items())),
            "derivation": [dict(reversed(s.items())) for s in payload["derivation"]],
        }
        assert check_certificate(certificate_from_json(json.dumps(payload, indent=layout))).ok

    @pytest.mark.parametrize("genus", [Genus(2), Genus(3)], ids=["same", "other"])
    def test_int_subclass_genus_is_refused(self, genus):
        cert = PARAMS_CERTS["geometric"]
        report = check_certificate(dataclasses.replace(cert, params={**cert.params, "base_genus": genus}))
        assert report.mismatches == (f"base genus Genus({int(genus)}) is not hyperbolic",)
        # the report for the plain genus of the same value is as it was
        report = check_certificate(dataclasses.replace(cert, params={**cert.params, "base_genus": int(genus)}))
        if genus == 2:
            assert report.ok, report.mismatches
        else:
            target, source = report.mismatches
            assert target.startswith("target is not the construction's K(3;")
            assert source == "source summands do not match the family multiplicities"

    @pytest.mark.parametrize("kind", ["geometric", "intervals"])
    def test_trailing_none_entry_is_a_mismatch(self, kind):
        cert = PARAMS_CERTS[kind]
        bad = dataclasses.replace(cert, derivation=cert.derivation + (None,))
        assert check_certificate(bad).mismatches == (
            f"derivation step {len(cert.derivation) + 1} is None, "
            "not the calculator's trace for (M, N)",
        )

    @pytest.mark.parametrize(
        "entry, shown", [("x", "'x'"), (1, "1"), ({1, 2}, "{1, 2}")], ids=["text", "number", "set"]
    )
    @pytest.mark.parametrize("kind", ["geometric", "intervals"])
    def test_entry_that_is_not_a_step_is_a_mismatch(self, kind, entry, shown):
        cert = PARAMS_CERTS[kind]
        steps = cert.derivation[:1] + (entry,) + cert.derivation[2:]
        assert check_certificate(dataclasses.replace(cert, derivation=steps)).mismatches == (
            f"derivation step 2 is {shown}, not the calculator's trace for (M, N)",
        )

    @pytest.mark.parametrize("params", [None, [], 5], ids=["none", "list", "number"])
    @pytest.mark.parametrize("kind", ["geometric", "intervals"])
    def test_params_that_are_not_a_mapping_are_a_mismatch(self, kind, params):
        cert = PARAMS_CERTS[kind]
        assert check_certificate(dataclasses.replace(cert, params=params)).mismatches == (
            f"params {params!r} is not a mapping",
        )

    @pytest.mark.parametrize("kind", ["geometric", "intervals"])
    def test_derivation_that_is_not_iterable_is_a_mismatch(self, kind):
        cert = PARAMS_CERTS[kind]
        assert check_certificate(dataclasses.replace(cert, derivation=5)).mismatches == (
            "derivation 5 is not a list of steps",
        )

    @pytest.mark.parametrize("kind", ["geometric", "intervals"])
    def test_value_of_no_json_type_is_a_mismatch(self, kind):
        cert = PARAMS_CERTS[kind]
        key = "d_core" if kind == "geometric" else "d_i_prime"
        thing = object()
        bad = dataclasses.replace(cert, derivation=(thing,) + cert.derivation[1:])
        assert check_certificate(bad).mismatches == (
            f"derivation step 1 is {thing!r}, not the calculator's trace for (M, N)",
        )
        for value in ({2, 3}, thing):
            bad = dataclasses.replace(cert, params={**cert.params, key: value})
            assert check_certificate(bad).mismatches == (
                f"{key} {value!r} is not the construction's {cert.params[key]!r}",
            )

    def test_where_the_written_rule_differs_from_python_equality(self):
        same = realiser._same
        nan = float("nan")
        assert same(nan, nan)  # one object
        assert not same(nan, float("nan"))
        assert not same(float("inf"), float("inf"))
        assert not same(-0.0, 0.0)
        assert not same(1.0, 1) and not same(True, 1) and not same({"a": 1}, {1: 1, "a": 1})
        assert same(Genus(2), 2) and same((1, [2]), [1, (2,)]) and same({"a": 1, "b": 2}, {"b": 2, "a": 1})
        assert not same({1}, {1}) and not same(object(), object())
        loop = []
        loop.append(loop)
        assert same(loop, loop) and not same(loop, [[]])

    def test_value_of_no_json_text_is_refused_at_once(self):
        # the encoder asks json_view once for such a value, not once per level
        # of its recursion until the recursion limit
        calls = []
        code = engine.json_view.__code__

        def count(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(frame)

        thing, step = object(), PARAMS_CERTS["intervals"].derivation[0]
        for a, b in [(thing, [1]), ([1, thing], [1, 2]), ({"a": thing}, {"a": 1}), (thing, step)]:
            calls.clear()
            sys.setprofile(count)
            try:
                same = realiser._same(a, b)
            finally:
                sys.setprofile(None)
            assert same is False and len(calls) <= 2
        assert realiser._same(thing, thing) and realiser._same([step], [step])


K = CircleBundle


class TestRecheck:
    """Each recheck fires on a step that breaks its closed form, including
    steps of a calculator whose product side conditions are mutated."""

    @pytest.fixture
    def cold_cache(self):
        engine.clear_cache()
        yield
        engine.clear_cache()

    @staticmethod
    def _chain_mismatches(d):
        report = check_certificate(realise_geometric(Geometric(d)))
        return [m for m in report.mismatches if m.startswith("step product_exactness_chain")]

    @pytest.mark.parametrize("d", [(1, 2, 4, 4, 8), (1, 1, 3, 3, 13)], ids=str)
    def test_untested_kill_summand_is_caught(self, monkeypatch, cold_cache, d):
        monkeypatch.setattr(
            engine, "_kill_summand", lambda source, target: engine._bundle_summands(target)[0]
        )
        assert self._chain_mismatches(d)

    @pytest.mark.parametrize("d", [(1, 2, 4, 4, 8), (1, 1, 3, 3, 13)], ids=str)
    def test_kept_verdicts_pass_no_wrong_step_after_a_clear(self, monkeypatch, cold_cache, d):
        assert self._chain_mismatches(d) == []  # keeps an empty verdict on every step
        engine.clear_cache()
        monkeypatch.setattr(
            engine, "_kill_summand", lambda source, target: engine._bundle_summands(target)[0]
        )
        assert self._chain_mismatches(d)

    def test_broken_step_is_reported_again_on_a_second_check(self, monkeypatch):
        entry = RuleApplication("circle_bundle_pair", (K(2, 2), K(2, 6)), fin([0, 2]))
        message = (
            "step circle_bundle_pair on (K(2;2), K(2;6)): "
            "produced {0, 2}, closed form gives {0, 3}"
        )
        cert = PARAMS_CERTS["geometric"]
        bound = engine.SetBound(cert.target, cert.target, (*cert.derivation, entry))
        monkeypatch.setattr(verify, "degree_bounds", lambda m, n: bound)
        rechecked = []
        recheck = verify._recheck_entry
        monkeypatch.setattr(
            verify, "_recheck_entry", lambda e, problems: rechecked.append(e) or recheck(e, problems)
        )
        first, second = check_certificate(cert), check_certificate(cert)
        assert message in first.mismatches
        assert second.mismatches == first.mismatches
        assert rechecked.count(entry) == 1

    def test_chain_without_kills_is_caught(self, monkeypatch, cold_cache):
        monkeypatch.setattr(engine, "_chain_search", lambda pairs: (list(range(len(pairs))), []))
        assert self._chain_mismatches((2, 3, 5))

    def test_kill_by_an_euler_zero_bundle_is_accepted(self):
        # K(2;-2) and K(2;4) both map to K(2;0) with closed form {0, 0/e} = {0}
        bound = engine.degree_bounds(
            product(K(3, 12), conn_sum(K(2, -2), K(2, 4))),
            product(K(2, 6), conn_sum(K(2, 0), K(3, 2))),
        )
        chain = next(e for e in bound.trace if e.rule == "product_exactness_chain")
        assert chain.detail("kills") == ((conn_sum(K(2, -2), K(2, 4)), K(2, 0)),)
        problems = []
        _recheck_entry(chain, problems)
        assert problems == []

    @pytest.mark.parametrize(
        "entry, message",
        [
            (
                RuleApplication("circle_bundle_pair", (K(2, 2), K(2, 6)), fin([0, 2])),
                "step circle_bundle_pair on (K(2;2), K(2;6)): "
                "produced {0, 2}, closed form gives {0, 3}",
            ),
            (
                RuleApplication("circle_bundle_pair", (K(2, 2), K(3, 6)), fin([0, 3])),
                "step circle_bundle_pair on (K(2;2), K(3;6)): bundles over different bases",
            ),
            (
                RuleApplication("circle_bundle_pair", (K(2, 0), K(2, 6)), fin([0])),
                "step circle_bundle_pair on (K(2;0), K(2;6)): "
                "source Euler number 0 has no closed form",
            ),
            (
                RuleApplication(
                    "fiberwise_covering_lift",
                    (conn_sum(K(2, 2), K(2, 2)), conn_sum(K(2, 3), K(2, 5))),
                    fin([2]),
                    (
                        ("degree", 2),
                        ("target_bundle", K(2, 4)),
                        ("cover_bundle", K(2, 2)),
                        ("copies_of_remaining_summands", 2),
                    ),
                ),
                "step fiberwise_covering_lift on (K(2;2) # K(2;2), K(2;3) # K(2;5)): "
                "covered bundle is not a summand of the target",
            ),
            (
                RuleApplication(
                    "pinch_to_submanifold",
                    (conn_sum(K(2, 3), K(2, 4)), conn_sum(K(2, 3), K(2, 5))),
                    fin([1]),
                    (("degree", 1),),
                ),
                "step pinch_to_submanifold on (K(2;3) # K(2;4), K(2;3) # K(2;5)): "
                "target summands are not a sub-multiset of the source",
            ),
            (
                RuleApplication(
                    "fiberwise_covering_lift",
                    (conn_sum(K(2, 1), K(2, 1), K(2, 1)), K(2, 4)),
                    fin([3]),
                    (
                        ("degree", 3),
                        ("target_bundle", K(2, 4)),
                        ("cover_bundle", K(2, 1)),
                        ("copies_of_remaining_summands", 3),
                    ),
                ),
                "step fiberwise_covering_lift on (K(2;1) # K(2;1) # K(2;1), K(2;4)): "
                "3 does not divide Euler number 4 compatibly",
            ),
            (
                RuleApplication(
                    "product_exactness_chain",
                    (product(K(2, 2), K(2, 3)), product(K(2, 4), K(2, 6))),
                    fin([0, 2, 4]),
                    (
                        ("order", ((K(2, 2), K(2, 4)), (K(2, 3), K(2, 6)))),
                        ("kills", ((K(2, 2), K(2, 6)),)),
                    ),
                ),
                "step product_exactness_chain on (K(2;2) x K(2;3), K(2;4) x K(2;6)): "
                "K(2;6) does not have degree set {0} from K(2;2)",
            ),
            (
                RuleApplication(
                    "fiberwise_covering_lift",
                    (conn_sum(K(2, 1), K(2, 3), K(2, 3)), conn_sum(K(2, 3), K(2, 4))),
                    fin([2]),
                    (
                        ("degree", 2),
                        ("target_bundle", K(2, 4)),
                        ("cover_bundle", K(2, 1)),
                        ("copies_of_remaining_summands", 2),
                    ),
                ),
                "step fiberwise_covering_lift on (K(2;1) # K(2;3) # K(2;3), K(2;3) # K(2;4)): "
                "2 does not divide Euler number 4 compatibly",
            ),
            (
                RuleApplication(
                    "fiberwise_covering_lift",
                    (conn_sum(K(2, 1), K(2, 2)), conn_sum(K(2, 1), K(2, 4))),
                    fin([2]),
                    (
                        ("degree", 2),
                        ("target_bundle", K(2, 4)),
                        ("cover_bundle", K(2, 2)),
                        ("copies_of_remaining_summands", 2),
                    ),
                ),
                "step fiberwise_covering_lift on (K(2;1) # K(2;2), K(2;1) # K(2;4)): "
                "covering source does not embed in the source summands",
            ),
            (
                RuleApplication(
                    "product_exactness_chain",
                    (product(K(2, 2), K(2, 3)), product(K(2, 4), K(2, 0))),
                    fin([0, 2]),
                    (
                        ("order", ((K(2, 2), K(2, 4)), (K(2, 3), K(2, 0)))),
                        ("kills", ((K(2, 2), K(2, 0)),)),
                    ),
                ),
                "step product_exactness_chain on (K(2;2) x K(2;3), K(2;0) x K(2;4)): "
                "factor target K(2;0) may be dominated by products",
            ),
            (
                RuleApplication(
                    "product_exactness_chain",
                    (product(K(2, 0), K(2, 2)), product(K(2, 6), K(2, 3))),
                    fin([0]),
                    (
                        ("order", ((K(2, 0), K(2, 6)), (K(2, 2), K(2, 3)))),
                        ("kills", ((K(2, 0), K(2, 3)),)),
                    ),
                ),
                "step product_exactness_chain on (K(2;0) x K(2;2), K(2;3) x K(2;6)): "
                "K(2;3) does not have degree set {0} from K(2;0)",
            ),
        ],
        ids=[
            "bundle_closed_form",
            "bundle_bases_differ",
            "bundle_euler_zero",
            "covering_target_not_a_summand",
            "pinch",
            "covering_degree",
            "chain_non_kill",
            "covering_wrong_cover",
            "covering_carrier_outside_source",
            "chain_dominated_target",
            "chain_kill_from_euler_zero",
        ],
    )
    def test_broken_step_is_reported(self, entry, message):
        problems = []
        _recheck_entry(entry, problems)
        assert problems == [message]


def _rule_names(trace):
    return {entry.rule for entry in trace}


def test_emitted_rule_names_are_exported():
    certs = [
        realise_sumset(SumsetFamily((1, 3), (0, 2), (0, 1))),
        realise_sumset(SumsetFamily((2, 5), (40, 3), (7, 0))),
        realise_arith_intervals(ArithIntervals(((-2, -1), (0, 1), (2, 3)))),
        realise_subset_sums(SubsetSums((-2, 0, 3))),
    ]
    certs += [realise_geometric(Geometric(d)) for d in [(1,), (1, 1), (2,), (2, 3), (3, 3), (2, 2, 5)]]
    names = set().union(*(_rule_names(c.derivation) for c in certs))
    rng = random.Random(46)
    for _ in range(300):
        m, n = random_expr(rng), random_expr(rng)
        if dimension(m) == dimension(n):
            names |= _rule_names(engine.degree_bounds(m, n).trace)
    assert names <= engine.RULE_NAMES, names - engine.RULE_NAMES


GOLDEN_NAMES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def _golden_text(name):
    return (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@functools.cache
def _writer_texts():
    """The goldens, 200 requests of the benchmark's geometric_roundtrip shape
    and the sumset corpus (the criterion-4 sample among it), as written."""
    texts = [_golden_text(name) for name in GOLDEN_NAMES]
    rng = random.Random(201)
    for _ in range(200):
        values = sorted(rng.randint(1, 13) for _ in range(rng.randint(1, 6)))
        texts.append(certificate_to_json(realise_geometric(Geometric(tuple(values)))))
    return tuple(texts) + sumset_certificates()


# In-place edits of a decoded derivation, by the step key or the edit they make.
_EDITS = {
    "rule": lambda steps: steps[0].__setitem__("rule", "constant_map"),
    "produced": lambda steps: steps[0]["produced"]["elements"].append(10**6),
    "details": lambda steps: steps[0]["details"].__setitem__("quotient", 7),
    "dropped_step": lambda steps: steps.pop(),
}


class TestWrittenText:
    """A certificate decoded from the writer's text holds the calculator's
    trace as its derivation, and the checker takes it by identity; every other
    text decodes to JSON steps that ``_same`` compares, and both ways give the
    same report."""

    def test_text_path_gives_the_walks_report(self):
        for text in _writer_texts():
            cert = certificate_from_json(text)
            report = verify.check_certificate(cert)
            assert cert.derivation is report.engine_bound.trace
            assert report.ok, report.mismatches
            assert report_key(check_walked(text)) == report_key(report)

    @pytest.mark.parametrize(
        "form",
        [
            lambda payload: json.dumps(payload),
            lambda payload: json.dumps(payload, indent=4),
            lambda payload: json.dumps(
                {
                    **dict(reversed(payload.items())),
                    "derivation": [dict(reversed(s.items())) for s in payload["derivation"]],
                },
                indent=2,
            ),
            lambda payload: json.dumps(payload, indent=2).replace(
                '{\n  "spec"', '{\n  "derivation": [],\n  "spec"', 1
            ),
        ],
        ids=["compact", "indent_4", "reordered_keys", "duplicate_derivation"],
    )
    @pytest.mark.parametrize("name", ["geometric_2_3", "intervals"])
    def test_rewritten_certificate_is_walked(self, monkeypatch, form, name):
        text = _golden_text(name)
        written = verify.check_certificate(certificate_from_json(text))
        cert = certificate_from_json(form(json.loads(text)))
        assert type(cert.derivation) is list
        calls = count_step_comparisons(monkeypatch)
        report = verify.check_certificate(cert)
        assert calls
        assert report_key(report) == report_key(written)

    def test_forged_last_derivation_key_is_walked_and_rejected(self):
        text = _golden_text("geometric_2_3")
        forged = json.loads(_golden_text("geometric_3_3"))["derivation"]
        text = text[: text.rindex("}")] + f',"derivation": {json.dumps(forged)}}}'
        cert = certificate_from_json(text)
        assert cert.derivation == forged
        report = verify.check_certificate(cert)
        assert report_key(check_walked(text)) == report_key(report)
        assert any(m.startswith("derivation step 1 is ") for m in report.mismatches), report.mismatches

    def test_kept_text_is_not_part_of_the_value(self):
        # both decoders give the same value but for how the derivation is held
        for text in _writer_texts():
            cert = certificate_from_json(text)
            plain = realiser.certificate_from_jsonable(json.loads(text))
            assert not hasattr(cert, "_text") and not hasattr(plain, "_text")
            assert type(cert.derivation) is tuple and type(plain.derivation) is list
            assert engine.jsonable(cert.derivation) == plain.derivation
            assert dataclasses.replace(cert, derivation=()) == dataclasses.replace(plain, derivation=())
            assert certificate_to_json(cert) == certificate_to_json(plain) == text.strip()
            assert certificate_from_json(text.encode()) == plain

    def test_replaced_derivation_is_walked(self):
        cert = certificate_from_json(_golden_text("geometric_2_3"))
        steps = cert.derivation
        for other, message in [
            (steps[:-1], f"derivation step {len(steps)} is missing"),
            (certificate_from_json(_golden_text("geometric_3_3")).derivation, "derivation step 1 is "),
        ]:
            bad = dataclasses.replace(cert, derivation=other)
            report = verify.check_certificate(bad)
            assert not report.ok
            assert any(m.startswith(message) for m in report.mismatches), report.mismatches
            assert not hasattr(bad, "_text")

    @pytest.mark.parametrize("edit", sorted(_EDITS))
    def test_derivation_edited_in_place_is_rejected(self, edit):
        # the writer's text decodes to the trace: a tuple of frozen steps
        cert = certificate_from_json(_golden_text("geometric_2_3"))
        with pytest.raises((TypeError, AttributeError)):
            _EDITS[edit](cert.derivation)
        if edit != "dropped_step":
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cert.derivation[0], edit, None)
        assert verify.check_certificate(cert).ok
        # any other text decodes to JSON steps, which the checker compares
        cert = certificate_from_json(json.dumps(json.loads(_golden_text("geometric_2_3"))))
        assert verify.check_certificate(cert).ok
        _EDITS[edit](cert.derivation)
        assert not verify.check_certificate(cert).ok

    @pytest.mark.parametrize("name", ["geometric_2_3", "subset_sums"])
    def test_unpickled_certificate_gets_the_same_report(self, name):
        payload = json.loads(_golden_text(name))
        payload["target"]["elements"].append(10**6)
        for text in (_golden_text(name), json.dumps(payload, indent=2)):
            cert = certificate_from_json(text)
            again = pickle.loads(pickle.dumps(cert))
            assert again == cert
            assert report_key(verify.check_certificate(again)) == report_key(
                verify.check_certificate(cert)
            )
