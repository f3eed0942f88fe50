"""Oracles and the certificate checker, including injected faults."""

import dataclasses
import json
import random
import time
from pathlib import Path

import pytest

from degreecalc import engine
from degreecalc.intset import DegreeSet
from degreecalc.manifold import CircleBundle, conn_sum, dimension
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
    check_certificate,
    interval_union,
)

from conftest import random_expr

fin = DegreeSet.finite

GOLDEN = Path(__file__).parent / "data" / "golden"

# one certificate per construction, for the params edits
PARAMS_CERTS = {
    "subset_sums": realise_subset_sums(SubsetSums((-2, 0, 3))),
    "intervals": realise_arith_intervals(ArithIntervals(((-2, -1), (0, 1), (2, 3)))),
    "sumset": realise_sumset(SumsetFamily((1, 3), (0, 2), (0, 1))),
    "geometric": realise_geometric(Geometric((2, 3))),
}


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

    def test_cap_is_enforced(self):
        with pytest.raises(EnumerationTooLarge):
            brute_sumset((1,) * 10, (9,) * 10, (9,) * 10, enum_cap=10**6)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("DEGREECALC_ENUM_CAP", "3")
        with pytest.raises(EnumerationTooLarge):
            brute_sumset((1,), (3,), (3,))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            brute_sumset((0,), (1,), (1,))
        with pytest.raises(ValueError):
            brute_sumset((1, 2), (1,), (1, 1))


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

    def test_length_cap(self):
        with pytest.raises(EnumerationTooLarge):
            brute_subset_products((2,) * 26)


class TestHelpers:
    def test_subset_sums(self):
        assert brute_subset_sums((-2, 3)) == fin([-2, 0, 1, 3])
        assert brute_subset_sums(()) == fin([0])

    def test_interval_union(self):
        assert interval_union(((-2, -1), (1, 2))) == fin([-2, -1, 1, 2])


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
