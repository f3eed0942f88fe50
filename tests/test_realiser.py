"""Realisations: constructions, parameters, certificates, invariants."""

import random
import time
from pathlib import Path

import pytest

from degreecalc import engine
from degreecalc.dsl import print_expr
from degreecalc.engine import degree_set_exact
from degreecalc.intset import DegreeSet
from degreecalc.manifold import normalize
from degreecalc.realiser import (
    ArithIntervals,
    Geometric,
    InvalidSpec,
    SubsetSums,
    SumsetFamily,
    ZeroNotContained,
    _is_prime,
    certificate_from_json,
    certificate_to_json,
    next_prime,
    realise_arith_intervals,
    realise_geometric,
    realise_subset_sums,
    realise_sumset,
)

fin = DegreeSet.finite


class TestSpecs:
    def test_sumset_family_validation(self):
        with pytest.raises(InvalidSpec):
            SumsetFamily((0,), (1,), (1,))
        with pytest.raises(InvalidSpec):
            SumsetFamily((1, 2), (1,), (0, 0))
        with pytest.raises(InvalidSpec):
            SumsetFamily((1,), (-1,), (0,))
        with pytest.raises(InvalidSpec):
            SumsetFamily((), (), ())

    def test_interval_validation(self):
        with pytest.raises(InvalidSpec):
            ArithIntervals(((3, 1),))
        with pytest.raises(InvalidSpec):
            ArithIntervals(((0, 2), (2, 4)))  # overlap at 2
        with pytest.raises(InvalidSpec):
            ArithIntervals(((0, 1), (3, 5)))  # unequal lengths
        with pytest.raises(InvalidSpec):
            ArithIntervals(((0, 0), (2, 2), (5, 5)))  # unequal steps

    def test_geometric_validation(self):
        with pytest.raises(InvalidSpec):
            Geometric((2, 1))
        with pytest.raises(InvalidSpec):
            Geometric((0,))
        with pytest.raises(InvalidSpec):
            Geometric(())


class TestSumsetRealisation:
    def test_two_term_family(self):
        cert = realise_sumset(SumsetFamily((1, 3), (0, 2), (0, 1)))
        assert cert.target == fin([-3, 0, 3, 6])
        assert print_expr(cert.m) == "K(2;-1) # K(2;1) # K(2;1)"
        assert print_expr(cert.n) == "K(2;3)"
        assert cert.params["d_prime"] == 3
        assert cert.params["d_i_prime"] == [3, 1]

    def test_single_term_collapses_to_bundle_pair(self):
        cert = realise_sumset(SumsetFamily((2,), (1,), (0,)))
        assert cert.target == fin([0, 2])
        assert print_expr(cert.m) == "K(2;1)"
        assert print_expr(cert.n) == "K(2;2)"

    def test_symmetric_window(self):
        cert = realise_sumset(SumsetFamily((1,), (1,), (1,)))
        assert cert.target == fin([-1, 0, 1])
        assert print_expr(cert.m) == "K(2;-1) # K(2;1)"

    def test_degenerate_empty_family(self):
        cert = realise_sumset(SumsetFamily((2,), (0,), (0,)))
        assert cert.target == fin([0])
        assert cert.params["degenerate_euler"] == 3

    def test_round_trip_soundness(self):
        rng = random.Random(31)
        for _ in range(50):
            k = rng.randint(1, 3)
            spec = SumsetFamily(
                tuple(rng.randint(1, 6) for _ in range(k)),
                tuple(rng.randint(0, 2) for _ in range(k)),
                tuple(rng.randint(0, 2) for _ in range(k)),
            )
            cert = realise_sumset(spec)
            assert degree_set_exact(cert.m, cert.n) == cert.target
            assert normalize(cert.m) == cert.m and normalize(cert.n) == cert.n

    def test_long_ladder_within_budget(self):
        # 15,000 summands in three groups: a pairwise fold visits about
        # 3 * 10**8 element pairs here
        engine.clear_cache()
        start = time.perf_counter()
        cert = realise_sumset(SumsetFamily((3, 7), (5000, 5000), (5000, 0)))
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0, f"k=5000 sumset ladder took {elapsed:.2f}s"
        elements = cert.target.elements
        assert (elements[0], elements[-1], len(elements)) == (-15000, 50000, 64989)


class TestIntervalRealisation:
    def test_progression_with_offsets(self):
        cert = realise_arith_intervals(ArithIntervals(((-3, -3), (0, 0), (3, 3), (6, 6))))
        assert cert.target == fin([-3, 0, 3, 6])
        got = tuple(cert.params[k] for k in ("n1", "n1prime", "d2", "n2", "n2prime"))
        assert got == (0, 0, 3, 2, 1)
        assert cert.params["zero_interval_index"] == 2

    def test_single_interval(self):
        cert = realise_arith_intervals(ArithIntervals(((-1, 1),)))
        assert cert.target == fin([-1, 0, 1])
        got = tuple(cert.params[k] for k in ("n1", "n1prime", "d2", "n2", "n2prime"))
        assert got == (1, 1, 1, 0, 0)

    def test_length_two_intervals(self):
        cert = realise_arith_intervals(ArithIntervals(((-2, -1), (0, 1), (2, 3))))
        assert cert.target == fin([-2, -1, 0, 1, 2, 3])
        got = tuple(cert.params[k] for k in ("n1", "n1prime", "d2", "n2", "n2prime"))
        assert got == (1, 0, 2, 1, 1)

    def test_zero_required(self):
        with pytest.raises(ZeroNotContained):
            realise_arith_intervals(ArithIntervals(((1, 2), (4, 5))))


class TestSubsetSumRealisation:
    def test_positive_values(self):
        assert realise_subset_sums(SubsetSums((2, 3))).target == fin([0, 2, 3, 5])

    def test_zero_dropped(self):
        assert realise_subset_sums(SubsetSums((0,))).target == fin([0])

    def test_signs(self):
        assert realise_subset_sums(SubsetSums((-2, 3))).target == fin([-2, 0, 1, 3])

    def test_duplicates(self):
        assert realise_subset_sums(SubsetSums((2, 2))).target == fin([0, 2, 4])

    def test_matches_direct_enumeration(self):
        rng = random.Random(32)
        for _ in range(40):
            values = tuple(rng.randint(-5, 8) for _ in range(rng.randint(0, 5)))
            cert = realise_subset_sums(SubsetSums(values))
            expected = set()
            for mask in range(1 << len(values)):
                expected.add(sum(v for i, v in enumerate(values) if mask >> i & 1))
            assert cert.target == fin(expected)


class TestGeometricRealisation:
    def test_single_value(self):
        cert = realise_geometric(Geometric((2,)))
        assert cert.target == fin([0, 1, 2])
        assert cert.params["q"] == [3]
        assert print_expr(cert.m) == "K(2;2) # K(2;3) # K(2;3) # K(2;4)"
        assert print_expr(cert.n) == "K(2;3) # K(2;4)"

    def test_two_values(self):
        cert = realise_geometric(Geometric((2, 3)))
        assert cert.target == fin([0, 1, 2, 3, 6])
        assert cert.params["q"] == [5, 7]

    def test_constant_progression(self):
        cert = realise_geometric(Geometric((3, 3, 3)))
        assert cert.target == fin([0, 1, 3, 9, 27])
        assert cert.params["q"] == [5, 7, 11]

    def test_ones_are_absorbed(self):
        cert = realise_geometric(Geometric((1, 2)))
        assert cert.target == fin([0, 1, 2])
        assert cert.params["d_core"] == [2]

    def test_all_ones_degenerate_block(self):
        cert = realise_geometric(Geometric((1, 1)))
        assert cert.target == fin([0, 1])
        # the smallest prime produces a degree-2 leak, so 3 is chosen
        assert cert.params["q"] == [3]

    def test_prime_hygiene(self):
        rng = random.Random(33)
        for _ in range(20):
            d = tuple(sorted(rng.randint(1, 6) for _ in range(rng.randint(1, 3))))
            cert = realise_geometric(Geometric(d))
            qs = cert.params["q"]
            assert all(_is_prime(q) for q in qs)
            assert all(a < b for a, b in zip(qs, qs[1:]))
            assert qs[0] > max(d)
            assert degree_set_exact(cert.m, cert.n) == cert.target


class TestNextPrime:
    def test_examples(self):
        assert next_prime(1) == 2
        assert next_prime(3) == 5
        assert next_prime(10) == 11
        assert next_prime(0) == 2
        assert next_prime(13) == 17

    def test_primality_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

        assert [n for n in range(-3, 10**5) if _is_prime(n)] == [
            n for n in range(-3, 10**5) if trial(n)
        ]

    def test_strong_pseudoprimes_are_composite(self):
        # strong pseudoprimes to every prime base up to 23 and up to 37
        assert not _is_prime(3825123056546413051)
        assert not _is_prime(318665857834031151167461)

    def test_large_prime_is_found_quickly(self):
        start = time.perf_counter()
        assert next_prime(10**16 + 60) == 10**16 + 61
        assert time.perf_counter() - start < 1.0

    def test_beyond_the_exact_test_is_invalid(self):
        assert not _is_prime(3317044064679887385961981)
        with pytest.raises(InvalidSpec):
            next_prime(10**25)


GOLDEN = Path(__file__).parent / "data" / "golden"

# Certificates whose JSON was recorded before connected sums were stored as
# summand multisets; the bytes must not change with the representation.
GOLDEN_CASES = {
    "sumset_repeats": lambda: realise_sumset(SumsetFamily((2, 5), (200, 120), (150, 0))),
    "intervals": lambda: realise_arith_intervals(
        ArithIntervals(((-6, -4), (-1, 1), (4, 6), (9, 11)))
    ),
    "subset_sums": lambda: realise_subset_sums(SubsetSums((-4, 0, 3, 3, 10))),
    "geometric_2_3": lambda: realise_geometric(Geometric((2, 3))),
    "geometric_3_3": lambda: realise_geometric(Geometric((3, 3))),
    "geometric_1_1": lambda: realise_geometric(Geometric((1, 1))),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_certificate_json_matches_golden_bytes(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert certificate_to_json(GOLDEN_CASES[name]()) + "\n" == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_certificate_json_round_trip_keeps_bytes(name):
    text = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert certificate_to_json(certificate_from_json(text)) + "\n" == text
