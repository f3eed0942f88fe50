"""Integer-set algebra: examples, algebraic laws, error behavior."""

import math
import random
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degreecalc import intset
from degreecalc.intset import (
    ALL_INTEGERS,
    EMPTY,
    INT64_MAX,
    INT64_MIN,
    ZERO_ONLY,
    DegreeSet,
    IntegerOverflow,
    InvalidInterval,
    UnrepresentableSet,
    contains,
    equals,
    interval,
    intersect,
    naive_sumset,
    negate,
    product_set,
    sumset,
    union,
    weighted_sumset,
)

fin = DegreeSet.finite
SRC = Path(__file__).resolve().parent.parent / "src"

small_sets = st.lists(
    st.integers(min_value=-100, max_value=100), min_size=0, max_size=20
).map(fin)
nonempty_sets = st.lists(
    st.integers(min_value=-100, max_value=100), min_size=1, max_size=20
).map(fin)


# Sets at several scales: dense ones, progressions with a common step, and
# wide, sparse ones whose span is far beyond their size.
scaled_sets = st.builds(
    lambda xs, k: fin(x * k for x in xs),
    st.lists(st.integers(min_value=-12, max_value=12), min_size=0, max_size=7),
    st.sampled_from([1, 1, 2, 7, 10**12]),
)
any_sets = st.one_of(scaled_sets, st.just(EMPTY), st.just(ALL_INTEGERS))


def brute_pairs(a, b, op):
    return fin(op(x, y) for x in a.elements for y in b.elements)


def reference_fold(parts):
    """Each set added to the running sum count times, by the pairwise oracle."""
    acc = ZERO_ONLY
    for p, n in parts:
        for _ in range(n):
            acc = naive_sumset(acc, p)
    return acc


class TestSumset:
    def test_enumerated_pairs(self):
        assert sumset(fin([0, 2]), fin([0, 3])) == fin([0, 2, 3, 5])

    def test_zero_is_identity(self):
        for a in (fin([0, 2]), fin([-7, 1, 4]), ALL_INTEGERS):
            assert equals(sumset(fin([0]), a), a)

    def test_all_integers_absorbs(self):
        assert sumset(ALL_INTEGERS, fin([0, 5])).is_all

    def test_empty_absorbs_even_all_integers(self):
        assert sumset(ALL_INTEGERS, EMPTY).is_empty
        assert sumset(EMPTY, fin([1, 2])).is_empty

    @given(small_sets, small_sets)
    def test_commutative(self, a, b):
        assert equals(sumset(a, b), sumset(b, a))

    @given(small_sets, small_sets, small_sets)
    def test_associative(self, a, b, c):
        assert equals(sumset(sumset(a, b), c), sumset(a, sumset(b, c)))

    @given(small_sets, small_sets)
    def test_matches_pair_enumeration(self, a, b):
        assert equals(sumset(a, b), brute_pairs(a, b, lambda x, y: x + y))

    @given(nonempty_sets)
    def test_sum_with_negation_contains_zero(self, a):
        assert 0 in sumset(a, negate(a))

    @given(nonempty_sets, nonempty_sets)
    def test_cardinality_bracket(self, a, b):
        s = sumset(a, b)
        assert max(len(a.elements), len(b.elements)) <= len(s.elements)
        assert len(s.elements) <= len(a.elements) * len(b.elements)


class TestSumKernel:
    """The shift-OR kernel against the pairwise oracle."""

    @given(any_sets, any_sets)
    def test_sumset_matches_naive(self, a, b):
        assert sumset(a, b) == naive_sumset(a, b)

    @given(any_sets, st.integers(min_value=0, max_value=9))
    def test_n_fold_matches_naive(self, a, n):
        assert weighted_sumset([(a, n)]) == reference_fold([(a, n)])

    @given(st.lists(st.tuples(any_sets, st.integers(min_value=0, max_value=5)), max_size=4))
    def test_weighted_fold_matches_naive(self, parts):
        assert weighted_sumset(parts) == reference_fold(parts)

    def test_count_zero_contributes_zero(self):
        assert weighted_sumset([(EMPTY, 0), (ALL_INTEGERS, 0)]) == ZERO_ONLY
        assert weighted_sumset([]) == ZERO_ONLY

    def test_wide_sparse_span(self):
        t = 10**12
        assert sumset(fin([0, t]), fin([0, 3 * t])) == fin([0, t, 3 * t, 4 * t])
        assert sumset(fin([0, 1, t]), fin([0, 1, 3 * t])) == fin(
            [0, 1, 2, t, t + 1, 3 * t, 3 * t + 1, 4 * t]
        )
        # a progression of step t on a mask: its elements add pairwise
        assert intset._progression(0b11, t, 3) == (0, 1, t, t + 1, 2 * t, 2 * t + 1, 3 * t, 3 * t + 1)
        assert weighted_sumset([(fin([0, 1]), 1), (fin([0, t]), 3)]) == fin(
            [k * t + e for k in range(4) for e in (0, 1)]
        )

    def test_long_progression_with_a_wide_step(self):
        t = 10**12
        assert weighted_sumset([(fin([0, t]), 5000), (fin([0, 1]), 1)]) == fin(
            [k * t + e for k in range(5001) for e in (0, 1)]
        )

    def test_add_follows_the_size_rule(self):
        # a mask when the span is below _MASK_BITS or below the pair count,
        # pairwise otherwise: each limit from both sides
        limit = intset._MASK_BITS
        s = math.isqrt(limit) + 2  # s * (s - 1) pairs, more than the limit
        pairs = s * (s - 1)
        cases = [((0, span - 3), (0, 3), span < limit) for span in (limit - 1, limit, limit + 1)]
        cases += [
            (tuple(range(s)), (*range(s - 2), top), top + s - 1 < pairs)
            for top in (pairs - s, pairs - s + 1, pairs - s + 2)
        ]
        for a, b, mask in cases:
            got = intset._add(a, b)
            assert isinstance(got, int) == mask, (a[-1] + b[-1], len(a) * len(b))
            assert fin(intset._elements(got)) == naive_sumset(fin(a), fin(b))

    def test_progression_follows_the_size_rule(self):
        limit = intset._MASK_BITS
        s = math.isqrt(limit) + 2
        # (acc, h, k): acc + {0, h, ..., k * h}
        cases = [((0, 1), span - 1, 1) for span in (limit - 1, limit, limit + 1)]
        # s elements up to s, and s - 2 copies: s * (s - 1) pairs, reached at h = s
        cases += [((*range(s - 1), s), h, s - 2) for h in (s - 1, s, s + 1)]
        for acc, h, k in cases:
            span, pairs = acc[-1] + k * h, len(acc) * (k + 1)
            got = intset._progression(acc, h, k)
            assert isinstance(got, int) == (span < limit or span < pairs), (span, pairs)
            expected = naive_sumset(fin(acc), fin(range(0, k * h + 1, h)))
            assert fin(intset._elements(got)) == expected

    @pytest.mark.parametrize("h", [2, 3, 7, 64])
    def test_first_progression_in_closed_form(self, h):
        # {0} + {0, h, ..., k * h}: the closed-form mask below _MASK_BITS, the
        # element tuple from there; k * h just below, at (or first above) and
        # just above the limit
        limit = intset._MASK_BITS
        first_over = -(-limit // h)
        for k in (first_over - 1, first_over, first_over + 1):
            got = intset._progression(1, h, k)
            assert isinstance(got, int) == (h * k < limit), (h, k)
            half = k // 2
            expected = naive_sumset(fin(range(0, half * h + 1, h)), fin(range(0, (k - half) * h + 1, h)))
            assert fin(intset._elements(got)) == expected
            # as the first part of a sum whose common step is 1
            parts = [(fin([0, h]), k), (fin([0, 1]), 1)]
            assert weighted_sumset(parts) == naive_sumset(expected, fin([0, 1]))

    @pytest.mark.skipif(resource is None, reason="platform has no resource limits")
    def test_wide_sparse_sums_build_no_mask(self):
        # in a child under a 1 GiB address-space limit: a mask of these sums
        # would take 10**12 bits
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        code = (
            "from degreecalc.intset import DegreeSet, sumset, weighted_sumset\n"
            "fin, t = DegreeSet.finite, 10**12\n"
            "print(sumset(fin([0, t]), fin([0, 3 * t])))\n"
            "print(weighted_sumset([(fin([0, 1, 5]), 2), (fin([0, t]), 3)]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC)},
            preexec_fn=limit_memory,
            timeout=60,
        )
        t = 10**12
        small = sorted({a + b for a in (0, 1, 5) for b in (0, 1, 5)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            str(fin([0, t, 3 * t, 4 * t])),
            str(fin(k * t + e for k in range(4) for e in small)),
        ]

    def test_progression_counts_against_closed_forms(self):
        # k + 1 terms for every k up to 900, powers of two and their neighbours
        # among them; as the first part and after a part that is not one
        for n in range(301):
            assert weighted_sumset([(fin([-2, 5]), n)]) == fin(range(-2 * n, 5 * n + 1, 7))
            assert weighted_sumset([(fin([0, 1, 3]), 1), (fin([0, 2]), n)]) == fin(
                [*range(2 * n + 2), 2 * n + 3]
            )
            assert weighted_sumset([(fin([0, 1, 3]), 1), (fin([4, 6, 8, 10]), n)]) == fin(
                [*range(4 * n, 10 * n + 2), 10 * n + 3]
            )

    @pytest.mark.parametrize("h", [1, 2, 7, 10**12])
    def test_progressions_match_the_reference(self, h):
        other = fin([0, 1, 5])  # not a progression
        for terms in (2, 3, 4, 5):
            prog = fin(3 - h + h * j for j in range(terms))
            for n in range(7):
                for m in range(3):
                    for parts in (
                        [(prog, n), (other, m)],
                        [(other, m), (prog, n)],
                        [(prog, n), (fin([0, h]), 3), (other, m)],
                        [(other, m), (fin([-1, 0, 1]), 2), (prog, n)],
                    ):
                        assert weighted_sumset(parts) == reference_fold(parts), parts

    def test_one_copy_pairs_match_naive(self, monkeypatch):
        # Subset-sum-like folds of one-copy parts {a, a + h}, h of either
        # sign, some with a common step: each is one shift-OR while the span
        # stays below _MASK_BITS and a _progression call from there on.
        limit = intset._MASK_BITS
        calls = []
        progression = intset._progression

        def counted(acc, h, k):
            calls.append((acc, h, k))
            return progression(acc, h, k)

        monkeypatch.setattr(intset, "_progression", counted)
        # {0, 2, 5, 7} and then a part that takes the span to limit - 1
        # (inline), limit or limit + 1
        for span in (limit - 1, limit, limit + 1):
            calls.clear()
            parts = [(fin([0, 5]), 1), (fin([-3, -1]), 1), (fin([7, span]), 1)]
            assert weighted_sumset(parts) == reference_fold(parts)
            assert len(calls) == (span >= limit), span
        rng = random.Random(43)
        spans = []
        for _ in range(40):
            scale = rng.choice([1, 1, 3])
            parts = []
            for _ in range(rng.randint(2, 24)):
                a, h = rng.randint(-60, 60), rng.choice([-1, 1]) * rng.randint(1, limit // 6)
                parts.append((fin([scale * a, scale * (a + h)]), 1))
            calls.clear()
            assert weighted_sumset(parts) == reference_fold(parts), parts
            span = sum(p.elements[1] - p.elements[0] for p, _ in parts) // scale
            spans.append((span, len(calls), len(parts)))
        assert any(span < limit and not n for span, n, _ in spans)
        assert any(span >= limit and 0 < n < count for span, n, count in spans)

    def test_counts_must_be_non_negative_ints(self):
        for p in (fin([0, 2]), fin([0, 1]), fin([0, 1, 3]), EMPTY, ALL_INTEGERS):
            for n in (-1, -3):
                with pytest.raises(ValueError):
                    weighted_sumset([(p, n)])
            for n in (1.0, 0.0, True, False, "2", None):
                with pytest.raises(TypeError):
                    weighted_sumset([(fin([0, 1]), 1), (p, n)])

    def test_overflow_is_found_before_the_sum_is_built(self):
        # a mask for this sum would need 2**64 bits
        with pytest.raises(IntegerOverflow):
            weighted_sumset([(fin([0, 1]), 2**64)])
        with pytest.raises(IntegerOverflow):
            weighted_sumset([(fin([-1, 0]), 2**64)])


class TestProductSet:
    def test_enumerated_pairs(self):
        assert product_set(fin([0, 1, 2]), fin([0, 1, 3])) == fin([0, 1, 2, 3, 6])

    def test_idempotents(self):
        assert product_set(fin([0, 1]), fin([0, 1])) == fin([0, 1])

    def test_zero_annihilates_all_integers(self):
        assert product_set(ALL_INTEGERS, fin([0])) == fin([0])

    def test_one_is_identity(self):
        for a in (fin([0, 2]), fin([-7, 1, 4])):
            assert equals(product_set(fin([1]), a), a)

    def test_zero_absorbs(self):
        assert product_set(fin([0]), fin([-3, 5])) == fin([0])

    def test_units_keep_all_integers(self):
        assert product_set(ALL_INTEGERS, fin([-1, 0, 1])).is_all
        assert product_set(ALL_INTEGERS, ALL_INTEGERS).is_all

    def test_all_integers_times_large_is_unrepresentable(self):
        with pytest.raises(UnrepresentableSet):
            product_set(ALL_INTEGERS, fin([0, 2]))

    def test_all_integers_times_empty(self):
        assert product_set(ALL_INTEGERS, EMPTY).is_empty

    @given(small_sets, small_sets)
    def test_commutative(self, a, b):
        assert equals(product_set(a, b), product_set(b, a))

    @given(small_sets, small_sets)
    def test_matches_pair_enumeration(self, a, b):
        assert equals(product_set(a, b), brute_pairs(a, b, lambda x, y: x * y))


class TestLatticeOps:
    def test_intersect_interval_pattern(self):
        # the {0..d} and {0, 1, d, d+1} pattern that pins down {0, 1, d}
        assert intersect(interval(0, 4), fin([0, 1, 4, 5])) == fin([0, 1, 4])

    def test_intersect_identity(self):
        a = fin([0, 3, 9])
        assert equals(intersect(a, ALL_INTEGERS), a)
        assert equals(intersect(ALL_INTEGERS, a), a)

    def test_intersect_disjoint_except_zero(self):
        assert intersect(fin([0, 3]), fin([0, 5])) == fin([0])

    def test_negate(self):
        assert negate(fin([0, 3])) == fin([-3, 0])
        assert negate(ALL_INTEGERS).is_all

    @given(small_sets)
    def test_negate_involution(self, a):
        assert equals(negate(negate(a)), a)

    def test_union(self):
        assert union(fin([0, 2]), fin([0, 3])) == fin([0, 2, 3])
        assert union(fin([1]), ALL_INTEGERS).is_all

    def test_contains(self):
        assert contains(ALL_INTEGERS, -17)
        assert contains(fin([0, 3]), 3)
        assert not contains(fin([0, 3]), 2)
        assert not contains(EMPTY, 0)

    def test_equals_is_extensional(self):
        assert equals(fin([2, 1, 1]), fin([1, 2]))
        assert not equals(fin([1]), ALL_INTEGERS)


class TestInterval:
    def test_examples(self):
        assert interval(-2, 2) == fin([-2, -1, 0, 1, 2])
        assert interval(0, 0) == fin([0])
        assert interval(3, 5) == fin([3, 4, 5])

    def test_reversed_bounds_rejected(self):
        with pytest.raises(InvalidInterval):
            interval(1, 0)

    def test_bounds_must_be_integers(self):
        with pytest.raises(TypeError):
            interval(True, 3)

    def test_int_subclass_bounds_are_refused_as_finite_refuses_them(self):
        class G(int):
            pass

        for lo, hi in [(G(1), 3), (1, G(3))]:
            with pytest.raises(TypeError, match="must be integers"):
                interval(lo, hi)
            with pytest.raises(TypeError, match="must be integers"):
                DegreeSet.finite([lo, hi])

    def test_more_elements_than_a_tuple_holds_is_overflow(self):
        # raised before any range is built
        for lo, hi in [(0, INT64_MAX), (INT64_MIN, 0), (INT64_MIN, INT64_MAX)]:
            with pytest.raises(IntegerOverflow, match=f"interval \\[{lo}, {hi}\\]"):
                interval(lo, hi)


class TestRepresentation:
    def test_sorted_dedup(self):
        assert fin([3, 1, 3, -2]).elements == (-2, 1, 3)

    def test_direct_constructor_validates(self):
        with pytest.raises(ValueError):
            DegreeSet((2, 1))
        with pytest.raises(ValueError):
            DegreeSet((1, 1))

    def test_overflow_detected_never_wrapped(self):
        big = 2**63 - 1
        with pytest.raises(IntegerOverflow):
            sumset(fin([big]), fin([1]))
        with pytest.raises(IntegerOverflow):
            product_set(fin([big]), fin([2]))
        with pytest.raises(IntegerOverflow):
            negate(fin([-(2**63)]))

    def test_str(self):
        assert str(fin([0, 3])) == "{0, 3}"
        assert str(ALL_INTEGERS) == "Z"
        assert str(EMPTY) == "{}"

    def test_json_round_trip(self):
        for a in (fin([-3, 0, 7]), EMPTY, ALL_INTEGERS):
            assert intset.from_jsonable(intset.to_jsonable(a)) == a

    def test_json_shapes(self):
        assert intset.to_jsonable(fin([1, 2])) == {"kind": "finite", "elements": [1, 2]}
        assert intset.to_jsonable(ALL_INTEGERS) == {"kind": "all_integers"}
        with pytest.raises(ValueError):
            intset.from_jsonable({"kind": "lattice"})
        with pytest.raises(ValueError):
            intset.from_jsonable({"kind": "finite", "elements": [1, True]})
        with pytest.raises(ValueError):
            intset.from_jsonable(5)


def seeded_sets(seed):
    """Empty, one-element, negative, all-of-Z and random sets at several scales."""
    rng = random.Random(seed)
    sets = [EMPTY, ALL_INTEGERS, ZERO_ONLY, fin([-7]), fin([-9, -4, -1]), interval(-6, 6)]
    for _ in range(40):
        scale = rng.choice([1, 1, 2, 3, 6, 10**6])
        size = rng.choice([1, 2, 3, 5, 8, 20])
        lo = rng.randint(-40, 40)
        sets.append(fin(lo + scale * rng.randint(-30, 30) for _ in range(size)))
    return sets


def assert_valid(r):
    """The result is a plain DegreeSet that the validating constructor accepts."""
    assert type(r) is DegreeSet
    assert r == DegreeSet(r.elements)


class TestTrustedResults:
    """Kernel results skip the constructor's checks; they must pass them."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_pairwise_results_are_valid(self, seed):
        sets = seeded_sets(seed)
        rng = random.Random(seed)
        for a in sets:
            assert_valid(negate(a))
            for b in rng.sample(sets, 8):
                s = sumset(a, b)
                assert_valid(s)
                assert s == naive_sumset(a, b)
                assert_valid(intersect(a, b))
                assert_valid(union(a, b))
                try:
                    assert_valid(product_set(a, b))
                except UnrepresentableSet:
                    assert a.is_all or b.is_all

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_weighted_sumsets_are_valid(self, seed):
        sets = [a for a in seeded_sets(seed) if a.is_all or len(a.elements) <= 8]
        rng = random.Random(seed)
        for a in sets:
            n = rng.randint(1, 5)
            w = weighted_sumset([(a, n)])
            assert_valid(w)
            assert w == reference_fold([(a, n)])
        for _ in range(60):
            # progressions of different steps, so that parts are gcd-reduced
            parts = [
                (fin(rng.choice([1, 2, 3, 6]) * x for x in rng.sample(range(-6, 7), rng.randint(1, 4))),
                 rng.randint(0, 4))
                for _ in range(rng.randint(1, 3))
            ]
            w = weighted_sumset(parts)
            assert_valid(w)
            assert w == reference_fold(parts)

    def test_intervals_are_valid(self):
        rng = random.Random(31)
        for _ in range(50):
            lo = rng.randint(-100, 100)
            assert_valid(interval(lo, lo + rng.randint(0, 50)))
        assert_valid(interval(INT64_MAX, INT64_MAX))
        assert_valid(interval(INT64_MIN, INT64_MIN + 2))


class TestBoundaries:
    """Checks that stay where values enter, or that no trusted path can skip."""

    def test_int64_overflow_is_raised(self):
        with pytest.raises(IntegerOverflow):
            negate(fin([INT64_MIN, 0]))
        with pytest.raises(IntegerOverflow):
            product_set(fin([INT64_MAX]), fin([2]))
        with pytest.raises(IntegerOverflow):
            weighted_sumset([(fin([0, INT64_MAX]), 2)])
        with pytest.raises(IntegerOverflow):
            fin([INT64_MAX + 1])
        with pytest.raises(IntegerOverflow):
            fin([0, 2**63])

    def test_negate_keeps_int64_max(self):
        assert negate(fin([-INT64_MAX, 0])) == fin([0, INT64_MAX])

    @pytest.mark.parametrize("bad", [True, False, 2.5, 1.0, 2.0, "3"])
    def test_finite_rejects_non_integers(self, bad):
        with pytest.raises(TypeError):
            fin([bad])
        with pytest.raises(TypeError):
            fin([-1, bad])
        # an equal integer must not hide it, whichever comes first
        for equal in [x for x in range(3) if x == bad]:
            for values in ([equal, bad], [bad, equal]):
                with pytest.raises(TypeError):
                    fin(values)

    @pytest.mark.parametrize("bad", [True, 2.5, 1.0, "3"])
    def test_from_jsonable_rejects_non_integers(self, bad):
        with pytest.raises(ValueError):
            intset.from_jsonable({"kind": "finite", "elements": [0, bad]})

    def test_constructor_validates_fully(self):
        with pytest.raises(TypeError):
            DegreeSet((0, 1.0))
        with pytest.raises(IntegerOverflow):
            DegreeSet((0, INT64_MAX + 1))
        with pytest.raises(ValueError):
            DegreeSet((3, 2))
