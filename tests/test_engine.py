"""The degree-set calculator: closed forms, sums, pinches, coverings, products."""

import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degreecalc import engine
from degreecalc.dsl import parse_expr
from degreecalc.engine import (
    DimensionMismatch,
    NotDecided,
    RuleApplication,
    degree_bounds,
    degree_set_exact,
)
from degreecalc.intset import (
    ALL_INTEGERS,
    EMPTY,
    ZERO_ONLY,
    DegreeSet,
    IntegerOverflow,
    naive_sumset,
)
from degreecalc.manifold import (
    CIRCLE,
    CircleBundle,
    ConnSum,
    MalformedExpr,
    Surface,
    conn_sum,
    dimension,
    normalize,
    product,
    summand_multiset,
)
from degreecalc.realiser import SubsetSums, SumsetFamily, realise_subset_sums, realise_sumset

from conftest import random_expr, random_factor_pairs
from test_digests import product_pairs, target_sum_pairs

fin = DegreeSet.finite


def K(g, e):
    return CircleBundle(g, e)


def rules(bound):
    return [entry.rule for entry in bound.trace]


class TestMakeBound:
    def test_lower_outside_a_distinct_upper_is_an_invariant_error(self):
        with pytest.raises(engine.EngineInvariantError):
            engine._make_bound(fin([0, 1, 2]), fin([0, 2]), [])
        with pytest.raises(engine.EngineInvariantError):
            engine._make_bound(fin([5]), fin([0]), [])

    def test_upper_may_be_the_lower_set_itself(self):
        s = fin([0, 3])
        bound = engine._make_bound(s, s, [])
        assert bound.lower is s and bound.upper is s and bound.exact
        bound = engine._make_bound(s, fin([0, 3]), [])
        assert bound.exact


class TestCirclePair:
    def test_all_integers(self):
        bound = degree_bounds(CIRCLE, CIRCLE)
        assert bound.exact and bound.lower.is_all
        assert rules(bound) == ["circle_pair"]


class TestSurfacePair:
    def test_sphere_target_takes_all_degrees(self):
        for g in range(5):
            assert degree_set_exact(Surface(g), Surface(0)).is_all

    def test_torus_target(self):
        assert degree_set_exact(Surface(3), Surface(1)).is_all
        assert degree_set_exact(Surface(0), Surface(1)) == fin([0])

    def test_hyperbolic_target_interval(self):
        # maximal degree is floor((g-1)/(h-1))
        assert degree_set_exact(Surface(3), Surface(2)) == fin([-2, -1, 0, 1, 2])
        assert degree_set_exact(Surface(2), Surface(2)) == fin([-1, 0, 1])
        assert degree_set_exact(Surface(7), Surface(4)) == fin([-2, -1, 0, 1, 2])

    def test_genus_increase_only_zero(self):
        assert degree_set_exact(Surface(2), Surface(5)) == fin([0])
        assert degree_set_exact(Surface(0), Surface(2)) == fin([0])


class TestCircleBundlePair:
    def test_divides(self):
        assert degree_set_exact(K(2, 2), K(2, 6)) == fin([0, 3])

    def test_does_not_divide(self):
        assert degree_set_exact(K(2, 2), K(2, 3)) == fin([0])
        [step] = degree_bounds(K(2, 2), K(2, 3)).trace
        assert step.detail("quotient") is None
        assert step.detail("quotient", "none") == "none"

    def test_signed_quotients(self):
        assert degree_set_exact(K(2, -2), K(2, 6)) == fin([-3, 0])
        assert degree_set_exact(K(2, 3), K(2, -6)) == fin([-2, 0])
        assert degree_set_exact(K(2, -3), K(2, -6)) == fin([0, 2])

    def test_zero_target(self):
        assert degree_set_exact(K(2, 4), K(2, 0)) == fin([0])

    def test_divisibility_grid_with_orientation_symmetry(self):
        for i in range(1, 51):
            for j in range(-50, 51):
                got = degree_set_exact(K(2, i), K(2, j))
                if j % i == 0:
                    assert got == fin([0, j // i])
                    flipped = degree_set_exact(K(2, -i), K(2, j))
                    assert flipped == fin([0, -(j // i)])
                else:
                    assert got == fin([0])

    def test_closed_form_edges(self):
        # built without DegreeSet.finite: each set is the one finite() builds
        for i, j, elements in [
            (3, -6, (-2, 0)),
            (-1, 5, (-5, 0)),
            (-1, 2**63, (-(2**63), 0)),
            (4, 0, (0,)),
            (-4, 0, (0,)),
            (1, 2**63 - 1, (0, 2**63 - 1)),
        ]:
            [step] = degree_bounds(K(2, i), K(2, j)).trace
            assert step.produced.elements == elements
            assert step.produced == DegreeSet(elements) == fin([0, j // i])
            assert step.detail("quotient") == j // i

    def test_closed_form_keeps_the_constructors_errors(self):
        for i, j in [(1, 2**63), (-1, 2**63 + 1), (1, 10**20)]:
            message = f"^element {j // i} exceeds the signed 64-bit range$"
            with pytest.raises(IntegerOverflow, match=message):
                degree_bounds(K(2, i), K(2, j))
        # a float Euler number never reaches a pair: the bundle is refused as built
        with pytest.raises(MalformedExpr, match="must be ints"):
            degree_bounds(K(2, 2.0), K(2, 6))

    def test_euler_zero_source_left_open(self):
        bound = degree_bounds(K(2, 0), K(2, 5))
        assert not bound.exact
        assert bound.upper is None
        assert bound.lower == fin([0])

    def test_mixed_bases_left_open(self):
        bound = degree_bounds(K(2, 2), K(3, 4))
        assert not bound.exact and bound.upper is None

    def test_identity_lower_on_open_pairs(self):
        bound = degree_bounds(K(2, 0), K(2, 0))
        assert not bound.exact
        assert bound.lower == fin([0, 1])


class TestSourceConnectedSum:
    def test_degrees_add_over_summands(self):
        m = conn_sum(K(2, 1), K(2, 1), K(2, -1))
        assert degree_set_exact(m, K(2, 3)) == fin([-3, 0, 3, 6])

    def test_spec_sum_shape(self):
        m = parse_expr("K(2;1) # K(2;1)")
        assert degree_set_exact(m, K(2, 4)) == fin([0, 4, 8])

    def test_inexact_when_any_summand_open(self):
        m = conn_sum(K(2, 0), K(2, 1))
        bound = degree_bounds(m, K(2, 3))
        assert not bound.exact
        assert bound.lower == fin([0, 3])
        assert bound.upper is None

    def test_surface_sums_sound_but_open(self):
        m = conn_sum(Surface(2), Surface(2))
        bound = degree_bounds(m, Surface(2))
        assert not bound.exact
        # both pinches give [-1,1]; their sum is realised
        assert bound.lower == fin([-2, -1, 0, 1, 2])

    def test_surface_sums_all_integers_shortcut(self):
        m = conn_sum(Surface(2), Surface(3))
        bound = degree_bounds(m, Surface(1))
        assert bound.exact and bound.lower.is_all

    def test_upper_set_is_the_folded_lower_set_or_unknown(self):
        # One fold decides a sum of 3-manifolds mapping to a bundle: exact,
        # with the lower set as its own upper set, or no upper set at all.
        rng = random.Random(91)
        pairs = []
        while len(pairs) < 400:
            m = random_expr(rng)
            if isinstance(m, ConnSum) and dimension(m) == 3:
                pairs.append((m, K(rng.randint(2, 4), rng.randint(-9, 9))))
        for _ in range(150):
            for m, n in random_factor_pairs(rng):
                if isinstance(m, ConnSum):
                    pairs.extend((m, t) for t in summand_multiset(n))
        outcomes = set()
        for m, n in pairs:
            bound = degree_bounds(m, n)
            assert bound.upper is None or bound.upper is bound.lower, (m, n)
            [step] = [
                e for e in bound.trace if e.rule == "connected_sum_source_sum" and e.inputs == (m, n)
            ]
            assert step.detail("exact") == bound.exact, (m, n)
            outcomes.add(bound.exact)
        assert outcomes == {True, False}


class TestSourceSumOracle:
    def test_signed_euler_sums_match_direct_enumeration(self):
        # independent oracle: fold the bundle closed form by hand, signs and all
        rng = random.Random(55)
        for _ in range(200):
            eulers = [rng.choice([e for e in range(-6, 7) if e != 0]) for _ in range(rng.randint(1, 5))]
            target = rng.randint(-12, 12)
            expected = {0}
            for i in eulers:
                step = {0, target // i} if target % i == 0 else {0}
                expected = {x + y for x in expected for y in step}
            m = conn_sum(*(K(2, e) for e in eulers)) if len(eulers) > 1 else K(2, eulers[0])
            assert degree_set_exact(m, K(2, target)) == fin(expected), (eulers, target)

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.lists(st.integers(min_value=-30, max_value=30), max_size=5).map(fin),
                    st.just(EMPTY),
                    st.just(ALL_INTEGERS),
                ),
                st.integers(min_value=1, max_value=12),
            ),
            max_size=4,
        )
    )
    def test_fold_matches_pairwise_oracle(self, parts):
        expected = ZERO_ONLY
        for p, count in parts:
            for _ in range(count):
                expected = naive_sumset(expected, p)
        assert engine._fold_sumsets(parts) == expected


def _reference_achievable_sums(constructions, capacity):
    """The packing search as a recursion over Counters, kept as a reference:
    the same depth-first order and the same node budget.  Also says whether
    the budget ran out."""
    constructions = [(d, Counter(dict(enumerate(c)))) for d, c in constructions]
    sums = set()
    nodes = [engine._SUMS_BUDGET]

    def rec(idx, remaining, acc):
        if nodes[0] <= 0:
            return
        nodes[0] -= 1
        sums.add(acc)
        for t in range(idx, len(constructions)):
            d, carrier = constructions[t]
            if all(remaining.get(k, 0) >= v for k, v in carrier.items()):
                rest = remaining.copy()
                rest.subtract(carrier)
                rec(t, rest, acc + d)

    rec(0, Counter(dict(enumerate(capacity))), 0)
    return sums, nodes[0] == 0


def _random_packing(rng, large):
    """Constructions (degree, carrier) and a capacity over 1-4 summand types.
    A large capacity holds up to 399 copies, which the budget may cut; no
    more, so that the reference's recursion stays within Python's limit."""
    types = rng.randint(1, 4)
    constructions = []
    for _ in range(rng.randint(2, 4) if large else rng.randint(0, 6)):
        carrier = [rng.choice((0, 0, 0, 1) if large else (0, 0, 1, 1, 2, 3)) for _ in range(types)]
        carrier[rng.randrange(types)] += 1
        constructions.append((rng.randint(1, 12), tuple(carrier)))
    high = 399 // types if large else 8
    capacity = tuple(rng.randint(0, high) for _ in range(types))
    return constructions, capacity


class TestTargetConnectedSum:
    def test_flagship_shape(self):
        q = parse_expr("K(2;3) # K(2;3) # K(2;2) # K(2;4)")
        p = parse_expr("K(2;3) # K(2;4)")
        bound = degree_bounds(q, p)
        assert bound.exact
        assert bound.lower == fin([0, 1, 2])
        assert "target_summand_intersection" in rules(bound)
        assert "pinch_to_submanifold" in rules(bound)
        assert "fiberwise_covering_lift" in rules(bound)

    def test_upper_intersection_records_summand_sets(self):
        q = parse_expr("K(2;3) # K(2;3) # K(2;2) # K(2;4)")
        p = parse_expr("K(2;3) # K(2;4)")
        bound = degree_bounds(q, p)
        entry = next(e for e in bound.trace if e.rule == "target_summand_intersection")
        recorded = dict(
            (t, u) for t, u in entry.detail("summand_uppers")
        )
        assert recorded[K(2, 3)] == fin([0, 1, 2])
        assert recorded[K(2, 4)] == fin([0, 1, 2, 3])

    def test_pinch_needs_submultiset(self):
        m = conn_sum(K(2, 3), K(2, 5))
        n = conn_sum(K(2, 3), K(2, 4))
        bound = degree_bounds(m, n)
        assert 1 not in bound.lower

    def test_disjoint_constructions_add(self):
        m = parse_expr("K(2;1) # K(2;1) # K(2;2) # K(2;2)")
        n = parse_expr("K(2;1) # K(2;2)")
        bound = degree_bounds(m, n)
        # two disjoint degree-one pinches combine to degree two
        assert bound.exact
        assert bound.lower == fin([0, 1, 2])

    def test_negative_euler_covering(self):
        # the 2-fold fiberwise cover of K(2;-8) is K(2;-4)
        m = parse_expr("K(2;1) # K(2;1) # K(2;-4)")
        n = parse_expr("K(2;1) # K(2;-8)")
        bound = degree_bounds(m, n)
        assert bound.exact
        assert bound.lower == fin([0, 2])

    def test_trivial_bundle_coverings(self):
        m = parse_expr("K(2;0) # K(2;0) # K(2;5) # K(2;5)")
        n = parse_expr("K(2;0) # K(2;5)")
        bound = degree_bounds(m, n)
        assert bound.upper is None
        assert bound.lower == fin([0, 1, 2])

    def test_atom_source_cannot_reach_sum(self):
        bound = degree_bounds(K(2, 12), conn_sum(K(2, 3), K(2, 4)))
        assert bound.lower == fin([0])
        assert bound.upper == fin([0])
        assert bound.exact

    def test_packing_matches_recursive_reference(self):
        rng = random.Random(47)
        cuts = 0
        for i in range(1000):
            constructions, capacity = _random_packing(rng, large=i % 50 == 0)
            want, cut = _reference_achievable_sums(constructions, capacity)
            assert engine._achievable_sums(constructions, capacity) == want
            cuts += cut
        assert cuts >= 10

    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 50])
    def test_small_budget_cuts_the_reference_prefix(self, monkeypatch, budget):
        monkeypatch.setattr(engine, "_SUMS_BUDGET", budget)
        rng = random.Random(budget)
        for _ in range(200):
            constructions, capacity = _random_packing(rng, large=False)
            want, _ = _reference_achievable_sums(constructions, capacity)
            assert engine._achievable_sums(constructions, capacity) == want


class TestProducts:
    def test_product_of_exact_factors(self):
        q1 = parse_expr("K(2;5) # K(2;5) # K(2;2) # K(2;4)")
        p1 = parse_expr("K(2;5) # K(2;4)")
        q2 = parse_expr("K(2;7) # K(2;7) # K(2;7) # K(2;3) # K(2;9)")
        p2 = parse_expr("K(2;7) # K(2;9)")
        bound = degree_bounds(product(q1, q2), product(p1, p2))
        assert bound.exact
        assert bound.lower == fin([0, 1, 2, 3, 6])
        assert "product_exactness_chain" in rules(bound)

    def test_factor_order_is_irrelevant(self):
        q1 = parse_expr("K(2;5) # K(2;5) # K(2;2) # K(2;4)")
        p1 = parse_expr("K(2;5) # K(2;4)")
        q2 = parse_expr("K(2;7) # K(2;7) # K(2;7) # K(2;3) # K(2;9)")
        p2 = parse_expr("K(2;7) # K(2;9)")
        a = degree_bounds(product(q1, q2), product(p1, p2))
        b = degree_bounds(product(q2, q1), product(p2, p1))
        assert a == b

    def test_tori_take_all_degrees(self):
        t3 = product(CIRCLE, CIRCLE, CIRCLE)
        bound = degree_bounds(t3, t3)
        assert bound.exact and bound.lower.is_all

    def test_unrepresentable_lower_is_clamped(self):
        m = product(CIRCLE, K(2, 1))
        n = product(CIRCLE, K(2, 2))
        bound = degree_bounds(m, n)
        assert not bound.exact
        assert bound.lower == fin([-2, 0, 2])
        entry = next(e for e in bound.trace if e.rule == "product_of_factor_degrees")
        assert entry.detail("lower_truncated_to_units") is True

    def test_product_against_same_product_of_twisted_bundles(self):
        m = product(CIRCLE, K(2, 1))
        bound = degree_bounds(m, m)
        assert bound.exact and bound.lower.is_all

    def test_identical_twisted_blocks_stay_open(self):
        # every target factor sees a source factor with degree set {0, 1},
        # so the separation condition fails and only bounds are reported
        m = product(K(2, 1), K(2, 1), K(2, 1))
        bound = degree_bounds(m, m)
        assert not bound.exact
        assert bound.lower == fin([0, 1])

    def test_factor_count_mismatch_left_open(self):
        n = product(K(2, 1), product(K(2, 1), K(2, 1)))  # flattens to 3 factors
        other = product(Surface(2), Surface(2), Surface(2), CIRCLE, CIRCLE, CIRCLE)
        bound = degree_bounds(other, n)
        assert not bound.exact
        assert bound.lower == fin([0])

    def test_no_exactness_without_kill_summand(self):
        # identical twisted blocks in both factors: the second target factor
        # cannot be separated from the first source factor
        q = parse_expr("K(2;3) # K(2;3) # K(2;2) # K(2;4)")
        p = parse_expr("K(2;3) # K(2;4)")
        bound = degree_bounds(product(q, q), product(p, p))
        assert not bound.exact
        assert bound.lower == fin([0, 1, 2, 4])  # products of {0,1,2} with itself


    def test_trivial_bundle_target_factor_is_not_domination_free(self):
        # K(2;0) is the product of a surface and a circle, so a product
        # source may dominate it and the chain's side condition fails
        bound = degree_bounds(product(K(2, 1), K(2, -1)), product(K(2, 3), K(2, 0)))
        assert not bound.exact
        assert bound.lower == fin([0]) and bound.upper is None


def backtracking_chain_search(pairs):
    """The exhaustive chain search the greedy one replaced, kept as reference:
    depth first over orders in index order, re-testing kills on every branch."""
    kills = []

    def admissible(placed, candidate):
        if not placed:
            return []
        _, n_c = pairs[candidate]
        if not engine.is_product_domination_free(n_c):
            return None
        found = []
        for p in placed:
            q = pairs[p][0]
            k = engine._kill_summand(q, n_c)
            if k is None:
                return None
            found.append((q, k))
        return found

    def rec(placed, remaining):
        if not remaining:
            return placed
        for idx, candidate in enumerate(remaining):
            step_kills = admissible(placed, candidate)
            if step_kills is None:
                continue
            result = rec(placed + [candidate], remaining[:idx] + remaining[idx + 1 :])
            if result is not None:
                kills.extend(step_kills)
                return result
        return None

    order = rec([], list(range(len(pairs))))
    if order is None:
        return None
    return order, kills


class TestChainSearch:
    def test_matches_the_backtracking_reference(self):
        rng = random.Random(1207)
        found = 0
        for _ in range(1000):
            pairs = random_factor_pairs(rng)
            expected = backtracking_chain_search(pairs)
            assert engine._chain_search(pairs) == expected, pairs
            found += expected is not None
        # both outcomes are covered
        assert 250 <= found <= 750

    @pytest.mark.parametrize(
        "target, exact",
        [
            ("K(2;6) x K(2;12) x K(2;18) x K(2;24) x K(2;30) x K(2;60)", False),
            ("K(2;1) x K(2;2) x K(2;3) x K(2;4) x K(2;5) x K(2;6)", True),
        ],
        ids=["undecided", "decided"],
    )
    def test_each_kill_is_tested_once_per_search(self, monkeypatch, target, exact):
        # backtracking made 51,504 kill tests over the 720 searches of the
        # undecided pair, and 412 in the one search of the decided pair
        engine.clear_cache()
        calls = []
        kill_summand, chain_search = engine._kill_summand, engine._chain_search

        def counted_kill_summand(source, target):
            calls[-1] += 1
            return kill_summand(source, target)

        def counted_chain_search(pairs):
            calls.append(0)
            return chain_search(pairs)

        monkeypatch.setattr(engine, "_kill_summand", counted_kill_summand)
        monkeypatch.setattr(engine, "_chain_search", counted_chain_search)
        m = parse_expr("K(2;1) x K(2;2) x K(2;3) x K(2;4) x K(2;5) x K(2;6)")
        bound = degree_bounds(m, parse_expr(target))
        engine.clear_cache()
        assert calls and max(calls) <= 30
        assert bound.exact == exact


class TestPairings:
    def test_lazy_with_the_positional_pairing_first(self):
        mf = (K(2, 1), K(2, 2), K(2, 3))
        nf = (K(2, 4), K(2, 5), K(2, 6))
        pairings = engine._pairings(mf, nf)
        assert iter(pairings) is pairings
        assert next(pairings) == list(zip(mf, nf))
        assert len(list(pairings)) == 5

    def test_repeated_factors_give_each_pairing_once_in_permutation_order(self):
        a, b, c, d = K(2, 1), K(2, 2), K(2, 3), K(2, 4)
        assert list(engine._pairings((a, a, b), (c, c, d))) == [
            [(a, c), (a, c), (b, d)],
            [(a, c), (a, d), (b, c)],
            [(a, d), (a, c), (b, c)],
        ]

    def test_incompatible_dimensions_are_skipped(self):
        mf = (CIRCLE, Surface(2), K(2, 1))
        nf = (Surface(3), K(2, 2), CIRCLE)
        assert list(engine._pairings(mf, nf)) == [
            [(mf[0], nf[2]), (mf[1], nf[0]), (mf[2], nf[1])]
        ]
        circles = (CIRCLE, CIRCLE, Surface(2)), (Surface(3), CIRCLE, CIRCLE)
        assert list(engine._pairings(*circles)) == [
            [(CIRCLE, CIRCLE), (CIRCLE, CIRCLE), (Surface(2), Surface(3))]
        ]
        assert list(engine._pairings((CIRCLE, K(2, 1)), (Surface(2), K(2, 1)))) == []

    def test_more_than_six_factors_try_the_identity_only(self):
        mf = tuple(K(2, e) for e in range(1, 8))
        nf = tuple(K(2, e) for e in range(11, 18))
        assert list(engine._pairings(mf, nf)) == [list(zip(mf, nf))]
        assert list(engine._pairings(mf, nf[1:] + (CIRCLE,))) == []


class TestDispatch:
    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            degree_bounds(CIRCLE, Surface(2))

    def test_not_decided_carries_bound(self):
        with pytest.raises(NotDecided) as err:
            degree_set_exact(K(2, 0), K(2, 5))
        assert err.value.bound.lower == fin([0])

    def test_mixed_shapes_never_raise(self):
        pairs = [
            ("S1 x S(1)", "K(2;0)"),
            ("K(2;0)", "S1 x S(1)"),
            ("S(1) x S1", "K(2;3) # K(2;4)"),
            ("K(2;1) # K(2;2)", "S1 x S(2)"),
            ("S1 x S1", "S(1)"),
        ]
        for m_text, n_text in pairs:
            bound = degree_bounds(parse_expr(m_text), parse_expr(n_text))
            assert 0 in bound.lower


class TestInvariants:
    def test_zero_always_realised(self):
        rng = random.Random(21)
        checked = 0
        while checked < 200:
            m, n = random_expr(rng), random_expr(rng)
            from degreecalc.manifold import dimension

            if dimension(m) != dimension(n):
                continue
            bound = degree_bounds(m, n)
            assert 0 in bound.lower
            if bound.upper is not None and not bound.upper.is_all:
                assert set(bound.lower.elements) <= set(bound.upper.elements)
            checked += 1

    def test_results_agree_on_normalized_inputs(self):
        rng = random.Random(22)
        checked = 0
        while checked < 120:
            m, n = random_expr(rng), random_expr(rng)
            from degreecalc.manifold import dimension

            if dimension(m) != dimension(n):
                continue
            assert degree_bounds(m, n) == degree_bounds(normalize(m), normalize(n))
            checked += 1

    def test_upper_shrinks_when_target_grows(self):
        q = parse_expr("K(2;3) # K(2;3) # K(2;2) # K(2;4)")
        n1 = parse_expr("K(2;3)")
        n12 = parse_expr("K(2;3) # K(2;4)")
        u1 = degree_bounds(q, n1).upper
        u12 = degree_bounds(q, n12).upper
        assert set(u12.elements) <= set(u1.elements)

    def test_exact_requires_meeting_bounds(self):
        bound = degree_bounds(K(2, 0), K(2, 5))
        assert bound.exact == (bound.upper is not None and bound.lower == bound.upper)

    def test_no_trace_repeats_a_step(self, monkeypatch):
        # _make_bound skips its dedup where no step can repeat, which holds
        # only while a one-step trace is the rule's own step on its own pair:
        # a rule that handed back a child's step as its own would break it
        computed = []
        compute = engine._compute

        def recorded(m, n):
            bound = compute(m, n)
            computed.append(((m, n), bound))
            return bound

        monkeypatch.setattr(engine, "_compute", recorded)
        engine.clear_cache()
        rng = random.Random(24)
        pairs = []
        while len(pairs) < 300:
            m, n = random_expr(rng), random_expr(rng)
            if dimension(m) == dimension(n):
                pairs.append((m, n))
        for _ in range(100):
            factors = random_factor_pairs(rng)
            pairs += factors
            pairs.append(tuple(product(*side) for side in zip(*factors)))
        pairs += product_pairs() + target_sum_pairs()
        for m, n in pairs:
            degree_bounds(m, n)
        for values in [(1, 2, 3), (5, -5, 7, 7, 0), tuple(range(-20, 21, 3))]:
            realise_subset_sums(SubsetSums(values))
        realise_sumset(SumsetFamily((2, 3), (40, 1), (3, 0)))

        rules_seen = set()
        for key, bound in computed:
            trace = bound.trace
            assert len(set(trace)) == len(trace), key
            if len(trace) == 1:
                assert trace[0].inputs == key, key
            rules_seen.add((len(trace) == 1, trace[-1].rule))
        assert (False, "connected_sum_source_sum") in rules_seen
        assert (True, "circle_bundle_pair") in rules_seen
        assert (False, "product_exactness_chain") in rules_seen


def test_a_step_copied_into_another_process_hashes_as_it_does_there(tmp_path):
    # a string's hash differs between processes, so a kept hash must not travel
    step = RuleApplication(
        "circle_bundle_pair", (K(2, 2), K(2, 6)), DegreeSet.finite((0, 3)), (("quotient", 3),)
    )
    hash(step)
    path = tmp_path / "step.pickle"
    path.write_bytes(pickle.dumps(step))
    code = (
        "import pickle, sys; s = pickle.loads(open(sys.argv[1], 'rb').read()); "
        "print(hash(s) == hash((s.rule, s.inputs, s.produced, s.details)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-c", code, str(path)],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.stdout.strip() == "True", result.stderr
