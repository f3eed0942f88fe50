"""Expression trees: dimensions, canonical form, topological predicates."""

import random

import pytest

from degreecalc.manifold import (
    CIRCLE,
    CircleBundle,
    ConnSum,
    MalformedExpr,
    Product,
    Surface,
    UnsupportedExpression,
    conn_sum,
    dimension,
    is_pi2_trivial,
    is_product_domination_free,
    normalize,
    product,
    sort_key,
    summand_multiset,
)

from conftest import random_expr


def K(g, e):
    return CircleBundle(g, e)


class TestDimension:
    def test_atoms(self):
        assert dimension(CIRCLE) == 1
        assert dimension(Surface(3)) == 2
        assert dimension(K(2, 5)) == 3

    def test_product_adds(self):
        assert dimension(Product((K(2, 5), K(3, 7)))) == 6
        assert dimension(Product((CIRCLE, Surface(2)))) == 3

    def test_conn_sum_keeps(self):
        assert dimension(ConnSum((K(2, 1), K(2, -1)))) == 3

    def test_mixed_dimension_sum_rejected(self):
        with pytest.raises(MalformedExpr):
            ConnSum((Surface(2), K(2, 3)))

    def test_circle_summand_rejected(self):
        with pytest.raises(MalformedExpr):
            ConnSum((CIRCLE, CIRCLE))

    def test_low_genus_bundle_rejected(self):
        with pytest.raises(MalformedExpr):
            K(1, 3)

    def test_negative_genus_surface_rejected(self):
        with pytest.raises(MalformedExpr):
            Surface(-1)

    def test_single_factor_product_rejected(self):
        with pytest.raises(MalformedExpr):
            Product((CIRCLE,))


class TestNormalize:
    def test_flatten_and_sort(self):
        nested = ConnSum((ConnSum((K(2, 3), K(2, 1))), K(2, 3)))
        assert normalize(nested) == ConnSum((K(2, 1), K(2, 3), K(2, 3)))

    def test_singleton_sum_collapses(self):
        assert normalize(ConnSum((K(2, 5),))) == K(2, 5)

    def test_product_keeps_two_factors(self):
        p = normalize(Product((Surface(2), CIRCLE)))
        assert isinstance(p, Product) and len(p.factors) == 2

    def test_nested_products_flatten(self):
        p = normalize(Product((Product((CIRCLE, CIRCLE)), Surface(1))))
        assert p == Product((CIRCLE, CIRCLE, Surface(1)))

    def test_idempotent_on_random_expressions(self):
        rng = random.Random(7)
        for _ in range(300):
            e = random_expr(rng)
            once = normalize(e)
            assert normalize(once) == once

    def test_preserves_dimension_and_leaves(self):
        rng = random.Random(8)

        def leaves(e):
            if isinstance(e, ConnSum):
                return [x for s in e.summands for x in leaves(s)]
            if isinstance(e, Product):
                return [x for f in e.factors for x in leaves(f)]
            return [e]

        for _ in range(300):
            e = random_expr(rng)
            ne = normalize(e)
            assert dimension(ne) == dimension(e)
            assert sorted(map(repr, leaves(ne))) == sorted(map(repr, leaves(e)))

    def test_helpers_normalize(self):
        assert conn_sum(K(2, 3), K(2, 1)) == ConnSum((K(2, 1), K(2, 3)))
        assert conn_sum(K(2, 3)) == K(2, 3)
        assert product(Surface(1), CIRCLE) == Product((CIRCLE, Surface(1)))


class TestPi2Trivial:
    def test_bundle_is_aspherical(self):
        assert is_pi2_trivial(K(2, 7)) is True

    def test_nontrivial_sum_has_essential_sphere(self):
        assert is_pi2_trivial(ConnSum((K(2, 3), K(2, 9)))) is False

    def test_singleton_sum(self):
        assert is_pi2_trivial(ConnSum((K(2, 5),))) is True

    def test_wrong_dimension_unsupported(self):
        with pytest.raises(UnsupportedExpression):
            is_pi2_trivial(Surface(2))

    def test_dim3_product_unsupported(self):
        with pytest.raises(UnsupportedExpression):
            is_pi2_trivial(Product((CIRCLE, Surface(2))))


class TestProductDominationFree:
    def test_twisted_bundle(self):
        assert is_product_domination_free(K(2, 5)) is True

    def test_trivial_bundle(self):
        assert is_product_domination_free(K(2, 0)) is False

    def test_sum_with_twisted_summand(self):
        assert is_product_domination_free(ConnSum((K(2, 5), K(2, 4)))) is True

    def test_sum_of_trivial_bundles(self):
        assert is_product_domination_free(ConnSum((K(2, 0), K(2, 0)))) is False

    def test_conservative_on_products(self):
        assert is_product_domination_free(Product((CIRCLE, Surface(2)))) is False

    def test_monotone_under_extra_summands(self):
        rng = random.Random(9)
        for _ in range(200):
            base = [K(rng.randint(2, 3), rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
            extra = [K(rng.randint(2, 3), rng.randint(-5, 5)) for _ in range(rng.randint(1, 2))]
            n1 = normalize(ConnSum(tuple(base)))
            n12 = normalize(ConnSum(tuple(base + extra)))
            if is_product_domination_free(n1):
                assert is_product_domination_free(n12)


class TestSummandMultiset:
    def test_sum(self):
        counts = summand_multiset(conn_sum(K(2, 1), K(2, 1), K(2, 3)))
        assert counts == {K(2, 1): 2, K(2, 3): 1}

    def test_atom(self):
        assert summand_multiset(K(2, 1)) == {K(2, 1): 1}


class TestMultisetRepresentation:
    def test_order_and_repeats_give_the_same_counts(self):
        a, b = K(2, 1), K(2, 3)
        expected = ((a, 2), (b, 1))
        assert ConnSum((a, b, a)).counts == expected
        assert ConnSum((b, a, a)).counts == expected
        assert ConnSum((a, a, b)) == ConnSum((b, a, a))

    def test_nesting_merges_counts_under_normalize(self):
        a, b = K(2, 1), K(2, 3)
        nested = ConnSum((a, ConnSum((b, a))))
        assert normalize(nested).counts == ConnSum((a, a, b)).counts
        twice = ConnSum((ConnSum((a, b)), ConnSum((b, a))))
        assert normalize(twice).counts == ((a, 2), (b, 2))

    def test_summands_expand_in_sort_key_order(self):
        p = Product((CIRCLE, Surface(2)))
        s = ConnSum((p, K(2, 3), K(2, -1), K(2, 3)))
        assert s.summands == (K(2, -1), K(2, 3), K(2, 3), p)

    def test_sort_key_orders_sums_as_their_summand_tuples(self):
        def expanded(m):
            if isinstance(m, ConnSum):
                return (3, (), tuple(expanded(s) for s in m.summands))
            if isinstance(m, Product):
                return (4, (), tuple(expanded(f) for f in m.factors))
            return sort_key(m)

        rng = random.Random(47)
        leaves = [K(2, e) for e in (-2, 1, 3)] + [Product((CIRCLE, Surface(2)))]
        sums = [
            ConnSum(rng.choice(leaves) for _ in range(rng.randint(1, 5))) for _ in range(300)
        ]
        sums += [ConnSum((s, rng.choice(leaves))) for s in sums[:50]]
        sums += [Product((rng.choice(sums), rng.choice(sums))) for _ in range(100)]
        assert sorted(sums, key=sort_key) == sorted(sums, key=expanded)

    def test_canonical_input_is_returned_as_is(self):
        s = ConnSum((K(2, 1), K(2, 1), Product((CIRCLE, Surface(2)))))
        assert normalize(s) is s
        p = Product((CIRCLE, s))
        assert normalize(p) is p

    def test_hundreds_of_repeats_are_stored_once(self):
        s = conn_sum(*[K(2, 5)] * 300, *[K(2, -5)] * 200)
        assert s.counts == ((K(2, -5), 200), (K(2, 5), 300))
        assert len(s.summands) == 500
        assert dimension(s) == 3
        assert is_product_domination_free(s)
        assert not is_pi2_trivial(s)
