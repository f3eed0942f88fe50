"""Expression trees: dimensions, canonical form, topological predicates."""

import copy
import pickle
import random
import time

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

from degreecalc.dsl import parse_expr, print_expr
from degreecalc.intset import INT64_MAX, INT64_MIN

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

    def test_empty_sum_rejected(self):
        with pytest.raises(MalformedExpr):
            ConnSum(())

    def test_non_expression_rejected(self):
        for check in (dimension, normalize, lambda x: Product((CIRCLE, x)), conn_sum):
            with pytest.raises(MalformedExpr, match="^not a manifold expression: 5$"):
                check(5)

    def test_circle_summand_rejected(self):
        with pytest.raises(MalformedExpr):
            ConnSum((CIRCLE, CIRCLE))

    @pytest.mark.parametrize("count", [0, -1])
    def test_non_positive_summand_count_rejected(self, count):
        # a zero count would make a second value for K(2;3) # K(2;3)
        with pytest.raises(MalformedExpr):
            ConnSum({K(2, 1): count, K(2, 3): 2})

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
        # only conn_sum collapses: ConnSum refuses a lone summand
        assert conn_sum(K(2, 5)) == K(2, 5)
        with pytest.raises(MalformedExpr, match="two or more summands"):
            ConnSum((K(2, 5),))

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


def _lone(x):
    """A sum nesting ``x`` once, built without the constructor's checks."""
    return ConnSum._trusted(((x, 1),))


LONE_BUILDS = {
    "tuple": lambda x: ConnSum((x,)),
    "mapping": lambda x: ConnSum({x: 1}),
    "nested": lambda x: ConnSum((_lone(x),)),
}


class TestOneSummandRefused:
    """A connected sum holds two or more summands, counted with multiplicity."""

    @pytest.mark.parametrize("build", LONE_BUILDS.values(), ids=LONE_BUILDS.keys())
    @pytest.mark.parametrize("x", [K(2, 5), Surface(3), Product((CIRCLE, Surface(2)))], ids=repr)
    def test_lone_summand_is_refused(self, build, x):
        with pytest.raises(
            MalformedExpr, match=r"^connected sum needs two or more summands \(with multiplicity\)$"
        ):
            build(x)
        twice = ConnSum({x: 2})
        assert twice.counts == ((x, 2),) and twice.summands == (x, x)
        assert ConnSum((_lone(x), x)) == twice
        assert conn_sum(x) is x

    def test_other_refusals_keep_their_messages(self):
        cases = [
            (lambda: ConnSum(()), "connected sum needs at least one summand"),
            (lambda: ConnSum({K(2, 1): 0}), "connected sum counts must be positive"),
            (lambda: ConnSum((CIRCLE,)), "connected sums of 1-manifolds are not allowed"),
            (lambda: conn_sum(CIRCLE), "connected sums of 1-manifolds are not allowed"),
        ]
        for build, message in cases:
            with pytest.raises(MalformedExpr) as info:
                build()
            assert str(info.value) == message


class TestCanonicalConstruction:
    def test_product_sorts_its_factors(self):
        assert Product((Surface(1), CIRCLE)).factors == (CIRCLE, Surface(1))

    def test_product_flattens_its_factors(self):
        p = Product((Product((Surface(1), CIRCLE)), conn_sum(Surface(2))))
        assert p.factors == (CIRCLE, Surface(1), Surface(2))

    def test_random_expressions_are_built_canonical(self):
        rng = random.Random(11)
        for _ in range(5000):
            e = random_expr(rng)
            assert normalize(e) is e


class TestPi2Trivial:
    def test_bundle_is_aspherical(self):
        assert is_pi2_trivial(K(2, 7)) is True

    def test_nontrivial_sum_has_essential_sphere(self):
        assert is_pi2_trivial(ConnSum((K(2, 3), K(2, 9)))) is False

    def test_repeated_summand_has_essential_sphere(self):
        assert is_pi2_trivial(ConnSum((K(2, 1), K(2, 1)))) is False

    def test_singleton_sum(self):
        # a lone summand is the summand itself; every sum has an essential sphere
        assert is_pi2_trivial(conn_sum(K(2, 5))) is True
        assert is_pi2_trivial(ConnSum({K(2, 5): 2})) is False

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
        assert is_product_domination_free(Product((K(2, 5), K(3, 7)))) is False

    def test_monotone_under_extra_summands(self):
        rng = random.Random(9)
        for _ in range(200):
            base = [K(rng.randint(2, 3), rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
            extra = [K(rng.randint(2, 3), rng.randint(-5, 5)) for _ in range(rng.randint(1, 2))]
            n1 = conn_sum(*base)
            n12 = conn_sum(*base, *extra)
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
        assert normalize(nested) is nested
        assert nested.counts == ConnSum((a, a, b)).counts == ((a, 2), (b, 1))
        assert ConnSum((ConnSum((b, a)), ConnSum((a, a)))).counts == ((a, 3), (b, 1))
        twice = ConnSum((ConnSum((a, b)), ConnSum((b, a))))
        assert normalize(twice) is twice
        assert twice.counts == ((a, 2), (b, 2))

    def test_flattening_merges_counts_without_expanding_copies(self):
        inner = ConnSum({K(2, 3): 1, K(2, 5): 1})
        start = time.perf_counter()
        flat = ConnSum({inner: 10**7})
        assert time.perf_counter() - start < 1
        assert flat == ConnSum({K(2, 3): 10**7, K(2, 5): 10**7})

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
            conn_sum(*(rng.choice(leaves) for _ in range(rng.randint(1, 5)))) for _ in range(300)
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


def _sums_and_products(e):
    """e and every sum and product nested in it."""
    children = [s for s, _ in e.counts] if isinstance(e, ConnSum) else getattr(e, "factors", ())
    own = [e] if isinstance(e, (ConnSum, Product)) else []
    return own + [x for c in children for x in _sums_and_products(c)]


class TestKeptHash:
    def test_hash_is_the_dataclass_hash(self):
        rng = random.Random(33)
        for _ in range(500):
            for e in _sums_and_products(random_expr(rng)):
                fields = (e.counts,) if isinstance(e, ConnSum) else (e.factors,)
                assert hash(e) == hash(fields) == e._hash, e

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_carry_no_kept_hash(self, duplicate):
        rng = random.Random(34)
        exprs = [e for e in (random_expr(rng) for _ in range(200)) if _sums_and_products(e)]
        for e in exprs:
            nested = _sums_and_products(e)
            list(map(hash, nested))
            again = duplicate(e)
            # a shallow copy shares the nested nodes, and with them their hashes
            fresh = [x for x in _sums_and_products(again) if not any(x is y for y in nested)]
            assert fresh[0] is again and not any("_hash" in vars(x) for x in fresh)
            assert again == e and hash(again) == hash(e)


class G(int):
    """An int subclass with a repr of its own."""

    def __repr__(self):
        return f"G({int(self)})"


class TestPlainInts:
    """A genus, an Euler number and a summand count are plain ints."""

    @pytest.mark.parametrize("bad", [True, 2.0, G(2)], ids=["bool", "float", "subclass"])
    def test_constructors_refuse_what_is_not_an_int(self, bad):
        builds = [
            lambda: Surface(bad),
            lambda: K(bad, 2),
            lambda: K(3, bad),
            lambda: ConnSum({K(2, 1): bad, K(2, 3): 1}),
            lambda: ConnSum({ConnSum((K(2, 1), K(2, 3))): bad}),
        ]
        for build in builds:
            with pytest.raises(MalformedExpr, match="must be (an int|ints)"):
                build()

    def test_equal_expressions_print_alike_and_parse_back(self):
        rng = random.Random(39)
        exprs = [random_expr(rng) for _ in range(3000)]
        edges = [INT64_MIN, INT64_MIN + 1, -1, 0, 1, 2, INT64_MAX - 1, INT64_MAX]
        edges += [10**18, -(10**18), 10**19, -(10**19), 2**64, -(2**64), 10**30]
        exprs += [K(2, e) for e in edges] + [K(g, 1) for g in edges if g >= 2]
        exprs += [Surface(g) for g in edges if g >= 0]
        texts = {}
        for e in exprs:
            text = print_expr(e)
            assert parse_expr(text) == e, text
            # a fresh equal object, with no text kept on it, prints alike
            assert print_expr(pickle.loads(pickle.dumps(e))) == text
            assert texts.setdefault(e, text) == text
