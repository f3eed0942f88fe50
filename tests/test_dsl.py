"""Parser and printer: grammar, precedence, errors, round trips."""

import copy
import dataclasses
import pickle
import random

import pytest

from degreecalc import dsl, engine
from degreecalc.dsl import MAX_NESTING, ParseError, SemanticError, parse_expr, print_expr
from degreecalc.manifold import (
    CIRCLE,
    Circle,
    CircleBundle,
    ConnSum,
    MalformedExpr,
    Product,
    Surface,
    conn_sum,
    dimension,
    normalize,
)

from conftest import random_expr


def K(g, e):
    return CircleBundle(g, e)


class TestParse:
    def test_connected_sum(self):
        assert parse_expr("K(2;3) # K(2;4)") == ConnSum((K(2, 3), K(2, 4)))

    def test_sum_binds_tighter_than_product(self):
        expr = parse_expr("K(2;5) x K(2;7) # K(2;9)")
        assert expr == Product((K(2, 5), ConnSum((K(2, 7), K(2, 9)))))

    def test_atoms(self):
        assert parse_expr("S1") == CIRCLE
        assert parse_expr("S(0)") == Surface(0)
        assert parse_expr(" K( 3 ; -4 ) ") == K(3, -4)

    def test_parens(self):
        expr = parse_expr("(K(2;1) # K(2;2)) x S1")
        assert expr == Product((CIRCLE, ConnSum((K(2, 1), K(2, 2)))))

    def test_result_is_normalized(self):
        assert parse_expr("K(2;3) # K(2;1)") == ConnSum((K(2, 1), K(2, 3)))

    def test_low_genus_is_semantic_error(self):
        with pytest.raises(SemanticError):
            parse_expr("K(1;3)")

    def test_mixed_dimension_sum_is_semantic_error(self):
        with pytest.raises(SemanticError):
            parse_expr("S(2) # K(2;3)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("K(2;3) # ")
        assert err.value.line == 1
        assert err.value.column == 10
        assert "K" in err.value.expected

    @pytest.mark.parametrize("digit", ["²", "٢", "１"])
    def test_non_ascii_digit_is_syntax_error(self, digit):
        with pytest.raises(ParseError) as err:
            parse_expr(f"K(2;{digit})")
        assert (err.value.line, err.value.column) == (1, 5)

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("K(2;3)\n  # T", 2, 5),
            ("K(2;3) #\n\n K(2;", 3, 6),
            ("K(2;3) #\n K(2;1) x\n", 3, 1),
            ("S1 x\n\tS1 x S1\n  S1", 3, 3),
            ("K(2;3)\n # K(2;-)", 2, 8),
        ],
    )
    def test_later_lines_count_columns_from_the_line_start(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_beyond_int_conversion_limit_is_syntax_error(self, sign):
        with pytest.raises(ParseError) as err:
            parse_expr(f"K(2;{sign}{'1' * 5000})")
        assert (err.value.line, err.value.column) == (1, 5)
        assert "5000 digits" in str(err.value)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError) as err:
            parse_expr("K(2,3)")
        assert ";" in err.value.expected

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_expr("T(2;3)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("S1 S1")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expr("   ")

    def test_nesting_limit(self):
        deepest = "(" * MAX_NESTING + "K(2;1)" + ")" * MAX_NESTING
        assert parse_expr(deepest) == K(2, 1)
        with pytest.raises(ParseError) as err:
            parse_expr("(" * 3000 + "K(2;1)" + ")" * 3000)
        assert err.value.line == 1
        assert err.value.column == MAX_NESTING + 1


class TestPrint:
    def test_sum(self):
        assert print_expr(ConnSum((K(2, 1), K(2, 3)))) == "K(2;1) # K(2;3)"

    def test_product(self):
        assert print_expr(Product((K(2, 2), K(2, 3)))) == "K(2;2) x K(2;3)"

    def test_product_inside_sum_is_parenthesized(self):
        expr = ConnSum((K(2, 1), Product((CIRCLE, Surface(2)))))
        text = print_expr(expr)
        assert text == "K(2;1) # (S1 x S(2))"
        assert parse_expr(text) == normalize(expr)

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("(S1 x S1) # (S1 x S1) # S(2)", "S(2) # (S1 x S1) # (S1 x S1)"),
            (
                "(S1 x S(2)) # K(2;5) # (S1 x S(2)) # K(2;3) # K(2;3)",
                "K(2;3) # K(2;3) # K(2;5) # (S1 x S(2)) # (S1 x S(2))",
            ),
        ],
    )
    def test_repeated_summands_print_once_per_copy(self, text, printed):
        expr = parse_expr(text)
        assert print_expr(expr) == printed
        assert parse_expr(printed) == expr

    def test_round_trip_on_random_expressions(self):
        rng = random.Random(11)
        for _ in range(1000):
            e = random_expr(rng)
            text = print_expr(e)
            assert parse_expr(text) == normalize(e)
            assert parse_expr(text) == dsl._parse_tokens(text)

    def test_print_is_stable_under_normalize(self):
        rng = random.Random(12)
        for _ in range(200):
            e = random_expr(rng)
            assert print_expr(e) == print_expr(normalize(e))


class TestStoredText:
    """print_expr computes an object's text once and keeps it on the object."""

    def test_second_print_of_an_object_does_not_print_again(self):
        expr = ConnSum((K(2, 1), Product((Circle(), Surface(2)))))
        parts = _parts(expr)
        assert not any("_text" in vars(x) for x in parts)
        first = print_expr(expr)
        kept = [vars(x)["_text"] for x in parts]
        assert print_expr(expr) is first
        # no part's text was set again
        assert all(vars(x)["_text"] is text for x, text in zip(parts, kept))

    def test_first_and_second_print_equal_the_uncached_text(self):
        rng = random.Random(13)
        for _ in range(2000):
            e = random_expr(rng)
            expected = print_expr(_rebuilt(e))
            assert print_expr(e) == expected
            assert print_expr(e) == expected

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_value_hash_repr_and_text(self, duplicate):
        expr = parse_expr("K(2;1) # K(2;1) # (S1 x S(2)) # K(3;-4)")
        text, before = print_expr(expr), repr(expr)
        again = duplicate(expr)
        assert again == expr and hash(again) == hash(expr)
        assert repr(again) == repr(expr) == before
        assert text not in before and "_text" not in before
        assert print_expr(again) == text

    @pytest.mark.parametrize("summand_first", [False, True])
    def test_one_summand_sum_prints_as_its_summand(self, summand_first):
        # ConnSum refuses a lone summand; conn_sum returns it, so it prints as itself
        summand = Product((CIRCLE, Surface(3)))
        if summand_first:
            print_expr(summand)
        with pytest.raises(MalformedExpr, match="two or more summands"):
            ConnSum((summand,))
        assert conn_sum(summand) is summand
        assert print_expr(conn_sum(summand)) == print_expr(summand) == "S1 x S(3)"

    def test_non_expression_is_malformed(self):
        with pytest.raises(MalformedExpr):
            print_expr("K(2;1)")

    def test_deep_alternating_sum_and_product_prints(self):
        # the printer recurses once per level, so it must not add frames per level
        def deep():
            e = K(2, 1)
            for level in range(400):
                if level % 2:
                    e = Product((e, Circle()))
                else:
                    d = dimension(e)
                    e = ConnSum((e, Product((Circle(),) * d) if d > 3 else K(2, 2)))
            return e

        e = deep()
        text = print_expr(e)
        assert text == print_expr(deep())
        assert text.count("#") == 200
        assert all("_text" in vars(x) for x in _parts(e))


def _parts(e):
    """e and every expression nested in it, each summand once."""
    children = [s for s, _ in e.counts] if isinstance(e, ConnSum) else getattr(e, "factors", ())
    return [e] + [x for c in children for x in _parts(c)]


def _rebuilt(e):
    """An equal expression built again from e's fields, with no text kept on it."""
    if isinstance(e, ConnSum):
        return ConnSum({_rebuilt(s): c for s, c in e.counts})
    if isinstance(e, Product):
        return Product(tuple(map(_rebuilt, e.factors)))
    return dataclasses.replace(e)


class TestOneValue:
    """Every expression is canonical as constructed and prints through its parts."""

    def test_normalize_print_and_parse_on_random_expressions(self):
        rng = random.Random(88)
        for _ in range(1000):
            e = random_expr(rng)
            assert normalize(e) is e
            assert parse_expr(print_expr(e)) == e
            assert all("_text" in vars(x) for x in _parts(e))


def _outcome(parse, text):
    """What parsing ``text`` gives: the expression, or the error's type and message."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


class TestCanonicalPath:
    """Text in print_expr's layout parses each distinct atom once; every other
    text, and every failure, takes the tokenizer path (dsl._parse_tokens)."""

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "K(2;1) # ",
            "K(2;1)#K(2;1)",
            "S(2) # K(2;1)",
            "K(1;2)",
            pytest.param("K(2;" + "7" * 5000 + ")", id="5000-digit-euler"),
            pytest.param("K(2;" + "7" * 19 + ") # K(2;1)", id="19-digit-euler"),
            "S1 # S1",
            "S(-1)",
            "K(2;1) x x S1",
            "K(2;1)  # K(2;1)",
            "S1 x (S1 x S(2))",
            "K(2;1) # K(2;01)",
            5,
            None,
            ["K(2;1)"],
            b"S1",
        ],
    )
    def test_same_result_or_error_as_the_tokenizer(self, text):
        assert _outcome(parse_expr, text) == _outcome(dsl._parse_tokens, text)

    def test_repeated_atom_texts_count_per_atom(self):
        two = ConnSum({K(2, 1): 2})
        assert parse_expr("K(2;1) # K(2;01)") == two
        assert parse_expr("K(2;01) # K(2;1) x S1") == Product((two, CIRCLE))
        assert parse_expr("K(2;1) # K(2;1) # K(2;-0) # K(2;0)") == ConnSum({K(2, 1): 2, K(2, 0): 2})

    def test_each_distinct_atom_text_is_tokenized_once(self, monkeypatch):
        engine.clear_cache()
        texts = []
        real = dsl._tokenize
        monkeypatch.setattr(dsl, "_tokenize", lambda t: texts.append(t) or real(t))
        expr = parse_expr(" # ".join(["K(2;5)"] * 50 + ["K(2;7)"] * 30) + " x S1")
        assert sorted(texts) == ["K(2;5)", "K(2;7)", "S1"]
        assert expr == Product((ConnSum({K(2, 5): 50, K(2, 7): 30}), CIRCLE))

    def test_second_parse_of_a_text_tokenizes_nothing(self, monkeypatch):
        engine.clear_cache()
        text = "K(2;3) # K(2;3) # K(2;9) x K(2;3) # K(2;9) x S1"
        first = parse_expr(text)
        assert first == dsl._parse_tokens(text)
        texts = []
        real = dsl._tokenize
        monkeypatch.setattr(dsl, "_tokenize", lambda t: texts.append(t) or real(t))
        assert parse_expr(text) == first
        assert texts == []

    @pytest.mark.parametrize("text", ["S(2) # K(2;1)", "K(1;2)", "S1 # S1", "K(2;1) x S(2) # K(2;1)"])
    def test_rejected_text_raises_the_same_error_again(self, text):
        engine.clear_cache()
        first = _outcome(parse_expr, text)
        assert first == _outcome(parse_expr, text) == _outcome(dsl._parse_tokens, text)
        assert first[0] is SemanticError

    def test_every_atom_the_canonical_pattern_accepts_tokenizes_and_parses(self):
        # so that _parse_canonical raises MalformedExpr at most, never ParseError
        ints = ["0", "7", "9" * 17, "9" * 18, "0" * 18, "1" + "0" * 17]
        atoms = [f"S({a})" for a in ints] + ["S1"]
        atoms += [f"K({a};{s}{b})" for a in ints for b in ints for s in ("", "-")]
        for text in atoms:
            assert dsl._ATOM_RE.fullmatch(text), text
            try:
                dsl._Parser(dsl._tokenize(text)).parse_atom()
            except MalformedExpr:  # a base genus below 2
                assert text.startswith("K(") and int(text[2:].split(";")[0]) < 2
        for text in ["S(" + "9" * 19 + ")", "K(2;-" + "1" * 19 + ")", "K(" + "2" * 19 + ";1)"]:
            assert not dsl._ATOM_RE.fullmatch(text)

    def test_a_printed_text_parses_back_to_the_object_that_printed_it(self):
        engine.clear_cache()
        k50 = K(2, 50)
        flat = Product((ConnSum({K(2, 1): 2, k50: 1}), CIRCLE))
        grouped = ConnSum((Product((CIRCLE, Surface(7))), K(2, 1)))
        text = print_expr(flat)
        assert parse_expr(text) is flat and parse_expr("K(2;50)") is k50
        # a text with a parenthesised group is not kept: it parses as any text
        assert parse_expr(print_expr(grouped)) == grouped
        assert parse_expr(print_expr(grouped)) is not grouped
        # no other text, and nothing that is not a str, finds the object
        for other in [f" {text}", text.replace("50", "050"), [text], text.encode(), None]:
            assert _outcome(parse_expr, other) == _outcome(dsl._parse_tokens, other)
            assert _outcome(parse_expr, other) is not flat
        # the table is emptied with the cache, and a kept text is not put back
        engine.clear_cache()
        assert print_expr(flat) == text
        assert parse_expr(text) == flat and parse_expr(text) is not flat
