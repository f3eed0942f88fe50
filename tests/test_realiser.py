"""Realisations: constructions, parameters, certificates, invariants."""

import copy
import itertools
import json
import math
import pickle
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from degreecalc import _memo, dsl, engine, intset, realiser, verify
from degreecalc.dsl import parse_expr, print_expr
from degreecalc.engine import RuleApplication, degree_set_exact
from degreecalc.intset import DegreeSet
from degreecalc.manifold import (
    CIRCLE,
    CircleBundle,
    ConnSum,
    MalformedExpr,
    Product,
    dimension,
    normalize,
)
from degreecalc.realiser import (
    BASE_GENUS,
    ArithIntervals,
    Geometric,
    InvalidSpec,
    MalformedCertificate,
    SubsetSums,
    SumsetFamily,
    ZeroNotContained,
    _geometric_blocks,
    _geometric_construction,
    _is_prime,
    _layout,
    _sumset_construction,
    _sumset_family,
    certificate_from_json,
    certificate_to_json,
    certificate_to_jsonable,
    json_text,
    next_prime,
    realise_arith_intervals,
    realise_geometric,
    realise_subset_sums,
    realise_sumset,
)
from degreecalc.verify import check_certificate

from conftest import random_expr

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
            ArithIntervals(())
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

    @pytest.mark.parametrize(
        "cls, fields",
        [
            (ArithIntervals, (((0.0, 1.0),),)),
            (ArithIntervals, (((False, True),),)),
            (ArithIntervals, ([(0, 1)],)),
            (ArithIntervals, (([0, 1],),)),
            (SumsetFamily, ((1,), (True,), (0,))),
            (SumsetFamily, ((2.0,), (1,), (1,))),
            (SumsetFamily, ([1], (1,), (1,))),
            (SubsetSums, ((1, 2.5),)),
            (SubsetSums, ((True,),)),
            (SubsetSums, ([1, 2],)),
            (Geometric, ((2.0, 3),)),
            (Geometric, ((2, True),)),
            (ArithIntervals, ((1, 2),)),
            (ArithIntervals, ((None,),)),
            (ArithIntervals, (((1, 2, 3),),)),
            (ArithIntervals, (((1,),),)),
        ],
    )
    def test_fields_must_be_tuples_of_ints(self, cls, fields):
        # what the decoder demands: a spec it could not read back is refused
        with pytest.raises(InvalidSpec):
            cls(*fields)


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


def _scanned_family(bounds):
    """:func:`_sumset_family` of an interval sequence, its zero interval
    found by scanning the intervals in order: the reference for the index."""
    k = next((i + 1 for i, (b, c) in enumerate(bounds) if b <= 0 <= c), None)
    if k is None:
        raise ZeroNotContained(f"no interval of {bounds} contains 0")
    b_k, c_k = bounds[k - 1]
    if len(bounds) == 1:
        return (1, 1), (c_k, 0), (-b_k, 0)
    d2 = bounds[1][0] - bounds[0][0]
    return (1, d2), (c_k, len(bounds) - k), (-b_k, k - 1)


def test_zero_interval_index_matches_the_scan_on_the_sweep():
    from test_acceptance import _interval_sweep

    cases = 0
    for bounds in _interval_sweep():
        assert _sumset_family(ArithIntervals(bounds)) == _scanned_family(bounds), bounds
        cases += 1
    assert cases == 37315


@pytest.mark.parametrize(
    "bounds",
    [
        ((-1, 0), (3, 4), (7, 8)),  # 0 in the first interval
        ((0, 0), (5, 5)),
        ((-8, -7), (-4, -3), (0, 1)),  # 0 in the last
        ((-12, -10), (-6, -4), (0, 2)),
        ((-7, -5), (-2, 0), (3, 5), (8, 10)),  # in the middle, at an end
        ((-2, 3),),  # a single interval
        ((0, 0),),
        ((-5, 0),),
    ],
)
def test_zero_interval_index_on_hand_made_sequences(bounds):
    assert _sumset_family(ArithIntervals(bounds)) == _scanned_family(bounds)
    assert realise_arith_intervals(ArithIntervals(bounds)).target == fin(
        x for b, c in bounds for x in range(b, c + 1)
    )


@pytest.mark.parametrize(
    "bounds",
    [
        ((-3, -2), (2, 3)),  # 0 in a gap
        ((-9, -8), (-2, -1), (5, 6)),
        ((1, 2), (4, 5)),  # 0 before the first start
        ((1, 1),),
        ((-9, -8), (-5, -4)),  # 0 after the last end
        ((-3, -1),),
    ],
)
def test_zero_outside_every_interval_is_refused_with_its_message(bounds):
    with pytest.raises(ZeroNotContained) as err:
        _sumset_family(ArithIntervals(bounds))
    assert str(err.value) == f"no interval of {bounds} contains 0"
    with pytest.raises(ZeroNotContained) as err:
        realise_arith_intervals(ArithIntervals(bounds))
    assert str(err.value) == f"no interval of {bounds} contains 0"


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


    def test_block_is_exact_for_the_primes_above_its_value(self):
        # realise_geometric takes the primes above max(d, 2) untested
        for d in range(1, 41):
            q = max(d, 2)
            for _ in range(3):
                q = next_prime(q)
                bound = engine._bounds(*_geometric_blocks(d, q, BASE_GENUS))
                assert bound.exact and bound.lower == DegreeSet.finite((0, 1, d)), (d, q)


def _sumset_specs():
    """(spec, genus) for a sample of the criterion 4 sweep and for seeded
    sumset and subset-sum specs."""
    from test_acceptance import _interval_sweep

    for bounds in itertools.islice(_interval_sweep(), 0, None, 13):
        yield ArithIntervals(bounds), BASE_GENUS
    rng = random.Random(57)
    for _ in range(200):
        k = rng.randint(1, 4)
        family = SumsetFamily(
            d=tuple(rng.randint(1, 12) for _ in range(k)),
            n=tuple(rng.randint(0, 4) for _ in range(k)),
            nprime=tuple(rng.randint(0, 4) for _ in range(k)),
        )
        genus = rng.randint(2, 5)
        yield family, genus
        yield SubsetSums(tuple(rng.randint(-15, 15) for _ in range(rng.randint(0, 6)))), genus


def test_sumset_family_terms_are_a_valid_family():
    # _sumset_family returns plain tuples; a validating SumsetFamily must accept them
    for spec, _ in _sumset_specs():
        SumsetFamily(*_sumset_family(spec))


def _constructed_sums():
    """M of every sumset construction of :func:`_sumset_specs`, and both sides
    of geometric blocks, also for the non-prime q a certificate under check
    may record."""
    for spec, genus in _sumset_specs():
        yield _sumset_construction(spec, genus)[0]
    for d in range(1, 30):
        for q in (next_prime(max(d, 2)), d, d * d, 0, -d):
            yield from _geometric_blocks(d, q, BASE_GENUS)


def test_constructed_sums_equal_their_validated_rebuilds():
    seen = 0
    for m in _constructed_sums():
        assert normalize(m) == m
        if isinstance(m, ConnSum):
            rebuilt = ConnSum(dict(m.counts))
            assert rebuilt == m and hash(rebuilt) == hash(m)
            seen += 1
        else:
            assert isinstance(m, CircleBundle)
        for other in (parse_expr(print_expr(m)), pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert other == m and hash(other) == hash(m), print_expr(m)
    assert seen > 3000


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

# Certificates whose JSON was recorded by earlier versions of the code (the
# first six before connected sums were stored as summand multisets); the bytes
# must not change with the representation or with how the rules search.
GOLDEN_CASES = {
    "sumset_repeats": lambda: realise_sumset(SumsetFamily((2, 5), (200, 120), (150, 0))),
    "intervals": lambda: realise_arith_intervals(
        ArithIntervals(((-6, -4), (-1, 1), (4, 6), (9, 11)))
    ),
    "subset_sums": lambda: realise_subset_sums(SubsetSums((-4, 0, 3, 3, 10))),
    "geometric_2_3": lambda: realise_geometric(Geometric((2, 3))),
    "geometric_3_3": lambda: realise_geometric(Geometric((3, 3))),
    "geometric_1_1": lambda: realise_geometric(Geometric((1, 1))),
    # six blocks: the product rule has up to 720 factor pairings to choose from
    "geometric_2_to_7": lambda: realise_geometric(Geometric((2, 3, 4, 5, 6, 7))),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_certificate_json_matches_golden_bytes(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert certificate_to_json(GOLDEN_CASES[name]()) + "\n" == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_certificate_json_round_trip_keeps_bytes(name):
    text = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert certificate_to_json(certificate_from_json(text)) + "\n" == text


# ---------------------------------------------------------------------------
# the certificate writer against json.dumps(indent=2)

_TEXTS = [
    "",
    "plain",
    'quote " and \\ backslash',
    "tab\tnew\nline\x00\x1f\x7f",
    "é ü 中文 🙂",
    "\ud800 lone",
    "\udfff",
]
_FLOATS = [0.0, -0.0, 1.5, -2.25e-7, 1e300, 5e-324, math.nan, math.inf, -math.inf]
_INTS = [0, 1, -1, 7, -4300, 2**63, 2**64 + 1, -(2**70), 10**40]


_SUBCLASSES = {base: type(f"_{base.__name__}", (base,), {}) for base in (int, str, float, list, dict)}
_SUBCLASSES[tuple] = _SUBCLASSES[list]


def _random_json(rng: random.Random, depth: int = 0) -> object:
    """A random value of every kind that json.dumps writes: the scalars above,
    True/False/None, int-only and mixed lists, tuples and dicts, some empty,
    and subclasses of these types."""
    kind = rng.randrange(11 if depth < 4 else 6)
    if kind == 10:
        value = _random_json(rng, depth + 1)
        subclass = _SUBCLASSES.get(type(value))
        return value if subclass is None else subclass(value)
    if kind == 0:
        return rng.choice(_INTS + [rng.randint(-(2**80), 2**80)])
    if kind == 1:
        return rng.choice(_FLOATS + [rng.uniform(-1e6, 1e6)])
    if kind == 2:
        tail = "".join(chr(rng.randrange(0x3000)) for _ in range(rng.randrange(3)))
        return rng.choice(_TEXTS) + tail
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return [rng.choice(_INTS) for _ in range(rng.randrange(5))]
    if kind == 5:
        return [rng.choice([0, 1, True, False, 2**65]) for _ in range(rng.randrange(1, 4))]
    if kind in (6, 7):
        items = [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
        return items if kind == 6 else tuple(items)
    keys = [rng.choice(_TEXTS) + str(i) for i in range(rng.randrange(4))]
    return {k: _random_json(rng, depth + 1) for k in keys}


def test_writer_matches_json_dumps_on_random_values():
    rng = random.Random(20261018)
    for _ in range(6000):
        value = _random_json(rng)
        assert json_text(value) == json.dumps(value, indent=2), value


def _writer_certificates():
    certs = [make() for make in GOLDEN_CASES.values()]
    rng = random.Random(15)
    for _ in range(12):
        values = sorted(rng.randint(1, 13) for _ in range(rng.randint(1, 4)))
        certs.append(realise_geometric(Geometric(tuple(values))))
    for _ in range(6):
        certs.append(realise_subset_sums(SubsetSums(tuple(rng.randint(-9, 9) for _ in range(4)))))
    return certs


def test_certificate_json_is_json_dumps_of_its_jsonable_form():
    certs = _writer_certificates()
    held = []
    for cert in certs:
        text = certificate_to_json(cert)
        assert text == json.dumps(certificate_to_jsonable(cert), indent=2)
        decoded = certificate_from_json(text)
        assert certificate_to_json(decoded) == json.dumps(certificate_to_jsonable(decoded), indent=2)
        held += [_layout(cert), _layout(decoded), cert.derivation]
    # a target intersection step whose summand uppers hold a set and "unknown"
    bound = engine.degree_bounds(parse_expr("K(2;1)"), parse_expr("K(2;1) # K(3;1)"))
    step = next(e for e in bound.trace if e.rule == "target_summand_intersection")
    uppers = [upper for _, upper in step.detail("summand_uppers")]
    assert "unknown" in uppers and any(isinstance(u, DegreeSet) for u in uppers)
    held += [step, check_certificate(certs[0]).to_jsonable()]
    for value in held:
        assert json_text(value) == json.dumps(engine.jsonable(value), indent=2)
    # a step's kept text is re-indented at every depth, whichever depth writes it first
    depths = [
        lambda s: s,
        lambda s: (s,),
        lambda s: _layout(replace(certs[0], derivation=(s,))),
    ]
    for order in itertools.permutations(depths):
        inputs = (CircleBundle(2, 1), CircleBundle(2, 2))
        step = RuleApplication("undetermined", inputs, fin([0]), (("reason", 'a\nb "q" é'),))
        for depth in order:
            value = depth(step)
            assert json_text(value) == json.dumps(engine.jsonable(value), indent=2)


def test_step_text_is_json_dumps_of_the_step_at_every_indent():
    steps = [e for make in GOLDEN_CASES.values() for e in make().derivation]
    rng = random.Random(45)
    pairs = 0
    while pairs < 500:
        m, n = random_expr(rng), random_expr(rng)
        if dimension(m) == dimension(n):
            steps += engine.degree_bounds(m, n).trace
            pairs += 1
    hostile = 'a\x00\x1f\n\t"q" \\ é \u2028'
    steps += [
        RuleApplication("undetermined", (), intset.EMPTY),
        RuleApplication(hostile, (CIRCLE,), intset.ALL_INTEGERS, (("reason", hostile),)),
        RuleApplication(
            "target_summand_intersection",
            (CircleBundle(2, 1), CircleBundle(2, 1)),
            intset.EMPTY,
            (
                ("summand_uppers", ((CircleBundle(2, 1), intset.ALL_INTEGERS), (CIRCLE, "unknown"))),
                ("sets", (intset.EMPTY, fin([-3, 0, 7]))),
                (hostile, (-(2**63), True, False, None, ())),
            ),
        ),
    ]
    for step in steps:
        fresh = RuleApplication(step.rule, step.inputs, step.produced, step.details)
        expected = json.dumps(engine.jsonable(step), indent=2)
        for indent in (realiser._STEP_INDENT, "", "      "):
            text = realiser._step_text(fresh, indent)
            assert text == expected.replace("\n", "\n" + indent), step


def test_shared_steps_are_written_once(monkeypatch):
    engine.clear_cache()
    first = realise_geometric(Geometric((3, 4)))
    second = realise_geometric(Geometric((3,)))  # the first's (3, 5) block
    assert {id(e) for e in second.derivation} <= {id(e) for e in first.derivation}
    certificate_to_json(first)
    written = []
    write = realiser._json_text
    monkeypatch.setattr(realiser, "_json_text", lambda v, indent: written.append(v) or write(v, indent))
    text = certificate_to_json(second)
    monkeypatch.undo()
    # every step is reached, and none writes its parts again
    assert sum(type(v) is RuleApplication for v in written) == len(second.derivation)
    assert not {id(e.inputs) for e in second.derivation} & set(map(id, written))
    assert text == json.dumps(certificate_to_jsonable(second), indent=2)


MEMO_LIMITS = {
    dsl._parse_term: 4096,
    dsl._printed: 4096,
    realiser._geometric_blocks: 4096,
    realiser._sumset_construction: 64,
    realiser._geometric_construction: 64,
    realiser._bundle: 4096,
}


def test_pass_memos_are_bounded_and_emptied_with_the_cache():
    assert sorted(map(id, _memo.MEMOS)) == sorted(map(id, MEMO_LIMITS))
    assert all(m is not engine._CACHE for m in _memo.MEMOS)
    engine.clear_cache()
    for i in range(5000):
        print_expr(parse_expr(f"K(2;{i}) # K(2;1) x S1"))
        _geometric_blocks(2, i, 2)
        _sumset_construction(SubsetSums((i,)), 2)
        _geometric_construction(Geometric((2,)), (i,), 2)
        for memo, limit in MEMO_LIMITS.items():
            info = memo.cache_info()
            assert info.maxsize == limit and info.currsize <= limit
    assert all(memo.cache_info().currsize == limit for memo, limit in MEMO_LIMITS.items())
    engine.clear_cache()
    assert not any(memo.cache_info().currsize for memo in MEMO_LIMITS)
    long_term = " # ".join(["K(2;3)"] * 1000)  # longer than dsl._TERM_TEXT_MAX
    assert print_expr(parse_expr(long_term)) == long_term
    assert parse_expr(long_term) == ConnSum({CircleBundle(2, 3): 1000})
    assert dsl._parse_term.cache_info().currsize == 0
    assert dsl._printed.cache_info().currsize == 1  # K(2;3)


def test_the_memos_keep_recently_used_entries():
    engine.clear_cache()
    kept = [realiser._bundle(2, e) for e in range(5000)][1000]
    # the least recently used entries went, and e = 1000 is not among them
    assert realiser._bundle(2, 1000) is kept
    assert realiser._bundle.cache_info().currsize == 4096


def test_a_dict_put_in_place_of_the_pair_cache_is_bounded_and_emptied(monkeypatch):
    class CountingCache(dict):  # as a tracer that counts the cache's use puts it in place
        most = 0

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            self.most = max(self.most, len(self))

    cache = CountingCache()
    monkeypatch.setattr(engine, "_CACHE", cache)
    for e in range(5000):
        engine.degree_bounds(CircleBundle(2, e), CircleBundle(2, 1))
    assert cache.most == 4096 and cache
    engine.clear_cache()
    assert not cache


# A golden case of each family, its construction's name and the free choices
# after the spec, as the realiser and the checker ask for them.
CONSTRUCTIONS = {
    "intervals": ("_sumset_construction", (BASE_GENUS,)),
    "geometric_2_3": ("_geometric_construction", ((5, 7), BASE_GENUS)),
}


def _construction(name, spec):
    attr, choices = CONSTRUCTIONS[name]
    return getattr(realiser, attr)(spec, *choices)


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_checker_gets_the_construction_itself_and_the_certificate_a_copy(name, monkeypatch):
    cert = GOLDEN_CASES[name]()
    m, n, params = _construction(name, cert.spec)
    assert m is cert.m and n is cert.n
    assert params == cert.params and params is not cert.params
    assert not any(isinstance(v, (list, dict)) and v is cert.params[k] for k, v in params.items())
    seen = []
    attr = CONSTRUCTIONS[name][0]
    shared = getattr(verify, attr)
    monkeypatch.setattr(verify, attr, lambda *a: seen.append(shared(*a)) or seen[-1])
    assert check_certificate(cert).ok
    (checked,) = seen
    assert all(x is y for x, y in zip(checked, (m, n, params)))


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_each_certificate_gets_its_own_params(name):
    first = GOLDEN_CASES[name]()
    params = _construction(name, first.spec)[2]
    kept = copy.deepcopy(params)
    for value in first.params.values():
        if isinstance(value, list):
            value.append(7)
        elif isinstance(value, dict):
            value["edited"] = True
    assert _construction(name, first.spec)[2] is params and params == kept
    second = GOLDEN_CASES[name]()
    assert second.params == kept
    assert check_certificate(second).ok and not check_certificate(first).ok


def test_the_checker_builds_no_geometric_construction(monkeypatch):
    engine.clear_cache()
    cert = realise_geometric(Geometric((2, 3, 4)))
    assert isinstance(cert.m, Product) and isinstance(cert.n, Product)
    built = []
    post_init = Product.__post_init__
    monkeypatch.setattr(Product, "__post_init__", lambda p: built.append(p) or post_init(p))
    blocks = realiser._geometric_blocks
    monkeypatch.setattr(realiser, "_geometric_blocks", lambda *a: built.append(a) or blocks(*a))
    assert check_certificate(cert).ok
    assert built == []


def _bundles(m):
    return [s for s, _ in m.counts] if isinstance(m, ConnSum) else [m]


def test_realiser_and_checker_share_the_bundle_objects(monkeypatch):
    engine.clear_cache()
    cert = GOLDEN_CASES["intervals"]()
    seen = []
    shared = verify._sumset_construction
    monkeypatch.setattr(
        verify, "_sumset_construction", lambda *a: seen.append(shared(*a)) or seen[-1]
    )
    assert check_certificate(cert).ok
    (m, n, _), = seen
    assert m is cert.m and n is cert.n
    misses = realiser._bundle.cache_info().misses
    for bundle in _bundles(cert.m) + [cert.n]:
        assert realiser._bundle(BASE_GENUS, bundle.euler) is bundle
    assert realiser._bundle.cache_info().misses == misses
    # another spec's construction takes the same objects for the same bundles
    other = realise_arith_intervals(ArithIntervals(((-6, -4), (-1, 1), (4, 6))))
    assert other.n is cert.n
    assert {id(b) for b in _bundles(other.m)} <= {id(b) for b in _bundles(cert.m)}


def test_constructions_refuse_a_genus_that_is_not_an_int():
    class Genus(int):
        def __repr__(self):
            return f"Genus({int(self)})"

    spec = ArithIntervals(((-2, -1), (0, 1), (2, 3)))
    for genus in (Genus(2), Genus(3), True, 2.0, 3.0):
        engine.clear_cache()
        with pytest.raises(MalformedExpr, match="must be ints"):
            _sumset_construction(spec, genus)
        with pytest.raises(MalformedExpr, match="must be ints"):
            _geometric_blocks(2, 5, genus)
        with pytest.raises(InvalidSpec, match="free choices must be a tuple of integers"):
            _geometric_construction(Geometric((2,)), (5,), genus)
        # a refused genus leaves nothing in the memos for an equal plain genus to find
        assert not any(memo.cache_info().currsize for memo in MEMO_LIMITS)
    m, n, params = _sumset_construction(spec, 2)
    assert all(type(b.base_genus) is int for b in _bundles(m) + [n])
    assert type(params["base_genus"]) is int
    assert print_expr(_geometric_blocks(2, 5, 3)[1]) == "K(3;4) # K(3;5)"
    params = _geometric_construction(Geometric((2,)), (5,), 3)[2]
    assert type(params["base_genus"]) is int


def test_an_equal_genus_of_another_type_records_the_int_genus():
    spec = ArithIntervals(((-2, -1), (0, 1), (2, 3)))
    engine.clear_cache()
    _sumset_construction(spec, 2)
    realiser._sumset_construction.cache_clear()
    # a hit in the bundle memo: N is the int-genus bundle, and params record its genus
    m, n, params = _sumset_construction(spec, 2.0)
    assert type(n.base_genus) is type(params["base_genus"]) is int
    cert = realise_arith_intervals(spec)
    assert type(cert.params["base_genus"]) is int
    assert check_certificate(cert).ok
    geometric = Geometric((2, 3))
    realise_geometric(geometric)
    # a hit: the construction of ints
    params = _geometric_construction(geometric, (5, 7), 2.0)[2]
    assert type(params["base_genus"]) is int
    realiser._geometric_construction.cache_clear()
    # misses, though the blocks are in their memo: refused, and nothing is stored
    # under a key equal to the realiser's
    for qs, genus in (((5, 7), 2.0), ((5, 7), True), ((5.0, 7), 2)):
        with pytest.raises(InvalidSpec, match="free choices"):
            _geometric_construction(geometric, qs, genus)
    cert = realise_geometric(geometric)
    assert list(map(type, cert.params["q"])) == [int, int]
    assert type(cert.params["base_genus"]) is int
    assert check_certificate(cert).ok


def test_decoded_certificates_are_the_memos_objects_by_their_texts(monkeypatch):
    """A decoded M or N is the object that printed its text, and that identity
    is earned: the object equals the tokenizer's parse of the text and prints
    that text back, and a text with one Euler number edited decodes to a new
    object, which the checker compares by value and rejects."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import workloads  # read only: the benchmark's seed-201 geometric inputs

    raws = workloads.make("geometric_roundtrip", 201).inputs()
    engine.clear_cache()
    certs = [make() for make in GOLDEN_CASES.values()]
    certs += [realise_geometric(Geometric(raw)) for raw in raws]
    assert len(certs) == 207
    texts = []
    for k, cert in enumerate(certs):
        texts.append(certificate_to_json(cert))
        decoded = certificate_from_json(texts[-1])
        obj = json.loads(texts[-1])
        for side, held, built in (("M", decoded.m, cert.m), ("N", decoded.n, cert.n)):
            assert held == dsl._parse_tokens(obj[side])
            assert print_expr(held) == obj[side]
            # decoded just after it is written, as in the benchmark's pass, a
            # geometric certificate gets the realiser's objects
            assert held is built or k < len(GOLDEN_CASES)
    for cert, text in zip(certs, texts):
        obj = json.loads(text)
        # the last Euler number is its sum's largest, so the edit keeps the text canonical
        head, last, euler = obj["M"].rpartition("K(2;")
        obj["M"] = f"{head}{last}{int(euler[:-1]) + 1000})"
        assert print_expr(dsl._parse_tokens(obj["M"])) == obj["M"]
        edited = certificate_from_json(json.dumps(obj, indent=2))
        assert edited.m is not cert.m and edited.m == dsl._parse_tokens(obj["M"])
        mismatches = check_certificate(edited).mismatches
        assert "source summands do not match the family multiplicities" in mismatches


@pytest.mark.parametrize(
    "edit",
    [
        lambda params: params["d_i_prime"].append(1),
        lambda params: params["d_i_prime"].__setitem__(0, params["d_i_prime"][0] + 1),
        lambda params: params.__setitem__("n1", params["n1"] + 1),
    ],
    ids=["append", "increment_in_list", "increment"],
)
def test_params_edited_in_place_are_reported_and_not_kept(edit):
    cert = GOLDEN_CASES["intervals"]()
    edit(cert.params)
    report = check_certificate(cert)
    assert not report.ok
    assert any(m.startswith(("d_i_prime ", "n1 ")) for m in report.mismatches), report.mismatches
    # the next realisation of the spec still writes the recorded bytes
    expected = (GOLDEN / "intervals.json").read_text(encoding="utf-8")
    assert certificate_to_json(GOLDEN_CASES["intervals"]()) + "\n" == expected


def test_certificate_texts_parse_as_the_tokenizer_parses_them():
    texts = []
    for path in GOLDEN.glob("*.json"):
        obj = json.loads(path.read_text(encoding="utf-8"))
        texts += [obj["M"], obj["N"]]
    rng = random.Random(21)
    certs = []
    for _ in range(400):
        values = sorted(rng.randint(1, 13) for _ in range(rng.randint(1, 6)))
        certs.append(realise_geometric(Geometric(tuple(values))))
    for _ in range(100):
        d = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        n, nprime = (tuple(rng.randint(0, 30) for _ in d) for _ in "nn")
        certs.append(realise_sumset(SumsetFamily(d, n, nprime)))
    texts += [print_expr(x) for cert in certs for x in (cert.m, cert.n)]
    assert len(texts) == 1014
    for text in texts:
        assert parse_expr(text) == dsl._parse_tokens(text), text


@pytest.mark.parametrize("m, got", [(5, "int"), (None, "NoneType"), (["K(2;1)"], "list")])
def test_non_string_expression_keeps_its_decode_error(m, got):
    obj = json.loads((GOLDEN / "geometric_2_3.json").read_text(encoding="utf-8"))
    obj["M"] = m
    with pytest.raises(MalformedCertificate) as err:
        certificate_from_json(json.dumps(obj, indent=2))
    assert str(err.value) == (
        f"cannot decode certificate: expected string or bytes-like object, got '{got}'"
    )


def test_decoded_step_keys_keep_their_order():
    payload = json.loads((GOLDEN / "geometric_2_3.json").read_text(encoding="utf-8"))
    step = payload["derivation"][0]
    payload["derivation"][0] = {k: step[k] for k in reversed(step)}
    text = json.dumps(payload, indent=2)
    assert certificate_to_json(certificate_from_json(text)) == text


def test_writer_rejects_values_json_cannot_write():
    cert = realise_geometric(Geometric((2,)))
    bad = replace(cert, params={**cert.params, "q": {5}})
    with pytest.raises(TypeError):
        json.dumps(certificate_to_jsonable(bad), indent=2)
    with pytest.raises(TypeError):
        certificate_to_json(bad)
    with pytest.raises(TypeError):
        json_text([1, object()])
    # a step that cannot be written keeps no text, so the second write raises too
    step = RuleApplication("undetermined", (), fin([0]), (("reason", {5}),))
    for _ in range(2):
        with pytest.raises(TypeError):
            json_text((step,))
