"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every expected value is either a closed form checked
exhaustively or the output of an independent brute-force enumeration; time
budgets are asserted, not advisory.
"""

import json
import random
import time
from contextlib import contextmanager

import dataclasses

import pytest

from degreecalc import engine
from degreecalc.dsl import parse_expr, print_expr
from degreecalc.engine import degree_bounds, degree_set_exact
from degreecalc.intset import DegreeSet, equals
from degreecalc.manifold import CircleBundle, Surface
from degreecalc.realiser import (
    ArithIntervals,
    Geometric,
    SumsetFamily,
    certificate_from_json,
    certificate_to_json,
    realise_arith_intervals,
    realise_geometric,
    realise_sumset,
)
from degreecalc.verify import (
    brute_subset_products,
    brute_sumset,
    check_certificate,
    interval_union,
)

# every decoded certificate checked here is checked with and without its text
pytestmark = pytest.mark.usefixtures("check_both_ways")

fin = DegreeSet.finite


@contextmanager
def criterion(number: int, description: str, budget: float):
    engine.clear_cache()
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < budget
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"criterion {number} ({description}): {verdict} [{elapsed:.2f}s / {budget:g}s]")
    assert ok, f"criterion {number} took {elapsed:.2f}s, budget {budget:g}s"


def test_criterion_1_circle_bundle_closed_form():
    with criterion(1, "circle-bundle closed form on the Euler grid", 1.0):
        for i in range(-20, 21):
            if i == 0:
                continue
            for j in range(-20, 21):
                got = degree_set_exact(CircleBundle(2, i), CircleBundle(2, j))
                expected = fin([0, j // i]) if j % i == 0 else fin([0])
                assert got == expected, (i, j, str(got))


def test_criterion_2_surface_rule():
    with criterion(2, "surface closed form on the genus grid", 1.0):
        for g in range(13):
            for h in range(13):
                got = degree_set_exact(Surface(g), Surface(h))
                if h == 0 or (h == 1 and g >= 1):
                    assert got.is_all, (g, h)
                elif h >= 2 and g >= h:
                    k = (g - 1) // (h - 1)
                    assert got == fin(range(-k, k + 1)), (g, h)
                else:
                    assert got == fin([0]), (g, h)


def test_criterion_3_sumset_family_pipeline():
    with criterion(3, "random sumset families: realiser = oracle = calculator", 30.0):
        rng = random.Random(20250809)
        for _ in range(500):
            k = rng.randint(1, 4)
            spec = SumsetFamily(
                d=tuple(rng.randint(1, 9) for _ in range(k)),
                n=tuple(rng.randint(0, 3) for _ in range(k)),
                nprime=tuple(rng.randint(0, 3) for _ in range(k)),
            )
            cert = realise_sumset(spec)
            oracle = brute_sumset(spec.d, spec.n, spec.nprime)
            assert equals(cert.target, oracle), spec
            assert equals(degree_set_exact(cert.m, cert.n), oracle), spec


def _interval_sweep():
    for length in range(1, 6):
        for count in range(1, 60 // length + 1):
            steps = range(length, 11) if count >= 2 else [None]
            for step in steps:
                for k in range(1, count + 1):
                    for offset in range(length):
                        b_k = -offset
                        if step is None:
                            yield ((b_k, b_k + length - 1),)
                        else:
                            yield tuple(
                                (
                                    b_k + (i - k) * step,
                                    b_k + (i - k) * step + length - 1,
                                )
                                for i in range(1, count + 1)
                            )


def test_criterion_4_interval_sequences():
    with criterion(4, "systematic arithmetic interval sweep", 30.0):
        cases = 0
        for bounds in _interval_sweep():
            spec = ArithIntervals(bounds)
            cert = realise_arith_intervals(spec)
            assert equals(cert.target, interval_union(bounds)), bounds
            report = check_certificate(cert)
            assert report.ok, (bounds, report.mismatches)
            cases += 1
        assert cases > 30000  # the sweep is genuinely exhaustive


def test_criterion_5_flagship_blocks_with_trace():
    with criterion(5, "single-block {0,1,d} with both inclusion directions", 5.0):
        for d in range(2, 11):
            cert = realise_geometric(Geometric((d,)))
            q, p = cert.m, cert.n
            bound = degree_bounds(q, p)
            assert bound.exact
            assert bound.lower == fin([0, 1, d]), d

            inter = next(
                e for e in bound.trace if e.rule == "target_summand_intersection"
            )
            recorded = {t: u for t, u in inter.detail("summand_uppers")}
            qe = cert.params["q"][0]
            assert recorded[CircleBundle(2, qe)] == fin(range(d + 1)), d
            assert recorded[CircleBundle(2, d * d)] == fin([0, 1, d, d + 1]), d
            assert inter.produced == fin([0, 1, d])

            covering = [e for e in bound.trace if e.rule == "fiberwise_covering_lift"]
            assert any(e.detail("degree") == d for e in covering), d
            assert any(e.rule == "pinch_to_submanifold" for e in bound.trace), d


def test_criterion_6_subset_products():
    with criterion(6, "subset products and geometric progressions", 60.0):
        triples = [
            (d1, d2, d3)
            for d1 in range(1, 6)
            for d2 in range(d1, 6)
            for d3 in range(d2, 6)
        ]
        for d in triples:
            cert = realise_geometric(Geometric(d))
            oracle = brute_subset_products(d)
            assert equals(cert.target, oracle), d
            assert equals(degree_set_exact(cert.m, cert.n), oracle), d
            report = check_certificate(cert)
            assert report.ok, (d, report.mismatches)
        for r in range(1, 5):
            for length in range(1, 4):
                d = (r,) * length
                cert = realise_geometric(Geometric(d))
                expected = fin({0, 1} | {r**e for e in range(1, length + 1)})
                assert equals(cert.target, expected), d
                assert equals(cert.target, brute_subset_products(d)), d
                assert equals(degree_set_exact(cert.m, cert.n), expected), d


def _tamper_pool():
    return [
        realise_sumset(SumsetFamily((2,), (2,), (1,))),
        realise_sumset(SumsetFamily((1, 3), (1, 2), (0, 1))),
        realise_sumset(SumsetFamily((2, 5), (1, 1), (1, 0))),
        realise_arith_intervals(ArithIntervals(((-2, -1), (0, 1), (2, 3)))),
        realise_geometric(Geometric((2,))),
        realise_geometric(Geometric((3,))),
        realise_geometric(Geometric((2, 3))),
        realise_geometric(Geometric((3, 3))),
    ]


def test_criterion_7_fault_injection():
    with criterion(7, "tampered certificates are rejected", 10.0):
        rng = random.Random(777)
        pool = _tamper_pool()
        rejected = 0
        for case in range(100):
            cert = pool[case % len(pool)]
            kind = case % 3
            if kind == 0:
                # mutate the target: drop a non-zero element or add a fresh one
                elements = list(cert.target.elements)
                nonzero = [x for x in elements if x != 0]
                if rng.random() < 0.5 and nonzero:
                    elements.remove(rng.choice(nonzero))
                else:
                    elements.append(max(elements) + rng.randint(5, 50))
                bad = dataclasses.replace(cert, target=fin(elements))
            elif kind == 1:
                # swap an Euler number somewhere in the target manifold
                bundles = _bundles_of(cert.n)
                victim = bundles[rng.randrange(len(bundles))]
                replacement = CircleBundle(victim.base_genus, victim.euler + 1)
                bad = dataclasses.replace(cert, n=_swap(cert.n, victim, replacement))
            else:
                # break prime hygiene in the parameters
                params = dict(cert.params)
                if isinstance(cert.spec, Geometric):
                    qs = list(params["q"])
                    qs[0] = 2 if max(cert.spec.d) >= 2 else 9
                    params["q"] = qs
                else:
                    params["d_prime"] = params["d_prime"] + 1
                bad = dataclasses.replace(cert, params=params)
            report = check_certificate(bad)
            assert not report.ok, (case, kind, report.to_text())
            assert report.mismatches
            rejected += 1
        assert rejected == 100

        # change only the derivation, in memory and in the JSON a checker reads
        cert = realise_arith_intervals(ArithIntervals(((-2, -1), (0, 1), (2, 3))))
        other = realise_geometric(Geometric((2, 3)))
        for name, derivation in _derivation_tampers(cert, other).items():
            payload = json.loads(certificate_to_json(cert))
            payload["derivation"] = engine.trace_to_jsonable(derivation)
            decoded = certificate_from_json(json.dumps(payload))
            for bad in (dataclasses.replace(cert, derivation=derivation), decoded):
                report = check_certificate(bad)
                assert not report.ok, (name, report.to_text())
                assert any("derivation step" in m for m in report.mismatches), name


def _derivation_tampers(cert, other):
    steps = cert.derivation
    return {
        "first_step_only": steps[:1],
        "last_step_dropped": steps[:-1],
        "source_sum_produced": tuple(
            dataclasses.replace(e, produced=fin([0, 99]))
            if e.rule == "connected_sum_source_sum"
            else e
            for e in steps
        ),
        "every_rule_constant_map": tuple(
            dataclasses.replace(e, rule="constant_map") for e in steps
        ),
        "other_certificate": other.derivation,
        "one_constant_map": (
            engine.RuleApplication("constant_map", (cert.m, cert.n), fin([0])),
        ),
    }


def _bundles_of(expr):
    from degreecalc.manifold import ConnSum, Product

    if isinstance(expr, CircleBundle):
        return [expr]
    if isinstance(expr, ConnSum):
        return [b for s in expr.summands for b in _bundles_of(s)]
    if isinstance(expr, Product):
        return [b for f in expr.factors for b in _bundles_of(f)]
    return []


def _swap(expr, old, new):
    from degreecalc.manifold import ConnSum, Product, normalize

    if expr == old:
        return new
    if isinstance(expr, ConnSum):
        done = False
        out = []
        for s in expr.summands:
            if not done and s == old:
                out.append(new)
                done = True
            elif not done and isinstance(s, (ConnSum, Product)):
                swapped = _swap(s, old, new)
                if swapped != s:
                    done = True
                out.append(swapped)
            else:
                out.append(s)
        return normalize(ConnSum(tuple(out)))
    if isinstance(expr, Product):
        done = False
        out = []
        for f in expr.factors:
            if not done:
                swapped = _swap(f, old, new)
                if swapped != f:
                    done = True
                out.append(swapped)
            else:
                out.append(f)
        return normalize(Product(tuple(out)))
    return expr


def test_criterion_8_parser_round_trip():
    from degreecalc.manifold import normalize

    from conftest import random_expr

    with criterion(8, "parser and printer round trip", 5.0):
        rng = random.Random(88)
        for _ in range(1000):
            e = random_expr(rng)
            assert parse_expr(print_expr(e)) == normalize(e)
