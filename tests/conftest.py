"""Shared helpers: a seeded generator of random well-formed expressions, and
checks of a decoded certificate with and without its written-text path."""

from __future__ import annotations

import random

import pytest

from degreecalc import realiser, verify
from degreecalc.engine import RuleApplication
from degreecalc.manifold import (
    CIRCLE,
    CircleBundle,
    ConnSum,
    ManifoldExpr,
    Product,
    Surface,
    conn_sum,
)

# Euler numbers for random bundle-sum factors: zero, units, a few that divide
# one another and a few that do not, so both chain outcomes occur often.
FACTOR_EULERS = (0, 1, -1, 2, -2, 3, 4, 5, 6, 12)


def random_expr(rng: random.Random, depth: int = 0) -> ManifoldExpr:
    """A random well-formed expression, biased toward atoms as depth grows."""
    roll = rng.random()
    if depth >= 2 or roll < 0.45:
        return _random_atom(rng)
    if roll < 0.75:
        return _random_conn_sum(rng, depth)
    return Product(tuple(random_expr(rng, depth + 1) for _ in range(rng.randint(2, 3))))


def _random_atom(rng: random.Random) -> ManifoldExpr:
    kind = rng.randrange(3)
    if kind == 0:
        return CIRCLE
    if kind == 1:
        return Surface(rng.randint(0, 4))
    return CircleBundle(rng.randint(2, 4), rng.randint(-9, 9))


def _random_dim3_piece(rng: random.Random) -> ManifoldExpr:
    if rng.random() < 0.8:
        return CircleBundle(rng.randint(2, 4), rng.randint(-9, 9))
    return Product((CIRCLE, Surface(rng.randint(0, 3))))


def _random_conn_sum(rng: random.Random, depth: int) -> ManifoldExpr:
    count = rng.randint(2, 4)
    if rng.random() < 0.4:
        summands: tuple[ManifoldExpr, ...] = tuple(
            Surface(rng.randint(0, 4)) for _ in range(count)
        )
    else:
        summands = tuple(_random_dim3_piece(rng) for _ in range(count))
    inner = list(summands)
    if depth == 0 and rng.random() < 0.3:
        # nest a same-dimension sum to exercise flattening
        inner.append(ConnSum(tuple(inner[:2])))
    return ConnSum(tuple(inner))


def random_factor_pairs(rng: random.Random) -> list[tuple[ManifoldExpr, ManifoldExpr]]:
    """2-5 (source, target) factor pairs, each side a connected sum of 1-3
    circle bundles over the genus-2 surface."""
    return [(_random_bundle_sum(rng), _random_bundle_sum(rng)) for _ in range(rng.randint(2, 5))]


def _random_bundle_sum(rng: random.Random) -> ManifoldExpr:
    return conn_sum(*(CircleBundle(2, rng.choice(FACTOR_EULERS)) for _ in range(rng.randint(1, 3))))


def force_walk(monkeypatch) -> None:
    """Turn the checker's written-text path off, so that a decoded derivation
    is always walked by ``realiser._same``."""
    monkeypatch.setattr(verify, "_written_with", lambda cert, derivation: False)


def check_walked(cert) -> verify.Report:
    """``check_certificate`` with the written-text path off."""
    with pytest.MonkeyPatch.context() as mp:
        force_walk(mp)
        return verify.check_certificate(cert)


def report_key(report: verify.Report) -> tuple:
    return report.ok, report.mismatches, report.engine_bound


@pytest.fixture
def check_both_ways(request, monkeypatch):
    """Make the requesting module's ``check_certificate`` check every decoded
    certificate a second time with the text path forced off, and require the
    same report both ways."""

    def check(cert):
        report = verify.check_certificate(cert)
        if getattr(cert, "_text", None) is not None:
            assert report_key(check_walked(cert)) == report_key(report)
        return report

    monkeypatch.setattr(request.module, "check_certificate", check)


def count_step_comparisons(monkeypatch) -> list:
    """A list that grows at each ``realiser._same`` call on a trace step."""
    calls = []
    same = realiser._same

    def counting(a, b):
        if type(a) is RuleApplication or type(b) is RuleApplication:
            calls.append((a, b))
        return same(a, b)

    monkeypatch.setattr(realiser, "_same", counting)
    monkeypatch.setattr(verify, "_same", counting)
    return calls
