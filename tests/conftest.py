"""Shared helpers: a seeded generator of random well-formed expressions, and
checks of a certificate text decoded with and without the writer-text path."""

from __future__ import annotations

import json
import random

import pytest

from degreecalc import cli, realiser, verify
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


def decode_walked(text: str) -> realiser.Certificate:
    """The full decoder, ``json.loads`` and ``certificate_from_jsonable``: the
    certificate holds its derivation as decoded JSON, which the checker compares
    by ``realiser._same``."""
    return realiser.certificate_from_jsonable(json.loads(text))


def force_walk(monkeypatch) -> None:
    """Turn the decoder's writer-text path off for the CLI and the library."""
    monkeypatch.setattr(realiser, "certificate_from_json", decode_walked)
    monkeypatch.setattr(cli, "certificate_from_json", decode_walked)


def check_walked(text: str) -> verify.Report:
    """``check_certificate`` of the text decoded by the full decoder."""
    return verify.check_certificate(decode_walked(text))


def report_key(report: verify.Report) -> tuple:
    return report.ok, report.mismatches, report.engine_bound


@pytest.fixture
def check_both_ways(request, monkeypatch):
    """Make the requesting module's ``check_certificate`` check every
    certificate its ``certificate_from_json`` decoded a second time, as the
    full decoder decodes the certificate's text, and require the same report
    both ways."""
    decoded: dict[int, realiser.Certificate] = {}
    decode = realiser.certificate_from_json

    def decoding(text):
        cert = decode(text)
        decoded[id(cert)] = cert  # held, so that its id stays its own
        return cert

    def check(cert):
        report = verify.check_certificate(cert)
        if id(cert) in decoded:
            walked = check_walked(realiser.certificate_to_json(cert))
            assert report_key(walked) == report_key(report)
        return report

    monkeypatch.setattr(request.module, "certificate_from_json", decoding)
    monkeypatch.setattr(request.module, "check_certificate", check)


def _has_steps(v: object) -> bool:
    """Whether ``v`` is a trace step or a sequence holding one."""
    if isinstance(v, (list, tuple)):
        return any(type(x) is RuleApplication for x in v)
    return type(v) is RuleApplication


def count_step_comparisons(monkeypatch) -> list:
    """A list that grows at each ``realiser._same`` call on a trace step or on
    a list of steps, as the whole-derivation comparison is."""
    calls = []
    same = realiser._same

    def counting(a, b):
        if _has_steps(a) or _has_steps(b):
            calls.append((a, b))
        return same(a, b)

    monkeypatch.setattr(realiser, "_same", counting)
    monkeypatch.setattr(verify, "_same", counting)
    return calls
