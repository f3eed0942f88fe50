"""Committed output digests: the calculator's answers on a seeded corpus must
keep their exact bytes.  An intended change of behaviour updates
``data/digests.json`` and says so in CHANGES.md."""

import hashlib
import json
import random
from pathlib import Path

from degreecalc.dsl import print_expr
from degreecalc.engine import bound_to_jsonable, degree_bounds
from degreecalc.manifold import normalize, product
from degreecalc.realiser import (
    Geometric,
    certificate_from_json,
    certificate_to_json,
    realise_geometric,
)
from degreecalc.verify import check_certificate

from conftest import random_expr, random_factor_pairs

DIGESTS = Path(__file__).parent / "data" / "digests.json"


def product_pairs_digest() -> str:
    """SHA-256 over the JSON bounds of 400 seeded random products of 2-5
    bundle-sum factors against products of as many."""
    rng = random.Random(12)
    digest = hashlib.sha256()
    for _ in range(400):
        sources, targets = zip(*random_factor_pairs(rng))
        bound = degree_bounds(product(*sources), product(*targets))
        digest.update(json.dumps(bound_to_jsonable(bound)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def exprs_digest() -> str:
    """SHA-256 over the printed text and the repr of the canonical form of
    5,000 seeded random expressions."""
    rng = random.Random(0)
    digest = hashlib.sha256()
    for _ in range(5000):
        e = random_expr(rng)
        digest.update(f"{print_expr(e)}\n{normalize(e)!r}\n".encode())
    return digest.hexdigest()


def certificates_digest() -> str:
    """SHA-256 over the certificate JSON of 60 seeded geometric requests of
    1-4 values in 1-13, and the check report of each decoded certificate."""
    rng = random.Random(13)
    digest = hashlib.sha256()
    for _ in range(60):
        values = sorted(rng.randint(1, 13) for _ in range(rng.randint(1, 4)))
        text = certificate_to_json(realise_geometric(Geometric(tuple(values))))
        report = check_certificate(certificate_from_json(text))
        digest.update(text.encode())
        digest.update(json.dumps(report.to_jsonable()).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def recorded(name: str) -> str:
    return json.loads(DIGESTS.read_text())[name]


def test_product_pairs_digest():
    assert product_pairs_digest() == recorded("product_pairs")


def test_exprs_digest():
    assert exprs_digest() == recorded("exprs")


def test_certificates_digest():
    assert certificates_digest() == recorded("certificates")
