"""Committed output digests: the calculator's answers on a seeded corpus must
keep their exact bytes.  An intended change of behaviour updates
``data/digests.json`` and says so in CHANGES.md."""

import hashlib
import json
import random
from pathlib import Path

from degreecalc.engine import bound_to_jsonable, degree_bounds
from degreecalc.manifold import product

from conftest import random_factor_pairs

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


def test_product_pairs_digest():
    assert product_pairs_digest() == json.loads(DIGESTS.read_text())["product_pairs"]
