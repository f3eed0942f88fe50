"""Committed output digests: the calculator's answers on a seeded corpus must
keep their exact bytes.  An intended change of behaviour updates
``data/digests.json`` and says so in CHANGES.md; running this file as a
script prints the current digests in that file's form:

    PYTHONPATH=src python tests/test_digests.py > tests/data/digests.json
"""

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from degreecalc.dsl import print_expr
from degreecalc.engine import bound_to_jsonable, degree_bounds
from degreecalc.intset import DegreeSet, weighted_sumset
from degreecalc.manifold import CircleBundle, ConnSum, conn_sum, normalize, product
from degreecalc.realiser import (
    ArithIntervals,
    Geometric,
    SubsetSums,
    SumsetFamily,
    certificate_from_json,
    certificate_to_json,
    realise_arith_intervals,
    realise_geometric,
    realise_subset_sums,
    realise_sumset,
)
from degreecalc.verify import check_certificate

from conftest import random_expr, random_factor_pairs
from test_acceptance import _interval_sweep

DIGESTS = Path(__file__).parent / "data" / "digests.json"
GOLDEN = Path(__file__).parent / "data" / "golden"


def product_pairs() -> list:
    """400 seeded random products of 2-5 bundle-sum factors, each paired with
    a product of as many."""
    rng = random.Random(12)
    return [tuple(product(*side) for side in zip(*random_factor_pairs(rng))) for _ in range(400)]


def product_pairs_digest() -> str:
    """SHA-256 over the JSON bounds of the :func:`product_pairs`."""
    digest = hashlib.sha256()
    for m, n in product_pairs():
        digest.update(json.dumps(bound_to_jsonable(degree_bounds(m, n))).encode())
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


@functools.cache
def sumset_certificates() -> tuple[str, ...]:
    """Certificate JSON of every 50th sequence of the criterion-4 interval
    sweep, 100 seeded sumset families (some with all multiplicities zero) and
    100 seeded subset-sum lists (with zeros, some all zero)."""
    certs = [realise_arith_intervals(ArithIntervals(b)) for b in list(_interval_sweep())[::50]]
    rng = random.Random(14)
    for _ in range(100):
        terms = rng.randint(1, 3)
        zero = rng.random() < 0.1
        spec = SumsetFamily(
            d=tuple(rng.randint(1, 9) for _ in range(terms)),
            n=tuple(0 if zero else rng.randint(0, 4) for _ in range(terms)),
            nprime=tuple(0 if zero else rng.randint(0, 4) for _ in range(terms)),
        )
        certs.append(realise_sumset(spec))
    for _ in range(100):
        high = 0 if rng.random() < 0.1 else 9
        values = tuple(rng.randint(-high, high) for _ in range(rng.randint(0, 6)))
        certs.append(realise_subset_sums(SubsetSums(values)))
    return tuple(map(certificate_to_json, certs))


def sumset_certificates_digest() -> str:
    """SHA-256 over the :func:`sumset_certificates` texts and the check
    report of each decoded certificate."""
    digest = hashlib.sha256()
    for text in sumset_certificates():
        report = check_certificate(certificate_from_json(text))
        digest.update(text.encode())
        digest.update(json.dumps(report.to_jsonable()).encode())
        digest.update(b"\n")
    return digest.hexdigest()


# Euler numbers for target-sum pairs: zero, units and divisors of 12, so that
# covers of several degrees fit.
TARGET_SUM_EULERS = (0, 1, -1, 2, 3, 4, 6, 12)


def target_sum_pairs() -> list:
    """600 seeded pairs of a source sum and a target sum of 2-3 bundles over
    the genus-2 surface.  The source repeats the target 0-5 times and adds
    runs of up to 6 copies of a bundle, mostly one whose Euler number divides
    a target's, so that pinches and lifts of several degrees fit."""
    rng = random.Random(16)
    pairs = []
    for _ in range(600):
        target = [CircleBundle(2, rng.choice(TARGET_SUM_EULERS)) for _ in range(rng.randint(2, 3))]
        source = target * rng.choice((0, 1, 1, 2, 3, 5))
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.6:
                j = rng.choice(target).euler
                e = rng.choice([x for x in TARGET_SUM_EULERS if x and j % x == 0])
            else:
                e = rng.choice(TARGET_SUM_EULERS)
            source += [CircleBundle(3 if rng.random() < 0.1 else 2, e)] * rng.randint(1, 6)
        pairs.append((conn_sum(*source), ConnSum(tuple(target))))
    return pairs


def target_sums_digest() -> str:
    """SHA-256 over the JSON bounds of the :func:`target_sum_pairs`."""
    digest = hashlib.sha256()
    for m, n in target_sum_pairs():
        digest.update(json.dumps(bound_to_jsonable(degree_bounds(m, n))).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def sum_kernel_folds() -> list:
    """1,000 seeded folds for :func:`weighted_sumset`, 200 of each kind:
    a two-element part with a count up to 1,000 (with up to two small
    parts), 1-3 intervals, parts of a wide step beside {0, 1}, 1-4 parts
    that are not progressions, and subset-sum-like lists of 15-40
    two-element parts."""
    rng = random.Random(17)
    fin = DegreeSet.finite
    folds = []
    for i in range(1000):
        kind = i % 5
        if kind == 0:
            a, d = rng.randint(-50, 50), rng.choice((-1, 1)) * rng.randint(1, 40)
            parts = [(fin((a, a + d)), rng.randint(0, 1000))]
            parts += [(fin((0, rng.randint(1, 9))), rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
        elif kind == 1:
            parts = []
            for _ in range(rng.randint(1, 3)):
                lo = rng.randint(-20, 20)
                parts.append((fin(range(lo, lo + rng.randint(1, 20) + 1)), rng.randint(0, 50)))
        elif kind == 2:
            wide = rng.choice((10**9, 10**12, 3 * 10**12))
            parts = [(fin((0, wide * rng.randint(1, 5))), rng.randint(0, 20)) for _ in range(rng.randint(1, 2))]
            parts.append((fin((0, 1)), rng.randint(0, 20)))
        elif kind == 3:
            parts = []
            for _ in range(rng.randint(1, 4)):
                values = {rng.randint(-20, 20) for _ in range(rng.randint(3, 6))}
                parts.append((fin(values), rng.randint(0, 5)))
        else:
            values = rng.sample([v for v in range(-60, 61) if v], rng.randint(15, 40))
            parts = [(fin((0, v)), 1 if rng.random() < 0.8 else 2) for v in values]
        rng.shuffle(parts)
        folds.append(parts)
    return folds


def sum_kernel_digest() -> str:
    """SHA-256 over the elements of :func:`weighted_sumset` on each of the
    :func:`sum_kernel_folds`."""
    digest = hashlib.sha256()
    for parts in sum_kernel_folds():
        digest.update(json.dumps(weighted_sumset(parts).elements).encode())
        digest.update(b"\n")
    return digest.hexdigest()


DIGEST_FUNCTIONS = {
    "product_pairs": product_pairs_digest,
    "exprs": exprs_digest,
    "certificates": certificates_digest,
    "sumset_certificates": sumset_certificates_digest,
    "target_sums": target_sums_digest,
    "sum_kernel": sum_kernel_digest,
}


def recorded(name: str) -> str:
    return json.loads(DIGESTS.read_text())[name]


def test_product_pairs_digest():
    assert product_pairs_digest() == recorded("product_pairs")


def test_exprs_digest():
    assert exprs_digest() == recorded("exprs")


def test_certificates_digest():
    assert certificates_digest() == recorded("certificates")


def test_sumset_certificates_digest():
    assert sumset_certificates_digest() == recorded("sumset_certificates")


def test_target_sums_digest():
    assert target_sums_digest() == recorded("target_sums")


def test_sum_kernel_digest():
    assert sum_kernel_digest() == recorded("sum_kernel")


def test_kept_step_hashes_are_the_dataclass_hashes():
    pairs = product_pairs() + target_sum_pairs()
    for path in sorted(GOLDEN.glob("*.json")):
        cert = certificate_from_json(path.read_text(encoding="utf-8"))
        pairs.append((cert.m, cert.n))
    steps = {id(s): s for m, n in pairs for s in degree_bounds(m, n).trace}
    for s in steps.values():
        assert hash(s) == s._hash == hash((s.rule, s.inputs, s.produced, s.details)), s


def test_sumset_certificates_decode_to_their_own_text():
    for text in sumset_certificates():
        assert certificate_to_json(certificate_from_json(text)) == text


# Prints every recorded digest and, for each golden, its certificate JSON
# and its `verify --json` report through the CLI and through the full decoder.
_SEEDED_OUTPUTS = """
import contextlib, io, json
from conftest import decode_walked
from degreecalc import cli, realiser, verify
from test_digests import DIGEST_FUNCTIONS, GOLDEN
from test_realiser import GOLDEN_CASES
out = {name: fn() for name, fn in DIGEST_FUNCTIONS.items()}
for name, make in sorted(GOLDEN_CASES.items()):
    path = GOLDEN / f"{name}.json"
    with contextlib.redirect_stdout(io.StringIO()) as report:
        code = cli.main(["verify", str(path), "--json"])
    walked = verify.check_certificate(decode_walked(path.read_text(encoding="utf-8")))
    out[name] = [realiser.certificate_to_json(make()) + "\\n", code, report.getvalue()]
    out[name].append(realiser.json_text(walked.to_jsonable()) + "\\n")
print(json.dumps(out))
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _SEEDED_OUTPUTS],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "777")
    ]
    outs = [json.loads(run.communicate(timeout=300)[0]) for run in runs]
    assert outs[0] == outs[1]
    assert {name: outs[0].pop(name) for name in DIGEST_FUNCTIONS} == json.loads(DIGESTS.read_text())
    for name, (text, code, report, walked) in outs[0].items():
        assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        assert (code, report) == (0, walked)


# Prints the recorded digests as computed after a memo history: "one" forces
# every module memo to one entry and clears the pair cache at every store;
# "shuffled" keeps the real limits and first runs every digest function in a
# shuffled order.  Prints each memo's limit and the digests of every pass.
_MEMO_HISTORY = """
import functools, json, random, sys
one = sys.argv[1] == "one"
if one:
    lru_cache = functools.lru_cache

    def one_entry(maxsize=128, typed=False):
        if callable(maxsize):  # a bare @lru_cache
            return lru_cache(maxsize, typed)
        return lambda fn: lru_cache(1 if fn.__module__.startswith("degreecalc.") else maxsize, typed)(fn)

    functools.lru_cache = one_entry
from degreecalc import _memo, engine
from test_digests import DIGEST_FUNCTIONS
if one:
    class OneEntry(dict):
        def __setitem__(self, key, value):
            self.clear()
            super().__setitem__(key, value)

    engine._CACHE = OneEntry()
    passes = [list(DIGEST_FUNCTIONS)]
else:
    warm_up = list(DIGEST_FUNCTIONS)
    random.Random(43).shuffle(warm_up)
    passes = [warm_up, list(DIGEST_FUNCTIONS)]
digests = [{name: DIGEST_FUNCTIONS[name]() for name in names} for names in passes]
print(json.dumps({"limits": sorted(m.cache_info().maxsize for m in _memo.MEMOS), "passes": digests}))
"""


def test_digests_do_not_depend_on_the_memo_history():
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _MEMO_HISTORY, history],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            text=True,
        )
        for history in ("one", "shuffled")
    ]
    one, shuffled = (json.loads(run.communicate(timeout=300)[0]) for run in runs)
    assert one["limits"] == [1] * 6 and shuffled["limits"] == [64, 64, 4096, 4096, 4096, 4096]
    expected = json.loads(DIGESTS.read_text())
    for digests in one["passes"] + shuffled["passes"]:
        assert digests == expected


if __name__ == "__main__":
    print(json.dumps({name: fn() for name, fn in DIGEST_FUNCTIONS.items()}, indent=2))
