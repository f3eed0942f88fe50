"""The three workloads: seeded inputs, the timed item, and how its output is judged.

A workload first draws its raw inputs from the seed (``inputs``, plain tuples,
harness work that set-up time leaves out), then ``load`` imports degreecalc
and ``spec`` turns each raw input into the program's own request object.
The harness runs passes over the items.  Every pass starts with
``start_pass`` so that each pass does the same work.  ``run`` is the timed
call; ``observed`` turns its output into a plain value outside the timed
region, and ``expected`` gives the value that ``answers`` computes without
the program.  An item is correct when the two are equal.

Program functions are always looked up as module attributes at call time
(``self.realiser.realise_sumset``), never bound to local names, so that the
wrappers of a traced run see every call the benchmark makes.
"""

from __future__ import annotations

import math
import os
import random
import time
from pathlib import Path

import answers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("interval_sweep", "long_sums", "geometric_roundtrip")
CACHE_STATE = "engine cache cleared at pass start, warm within a pass"


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the checkout's
    sources first on the path, and a fixed hash seed so that repeated runs
    of one seed do identical work."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Workload:
    name = ""
    # Wall time of one measured pass, check and host-speed chunk included, on
    # the host of hostspeed.NOMINAL_S; a run of S seconds makes S / PASS_S passes.
    PASS_S: float

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self) -> list:
        """The raw inputs, as plain tuples; degreecalc is not imported yet."""
        raise NotImplementedError

    def load(self) -> None:
        from degreecalc import engine, realiser, verify

        self.engine = engine
        self.realiser = realiser
        self.verify = verify

    def spec(self, raw):
        """The program's request object for one raw input."""
        raise NotImplementedError

    def build(self) -> list:
        """Items as (raw input, request object) pairs.  ``inputs_s`` keeps
        the time spent drawing raw inputs, which set-up time leaves out."""
        start = time.perf_counter()
        raws = self.inputs()
        self.inputs_s = time.perf_counter() - start
        self.load()
        return [(raw, self.spec(raw)) for raw in raws]

    def start_pass(self) -> None:
        self.engine.clear_cache()

    def run(self, item):
        raise NotImplementedError

    def observed(self, item, output):
        raise NotImplementedError

    def expected(self, item):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# interval_sweep


def interval_strata():
    """The systematic sweep of arithmetic interval sequences, by stratum.

    A stratum fixes the interval length (1-5), the number of intervals (up to
    60 points in total) and the step (None for one interval); its members are
    the positions (k, offset) of the interval that holds 0, all of one cost.
    """
    for length in range(1, 6):
        for count in range(1, 60 // length + 1):
            for step in range(length, 11) if count >= 2 else [None]:
                yield length, count, step


def interval_sequence(length, count, step, k, offset):
    b_k = -offset
    if step is None:
        return ((b_k, b_k + length - 1),)
    return tuple(
        (b_k + (i - k) * step, b_k + (i - k) * step + length - 1) for i in range(1, count + 1)
    )


class IntervalSweep(Workload):
    name = "interval_sweep"
    PASS_S = 2.7
    # share of the 37,315 sequences of the sweep taken from every stratum
    SHARE = 0.135

    def inputs(self) -> list:
        rng = random.Random(self.seed)
        raws = []
        for length, count, step in interval_strata():
            positions = [(k, offset) for k in range(1, count + 1) for offset in range(length)]
            take = max(1, round(self.SHARE * len(positions)))
            # sweep order is kept, so neighbouring items share work as in the full sweep
            for k, offset in sorted(rng.sample(positions, take)):
                raws.append(interval_sequence(length, count, step, k, offset))
        return raws

    def spec(self, raw):
        return self.realiser.ArithIntervals(raw)

    def run(self, item):
        cert = self.realiser.realise_arith_intervals(item[1])
        return cert, self.verify.check_certificate(cert)

    def observed(self, item, output):
        cert, report = output
        return cert.target.elements, report.ok

    def expected(self, item):
        return answers.interval_union(item[0]), True


# ---------------------------------------------------------------------------
# long_sums

# Upper limit on the element pairs one fold of the source sum may visit; it
# keeps every item well under 50 ms so that no few items set a metric.
FOLD_PAIR_BUDGET = 100_000
# Members of the cost-sorted input pool per item kept in a run.
POOL_PER_ITEM = 30


def fold_pairs(d, n, nprime) -> int:
    """Element pairs the calculator's cross sums visit for this family, at most.

    The summands sort by Euler number d'/d_i (negative ones first), and each
    group of equal summands adds a progression {0, s, ..., c*s}.  The sums
    reached so far lie in gcd(steps) * Z within their span and number at most
    the product of the group sizes, so this is an upper bound.
    """
    d_prime = math.prod(d)
    groups = sorted(
        [(-d_prime // di, di, npi) for di, npi in zip(d, nprime) if npi]
        + [(d_prime // di, di, ni) for di, ni in zip(d, n) if ni]
    )
    reach, span, step_gcd, pairs = 1, 0, 0, 0
    for _, step, count in groups:
        pairs += reach * (count + 1)
        span += count * step
        step_gcd = math.gcd(step_gcd, step)
        reach = min(reach * (count + 1), span // step_gcd + 1)
    return pairs


def sumset_family_params(rng: random.Random):
    """A family with 20-1000 repeated summands (log-uniform) whose cross sums
    stay within the pair budget, and its cost estimate."""
    while True:
        terms = rng.randint(1, 3)
        d = tuple(sorted(rng.sample(range(1, 13), terms)))
        total = round(math.exp(rng.uniform(math.log(20), math.log(1000))))
        weights = [rng.random() ** 3 for _ in range(2 * terms)]
        scale = total / sum(weights)
        counts = [int(w * scale) for w in weights]
        counts[weights.index(max(weights))] += total - sum(counts)
        n, nprime = tuple(counts[:terms]), tuple(counts[terms:])
        pairs = fold_pairs(d, n, nprime)
        if pairs <= FOLD_PAIR_BUDGET:
            return (d, n, nprime), pairs + 20 * total


class LongSums(Workload):
    name = "long_sums"
    PASS_S = 0.92
    FAMILIES = 100
    SUBSET_LISTS = 100

    def inputs(self) -> list:
        rng = random.Random(self.seed)
        raws = []
        # A fixed pool of families, sorted by estimated cost, is cut into one
        # stratum per item; the seed picks one family from each, so every seed
        # gets nearly the same cost mix.
        pool_rng = random.Random(0)
        pool = sorted(
            (sumset_family_params(pool_rng) for _ in range(POOL_PER_ITEM * self.FAMILIES)),
            key=lambda family_cost: family_cost[1],
        )
        for j in range(self.FAMILIES):
            (d, n, nprime), _ = pool[j * POOL_PER_ITEM + rng.randrange(POOL_PER_ITEM)]
            raws.append(("family", d, n, nprime))
        nonzero = [v for v in range(-60, 61) if v]
        for j in range(self.SUBSET_LISTS):
            raws.append(("subset", tuple(rng.sample(nonzero, 15 + j % 26))))
        rng.shuffle(raws)
        return raws

    def spec(self, raw):
        if raw[0] == "family":
            return self.realiser.SumsetFamily(*raw[1:])
        return self.realiser.SubsetSums(raw[1])

    def run(self, item):
        if item[0][0] == "family":
            return self.realiser.realise_sumset(item[1])
        return self.realiser.realise_subset_sums(item[1])

    def observed(self, item, output):
        return output.target.elements

    def expected(self, item):
        raw = item[0]
        if raw[0] == "family":
            return answers.family_set(*raw[1:])
        return answers.subset_sums(raw[1])


# ---------------------------------------------------------------------------
# geometric_roundtrip


class GeometricRoundtrip(Workload):
    name = "geometric_roundtrip"
    PASS_S = 4.0
    ITEMS = 200

    def inputs(self) -> list:
        rng = random.Random(self.seed)
        # A fixed pool of tuples, of lengths 1-6 in equal shares with values
        # drawn with repeats (1s included), is sorted by the number and sum
        # of the values above 1, which set the block count and block sizes,
        # and cut into one stratum per item; the seed picks one tuple from
        # each, so every seed gets nearly the same cost mix.
        pool_rng = random.Random(0)
        pool = [
            tuple(sorted(pool_rng.randint(1, 13) for _ in range(1 + j % 6)))
            for j in range(POOL_PER_ITEM * self.ITEMS)
        ]
        pool.sort(key=lambda d: (sum(x > 1 for x in d), sum(x for x in d if x > 1), d))
        raws = [pool[j * POOL_PER_ITEM + rng.randrange(POOL_PER_ITEM)] for j in range(self.ITEMS)]
        rng.shuffle(raws)
        return raws

    def spec(self, raw):
        return self.realiser.Geometric(raw)

    def run(self, item):
        realiser = self.realiser
        cert = realiser.realise_geometric(item[1])
        back = realiser.certificate_from_json(realiser.certificate_to_json(cert))
        return cert, back, self.verify.check_certificate(back)

    def observed(self, item, output):
        cert, back, report = output
        return cert.target.elements, back.target.elements, report.ok

    def expected(self, item):
        products = answers.subset_products(item[0])
        return products, products, True


CLASSES = {cls.name: cls for cls in (IntervalSweep, LongSums, GeometricRoundtrip)}


def make(name: str, seed: int) -> Workload:
    return CLASSES[name](seed)
