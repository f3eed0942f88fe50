"""Constructions realising prescribed degree sets, with checkable certificates.

Four families of target sets are supported:

* :class:`SumsetFamily` -- sums ``sum_i m_i * d_i`` with ``-n'_i <= m_i <= n_i``,
  realised by a connected sum of circle bundles mapping to a single bundle.
* :class:`ArithIntervals` -- an arithmetic sequence of integer intervals
  containing 0, reduced to a two-parameter sumset family.
* :class:`SubsetSums` -- all subset sums of a finite integer list.
* :class:`Geometric` -- ``{0, 1}`` together with all subset products of a
  non-decreasing list of positive integers, realised by products of
  connected sums of circle bundles.

Each family has one construction, :func:`_sumset_construction` or
:func:`_geometric_construction`, from the spec and the free choices (base
genus, block primes) to M, N and the recorded params; the checker compares a
certificate with it by equality.  Every realisation returns a
:class:`Certificate` whose derivation is the calculator's own trace; building
one re-runs the calculator and demands an exact answer equal to the
constructed target, so a certificate cannot be produced unless construction
and calculus agree.  A certificate decoded from JSON keeps its derivation as
recorded: step inputs and expressions inside step details stay text, for the
checker to compare with a fresh trace.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from . import engine, intset
from .dsl import parse_expr, print_expr
from .engine import RuleApplication
from .intset import DegreeSet
from .manifold import CircleBundle, ConnSum, ManifoldExpr, Product, dimension, normalize

BASE_GENUS = 2


class InvalidSpec(ValueError):
    """The realisation request violates its family's constraints."""


class ZeroNotContained(InvalidSpec):
    """No interval of the requested sequence contains 0."""


class RealisationFailed(RuntimeError):
    """The construction did not reproduce the requested set (internal error)."""


class MalformedCertificate(ValueError):
    """The certificate is structurally broken (not merely wrong)."""


@dataclass(frozen=True)
class SumsetFamily:
    d: tuple[int, ...]
    n: tuple[int, ...]
    nprime: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.d:
            raise InvalidSpec("sumset family needs at least one term")
        if not (len(self.d) == len(self.n) == len(self.nprime)):
            raise InvalidSpec("d, n, nprime must have equal lengths")
        if any(x <= 0 for x in self.d):
            raise InvalidSpec("family values d_i must be positive")
        if any(x < 0 for x in self.n) or any(x < 0 for x in self.nprime):
            raise InvalidSpec("multiplicities n_i, n'_i must be >= 0")


@dataclass(frozen=True)
class ArithIntervals:
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        bs = self.bounds
        if not bs:
            raise InvalidSpec("interval sequence must be non-empty")
        for b, c in bs:
            if b > c:
                raise InvalidSpec(f"interval [{b}, {c}] is empty")
        for (b1, c1), (b2, _) in zip(bs, bs[1:]):
            if c1 >= b2:
                raise InvalidSpec("intervals must be disjoint and increasing")
        lengths = {c - b for b, c in bs}
        if len(lengths) > 1:
            raise InvalidSpec("intervals must all have the same length")
        steps = {b2 - b1 for (b1, _), (b2, _) in zip(bs, bs[1:])}
        if len(steps) > 1:
            raise InvalidSpec("interval start points must be in arithmetic progression")


@dataclass(frozen=True)
class SubsetSums:
    d: tuple[int, ...]


@dataclass(frozen=True)
class Geometric:
    d: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.d:
            raise InvalidSpec("geometric family needs at least one value")
        if any(x < 1 for x in self.d):
            raise InvalidSpec("geometric family values must be >= 1")
        if any(a > b for a, b in zip(self.d, self.d[1:])):
            raise InvalidSpec("geometric family values must be non-decreasing")


RealisationSpec = SumsetFamily | ArithIntervals | SubsetSums | Geometric


@dataclass(frozen=True)
class Certificate:
    spec: RealisationSpec
    target: DegreeSet
    m: ManifoldExpr
    n: ManifoldExpr
    params: Mapping[str, object]
    derivation: tuple[RuleApplication, ...]


def _certified(
    spec: RealisationSpec, m: ManifoldExpr, n: ManifoldExpr, params: dict[str, object]
) -> Certificate:
    bound = engine._bounds(m, n)
    if not bound.exact:
        raise RealisationFailed(
            f"construction for {spec!r} is not decided by the calculator: "
            f"lower {bound.lower}, upper {bound.upper}"
        )
    target = bound.lower
    if 0 not in target:
        raise RealisationFailed(f"constructed set {target} misses 0")
    return Certificate(spec, target, m, n, params, bound.trace)


# ---------------------------------------------------------------------------
# sumset family, arithmetic interval sequences, subset sums


def _sumset_family(spec: SumsetFamily | ArithIntervals | SubsetSums) -> SumsetFamily:
    """The sumset family whose set is the spec's target.

    For intervals, with [b_k, c_k] the k-th of l intervals and the one
    containing 0, the family has d = (1, d_2) with d_2 = b_2 - b_1, and
    n_1 = c_k, n'_1 = -b_k, n_2 = l - k, n'_2 = k - 1.  For subset sums, each
    non-zero value becomes a one-copy term, its sign absorbed into the
    multiplicities.
    """
    if isinstance(spec, SumsetFamily):
        return spec
    if isinstance(spec, SubsetSums):
        values = [x for x in spec.d if x != 0]
        if not values:
            return SumsetFamily(d=(1,), n=(0,), nprime=(0,))
        return SumsetFamily(
            d=tuple(abs(x) for x in values),
            n=tuple(1 if x > 0 else 0 for x in values),
            nprime=tuple(0 if x > 0 else 1 for x in values),
        )
    bounds = spec.bounds
    k = next((i + 1 for i, (b, c) in enumerate(bounds) if b <= 0 <= c), None)
    if k is None:
        raise ZeroNotContained(f"no interval of {bounds} contains 0")
    b_k, c_k = bounds[k - 1]
    if len(bounds) == 1:
        return SumsetFamily(d=(1, 1), n=(c_k, 0), nprime=(-b_k, 0))
    d2 = bounds[1][0] - bounds[0][0]
    return SumsetFamily(d=(1, d2), n=(c_k, len(bounds) - k), nprime=(-b_k, k - 1))


def _sumset_construction(
    spec: SumsetFamily | ArithIntervals | SubsetSums, genus: int
) -> tuple[ManifoldExpr, ManifoldExpr, dict[str, object]]:
    """M, N and params realising {sum m_i d_i | -n'_i <= m_i <= n_i} for the
    family of :func:`_sumset_family`, over base genus ``genus``.

    N is the bundle with Euler number d' = prod d_i; for each i, M gets n_i
    summands with Euler number d'/d_i and n'_i with -d'/d_i, so each summand
    contributes {0, d_i} or {0, -d_i} and the contributions add over the
    connected sum.
    """
    family = _sumset_family(spec)
    d_prime = math.prod(family.d)
    d_i_prime = [d_prime // x for x in family.d]
    counts: dict[int, int] = {}  # Euler number -> summand count
    for di_p, ni, npi in zip(d_i_prime, family.n, family.nprime):
        counts[di_p] = counts.get(di_p, 0) + ni
        counts[-di_p] = counts.get(-di_p, 0) + npi
    summands = {CircleBundle(genus, e): k for e, k in counts.items() if k}
    params: dict[str, object] = {"d_prime": d_prime, "d_i_prime": d_i_prime, "base_genus": genus}
    if summands:  # a one-summand sum is the summand itself
        m_expr = ConnSum(summands) if sum(summands.values()) > 1 else next(iter(summands))
    else:
        # All multiplicities zero: the only representable value is 0, which a
        # bundle pair with non-dividing Euler numbers realises exactly.
        # d' + 1 is the smallest value > d' not dividing d'.
        m_expr = CircleBundle(genus, d_prime + 1)
        params["degenerate_euler"] = d_prime + 1
    if isinstance(spec, ArithIntervals):
        (n1, n2), (n1p, n2p) = family.n, family.nprime
        params.update(
            n1=n1, n1prime=n1p, d2=family.d[1], n2=n2, n2prime=n2p, zero_interval_index=n2p + 1
        )
    elif isinstance(spec, SubsetSums):
        params["dropped_zeros"] = spec.d.count(0)
    return m_expr, CircleBundle(genus, d_prime), params


def realise_sumset(spec: SumsetFamily) -> Certificate:
    """Realise {sum m_i d_i | -n'_i <= m_i <= n_i} by :func:`_sumset_construction`."""
    return _certified(spec, *_sumset_construction(spec, BASE_GENUS))


def realise_arith_intervals(spec: ArithIntervals) -> Certificate:
    """Realise a union of equally spaced, equal-length integer intervals as
    the two-term sumset family of :func:`_sumset_family`."""
    cert = _certified(spec, *_sumset_construction(spec, BASE_GENUS))
    expected = DegreeSet.finite(x for b, c in spec.bounds for x in range(b, c + 1))
    if not intset.equals(cert.target, expected):
        raise RealisationFailed(f"interval realisation produced {cert.target}, wanted {expected}")
    return cert


def realise_subset_sums(spec: SubsetSums) -> Certificate:
    """Realise {sum over S of d_j | S a subset} by :func:`_sumset_construction`."""
    return _certified(spec, *_sumset_construction(spec, BASE_GENUS))


# ---------------------------------------------------------------------------
# geometric / subset products

# The first 13 primes.  Miller-Rabin over them as bases is exact below
# _PRIME_TEST_BOUND, the least strong pseudoprime to all of them.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n; InvalidSpec if that is not
    below _PRIME_TEST_BOUND."""
    candidate = max(n, 1) + 1
    while not _is_prime(candidate):
        if candidate >= _PRIME_TEST_BOUND:
            raise InvalidSpec(f"no prime above {n} is below the exact primality test's bound")
        candidate += 1
    return candidate


def _is_prime(n: int) -> bool:
    """Whether n is a prime below _PRIME_TEST_BOUND, by deterministic
    Miller-Rabin, which is exact there.  Larger n are never certified prime."""
    if not 2 <= n < _PRIME_TEST_BOUND:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite below 43^2 has a prime factor below 43
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        # n - 1 = d * 2^s with d odd; a witnesses that n is composite unless
        # a^d = 1 or a^(d * 2^r) = -1 (mod n) for some r < s
        x = pow(a, d, n)
        if x != 1 and n - 1 not in (pow(x, 1 << r, n) for r in range(s)):
            return False
    return True


def _geometric_blocks(d: int, q: int, genus: int) -> tuple[ManifoldExpr, ManifoldExpr]:
    """The block pair (Q, P) for value d and prime q: Q = d K(g;q) # K(g;d) #
    K(g;d^2) and P = K(g;q) # K(g;d^2).  Counted, since K(g;d) = K(g;d^2) at d = 1."""
    source = Counter({CircleBundle(genus, q): d})
    source.update((CircleBundle(genus, d), CircleBundle(genus, d * d)))
    # sums of two or more bundles are already in normal form
    return ConnSum(source), ConnSum((CircleBundle(genus, q), CircleBundle(genus, d * d)))


def _block_values(spec: Geometric) -> list[int]:
    """One block per value d_j > 1, or a single value-1 block when all are 1."""
    return [x for x in spec.d if x > 1] or [1]


def _geometric_construction(
    spec: Geometric, qs: list[int], genus: int
) -> tuple[ManifoldExpr, ManifoldExpr, dict[str, object]]:
    """M, N and params of the block products for the primes ``qs``, one per block value."""
    core = _block_values(spec)
    blocks = [_geometric_blocks(d, q, genus) for d, q in zip(core, qs)]
    if len(blocks) == 1:
        m_expr, n_expr = blocks[0]
    else:
        m_expr = normalize(Product(tuple(b[0] for b in blocks)))
        n_expr = normalize(Product(tuple(b[1] for b in blocks)))
    d_max, ascending = max(spec.d), all(a < b for a, b in zip(qs, qs[1:]))
    params: dict[str, object] = {
        "q": list(qs),
        "d_core": core,
        "max_d": d_max,
        "base_genus": genus,
        "prime_hygiene": {"ascending_distinct": ascending, "q1_exceeds_all_d": qs[0] > d_max},
        "degenerate_all_ones": d_max == 1,
    }
    return m_expr, n_expr, params


def realise_geometric(spec: Geometric) -> Certificate:
    """Realise {0, 1} together with all subset products of the d_j.

    Each value d gets a block pair (Q, P) with degree set {0, 1, d}: P is a
    sum of a bundle with prime Euler number q > max d_j and one with Euler
    number d^2, and Q carries d copies of the q-bundle plus bundles with
    Euler numbers d and d^2, so that P has a degree-d cover inside Q.  The
    full source and target are the products of the blocks.

    Values d_j = 1 contribute nothing to the subset products (the block set
    {0, 1} is absorbed), and their blocks would obstruct the product
    exactness conditions, so they are dropped; an all-ones request is
    realised by a single degenerate block.
    """
    qs: list[int] = []
    for d in _block_values(spec):
        q = next_prime(qs[-1] if qs else max(spec.d))
        expected = DegreeSet.finite({0, 1, d})
        for _ in range(25):
            bound = engine._bounds(*_geometric_blocks(d, q, BASE_GENUS))
            if bound.exact and intset.equals(bound.lower, expected):
                break
            q = next_prime(q)
        else:
            raise RealisationFailed(f"no admissible prime found for block value {d}")
        qs.append(q)
    return _certified(spec, *_geometric_construction(spec, qs, BASE_GENUS))


# ---------------------------------------------------------------------------
# serialization


def spec_to_jsonable(spec: RealisationSpec) -> dict:
    if isinstance(spec, SumsetFamily):
        return {
            "variant": "sumset_family",
            "d": list(spec.d),
            "n": list(spec.n),
            "nprime": list(spec.nprime),
        }
    if isinstance(spec, ArithIntervals):
        return {"variant": "arith_intervals", "bounds": [list(b) for b in spec.bounds]}
    if isinstance(spec, SubsetSums):
        return {"variant": "subset_sums", "d": list(spec.d)}
    if isinstance(spec, Geometric):
        return {"variant": "geometric", "d": list(spec.d)}
    raise TypeError(f"not a realisation spec: {spec!r}")


def _ints(v: object) -> tuple[int, ...]:
    if not (isinstance(v, list) and all(type(x) is int for x in v)):
        raise ValueError(f"expected a list of integers, got {v!r}")
    return tuple(v)


def spec_from_jsonable(obj: object) -> RealisationSpec:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ValueError(f"not a serialized realisation spec: {obj!r}")
    variant = obj["variant"]
    try:
        if variant == "sumset_family":
            return SumsetFamily(_ints(obj["d"]), _ints(obj["n"]), _ints(obj["nprime"]))
        if variant == "arith_intervals":
            return ArithIntervals(tuple(_ints(b) for b in obj["bounds"]))
        if variant == "subset_sums":
            return SubsetSums(_ints(obj["d"]))
        if variant == "geometric":
            return Geometric(_ints(obj["d"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed spec payload: {obj!r}") from exc
    raise ValueError(f"unknown spec variant: {variant!r}")


def certificate_to_jsonable(cert: Certificate) -> dict:
    return {
        "spec": spec_to_jsonable(cert.spec),
        "target": intset.to_jsonable(cert.target),
        "M": print_expr(cert.m),
        "N": print_expr(cert.n),
        "params": dict(cert.params),
        "derivation": engine.trace_to_jsonable(cert.derivation),
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_jsonable(cert), indent=2)


def _entry_from_jsonable(obj: dict) -> RuleApplication:
    inputs = obj.get("inputs", [])
    if not (isinstance(inputs, list) and all(isinstance(x, str) for x in inputs)):
        raise MalformedCertificate(f"derivation inputs must be expression texts, got {inputs!r}")
    produced = intset.from_jsonable(obj["produced"])
    details = tuple(obj.get("details", {}).items())
    return RuleApplication(obj["rule"], tuple(inputs), produced, details)


def certificate_from_jsonable(obj: object) -> Certificate:
    if not isinstance(obj, dict):
        raise MalformedCertificate(f"certificate must be an object, got {type(obj).__name__}")
    try:
        spec = spec_from_jsonable(obj["spec"])
        target = intset.from_jsonable(obj["target"])
        m = parse_expr(obj["M"])
        n = parse_expr(obj["N"])
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("params must be an object")
        derivation = tuple(_entry_from_jsonable(e) for e in obj.get("derivation", []))
    except MalformedCertificate:
        raise
    except Exception as exc:
        raise MalformedCertificate(f"cannot decode certificate: {exc}") from exc
    if target.is_all:
        raise MalformedCertificate("certificate target must be a finite set")
    if 0 not in target:
        raise MalformedCertificate("certificate target must contain 0")
    if dimension(m) != dimension(n):
        raise MalformedCertificate("certificate manifolds have different dimensions")
    return Certificate(spec, target, m, n, params, derivation)


def certificate_from_json(text: str) -> Certificate:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedCertificate(f"invalid JSON: {exc}") from exc
    return certificate_from_jsonable(obj)
