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
:func:`_geometric_construction`: a memoised value of the spec and the free
choices (base genus, block primes), namely M, N and the params, with which the
checker compares a certificate by equality.  A realisation returns a
:class:`Certificate` with its own copy of the params and the calculator's own
trace as derivation; building one re-runs the calculator and demands an exact
answer equal to the constructed target, so a certificate cannot be produced
unless construction and calculus agree.  :func:`certificate_to_json` writes a
certificate as ``json.dumps(certificate_to_jsonable(cert), indent=2)`` does,
and only a JSON value written exactly so decodes.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import Mapping

from . import engine, intset
from ._memo import memo
from .dsl import parse_expr, print_expr
from .engine import RuleApplication
from .intset import DegreeSet
from .manifold import CircleBundle, ConnSum, ManifoldExpr, Product, dimension
from .manifold import normalize  # held by perfbench/tests (traced_run)

BASE_GENUS = 2
_CONTAINERS = {list, dict}  # the params values that a certificate gets its own copy of


class InvalidSpec(ValueError):
    """The realisation request violates its family's constraints."""


class ZeroNotContained(InvalidSpec):
    """No interval of the requested sequence contains 0."""


class RealisationFailed(RuntimeError):
    """The construction did not reproduce the requested set (internal error)."""


class MalformedCertificate(ValueError):
    """The certificate is structurally broken (not merely wrong)."""


def _check_ints(name: str, values: object) -> None:
    """Raise InvalidSpec unless ``values`` is a tuple of ints, bools excluded,
    as the decoder builds it: a spec then equals only a spec of the same
    values in type too, and hashes."""
    if type(values) is not tuple or not all(type(x) is int for x in values):
        raise InvalidSpec(f"{name} must be a tuple of integers, got {values!r}")


@dataclass(frozen=True)
class SumsetFamily:
    d: tuple[int, ...]
    n: tuple[int, ...]
    nprime: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_ints("d", self.d)
        _check_ints("n", self.n)
        _check_ints("nprime", self.nprime)
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
        if type(bs) is not tuple:
            raise InvalidSpec(f"interval sequence must be a tuple, got {bs!r}")
        if not bs:
            raise InvalidSpec("interval sequence must be non-empty")
        for pair in bs:
            b, c = pair if type(pair) is tuple and len(pair) == 2 else (None, None)
            if type(b) is not int or type(c) is not int:
                raise InvalidSpec(f"interval {pair!r} is not a tuple of two integers")
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

    def __post_init__(self) -> None:
        _check_ints("d", self.d)


@dataclass(frozen=True)
class Geometric:
    d: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_ints("d", self.d)
        if not self.d:
            raise InvalidSpec("geometric family needs at least one value")
        if any(x < 1 for x in self.d):
            raise InvalidSpec("geometric family values must be >= 1")
        if any(a > b for a, b in zip(self.d, self.d[1:])):
            raise InvalidSpec("geometric family values must be non-decreasing")


RealisationSpec = SumsetFamily | ArithIntervals | SubsetSums | Geometric


@dataclass(frozen=True)
class Certificate:
    """A realisation and the evidence for it.  The derivation is the
    calculator's trace, a tuple of immutable steps, on a realised certificate
    and on one decoded from the writer's text; otherwise it is the decoded
    JSON list of steps."""

    spec: RealisationSpec
    target: DegreeSet
    m: ManifoldExpr
    n: ManifoldExpr
    params: Mapping[str, object]
    derivation: tuple[RuleApplication, ...] | list[dict]  # a trace, or decoded JSON


def _certified(
    spec: RealisationSpec, m: ManifoldExpr, n: ManifoldExpr, params: dict[str, object]
) -> Certificate:
    """A decided construction's certificate, with its own copy of the memoised params."""
    bound = engine._bounds(m, n)
    if not bound.exact:
        raise RealisationFailed(
            f"construction for {spec!r} is not decided by the calculator: "
            f"lower {bound.lower}, upper {bound.upper}"
        )
    own = params | {k: v.copy() for k, v in params.items() if type(v) in _CONTAINERS}
    return Certificate(spec, bound.lower, m, n, own, bound.trace)


# ---------------------------------------------------------------------------
# sumset family, arithmetic interval sequences, subset sums


def _sumset_family(
    spec: SumsetFamily | ArithIntervals | SubsetSums,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The terms (d, n, n') of the sumset family whose set is the spec's target.

    For intervals, with [b_k, c_k] the k-th of l intervals and the one
    containing 0, the family has d = (1, d_2) with d_2 = b_2 - b_1, and
    n_1 = c_k, n'_1 = -b_k, n_2 = l - k, n'_2 = k - 1.  For subset sums, each
    non-zero value becomes a one-copy term, its sign absorbed into the
    multiplicities.  The spec was validated when built, and the terms are
    valid by construction (d_2 > 0, c_k >= 0 >= b_k), so they are not
    checked again.
    """
    if isinstance(spec, SumsetFamily):
        return spec.d, spec.n, spec.nprime
    if isinstance(spec, SubsetSums):
        values = [x for x in spec.d if x != 0]
        if not values:
            return (1,), (0,), (0,)
        return (
            tuple(abs(x) for x in values),
            tuple(1 if x > 0 else 0 for x in values),
            tuple(0 if x > 0 else 1 for x in values),
        )
    bounds = spec.bounds
    l, b_1 = len(bounds), bounds[0][0]
    d2 = bounds[1][0] - b_1 if l > 1 else 1
    # The starts b_1 + (i - 1) * d2 are equally spaced and the intervals
    # disjoint, so only the last interval starting at or below 0 can hold it.
    k = min(l, 1 + (-b_1) // d2) if b_1 <= 0 else 1
    b_k, c_k = bounds[k - 1]
    if not b_k <= 0 <= c_k:
        raise ZeroNotContained(f"no interval of {bounds} contains 0")
    if l == 1:
        return (1, 1), (c_k, 0), (-b_k, 0)
    return (1, d2), (c_k, l - k), (-b_k, k - 1)


# The checker asks for what the realiser has just built: 64 entries are enough.
@memo(64)
def _sumset_construction(
    spec: SumsetFamily | ArithIntervals | SubsetSums, genus: int
) -> tuple[ManifoldExpr, ManifoldExpr, dict[str, object]]:
    """M, N and params realising {sum m_i d_i | -n'_i <= m_i <= n_i} for the
    family of :func:`_sumset_family`, over base genus ``genus``, built once
    while in the memo.  Every caller gets the memo's objects, params included,
    and must not edit them; a certificate owns a copy of the params.

    N is the bundle with Euler number d' = prod d_i; for each i, M gets n_i
    summands with Euler number d'/d_i and n'_i with -d'/d_i, so each summand
    contributes {0, d_i} or {0, -d_i} and the contributions add over the
    connected sum.
    """
    d, n, nprime = _sumset_family(spec)
    d_prime = math.prod(d)
    d_i_prime = [d_prime // x for x in d]
    counts: dict[int, int] = {}  # Euler number -> summand count
    for di_p, ni, npi in zip(d_i_prime, n, nprime):
        counts[di_p] = counts.get(di_p, 0) + ni
        counts[-di_p] = counts.get(-di_p, 0) + npi
    # params take N's genus, an int even where an equal 2.0 found N in the bundle memo
    n_expr = _bundle(genus, d_prime)
    params = dict(d_prime=d_prime, d_i_prime=d_i_prime, base_genus=n_expr.base_genus)
    if any(counts.values()):
        m_expr = _bundle_sum(genus, counts)
    else:
        # All multiplicities zero: the only representable value is 0, which a
        # bundle pair with non-dividing Euler numbers realises exactly.
        # d' + 1 is the smallest value > d' not dividing d'.
        m_expr = _bundle(genus, d_prime + 1)
        params["degenerate_euler"] = d_prime + 1
    if isinstance(spec, ArithIntervals):
        (n1, n2), (n1p, n2p) = n, nprime
        params.update(n1=n1, n1prime=n1p, d2=d[1], n2=n2, n2prime=n2p)
        params["zero_interval_index"] = n2p + 1
    elif isinstance(spec, SubsetSums):
        params["dropped_zeros"] = spec.d.count(0)
    return m_expr, n_expr, params


@memo()
def _bundle(genus: int, e: int) -> CircleBundle:
    """K(genus; e), built once while in the bundle memo, so that every
    construction shares it and engine cache keys match by identity."""
    return CircleBundle(genus, e)


def _bundle_sum(genus: int, counts: Mapping[int, int]) -> ConnSum | CircleBundle:
    """The connected sum of ``counts[e]`` copies of K(genus; e) for each Euler
    number e with a positive count.  The summands are bundles over one base,
    so Euler-number order is their :func:`sort_key` order and the sum is built
    canonical, without the checks of the ``ConnSum`` constructor."""
    summands = tuple((_bundle(genus, e), k) for e, k in sorted(counts.items()) if k)
    # one copy of one bundle is that bundle: a sum has two or more summands
    return summands[0][0] if [k for _, k in summands] == [1] else ConnSum._trusted(summands)


def realise_sumset(spec: SumsetFamily) -> Certificate:
    """Realise {sum m_i d_i | -n'_i <= m_i <= n_i} by :func:`_sumset_construction`."""
    return _certified(spec, *_sumset_construction(spec, BASE_GENUS))


def realise_arith_intervals(spec: ArithIntervals) -> Certificate:
    """Realise a union of equally spaced, equal-length integer intervals as
    the two-term sumset family of :func:`_sumset_family`."""
    return _certified(spec, *_sumset_construction(spec, BASE_GENUS))


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


@memo()
def _geometric_blocks(d: int, q: int, genus: int) -> tuple[ManifoldExpr, ManifoldExpr]:
    """The block pair (Q, P) for value d and prime q: Q = d K(g;q) # K(g;d) #
    K(g;d^2) and P = K(g;q) # K(g;d^2).  Counted, since K(g;d) = K(g;d^2) at d = 1
    and a certificate under check may record any integer q.  Built once while
    in the block memo, so that constructions share the blocks across specs, and
    with them each block's kept text and equality by identity."""
    source = Counter({q: d})
    source.update((d, d * d))
    return _bundle_sum(genus, source), _bundle_sum(genus, Counter((q, d * d)))


def _block_values(spec: Geometric) -> list[int]:
    """One block per value d_j > 1, or a single value-1 block when all are 1."""
    return [x for x in spec.d if x > 1] or [1]


@memo(64)
def _geometric_construction(
    spec: Geometric, qs: tuple[int, ...], genus: int
) -> tuple[ManifoldExpr, ManifoldExpr, dict[str, object]]:
    """M, N and params of the block products for the primes ``qs``, one per block value, built
    once while in the memo; only int choices are built, so an equal 2.0 finds only theirs."""
    _check_ints("free choices", (*qs, genus))
    core = _block_values(spec)
    blocks = [_geometric_blocks(d, q, genus) for d, q in zip(core, qs)]
    if len(blocks) == 1:
        m_expr, n_expr = blocks[0]
    else:
        m_expr = Product(tuple(b[0] for b in blocks))
        n_expr = Product(tuple(b[1] for b in blocks))
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
    full source and target are the products of the blocks.  The primes are
    the consecutive primes above max(d_j, 2): every prime q > d except 2
    gives the block exactly that set, while q = 2 at d = 1 leaves degree 2
    undecided, as K(g;1) -> K(g;2) has degree set {0, 2}.

    Values d_j = 1 contribute nothing to the subset products (the block set
    {0, 1} is absorbed), and their blocks would obstruct the product
    exactness conditions, so they are dropped; an all-ones request is
    realised by a single degenerate block.
    """
    qs = [next_prime(max(*spec.d, 2))]
    for _ in _block_values(spec)[1:]:
        qs.append(next_prime(qs[-1]))
    return _certified(spec, *_geometric_construction(spec, tuple(qs), BASE_GENUS))


# ---------------------------------------------------------------------------
# serialization


_SPECS = {
    "sumset_family": SumsetFamily,
    "arith_intervals": ArithIntervals,
    "subset_sums": SubsetSums,
    "geometric": Geometric,
}
_VARIANTS = {cls: variant for variant, cls in _SPECS.items()}


def _int_tuples(v: object, depth: int) -> tuple:
    """The JSON list ``v`` as tuples nested ``depth`` deep over integers."""
    if not isinstance(v, list) or (depth == 1 and not all(type(x) is int for x in v)):
        raise ValueError(f"expected integer lists nested {depth} deep, got {v!r}")
    return tuple(v) if depth == 1 else tuple(_int_tuples(x, depth - 1) for x in v)


def spec_to_jsonable(spec: RealisationSpec) -> dict:
    values = {f.name: getattr(spec, f.name) for f in fields(spec)}
    return {"variant": _VARIANTS[type(spec)]} | values


def spec_from_jsonable(obj: object) -> RealisationSpec:
    cls = _SPECS[obj["variant"]]
    # annotations are text here: "tuple[int, ...]" or "tuple[tuple[int, int], ...]"
    return cls(*(_int_tuples(obj[f.name], f.type.count("tuple[")) for f in fields(cls)))


def _written(v: object) -> object:
    """:func:`engine.json_view` of a value the encoder cannot write; TypeError if
    that is the value itself, which the encoder would ask for again and again."""
    view = engine.json_view(v)
    if view is v:
        raise TypeError(f"{type(v).__name__} has no JSON text")
    return view


_escape = json.encoder.encode_basestring_ascii
# The canonical text of a value, in pieces: the C encoder of JSONEncoder(sort_keys=True,
# allow_nan=False, check_circular=False, default=_written), built once rather
# than at every encode call.  It writes 1, 1.0 and true apart.
_canonical = json.encoder.c_make_encoder(
    None, _written, _escape, None, ": ", ", ", True, False, False
)


def _same(a: object, b: object) -> bool:
    """Whether a and b are written as the same JSON, in type too at every level
    (a recorded 0 is not false, 1.0 not 1), by their canonical texts.  A value
    with no JSON text (NaN or an infinity, a cycle, keys of mixed types, a
    type the writer does not write) is the same only as itself."""
    try:
        return a is b or "".join(_canonical(a, 0)) == "".join(_canonical(b, 0))
    except (ValueError, TypeError, RecursionError):
        return False


def _layout(cert: Certificate) -> dict:
    """The certificate's JSON object, shallow: the keys in their written
    order, with the target still a DegreeSet, M and N expressions and the
    derivation as held."""
    return {
        "spec": spec_to_jsonable(cert.spec),
        "target": cert.target,
        "M": cert.m,
        "N": cert.n,
        "params": dict(cert.params),
        "derivation": cert.derivation,
    }


def certificate_to_jsonable(cert: Certificate) -> dict:
    return engine.jsonable(_layout(cert))


def certificate_to_json(cert: Certificate) -> str:
    """``json.dumps(certificate_to_jsonable(cert), indent=2)``, written
    straight from the certificate."""
    return json_text(_layout(cert))


def json_text(v: object) -> str:
    """``json.dumps(engine.jsonable(v), indent=2)``, built from C-level
    pieces without building that value or a step's :func:`engine.json_view`;
    a DegreeSet is written as its :func:`intset.to_jsonable` form.
    Object keys must be strings, and a value of any other type raises
    TypeError, as it does in ``json.dumps``.
    """
    return _json_text(v, "")


# On Python 3.11, ``json.dumps`` takes its pure-Python encoder whenever it
# indents; the pieces below are C functions or single calls.
_INT_ONLY = {int}


def _json_text(v: object, indent: str) -> str:
    """:func:`json_text` of ``v`` nested at ``indent``."""
    t = type(v)
    if t is RuleApplication:
        return _step_text(v, indent)
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = indent + "  "
        if set(map(type, v)) == _INT_ONLY:
            items = map(int.__repr__, v)
        else:
            items = [_json_text(x, inner) for x in v]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if t is str:
        return _escape(v)
    if t is int:
        return int.__repr__(v)
    if t in engine._EXPR_TYPES:
        return _escape(print_expr(v))
    if t is DegreeSet:
        return _json_text(intset.to_jsonable(v), indent)
    if t is dict:
        if not v:
            return "{}"
        inner = indent + "  "
        items = [_escape(k) + ": " + _json_text(x, inner) for k, x in v.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    # container subclasses may hold values for json_view; json.dumps does the rest
    if isinstance(v, (list, tuple)):
        return _json_text(list(v), indent)
    if isinstance(v, dict):
        return _json_text(dict(v), indent)
    return json.dumps(v)


# A step's indent in a certificate's "derivation" list, and its text there.
_STEP_INDENT = "    "
_STEP = '{\n      "rule": %s,\n      "inputs": %s,\n      "produced": %s,\n      "details": %s\n    }'


def _step_text(step: RuleApplication, indent: str) -> str:
    """:func:`_json_text` of a trace step, written from ``_STEP`` and kept on
    the step at the indent of a certificate's steps, so that a certificate
    takes it as it is.  At another indent it is re-indented by one replace:
    every control character inside a string is escaped, so each newline in the
    text is one of the writer's own line breaks, followed by at least that indent."""
    text = getattr(step, "_text", None)
    if text is None:
        parts = step.rule, step.inputs, step.produced, dict(step.details)
        text = _STEP % tuple(_json_text(x, _STEP_INDENT + "  ") for x in parts)
        object.__setattr__(step, "_text", text)
    if indent != _STEP_INDENT:
        text = text.replace("\n" + _STEP_INDENT, "\n" + indent)
    return text


def _checked_head(obj: object) -> tuple[RealisationSpec, DegreeSet, ManifoldExpr, ManifoldExpr]:
    """The spec, target, M and N of a decoded certificate object, each decoded
    and checked as every decoded certificate's are."""
    if not isinstance(obj, dict):
        raise MalformedCertificate(f"certificate must be an object, got {type(obj).__name__}")
    try:
        spec = spec_from_jsonable(obj["spec"])
        target = intset.from_jsonable(obj["target"])
        m = parse_expr(obj["M"])
        n = parse_expr(obj["N"])
    except Exception as exc:
        raise MalformedCertificate(f"cannot decode certificate: {exc}") from exc
    if target.is_all:
        raise MalformedCertificate("certificate target must be a finite set")
    if 0 not in target:
        raise MalformedCertificate("certificate target must contain 0")
    if dimension(m) != dimension(n):
        raise MalformedCertificate("certificate manifolds have different dimensions")
    return spec, target, m, n


def certificate_from_jsonable(obj: object) -> Certificate:
    """Decode a certificate, provided it is written exactly as ``obj``."""
    spec, target, m, n = _checked_head(obj)
    try:
        steps = obj["derivation"]
        if not isinstance(steps, list):
            raise ValueError(f"derivation must be a list of steps, got {steps!r}")
        for step in steps:
            inputs = step.get("inputs", []) if isinstance(step, dict) else None
            if not (isinstance(inputs, list) and all(isinstance(x, str) for x in inputs)):
                raise ValueError(f"not a step object with expression texts as inputs: {step!r}")
        cert = Certificate(spec, target, m, n, obj["params"], steps)
        layout = _layout(cert)  # dict(params) raises on a params that is not an object
    except Exception as exc:
        raise MalformedCertificate(f"cannot decode certificate: {exc}") from exc
    # params and derivation are held as decoded, for the checker to compare
    own = {"params": None, "derivation": None}
    if type(obj["params"]) is not dict or not _same(layout | own, obj | own):
        raise MalformedCertificate("certificate is not in the form the realiser writes")
    return cert


# Where the writer's text of a certificate turns to its derivation.  A JSON
# string holds no raw newline, so the first match lies outside every string.
_DERIVATION_KEY = ',\n  "derivation": ['


def certificate_from_json(text: str) -> Certificate:
    """Decode a certificate from its JSON text.

    The writer's text of a certificate whose derivation is the calculator's
    trace for its M and N, up to whitespace at both ends, is decoded by
    parsing the part before the derivation and running the calculator on M
    and N, and the certificate holds that trace.  Any other text, and bytes,
    decode by ``json.loads`` and :func:`certificate_from_jsonable`, with the
    derivation as the decoded JSON list."""
    if isinstance(text, str):
        try:
            stripped = text.strip(" \t\n\r")
            head = json.loads(stripped.partition(_DERIVATION_KEY)[0] + "}")
            spec, target, m, n = _checked_head(head)
            trace = engine.degree_bounds(m, n).trace
            cert = Certificate(spec, target, m, n, head["params"], trace)
            if json_text(_layout(cert)) == stripped:
                return cert
        except Exception:
            pass  # the full decoder gives the text its message
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise MalformedCertificate(f"invalid JSON: {exc}") from exc
    return certificate_from_jsonable(obj)
