"""Seeded input generator for the benchmark workloads.

Everything here is plain data built from a seed; this module never imports
pomsetblock, so the library under test receives only generated inputs.
The expected answers recorded next to each job come from this module's own
small implementations of the definitions (block Lee weights, generated
ideals, downsets, spans), so no check goes through the route being timed.

Each workload draws from a fixed grid of strata (modulus, block count,
dimension, order kind), each with one fixed shape (order and block
dimensions).  The seed relabels every shape and chooses the codes, ideals,
centres and sampling seeds.  Keeping the shapes fixed keeps the cost of one
pass steady from seed to seed; relabelling still gives each seed its own
inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

# ---------------------------------------------------------------- definitions


def order_sets(s: int, relations) -> tuple[dict, dict]:
    """Transitively closed strictly-below / strictly-above maps of an order."""
    below = {i: set() for i in range(1, s + 1)}
    for a, b in relations:
        below[b].add(a)
    changed = True
    while changed:
        changed = False
        for b in range(1, s + 1):
            extra = set().union(*(below[a] for a in below[b])) - below[b]
            if extra:
                below[b] |= extra
                changed = True
    above = {i: {b for b in range(1, s + 1) if i in below[b]} for i in range(1, s + 1)}
    return below, above


def downsets(s: int, below) -> list[frozenset]:
    """Every downward-closed subset of {1..s}."""
    out = []
    for bits in range(1 << s):
        sub = frozenset(i for i in range(1, s + 1) if bits >> (i - 1) & 1)
        if all(below[i] <= sub for i in sub):
            out.append(sub)
    return out


def maximal(down, above) -> set:
    return {i for i in down if not (above[i] & down)}


def ideal_count(h: int, downs, above) -> int:
    """Ideals are downsets whose maximal elements carry any count 1..h."""
    return sum(h ** len(maximal(d, above)) for d in downs)


def block_weights(m: int, labeling, coords) -> list[int]:
    out, pos = [], 0
    for k in labeling:
        out.append(max(min(x, m - x) for x in coords[pos:pos + k]))
        pos += k
    return out


def generated_counts(h: int, above, bw) -> list[int]:
    """Counts of the smallest ideal containing the block support."""
    return [
        h if any(bw[j - 1] for j in above[i]) else bw[i - 1]
        for i in range(1, len(bw) + 1)
    ]


def weight(m: int, labeling, above, coords) -> int:
    return sum(generated_counts(m // 2, above, block_weights(m, labeling, coords)))


def span(m: int, rows) -> set:
    n = len(rows[0])
    words = set()
    for coeffs in itertools.product(range(m), repeat=len(rows)):
        words.add(tuple(
            sum(a * row[t] for a, row in zip(coeffs, rows)) % m for t in range(n)
        ))
    return words


def ball_size(m: int, labeling, counts) -> int:
    size = 1
    for c, k in zip(counts, labeling):
        size *= min(2 * c + 1, m) ** k
    return size


# ------------------------------------------------------------------- spaces


def random_order(rng: random.Random, s: int, density: float) -> list[list[int]]:
    """Sparse random strict order: pairs oriented along a random permutation."""
    perm = rng.sample(range(1, s + 1), s)
    return [
        [perm[i], perm[j]]
        for i in range(s)
        for j in range(i + 1, s)
        if rng.random() < density
    ]


def relations_of(kind: str, s: int, rng: random.Random) -> list[list[int]]:
    if kind == "chain":
        return [[i, i + 1] for i in range(1, s)]
    if kind == "antichain":
        return []
    return random_order(rng, s, 0.35)


def random_labeling(rng: random.Random, s: int, n: int) -> list[int]:
    """Uniform composition of n into s positive block dimensions."""
    cuts = sorted(rng.sample(range(1, n), s - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def space_doc(m: int, s: int, relations, labeling) -> dict:
    return {"m": m, "pomset": {"s": s, "relations": relations}, "labeling": labeling}


def draw_space(rng, m, s, n, kind, ideals_lo, ideals_hi):
    """A space of the stratum whose ideal count lies in [ideals_lo, ideals_hi]."""
    for _ in range(2000):
        relations = relations_of(kind, s, rng)
        below, above = order_sets(s, relations)
        downs = downsets(s, below)
        if ideals_lo <= ideal_count(m // 2, downs, above) <= ideals_hi:
            return space_doc(m, s, relations, random_labeling(rng, s, n)), downs
    raise RuntimeError(f"no {kind} order on {s} elements has {ideals_lo}..{ideals_hi} ideals")


def stratum_space(rng, workload, index, m, s, n, kind, band=(1, 10 ** 6), accept=None):
    """The stratum's fixed shape under a seeded relabelling of its blocks.

    Each stratum's order and block dimensions are drawn once from a constant
    seed, so every workload seed sees isomorphic spaces of equal cost; the
    seed permutes the block labels, and with them the relation pairs and the
    coordinate order.  `accept` can reject shapes a workload cannot use.
    """
    shape_rng = random.Random(f"{workload}:shape:{index}")
    while True:
        doc, downs = draw_space(shape_rng, m, s, n, kind, *band)
        if accept is None or accept(doc, downs):
            break
    perm = rng.sample(range(1, s + 1), s)
    relations = sorted([perm[a - 1], perm[b - 1]] for a, b in doc["pomset"]["relations"])
    labeling = [0] * s
    for i, k in enumerate(doc["labeling"]):
        labeling[perm[i] - 1] = k
    below, above = order_sets(s, relations)
    return space_doc(m, s, relations, labeling), below, above, downsets(s, below)


# ------------------------------------------------------------------ certify

# (m, s, n, order kind, ideal-count band).  m^n spans about 1e3..2e4.  The
# suite's cost grows with ideals x m^n and jumps where a full-count ball has
# at most 1000 members (its closure check is then exhaustive over pairs), so
# the grid keeps few such spaces to hold one pass to a few seconds.
CERTIFY_STRATA = (
    (4, 2, 5, "chain", (1, 99)),
    (4, 3, 5, "antichain", (1, 99)),
    (4, 3, 5, "random", (6, 14)),
    (4, 3, 6, "chain", (1, 99)),
    (4, 2, 6, "random", (1, 99)),
    (4, 2, 5, "random", (1, 99)),
    (4, 4, 7, "chain", (1, 99)),
    (5, 2, 5, "antichain", (1, 99)),
    (5, 3, 6, "chain", (1, 99)),
    (6, 2, 4, "antichain", (1, 99)),
    (6, 3, 4, "random", (8, 20)),
    (6, 4, 4, "chain", (1, 99)),
    (6, 3, 5, "chain", (1, 99)),
    (6, 2, 4, "random", (1, 99)),
    (6, 2, 5, "random", (1, 99)),
    (7, 2, 4, "antichain", (1, 99)),
    (7, 3, 4, "random", (8, 20)),
    (7, 4, 4, "chain", (1, 99)),
    (7, 3, 4, "chain", (1, 99)),
    (7, 2, 4, "random", (1, 99)),
    (9, 3, 3, "random", (10, 30)),
    (9, 2, 4, "chain", (1, 99)),
)
METRIC_SAMPLES = 400


def gen_certify(rng: random.Random) -> dict:
    spaces, jobs = [], []
    for index, (m, s, n, kind, band) in enumerate(CERTIFY_STRATA):
        doc, _, _, _ = stratum_space(rng, "certify", index, m, s, n, kind, band)
        spaces.append(doc)
        jobs.append({
            "kind": "certify",
            "space": len(spaces) - 1,
            "seed": rng.randrange(1 << 30),
            "samples": METRIC_SAMPLES,
            "expect": {"size": m ** n, "samples": METRIC_SAMPLES},
        })
    return {"spaces": spaces, "jobs": jobs}


# ------------------------------------------------------------- closed_forms

# (m, s, n, order kind, ideal-count band).  The r-ball sweep rebuilds every
# ideal once per radius and cardinality, so its cost grows as
# (s*floor(m/2))^2 * #ideals; the bands keep one sweep well under a second.
CLOSED_FORM_STRATA = (
    (5, 6, 15, "antichain", (1, 10 ** 4)),
    (5, 8, 20, "random", (150, 300)),
    (5, 10, 30, "random", (150, 300)),
    (7, 6, 18, "random", (100, 200)),
    (7, 8, 24, "random", (80, 160)),
    (9, 6, 15, "random", (60, 120)),
    (9, 7, 21, "random", (60, 120)),
    (9, 10, 30, "random", (40, 90)),
)
CLOSED_FORM_QUERIES = ("rball_sweep", "ideal_balls", "ideals_by_card", "downsets_by_size")


def gen_closed_forms(rng: random.Random) -> dict:
    spaces, jobs = [], []
    for index, (m, s, n, kind, band) in enumerate(CLOSED_FORM_STRATA):
        doc, _, above, downs = stratum_space(rng, "closed_forms", index, m, s, n, kind, band)
        spaces.append(doc)
        expect = {
            "size": m ** n,
            "ideals": ideal_count(m // 2, downs, above),
            "downsets": len(downs),
        }
        for query in CLOSED_FORM_QUERIES:
            jobs.append({"kind": query, "space": len(spaces) - 1, "expect": expect})
    return {"spaces": spaces, "jobs": jobs}


# -------------------------------------------------------------------- codes

# (m, s, n, order kind, coordinates outside the tiling root set, code given
# as "generator" rows or explicit "codewords", add a redundant row).  Every
# space gets the millisecond requests and the dual; the spaces up to
# SCAN_LIMIT also get the perfectness censuses and r-ball filters that set
# the tail with the dual of the largest space, at about 4e5 vectors.  A
# census there would hold a 4e5-entry dict, memory-bound work whose speed
# swings most with the host's load.
CODE_STRATA = (
    (5, 3, 5, "chain", 2, "generator", True),
    (5, 3, 5, "antichain", 2, "codewords", False),
    (6, 3, 5, "random", 3, "generator", False),
    (6, 2, 4, "chain", 2, "codewords", False),
    (7, 3, 4, "random", 2, "generator", True),
    (7, 2, 4, "chain", 1, "codewords", False),
    (7, 3, 5, "chain", 2, "generator", True),
    (6, 3, 6, "chain", 3, "generator", False),
    (5, 4, 8, "chain", 3, "generator", True),
)
SCAN_LIMIT = 50000
CENSUS_LIMIT = 10 ** 6


def _fmt(values) -> str:
    return ",".join(str(v) for v in values)


def _random_ideal(rng, h, downs, above, s):
    down = rng.choice([d for d in downs if d])
    top = maximal(down, above)
    return [
        (rng.randint(1, h) if i in top else h) if i in down else 0
        for i in range(1, s + 1)
    ]


def gen_codes(rng: random.Random) -> dict:
    problems, jobs = [], []
    for index, (m, s, n, kind, out_dim, form, redundant) in enumerate(CODE_STRATA):
        h = m // 2
        scans = m ** n <= SCAN_LIMIT
        # Root set R of a full-count ideal leaving out_dim coordinates outside;
        # the graph code {(v, f(v))} over those coordinates tiles the space
        # with R's ball whatever f is.
        def roots_of(doc, downs):
            return [
                d for d in downs
                if d and n - sum(doc["labeling"][i - 1] for i in d) == out_dim
            ]

        doc, below, above, downs = stratum_space(
            rng, "codes", index, m, s, n, kind, accept=roots_of)
        labeling = doc["labeling"]
        roots = roots_of(doc, downs)
        bounds = list(itertools.accumulate([0] + labeling))
        root = rng.choice(roots)
        inside = [t for i in sorted(root) for t in range(bounds[i - 1], bounds[i])]
        outside = [t for t in range(n) if t not in inside]
        rows = []
        for t in outside:
            row = [0] * n
            row[t] = 1
            for u in inside:
                row[u] = rng.randrange(m)
            rows.append(row)
        if redundant:
            a, b = rng.randrange(1, m), rng.randrange(m)
            rows.append([(a * x + b * y) % m for x, y in zip(rows[0], rows[-1])])
        words = sorted(span(m, rows))
        size = len(words)
        d = min(weight(m, labeling, above, w) for w in words if any(w))
        rhs = max(sum(labeling[i - 1] for i in dn) for dn in downs if len(dn) == (d - 1) // h)
        lhs = n - out_dim
        full = [h if i in root else 0 for i in range(1, s + 1)]

        code = {"generator": rows} if form == "generator" else {
            "codewords": [list(w) for w in words]
        }
        pid = len(problems)
        problems.append({**doc, "code": code})

        def request(argv, expect):
            jobs.append({"kind": "cli", "problem": pid, "argv": argv, "expect": expect})

        facts = {"d": d, "r": (d - 1) // h, "rhs": rhs, "lhs": lhs}
        request(["singleton"], {"exit": 0, "facts": facts})
        request(["check-mds"], {"exit": 0 if lhs == rhs else 1, "facts": facts})
        request(["weight-dist"], {"exit": 0, "size": size, "d": d})
        for _ in range(3):
            ideal = _random_ideal(rng, h, downs, above, s)
            center = [rng.randrange(m) for _ in range(n)]
            count = sum(
                all(w <= c for w, c in zip(
                    block_weights(m, labeling, [(x - y) % m for x, y in zip(center, word)]),
                    ideal,
                ))
                for word in words
            )
            request(["intersect", "--ideal", _fmt(ideal), "--center", _fmt(center)],
                    {"exit": 0, "count": count})
        # One tiling that exists (R's full-count ideal: m^out_dim centres)
        # and one that cannot, through a partial count c with 2c+1 not
        # dividing m.
        request(["partition", "--ideal", _fmt(full)], {"exit": 0, "count": m ** out_dim})
        ideal = _random_ideal(rng, h, downs, above, s)
        tops = maximal({i for i, c in enumerate(ideal, 1) if c}, above)
        ideal[rng.choice(sorted(tops)) - 1] = next(c for c in range(1, h) if m % (2 * c + 1))
        request(["partition", "--ideal", _fmt(ideal)], {"exit": 1, "count": None})
        request(["dual"], {"exit": 0, "size": m ** n // size})
        if scans and all(m % p for p in range(2, m)):
            roots_min = min(
                sum(1 for c in generated_counts(h, above, block_weights(m, labeling, w)) if c)
                for w in words if any(w)
            )
            request(["block-threshold"], {"exit": 0, "threshold": roots_min})
        if scans:
            # R's full-count ball tiles the space around the graph code.
            request(["check-perfect", "--ideal", _fmt(full)], {"exit": 0, "mode": "ideal"})
            # Lowering one maximal block of R to count 1 shrinks the ball, so
            # |C| * |ball| < m^n and the balls cannot cover the space.
            other = list(full)
            other[rng.choice(sorted(maximal(root, above))) - 1] = 1
            request(["check-perfect", "--ideal", _fmt(other)], {"exit": 1, "mode": "ideal"})
        if kind == "chain" and scans:
            # On a chain the radius h*|R| ball is R's ideal ball.
            r = h * len(root)
            request(["check-perfect", "--radius", str(r)], {"exit": 0, "mode": "radius"})
            request(["check-error-correcting", "--radius", str(r)], {"exit": 0})
            # One more weight unit spills into the next block: the balls
            # of |C| codewords then exceed the space, so some two overlap.
            spill = [
                1 if i not in root and below[i] <= root else c
                for i, c in enumerate(full, start=1)
            ]
            if size * ball_size(m, labeling, spill) <= CENSUS_LIMIT:
                request(["check-error-correcting", "--radius", str(r + 1)], {"exit": 1})
    return {"problems": problems, "jobs": jobs}


# --------------------------------------------------------------------- all

GENERATORS = {
    "certify": gen_certify,
    "codes": gen_codes,
    "closed_forms": gen_closed_forms,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> dict:
    """The workload's spec: raw inputs plus expected answers, from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    spec = {"workload": workload, "seed": seed, **GENERATORS[workload](rng)}
    order = list(range(len(spec["jobs"])))
    rng.shuffle(order)
    spec["jobs"] = [spec["jobs"][i] for i in order]
    spec["digest"] = digest(spec)
    return spec


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def digest(spec: dict) -> str:
    """SHA-256 over every generated input and expectation."""
    body = {k: v for k, v in spec.items() if k != "digest"}
    return hashlib.sha256(canonical(body)).hexdigest()
