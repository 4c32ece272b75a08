"""Workload generator: (workload, seed) -> list of `tamagawa` CLI argument lists.

The program sees only these lists.  Each workload mixes fixed anchor
invocations with seed-drawn ones.  Draws are stratified so that every seed
gives a pass of the same size: the same number of invocations of each kind,
the same number of budget-starved (INCONCLUSIVE) cases, and a total amount of
work that stays within a few percent.  Every invocation is valid for its torus,
and `--jobs 1` is appended to all of them.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics

DEFAULT_SEED = 0

WORKLOADS = ("verify-all", "local-counts", "euler-sweep")

COMMON = ("--jobs", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_FILE = os.path.join(HERE, "verify_all_pool.json")

# ROADMAP's reference tori, present in every verify-all pass.
VERIFY_ALL_ANCHORS = ("norm1:-1", "norm1:-23", "norm1:13", "quot:-5")
# Time bound of the drawn verify-all tori, relative to the cheapest anchor
# (see verify_all).
CHEAP = 0.75

LOCAL_ANCHORS = (
    ("density", "--torus", "norm1:-89"),   # level 2 fits, p^4 enumeration
    ("density", "--torus", "norm1:-131"),  # only level 1 fits: INCONCLUSIVE
    ("lifting", "--torus", "norm1:-1", "--kmax", "4"),
)

# Drawn lifting runs per family; res lifting (unit-group model) is tiny.
LIFTING_RUNS = {"norm1": 3, "res": 2, "quot": 3}

EULER_ANCHORS = (
    ("euler", "--torus", "res:5,-3", "--pmax", "20000"),
    ("globalinv", "--torus", "norm1:13,17"),
)

# pmax strata (low, high) for euler-sweep: one draw per stratum and torus.
EULER_STRATA = ((1000, 1300), (40000, 50000))
# A pmax ladder on the res:5,-3 anchor.  Its runs cost several times more than
# any low-stratum or globalinv run and less than half of any high-stratum
# run, so they hold the middle of the pass's cost order.
EULER_LADDER = tuple(range(6600, 8001, 200))


def is_squarefree(n: int) -> bool:
    n = abs(n)
    return n > 0 and all(n % (f * f) for f in range(2, math.isqrt(n) + 1))


def primes_between(lo: int, hi: int) -> list:
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % f for f in range(2, math.isqrt(n) + 1))]


def _draw_balanced(draw, cost, target, tol):
    """Repeat draw() until cost(choice) is within tol (relative) of target."""
    for _ in range(10000):
        choice = draw()
        if abs(cost(choice) - target) <= tol * target:
            return choice
    raise RuntimeError("no balanced draw found")


def load_pool() -> dict:
    """spec -> (cli.main seconds, INCONCLUSIVE rows, peak MB) of
    `verify all --torus spec`, as measured by measure_pool.py."""
    with open(POOL_FILE) as fh:
        doc = json.load(fh)
    return {spec: tuple(v) for spec, v in doc["tori"].items()}


def _ramified_primes(d: int) -> set:
    """Primes dividing the discriminant of Q(sqrt(d))."""
    n = abs(d if d % 4 == 1 else 4 * d)
    return {p for p in primes_between(2, n) if n % p == 0}


def _field(spec: str) -> int:
    return int(spec.split(":")[1])


def verify_all(rng: random.Random) -> list:
    """Anchors plus two drawn tori, one over an imaginary and one over a real
    field, each with a ramified prime above 100, which starves the density
    budget, so their reports have INCONCLUSIVE rows today.

    In verify_all_pool.json both take at most CHEAP times the cli.main time
    of the cheapest anchor, and together within 6% of twice the median of
    such tori.  So the third and fourth of the pass's six invocations by time
    are always the two cheapest anchors, and the median invocation time does
    not depend on the draw; nor does the peak memory, which is an anchor's."""
    pool = load_pool()
    cheapest = min(pool[spec][0] for spec in VERIFY_ALL_ANCHORS)
    starved = [spec for spec, (t, inc, _) in pool.items()
               if spec not in VERIFY_ALL_ANCHORS and inc > 0 and t <= CHEAP * cheapest]
    imaginary = [spec for spec in starved if _field(spec) < 0]
    real = [spec for spec in starved if _field(spec) > 0]
    drawn = _draw_balanced(lambda: [rng.choice(imaginary), rng.choice(real)],
                           lambda specs: sum(pool[s][0] for s in specs),
                           2 * statistics.median(pool[s][0] for s in starved), 0.06)
    specs = list(VERIFY_ALL_ANCHORS) + drawn
    return [["verify", "all", "--torus", spec, *COMMON] for spec in specs]


def _grid_work(p: int, levels) -> int:
    """Residue pairs a level-by-level count at p enumerates: q^2 per level."""
    return sum(p ** (2 * k) for k in levels)


def local_counts(rng: random.Random) -> list:
    """Bad-prime densities at large p (shallow levels) and lifting at small p
    (deep levels): the two ways the CLI drives count_points_mod.

    d = +-p makes p the only odd ramified prime.  Level 2 fits the default
    budget for p < 100, so three such tori carry the p^4 work, balanced within
    4% of three median-cost ones.  For p > 100 only level 1 fits and the row is
    INCONCLUSIVE.  Lifting runs on small fields with no odd prime factor up
    to 13, so that every odd prime up to 13 is good and each family's lifting
    work is the same whichever field is drawn.  With LIFTING_RUNS, the seven
    norm1/quot lifting runs (anchor included) cover the middle of the pass's
    cost order: below them are at most 8 cheaper runs (the level-1 densities,
    res lifting, and at most two of the balanced p^4 densities).  So the
    median invocation time does not depend on the draw.
    """
    mid_primes = [p for p in primes_between(41, 97) if p != 89]
    big_primes = [p for p in primes_between(101, 2000) if p != 131]
    med = statistics.median(_grid_work(p, (1, 2)) for p in mid_primes)
    mids = _draw_balanced(
        lambda: rng.sample(mid_primes, 3),
        lambda ps: sum(_grid_work(p, (1, 2)) for p in ps),
        3 * med, 0.04)
    bigs = rng.sample(big_primes, 3)
    small = [d for d in range(-30, 31) if d not in (0, 1) and is_squarefree(d)
             and all(p > 13 for p in _ramified_primes(d) - {2})]
    runs = [list(a) for a in LOCAL_ANCHORS]
    for p in mids + bigs:
        fam = rng.choice(("norm1", "quot"))
        runs.append(["density", "--torus", f"{fam}:{rng.choice((p, -p))}"])
    for fam, count in LIFTING_RUNS.items():
        for d in rng.sample([d for d in small if f"{fam}:{d}" != "norm1:-1"], count):
            runs.append(["lifting", "--torus", f"{fam}:{d}", "--kmax", "4"])
    return [["verify", *r, *COMMON] for r in runs]


def euler_sweep(rng: random.Random) -> list:
    """Euler factors against point counts at every good prime up to pmax, on
    one torus of each family over a quadratic and a biquadratic field, at one
    pmax from each stratum; plus globalinv on the tori of Q-rank 0 (the res
    family has Q-rank 1 and is skipped), and the anchors.

    A pass has 11 cheap runs (the globalinv and low-stratum ones), the 8 runs
    of EULER_LADDER, and 7 dear runs (high stratum and the 20000 anchor).  So
    the 13th and 14th of its 26 invocations by time are always the ladder's
    second and third, and the median invocation time does not depend on the
    draw."""
    quad = [d for d in range(-200, 201) if d not in (0, 1) and is_squarefree(d)]
    small = [d for d in range(-30, 31) if d not in (0, 1) and is_squarefree(d)]
    anchor_pairs = {tuple(a[2].split(":")[1].split(",")) for a in EULER_ANCHORS}
    runs = [list(a) for a in EULER_ANCHORS]
    runs += [["euler", "--torus", "res:5,-3", "--pmax", str(n)] for n in EULER_LADDER]
    for fam in ("norm1", "res", "quot"):
        for biquad in (False, True):
            if biquad:
                while True:
                    d1, d2 = rng.sample(small, 2)
                    if (str(d1), str(d2)) not in anchor_pairs:
                        break
                spec = f"{fam}:{d1},{d2}"
            else:
                spec = f"{fam}:{rng.choice(quad)}"
            for lo, hi in EULER_STRATA:
                runs.append(["euler", "--torus", spec, "--pmax", str(rng.randint(lo, hi))])
            if fam != "res":
                runs.append(["globalinv", "--torus", spec])
    return [["verify", *r, *COMMON] for r in runs]


_GENERATORS = {
    "verify-all": verify_all,
    "local-counts": local_counts,
    "euler-sweep": euler_sweep,
}


def generate(workload: str, seed: int) -> list:
    """The invocation list of one pass; the same (workload, seed) gives the same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
