"""Seeded experiment configs for the benchmark workloads.

Every config is handed to ``horopoints.harness.run`` as a plain dict, has the
shape of a shipped criterion config (named in ``shape``) and pins
``threads: 1``.  The seed chooses the moduli.  How much work a pass does is
held nearly fixed across seeds: small moduli are drawn one per stratum and
redrawn until their totient sum sits within 1% of its expected value, and
large moduli are primes snapped from decade ramps whose start moves by at
most 2%.  A seed therefore changes which numbers are computed, not how long
a pass takes, so runs at different seeds can be compared.

This module imports nothing from horopoints: the benchmark states its inputs
and their sizes before the program runs.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep", "large_n", "dump")
SHAPES = ("kloosterman", "intersection", "cardinality", "invariance", "weyl",
          "equidist", "cusp_mass", "discrepancy", "generate")

_BASE = {"schema_version": 1, "threads": 1}
_MEAN_PHI_RATIO = 6.0 / math.pi ** 2   # mean of phi(n)/n
_PHI_TOL = 0.01
_RAMP_JITTER = 0.02

# sweep shapes: (label, lo, hi, number of moduli)
_SWEEP = (
    ("kloosterman", 2, 3000, 60),
    ("intersection", 2, 1500, 24),
    ("cardinality", 2, 3000, 120),
    ("invariance", 2, 5000, 120),
    ("weyl", 2, 10000, 300),
)

# the float-height defect (ROADMAP item 1): the alpha = 5/4 family reports a
# minimum height below its sqrt(n) floor from about n = 3e5 on.  Only rows of
# this payload may fail; the failure is counted, never hidden.
FLOAT_HEIGHT_DEFECT = {
    "payload": "heights.csv",
    "note": "float reduction underestimates heights at alpha=5/4 for n >= ~3e5 "
            "(ROADMAP item 1)",
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _totients(limit: int) -> list[int]:
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def _draw_moduli(rng: random.Random, lo: int, hi: int, count: int,
                 phi: list[int]) -> list[int]:
    """One modulus per equal-width stratum of [lo, hi], redrawn until the
    totient sum is within 1% of 6/pi^2 times the modulus sum."""
    width = (hi - lo + 1) / count
    while True:
        ns = [lo + int((i + rng.random()) * width) for i in range(count)]
        expected = _MEAN_PHI_RATIO * sum(ns)
        if abs(sum(phi[n] for n in ns) - expected) <= _PHI_TOL * expected:
            return ns


def _ramp_prime(rng: random.Random, magnitude: float) -> int:
    return _next_prime(round(magnitude * (1.0 + _RAMP_JITTER * rng.random())))


def _prime_set_size(p: int, d: int) -> int:
    # |{k^d mod p}| over units of a prime p: the unit group is cyclic
    return (p - 1) // math.gcd(p - 1, d)


def _sweep(rng: random.Random) -> tuple[list[dict], dict]:
    phi = _totients(max(hi for _, _, hi, _ in _SWEEP))
    draws = {label: _draw_moduli(rng, lo, hi, count, phi)
             for label, lo, hi, count in _SWEEP}
    configs = {
        "kloosterman": {"kind": "kloosterman", "cross_check": True, "m_range": 2},
        "intersection": {"kind": "intersection"},
        "cardinality": {"kind": "cardinality", "d_values": list(range(1, 13))},
        "invariance": {"kind": "invariance", "d_values": [1, 2, 3, 4],
                       "primes": [2, 3, 5],
                       "point_set": {"primitive": True, "variant": "triple"}},
        "weyl": {"kind": "kloosterman", "weyl_full": True},
    }
    experiments = [
        {"shape": label, "config": {**_BASE, **configs[label], "n_schedule": draws[label]}}
        for label, _, _, _ in _SWEEP
    ]
    size = {
        "moduli": sum(len(ns) for ns in draws.values()),
        "sum_phi": sum(phi[n] for ns in draws.values() for n in ns),
        "per_shape": {label: {"moduli": len(ns), "sum_phi": sum(phi[n] for n in ns)}
                      for label, ns in draws.items()},
    }
    return experiments, size


def _large_n(rng: random.Random) -> tuple[list[dict], dict]:
    primes = [_ramp_prime(rng, 10.0 ** e) for e in (4, 5, 6)]
    kernel = {"type": "kernel", "radius": 1.0, "profile": "smooth"}
    experiments = [
        {"shape": "equidist", "config": {
            **_BASE, "kind": "equidist", "d_values": [1, 2], "n_schedule": primes,
            "point_set": {"variant": "monomial", "a": 1, "b": 1},
            "observables": [
                kernel,
                {"type": "product", "factors": [{"type": "torus_char", "m": 1}, kernel]},
                {"type": "kernel", "radius": 3.0, "profile": "smooth"},
            ]}},
        {"shape": "cusp_mass", "config": {
            **_BASE, "kind": "cusp_mass", "n_schedule": primes,
            "point_set": {"alpha": "1/2", "d": 1, "variant": "monomial"},
            "rel_tol": 0.15, "thresholds": [2.0, 4.0, 8.0]}},
        {"shape": "cusp_mass", "known_defect": FLOAT_HEIGHT_DEFECT, "config": {
            **_BASE, "kind": "cusp_mass", "n_schedule": primes,
            "point_set": {"alpha": "5/4", "d": 1, "variant": "monomial"},
            "expect_full_mass": True, "min_height_sqrt_n": True,
            "thresholds": [10.0]}},
        {"shape": "discrepancy", "config": {
            **_BASE, "kind": "discrepancy", "n_schedule": primes,
            "betas": [0.2, 0.4], "d_values": [1, 2], "m_values": [1, 5],
            "require_decreasing": "strict"}},
    ]
    # equidist generates the d=1 and d=2 sets once per n; each cusp_mass
    # config generates the d=1 set
    points = sum(_prime_set_size(p, 1) * 3 + _prime_set_size(p, 2) for p in primes)
    return experiments, {"moduli": primes, "points": points}


def _dump(rng: random.Random) -> tuple[list[dict], dict]:
    n_triple = _ramp_prime(rng, 1e5)
    n_mono = _ramp_prime(rng, 2e5)
    experiments = []
    for variant, d, n in (("triple", 1, n_triple), ("monomial", 2, n_mono)):
        for fmt in ("csv", "json"):
            experiments.append({"shape": "generate", "config": {
                **_BASE, "kind": "generate", "n_schedule": [n], "format": fmt,
                "point_set": {"variant": variant, "d": d}}})
    rows = 2 * (_prime_set_size(n_triple, 1) + _prime_set_size(n_mono, 2))
    return experiments, {"moduli": [n_triple, n_mono], "rows": rows}


def build(name: str, seed: int) -> tuple[list[dict], dict]:
    """(experiments, stated input size) of one workload at one seed.

    Each experiment is {"shape", "config"} plus, where the program has a
    known defect on these inputs, "known_defect".
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep":
        return _sweep(rng)
    if name == "large_n":
        return _large_n(rng)
    if name == "dump":
        return _dump(rng)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
