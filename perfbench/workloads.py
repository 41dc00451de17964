"""The three batch workloads, built from the benchmark seed.

Each workload is a list of ops run closed-loop, one at a time, in a single
worker process.  An op is either a CLI invocation (``kind == "cli"``,
``conicwalk.cli.main(argv + ["--out", path])``) or a public library call
where no subcommand exists (``kind == "trichotomy"``).  The ``check`` entry
names the output check in :mod:`perfbench.checks`.

Sizes are chosen so that one pass of every workload takes about 4-5 s on a
2-core x86 box, which gives several passes per run and lets per-op medians
absorb scheduling noise.
"""

from __future__ import annotations

import random

# The per-layer metrics each workload is expected to move; every other
# per-layer metric is predicted flat on it.
LAYER_MAP = {
    "mixing_scan": [
        "walk_analysis.kernel_s", "walk_analysis.mixing_time_s",
        "walk_analysis.minorization_s", "walk_analysis.stationary_s",
        "walk_analysis.self_s", "walk_analysis.minorization_exact_frac",
        "hypergroup.closed_form_s", "hypergroup.self_s",
        "finite_field.scalar_ops", "conic_geometry.discriminant_calls",
        "finite_field.make_field_s", "finite_field.table_build_s",
        "finite_field.table_builds", "finite_field.self_s",
    ],
    "table_verify": [
        "hypergroup.closed_form_s", "hypergroup.self_s",
        "finite_field.scalar_ops", "conic_geometry.discriminant_calls",
        "hypergroup.oracle_s", "hypergroup.compare_s", "hypergroup.axioms_s",
        "hypergroup.oracle_pairs", "hypergroup.table_entries",
        "conic_geometry.trichotomy_s", "conic_geometry.trichotomy_pairs",
        "conic_geometry.self_s",
        "finite_field.make_field_s", "finite_field.table_build_s",
        "finite_field.table_builds", "finite_field.self_s",
        "cli.self_s", "cli.out_bytes", "cli.invocations",
    ],
    "coupling_mc": [
        "coupling_sim.couple_short_s", "coupling_sim.couple_long_s",
        "coupling_sim.mctv_s", "coupling_sim.walk_steps",
        "coupling_sim.steps_per_s", "coupling_sim.self_s",
    ],
}

SCAN_QMIN, SCAN_QMAX = 7, 127
CONSTANTS_FIELDS = [(5, 2), (3, 3), (31, 1)]  # q = 25, 27, 31
AXIOMS_FIELD = (7, 2)                          # q = 49
TRICHOTOMY_FIELDS = [(5, 2), (3, 3)]           # q = 25, 27


def _weights(seed: int, p: int, d: int) -> tuple[int, int]:
    """Seeded nonzero weights (a, b) with a*b a square: b = a * s^2."""
    from conicwalk.finite_field import make_field

    spec = make_field(p, d)
    rng = random.Random(f"{seed}:{p}^{d}")
    a = rng.randrange(1, spec.q)
    s = rng.randrange(1, spec.q)
    return a, spec.mul_idx(a, spec.mul_idx(s, s))


def _field_args(p: int, d: int, a: int, b: int) -> list[str]:
    return ["--p", str(p), "--d", str(d), "--a", str(a), "--b", str(b)]


def mixing_scan(seed: int) -> list[dict]:
    """Seed-free: the q-scan on both sides of the exact-minorization cap."""
    return [
        {"label": "scan", "kind": "cli", "check": "scan",
         "argv": ["scan", "--qmin", str(SCAN_QMIN), "--qmax", str(SCAN_QMAX)]},
        {"label": "stationary_31", "kind": "cli", "check": "stationary",
         "argv": ["stationary", "--p", "31", "--method", "exact"]},
        {"label": "minorize_31", "kind": "cli", "check": "minorize",
         "argv": ["minorize", "--p", "31"]},
    ]


def table_verify(seed: int) -> list[dict]:
    """Full structure tables: closed form vs oracle, axioms, trichotomy."""
    ops = []
    for p, d in CONSTANTS_FIELDS:
        a, b = _weights(seed, p, d)
        ops.append({"label": f"constants_{p ** d}", "kind": "cli", "check": "constants",
                    "field": [p, d, a, b],
                    "argv": ["constants", *_field_args(p, d, a, b), "--verify-oracle"]})
    p, d = AXIOMS_FIELD
    a, b = _weights(seed, p, d)
    ops.append({"label": f"axioms_{p ** d}", "kind": "cli", "check": "axioms",
                "argv": ["axioms", *_field_args(p, d, a, b), "--source", "oracle"]})
    for p, d in TRICHOTOMY_FIELDS:
        a, b = _weights(seed, p, d)
        ops.append({"label": f"trichotomy_{p ** d}", "kind": "trichotomy",
                    "check": "trichotomy", "field": [p, d, a, b]})
    return ops


def coupling_mc(seed: int) -> list[dict]:
    """Seeded Monte Carlo: short and long coupling runs and an MC-TV estimate."""
    s = str(seed)
    return [
        {"label": "couple_short", "kind": "cli", "check": "couple",
         "field": [7, 1, 1, 1], "metric": "coupling_sim.couple_short_s",
         "argv": ["couple", "--p", "7", "--trials", "50000", "--seed", s]},
        {"label": "couple_long", "kind": "cli", "check": "couple",
         "field": [61, 1, 1, 1], "metric": "coupling_sim.couple_long_s",
         "argv": ["couple", "--p", "61", "--trials", "8000", "--seed", s]},
        {"label": "mctv", "kind": "cli", "check": "mctv",
         "field": [13, 1, 1, 1], "t": 12,
         "argv": ["mctv", "--p", "13", "--t", "12", "--trials", "50000", "--seed", s]},
    ]


WORKLOADS = {"mixing_scan": mixing_scan, "table_verify": table_verify,
             "coupling_mc": coupling_mc}
