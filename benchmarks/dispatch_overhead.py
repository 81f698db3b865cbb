"""Dispatch-overhead gate: hardened and observed serving against plain.

Times 10 rounds of ``rebalance_many`` over 8 ``ucrp`` sessions on one
4-asset panel, so that the serving dispatch itself, not the forward, is
what gets timed.  Two variants are each measured
against a plain :class:`~repro.serving.PortfolioService`:

* ``resilience`` — a :class:`~repro.serving.ServingResilience`
  (circuit breaker accounting and per-request isolation);
* ``observability`` — an enabled :class:`~repro.obs.Obs` handle.

Each variant is timed min-of-3, every repeat a fresh plain build
followed by a fresh variant build, and must cost at most 1.1x the plain
path.  That the variants answer byte for byte like the plain service is
a tier-1 gate (``tests/test_resilience.py::TestNoPlanParity``,
``tests/test_obs.py``); this script only times.

Run: ``PYTHONPATH=src python benchmarks/dispatch_overhead.py --out report.json``
(exit status 1 if a variant is over budget).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro.data import MarketGenerator
from repro.obs import Obs
from repro.serving import PortfolioService, RebalanceRequest, ServingResilience

BUDGET = 1.1
REPEATS = 3
ASSETS, SESSIONS, ROUNDS = 4, 8, 10


def time_rounds(service) -> float:
    requests = [RebalanceRequest(f"s{i}") for i in range(SESSIONS)]
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        service.rebalance_many(requests)
    return time.perf_counter() - t0


def measure(variant: Callable[[], dict], panel) -> Tuple[List[float], List[float]]:
    """Seconds of ``REPEATS`` plain runs and of as many variant runs;
    ``variant()`` gives the variant's service keyword arguments."""

    def build(**kwargs):
        service = PortfolioService(**kwargs)
        service.register_market("bench", panel)
        for i in range(SESSIONS):
            service.create_session(f"s{i}", strategy="ucrp", market="bench")
        return service

    plain_s, variant_s = [], []
    for _ in range(REPEATS):
        plain_s.append(time_rounds(build()))
        variant_s.append(time_rounds(build(**variant())))
    return plain_s, variant_s


def gate(name: str, plain_s: Sequence[float], variant_s: Sequence[float]) -> Dict:
    """The min-of-N overhead of a variant over the plain path, and
    whether it is within ``BUDGET``."""
    overhead = round(min(variant_s) / min(plain_s), 3)
    return {
        "name": name,
        "plain_s": round(min(plain_s), 4),
        "variant_s": round(min(variant_s), 4),
        "overhead": overhead,
        "budget": BUDGET,
        "within_budget": overhead <= BUDGET,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="where to write the JSON report")
    args = parser.parse_args(argv)

    panel = (
        MarketGenerator(seed=321)
        .generate("2019/01/01", "2019/02/01", 7200)
        .select_assets(list(range(ASSETS)))
    )
    variants = {
        "resilience": lambda: {"resilience": ServingResilience()},
        "observability": lambda: {"obs": Obs()},
    }
    gates = [
        gate(name, *measure(variant, panel))
        for name, variant in variants.items()
    ]
    report = {"sessions": SESSIONS, "rounds": ROUNDS, "gates": gates}
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")

    for g in gates:
        print(
            f"{g['name']:14s} dispatch overhead {g['overhead']}x "
            f"(budget {g['budget']}x; plain {g['plain_s']} s, "
            f"variant {g['variant_s']} s)"
        )
    over = [g["name"] for g in gates if not g["within_budget"]]
    if over:
        print(f"OVER BUDGET: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
