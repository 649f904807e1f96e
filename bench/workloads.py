"""The three benchmark workloads and the reference outputs they must reproduce.

A workload is prepared inside the child interpreter after `typeii` is
imported: `prepare` builds its inputs (the sphere-sum grid of zonal-gate) and
returns a callable that runs it, printing the program's output to stdout and
returning the exit code.

Why these three:
  paper       the paper-reproduction command users run; every layer at desk
              scale, none dominant (designs ~60%, configuration/exact/harmonic
              ~20%, gf2 < 3%), so fixed costs of a new engine or cache show.
  qr48        the deep cross-check: four 2^24 codeword sweeps, almost all gf2
              and private sweeps in configuration; exact/harmonic < 0.1 s.
  zonal-gate  the exhaustive sphere-sum gate: all harmonic (numeric and
              symbolic) and exact, no gf2; the seed only permutes the order.
"""

from __future__ import annotations

import json
import random
from typing import Callable

COMMANDS = {
    "paper": ["paper", "--json"],
    "qr48": ["verify-code", "--code", "qr48", "--json"],
}

NAMES = ("paper", "qr48", "zonal-gate")

# sha256 of the byte-exact stdout recorded at the seed.  paper and qr48 print
# key-sorted JSON without timings; zonal-gate prints the counts below.
REFERENCE_SHA256 = {
    "paper": "ea15cf0afc71084ff6c4e04e6906b3fe4e67a3b9ac9aa9e2d93a6950a2e24157",
    "qr48": "48964ede374f42ba6b208caf88aa7ecb1e2c70388c9ef9142d5e1745a0ccf714",
    "zonal-gate": "a5b01025f64846dbe82876f45180da3dbbd3678c049b534e5f0b42a9e643a8f0",
}

# n in {8, 16, 24}, d in 1..7: every w symbolically, every s in d..n-1 with
# every w numerically.
ZONAL_LENGTHS = (8, 16, 24)
ZONAL_DEGREES = range(1, 8)
ZONAL_NUMERIC_SUMS = 5180
ZONAL_SYMBOLIC_SUMS = 357


def zonal_grid(seed: int) -> list[tuple]:
    """Every sphere sum of the gate, in an order permuted by `seed`."""
    grid: list[tuple] = []
    for n in ZONAL_LENGTHS:
        for d in ZONAL_DEGREES:
            grid.extend(("symbolic", n, None, w, d) for w in range(n + 1))
            grid.extend(("numeric", n, s, w, d)
                        for s in range(d, n) for w in range(n + 1))
    random.Random(seed).shuffle(grid)
    return grid


def _run_zonal_gate(grid: list[tuple]) -> int:
    # look the functions up at call time so a traced run sees its wrappers
    from typeii import harmonic

    sums = {"numeric": 0, "symbolic": 0}
    zero = {"numeric": 0, "symbolic": 0}
    for kind, n, s, w, d in grid:
        sums[kind] += 1
        if kind == "symbolic":
            zero[kind] += harmonic.sphere_sum_symbolic(n, w, d).is_zero
        else:
            zero[kind] += harmonic.sphere_sum(n, s, w, d) == 0
    print(json.dumps({"sums": sums, "zero": zero}, sort_keys=True))
    return 0 if zero == sums else 1


def prepare(name: str, seed: int) -> Callable[[], int]:
    """Build the inputs of workload `name`; return the callable that runs it.

    The CLI workloads have no inputs to build: `cli.main` takes only argv and
    resolves its catalog codes itself, so `catalog.resolve` is timed in
    wall_s, not in setup_s.
    """
    if name == "zonal-gate":
        grid = zonal_grid(seed)
        return lambda: _run_zonal_gate(grid)
    from typeii import cli

    argv = COMMANDS[name]
    return lambda: cli.main(list(argv))
