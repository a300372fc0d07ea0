"""Per-suite check-count floors of `fnteich verify all` at the default
grids, derived from the grids each suite documents (its docstring and
its `grid` line), not from running the suites.

    python3 bench/floors.py      # prints the floors as JSON

A suite whose `checks N` line falls below its floor ran a smaller grid,
fewer samples or fewer inequalities than documented.
"""

from __future__ import annotations

import json


def suite_floors() -> dict:
    collar_axis = 20          # l per axis 0.05:10:20 (log), 3 axes
    hexagon_axis = 15         # a per axis 0.05:10:15 (log), 3 axes
    sandwich_axis = 10        # d 0:5:10 x N 0.5:5:10 x C 0.5:5:10
    angle_caps = 40           # cap 0.1:20:40 (log)
    return {
        # nine collar inequalities per boundary triple, plus one chain
        # step per axis point
        "collar": 9 * collar_axis ** 3 + collar_axis,
        # one round trip per alternating-side triple
        "hexagon": hexagon_axis ** 3,
        # r 0.01:0.99:99 (lower bound and product identity), derivative
        # at fd 0.05:0.95:181, symmetric point, floor at 0, and floor
        # monotonicity on t 0:20:401 (400 steps)
        "mu": 2 * 99 + 181 + 1 + 1 + 400,
        # l 0.1:5:50 x t 0:10:50
        "twist-lower": 50 * 50,
        # four caps, each one threshold check and 100 points
        "delta": 4 * (1 + 100),
        # positivity at every cap, decrease between neighbours, the
        # small-cap limit, and the kit at 8 values of c x 8 angles
        "angle": angle_caps + (angle_caps - 1) + 1 + 8 * 8,
        # per (N, C): reverse, twist route and monotone-in-d checks; then
        # monotone-in-C at d in {1, 3}, cap degradation at C = 1, and
        # the note check
        "sandwich": (sandwich_axis ** 2
                     * (2 * sandwich_axis + sandwich_axis - 1)
                     + 2 * sandwich_axis * (sandwich_axis - 1)
                     + 2 * (sandwich_axis - 1) + 1),
        # supremum, bound, monotonicity and limit over n 1:10^6
        "example81": 4,
        # four axiom checks on 1000 random triples, and the Wolpert
        # equivalence on a 7 x 7 length grid at 5 dilatations
        "metric-axioms": 4 * 1000 + 7 * 7 * 5,
        # 10^4 random point pairs
        "distance-oracle": 10 ** 4,
    }


if __name__ == "__main__":
    floors = suite_floors()
    print(json.dumps({**floors, "total": sum(floors.values())}, indent=1))
