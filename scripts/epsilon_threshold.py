#!/usr/bin/env python3
"""Locate the largest perturbation that keeps the separable model valid.

Scans the Recipe-2 family on a small cycle against a chosen measurement
set and brackets the first positivity failure along increasing epsilon.
"""

import argparse

from pepslhv import decomposition
from pepslhv.configio import instance_factory


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lattice", default="cycle:3")
    parser.add_argument("--measurements", default="pauli:2")
    parser.add_argument("--psi", default="plus-diag:2")
    parser.add_argument("--eps-hi", type=float, default=0.5)
    args = parser.parse_args()

    config = {
        "lattice": args.lattice,
        "basis": "aligned:2:zero",
        "measurements": args.measurements,
        "psi": args.psi,
        "site_map": {"recipe": 2, "epsilon": 0.0},
    }

    make = instance_factory(config)
    slack0 = decomposition.rv_positivity_check(make(0.0)).slack
    print(f"slack at epsilon=0: {slack0:.6f}")
    lo, hi = decomposition.max_epsilon_search(make, args.eps_hi)
    if hi == float("inf"):
        print(f"no failure up to eps_hi={args.eps_hi}")
    else:
        print(f"threshold bracket: ({lo:.12g}, {hi:.12g}), width {hi - lo:.3g}")


if __name__ == "__main__":
    main()
