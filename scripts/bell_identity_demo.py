#!/usr/bin/env python3
"""Identity-projector demo: Bell measurements on virtual phase-point pairs.

Shows that the Bell POVM is admissible against a head-tail pair of phase
point spaces (all overlap values land on 0 or 1), is inadmissible for the
head-head pattern (witness value -1/2), and that the hidden-variable
sampler reproduces the exact Born statistics of the identity-map cycle.
"""

import argparse

import numpy as np

from pepslhv import oracle, sampling
from pepslhv.basis import phase_point_basis
from pepslhv.configio import build_instance
from pepslhv.measurements import admissible_povm, bell_povm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=3, help="cycle length")
    parser.add_argument("--shots", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    pp = phase_point_basis()
    # one flag per virtual space: True marks a transposed (tail) end
    ht = admissible_povm(bell_povm(), pp, (False, True))
    print(f"head-tail pair : admissible={ht.admissible} "
          f"values in [{ht.min_value:+.3f}, {ht.max_value:+.3f}]")
    hh = admissible_povm(bell_povm(), pp, (False, False))
    print(f"head-head pair : admissible={hh.admissible} "
          f"worst value {hh.worst[2]:+.3f} at tuple {hh.worst[0]}")

    inst = build_instance(
        {
            "lattice": f"cycle:{args.sites}",
            "basis": "phase-point",
            "measurements": "bell",
            "site_map": {"recipe": "identity"},
        }
    )
    plan = sampling.MeasurementPlan.uniform(inst, "bell")
    batch = sampling.run_shots(inst, plan, args.shots, args.seed)
    exact = oracle.born_joint_for_instance(inst, plan)
    emp = oracle.empirical_distribution(batch, exact.arities)
    tv = oracle.tv_distance(emp, exact)
    bound = 4 * np.sqrt(exact.n_outcomes / args.shots)
    print(f"sampler vs oracle: TV = {tv:.5f} (bound {bound:.5f}) "
          f"over {exact.n_outcomes} joint outcomes, {args.shots} shots")


if __name__ == "__main__":
    main()
