#!/usr/bin/env python3
"""Success rates of single-point divisor representatives over small primes.

For each curve y^2 = x^3 + 1 over F_p and each divisor degree d, sample
random effective divisors and count how many classes admit a point P with
d*P linearly equivalent to the divisor.  Over an algebraically closed field
every class does; over F_p the rate is governed by the index of d*E(F_p) in
E(F_p), which the table makes visible.
"""

import argparse
import random

from okbody.elliptic import (EllipticCurveFp, divisor_class_sum,
                             random_divisor, single_point_member)


def sweep(primes, degrees, samples, seed):
    print(f"{'p':>5} {'#E':>5}  " +
          " ".join(f"d={d:<2}" + " " * 4 for d in degrees))
    for p in primes:
        curve = EllipticCurveFp(p, 0, 1)
        rng = random.Random(seed)
        rates = []
        exact = []
        for d in degrees:
            found = 0
            for _ in range(samples):
                divisor = random_divisor(curve, d, rng)
                witness = single_point_member(curve, divisor)
                if witness is not None:
                    assert curve.mul(d, witness) == \
                        divisor_class_sum(curve, divisor)
                    found += 1
            rates.append(found / samples)
            exact.append(len(curve.division_witnesses(d)) / curve.order())
        print(f"{p:>5} {curve.order():>5}  " +
              " ".join(f"{rate:6.2f}" for rate in rates))
        print(f"{'':>5} {'exact':>5}  " +
              " ".join(f"{rate:6.2f}" for rate in exact))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="*",
                        default=[13, 31, 101])
    parser.add_argument("--degrees", type=int, nargs="*", default=[1, 2, 3, 5])
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sweep(args.primes, args.degrees, args.samples, args.seed)
