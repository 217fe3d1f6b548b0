#!/usr/bin/env python3
"""Arbitrate between the two candidate cost-stddev formulas by simulation.

For each p in a grid, draws many punctuated trials at n = 1 and reports how
many sampling standard errors the sample standard deviation sits from the
geometric form n sqrt(1-p)/p and from the alternative closed form
(n/p) sqrt((1-p)(1-p+p^2)).  The two agree as p -> 0 and split at moderate
p; the data consistently lands on the geometric form.
"""

import argparse
import math

import numpy as np

from gqsearch import cost_stddev, parallel_trial_costs


def sd_standard_error(costs: np.ndarray) -> float:
    """Large-sample standard error of the sample standard deviation."""
    s = float(costs.std(ddof=1))
    m4 = float(np.mean((costs - costs.mean()) ** 4))
    return math.sqrt((m4 - s**4) / (4.0 * s * s * costs.size))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument(
        "--probs", type=float, nargs="+", default=[0.05, 0.2, 0.5, 0.8]
    )
    args = parser.parse_args()

    n = 1
    print(f"{'p':>5}  {'sample sd':>10}  {'geometric':>10}  {'alt':>10}  "
          f"{'se(geo)':>8}  {'se(alt)':>8}  verdict")
    for p in args.probs:
        costs = parallel_trial_costs(p, n, 1, args.trials, seed=args.seed)
        s = float(costs.std(ddof=1))
        se = sd_standard_error(costs)
        forms = cost_stddev(n, p)
        d_geo = abs(s - forms.geometric) / se
        d_alt = abs(s - forms.alt) / se
        verdict = "geometric" if d_geo < d_alt else "alt"
        print(
            f"{p:>5.2f}  {s:>10.5f}  {forms.geometric:>10.5f}  {forms.alt:>10.5f}  "
            f"{d_geo:>8.1f}  {d_alt:>8.1f}  {verdict}"
        )


if __name__ == "__main__":
    main()
