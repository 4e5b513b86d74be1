#!/usr/bin/env python3
"""Rigid-rotation convergence table for the planar transport stencil.

Carries a Gaussian blob once around the box center and reports the
relative error against the exact return to the start, the energy drift
of the trapezoidal stepper, and the most and the mean Neumann products
per step ("-" where |S|_inf >= 1/2 puts every step on SuperLU).
"""
import argparse

import numpy as np

from skewflow.transport import rotation_benchmark


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[32, 64, 128],
                    help="grid sizes (cells per side)")
    ap.add_argument("--steps", type=int, default=2000,
                    help="time steps per revolution at the first size; "
                    "doubles with each refinement")
    args = ap.parse_args(argv)

    print(f"{'n':>5} {'steps':>7} {'final error':>12} {'drift':>10} "
          f"{'products':>8} {'mean':>6} {'ratio':>7}")
    prev = None
    steps = args.steps
    for n in args.n:
        res = rotation_benchmark(n, 2.0 * np.pi / steps)
        ratio = "" if prev is None else f"{prev / res['final_error']:.2f}"
        products, mean = res["neumann_products"], res["neumann_products_mean"]
        products = "-" if products is None else str(products)
        mean = "-" if mean is None else f"{mean:.2f}"
        print(f"{n:>5} {res['steps']:>7} {res['final_error']:>12.5f} "
              f"{res['energy_drift']:>10.1e} {products:>8} {mean:>6} "
              f"{ratio:>7}")
        prev = res["final_error"]
        steps *= 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
