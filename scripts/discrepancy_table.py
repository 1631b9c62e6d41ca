#!/usr/bin/env python3
"""Empirical Hecke eigenvalue measures vs the p-adic Plancherel measure:
atoms, interval discrepancy, and the moment lower bound.

Usage: python3 scripts/discrepancy_table.py [--p 2] [--kmax 120]
"""

import argparse

from hecke_spectra.spectral import (
    RecoveryRangeError,
    chebyshev_moment,
    discrepancy,
    empirical_mu_star,
    plancherel_measure,
    trace_discrepancy_bound,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--kmax", type=int, default=120)
    ap.add_argument("--N", type=int, default=1)
    args = ap.parse_args()

    ref = plancherel_measure(args.p)
    print(f"{'k':>5} {'dim':>4} {'discrepancy':>12} {'moment-2 gap':>13} {'trace bound':>12}")
    for k in range(12, args.kmax + 1, 4):
        try:
            mu = empirical_mu_star(k, args.N, args.p)
        except RecoveryRangeError:  # empty space, or dim past the recovery limits
            continue
        dim = len(mu.atoms)
        disc = discrepancy(mu, ref)
        gap = chebyshev_moment(mu, 2) - chebyshev_moment(ref, 2)
        tb = trace_discrepancy_bound(args.p, k, args.N)
        print(f"{k:>5} {dim:>4} {disc:>12.6f} {gap:>13.6f} {tb:>12.6f}")


if __name__ == "__main__":
    main()
