"""Build the truncated positive-energy representation and inspect it.

Assembles the generator triple (H, D, C) for a lowest weight k, the
squared-coordinate companion triple, and the modular coordinate operator
T = (1/2) log(2 C~); prints the structural identities that make the
truncation trustworthy.  The generators are held as their three bands
(spectral.Tridiagonal), which act on vectors and on blocks of columns;
the commutators are read as in the verify suite's check_commutators.

Run:  python demos/spectral_representation.py [--k K] [--M M]
"""

import argparse

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from modloc.laguerre import BasisSpec
from modloc.spectral import (
    INTERIOR_FRACTION,
    build_generators,
    build_T,
    build_tilde_generators,
    relative_residual,
    unitary_flow,
)
from modloc.verification import check_commutators


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=float, default=1.0)
    ap.add_argument("--M", type=int, default=256)
    args = ap.parse_args()

    spec = BasisSpec(k=args.k, beta=1.0, M=args.M)
    g = build_generators(spec)
    gt = build_tilde_generators(g)
    print(f"built (H, D, C) at k={args.k}, M={args.M} in closed form")

    lo, lo_t = (trip.rotation().eigval(0) for trip in (g, gt))
    print(f"\nlowest rotation eigenvalues (the representation labels):")
    print(f"  plain triple: {lo:.10f}   (lowest weight k = {args.k})")
    print(f"  tilde triple: {lo_t:.10f}   (k/2 + 1/4 = "
          f"{0.5 * args.k + 0.25})")

    print("\ninterior-projected sl(2,R) commutators (relative residuals):")
    for tag, trip in (("plain", g), ("tilde", gt)):
        res = check_commutators(trip).values
        print(f"  {tag}: [H,D]-iH {res['HD']:.2e}, [C,D]+iC {res['CD']:.2e}, "
              f"[H,C]-2iD {res['HC']:.2e}")

    # on the interior block of the leading ceil(INTERIOR_FRACTION M) rows
    R = unitary_flow(g.rotation(), np.pi)
    b = int(np.ceil(INTERIOR_FRACTION * g.M))
    swapped = (R @ (g.H @ R.conj().T))[:b, :b]
    print(f"\nrotation by pi swaps H and C: residual "
          f"{relative_residual(swapped, (g.C @ np.eye(g.M))[:b, :b]):.2e}")

    T = build_T(gt)
    evals_T = np.sort(eigh(T.matrix, eigvals_only=True))
    C2 = 2.0 * gt.C
    evals_C = eigh_tridiagonal(C2.diag, C2.upper, eigvals_only=True)
    print(f"\nmodular coordinate T = (1/2) log(2 C~):")
    print(f"  spectrum range [{evals_T[0]:.4f}, {evals_T[-1]:.4f}]")
    print(f"  affinity max |spec T - log(spec 2C~)/2| = "
          f"{np.max(np.abs(evals_T - 0.5 * np.log(evals_C))):.2e}")


if __name__ == "__main__":
    main()
