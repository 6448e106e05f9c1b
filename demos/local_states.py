"""Localize states in an interval and verify the expectation-value chain.

Generates smooth bumps supported in [a, b], projects their positive-
frequency parts into the spectral and finite-difference backends, and
tabulates the localization inequalities: <D> >= 0, the a^2 <H> <= <C> <=
b^2 <H> chain, and log a <= <T> <= log b with cross-backend agreement.

Run:  python demos/local_states.py [--interval A B] [--bumps N]
"""

import argparse

import numpy as np

from modloc.verification import build_interval_fixture


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--interval", type=float, nargs=2, default=(1.0, 2.0),
                    metavar=("A", "B"))
    ap.add_argument("--bumps", type=int, default=6)
    args = ap.parse_args()
    a, b = args.interval

    print(f"building operators and {args.bumps} mollifier bumps in "
          f"[{a}, {b}] ...")
    fx = build_interval_fixture(a, b, n_bumps=args.bumps)
    la, lb = np.log(a), np.log(b)
    print(f"bounds: log a = {la:.4f}, log b = {lb:.4f}\n")
    print(f"{'support':>16} {'<D>':>10} {'<C>/<H>':>9} {'bound':>13} "
          f"{'<T> spec':>9} {'<T> grid':>9}")
    for st, es, eg in zip(fx.states, fx.table("spectral"), fx.table("grid")):
        ai, bi = st["support"]
        ed, et, etg = es["D"], es["T"], eg["T"]
        ratio = es["C"] / es["H"]
        ok = a * a <= ratio <= b * b and la <= et <= lb
        print(f"  [{ai:5.3f},{bi:5.3f}] {ed:10.2e} {ratio:9.4f} "
              f"[{a*a:4.2f},{b*b:5.2f}] {et:9.4f} {etg:9.4f}  "
              f"{'ok' if ok else 'VIOLATION'}")

    print("\nevery row must show <D> >= 0, the ratio inside its bound, and")
    print("<T> between log a and log b in both backends.")


if __name__ == "__main__":
    main()
