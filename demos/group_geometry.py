"""Walk through the Moebius geometry underlying the laboratory.

Shows how the three one-parameter subgroups move points and intervals of
the compactified line, how an arbitrary group element factorizes, and how
every bounded interval is reached from the reference half line.  A group
element is a real 2x2 matrix [[a, b], [c, d]] acting as
x -> (a x + b) / (c x + d); the package itself needs only the generators,
so the maps live here.  Exits 1 if any identity it prints fails.

Run:  python demos/group_geometry.py [--interval A B]
"""

import argparse
import sys

import numpy as np


def T(t):
    """Translation x -> x + t."""
    return np.array([[1.0, t], [0.0, 1.0]])


def Y(y):
    """diag(y, 1/y), y > 0: the dilation x -> y^2 x."""
    return np.diag([y, 1.0 / y])


def Lambda(b):
    """Dilation subgroup, normalized so that Lambda(b) T(t) Lambda(-b) =
    T(e^{2 pi b} t), the positive-inclusion scaling of the modular flow."""
    return Y(np.exp(np.pi * b))


def P(z):
    """Special conformal map x -> x / (1 - z x)."""
    return np.array([[1.0, 0.0], [-z, 1.0]])


def R(theta):
    """Rotation exp(theta (h + c) / 2); R(pi) maps x to -1/x."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, s], [-s, c]])


def onto(a, b):
    """x -> (b x + a) / (x + 1): takes the half line [0, oo] onto [a, b]."""
    return np.array([[b, a], [1.0, 1.0]])


def act(g, x):
    """g x = (a x + b) / (c x + d); the point at infinity goes to a / c."""
    (a, b), (c, d) = g
    return a / c if np.isinf(x) else (a * x + b) / (c * x + d)


def iwasawa(g):
    """(x, y, z) with g = T(x) Y(y) P(z) for det g = 1 and d > 0:
    T(x) Y(y) P(z) = [[y - x z / y, x / y], [-z / y, 1 / y]]."""
    (_, b), (c, d) = g
    return b / d, 1.0 / d, -c / d


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--interval", type=float, nargs=2, default=(1.0, 2.0),
                    metavar=("A", "B"))
    args = ap.parse_args()
    a, b = args.interval
    checks = []

    print("one-parameter subgroups acting on x = 1:")
    # x + t, e^{2 pi b} x, x / (1 - z x) and -1/x at x = 1
    for name, g, image in (("T(0.5)      ", T(0.5), 1.5),
                           ("Lambda(0.1) ", Lambda(0.1), np.exp(0.2 * np.pi)),
                           ("P(0.3)      ", P(0.3), 1.0 / 0.7),
                           ("R(pi)       ", R(np.pi), -1.0)):
        checks.append(np.isclose(act(g, 1.0), image, rtol=1e-12, atol=0.0))
        print(f"  {name} 1 -> {act(g, 1.0):+.6f}")

    print("\ndilations scale translations (the positive-inclusion relation):")
    bb, t = 0.2, 1.0
    lhs = Lambda(bb) @ T(t) @ Lambda(-bb)
    checks.append(np.allclose(lhs, T(np.exp(2 * np.pi * bb) * t),
                              rtol=1e-12, atol=0.0))
    print(f"  Lambda({bb}) T({t}) Lambda({-bb}) maps 0 to "
          f"{act(lhs, 0.0):.6f}; e^(2 pi {bb}) t = "
          f"{np.exp(2 * np.pi * bb) * t:.6f}")

    print("\nIwasawa factorization of a generic element:")
    g = T(0.7) @ Y(1.3) @ P(-0.4)
    x, y, z = iwasawa(g)
    checks.append(np.allclose(T(x) @ Y(y) @ P(z), g, rtol=0.0, atol=1e-10))
    print(f"  g = T({x:.4f}) Lambda({y:.4f}) P({z:.4f})")
    print(f"  recomposition matches g: {checks[-1]}")

    print(f"\ntransporting the half line onto [{a}, {b}]:")
    gmap = onto(a, b)
    ends = act(gmap, 0.0), act(gmap, np.inf)
    lo, hi = act(Y(2.0), a), act(Y(2.0), b)
    checks += [np.allclose(ends, (a, b), rtol=1e-12, atol=0.0),
               np.allclose((lo, hi), (4 * a, 4 * b), rtol=1e-12, atol=0.0)]
    print(f"  g 0  = {ends[0]:.6f}")
    print(f"  g oo = {ends[1]:.6f}")
    print(f"  Lambda-type push by diag(2, 1/2): [{a}, {b}] -> "
          f"[{lo:.4f}, {hi:.4f}]  (x -> 4x)")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
