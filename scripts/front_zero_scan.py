#!/usr/bin/env python3
"""Where the front determinant vanishes, and where the front's own
eigenvalue actually sits.

The front det2 is the regularized determinant of a pulse-type reference
problem (single constant matrix B with the mixed end rates), not of the
original two-limit operator.  This scan makes the distinction concrete:
it refines the determinant zero, the Evans zero of the reference system,
and the Evans zero of the original front, then prints all three.  The
first two agree to quadrature accuracy; the third is a genuinely
different number.
"""

import argparse

import numpy as np

import wavedet as wd
from wavedet import fronts, locate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--amplitude", type=float, default=1.5)
    ap.add_argument("--offset", type=float, default=-2.5)
    ap.add_argument("--well", type=float, default=8.0)
    ap.add_argument("--window", type=float, nargs=2, default=[1.0, 4.0])
    ap.add_argument("--samples", type=int, default=13)
    args = ap.parse_args()

    front = wd.to_system(wd.builtin_problem(
        "tanh_front", amplitude=args.amplitude, offset=args.offset,
        well=args.well))
    ref = fronts.reference_system(front)
    grid = wd.build_grid(20.0, 400)

    lo, hi = args.window
    print(f"# tanh front, window ({lo}, {hi})")
    print(f"{'lambda':>8}  {'front det2':>15}  {'evans (front)':>15}")
    rows = []
    for lam in np.linspace(lo, hi, args.samples):
        d = wd.det2(front, lam, grid).value
        e = wd.evans_function(front, lam).ratio
        rows.append((lam, d, e))
        print(f"{lam:8.3f}  {d.real:+15.8f}  {e.real:+15.8f}")

    def bracket(vals):
        for (a, fa), (b, fb) in zip(vals, vals[1:]):
            if np.sign(fa.real) != np.sign(fb.real):
                return 0.5 * (a + b)
        return None

    det_guess = bracket([(lam, d) for lam, d, _ in rows])
    ev_guess = bracket([(lam, e) for lam, _, e in rows])
    if det_guess is None or ev_guess is None:
        print("\nno sign change inside the window")
        return

    z_det = locate.refine_root(
        lambda lam: wd.det2(front, lam, grid).value, det_guess,
        tol=1e-12)
    z_ref = locate.refine_root(
        lambda lam: wd.evans_function(ref, lam).ratio, det_guess,
        tol=1e-12)
    z_orig = locate.refine_root(
        lambda lam: wd.evans_function(front, lam).ratio, ev_guess,
        tol=1e-12)
    print(f"\ndeterminant zero          {z_det.real:.12f}")
    print(f"reference system (Evans)  {z_ref.real:.12f}   "
          f"gap {abs(z_det - z_ref):.2e}")
    print(f"original front (Evans)    {z_orig.real:.12f}   "
          f"offset {abs(z_orig - z_det):.4f}")


if __name__ == "__main__":
    main()
