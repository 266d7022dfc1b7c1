"""Count and locate growth rates of the normal-mode determinant.

The roots of one degree-6 polynomial count the exponentially growing modes
in a right-half-plane region, certified by clusters of disks about them;
Newton pins each root to machine precision, and the small-eps expansions
predict where the roots sit.  Run: python demos/02_root_hunting.py
"""

import dataclasses

import pvstab as pv

UNSTABLE = pv.EquilibriumState(H_hat_t=(1, 0), Hv_hat_t=(2, 0), E1_hat=0.3)
NEUTRAL = pv.EquilibriumState(H_hat_t=(1, 0), Hv_hat_t=(0, 1), E1_hat=0.5)


def show_region(state, direction, label):
    ctx = pv.make_context(state, direction)
    report = pv.find_unstable_roots(ctx)       # at the default delta
    print(f"{label}: direction ({direction.omega2:+.2f}, {direction.omega3:+.2f})")
    print(f"  region: Re s >= {report.region.delta:.3g}, "
          f"|s - delta| <= {report.region.radius:.3g}")
    print(f"  root count = {report.winding_count} "
          f"(inclusion disks of radius <= {report.inclusion_radius:.1e})")
    for root, res in zip(report.roots, report.residuals):
        print(f"  root s = {root.real:+.10f} {root.imag:+.10f}i   |L| = {res:.1e}")
    if not report.roots:
        print("  no roots in the right half-plane")
    print()
    return report


def main():
    perp = pv.WaveDirection(0, 1)
    report = show_region(UNSTABLE, perp, "collinear state, worst direction")
    show_region(NEUTRAL, pv.WaveDirection(1, 0), "neutral state")

    print("series prediction vs located root (collinear state):")
    ctx = pv.make_context(UNSTABLE, perp)
    branch = pv.series_root_generic(ctx, order=2)[0]
    print(f"  expansion coefficients: {[f'{c:.4g}' for c in branch.coefficients]}")
    for eps in (1e-2, 1e-3, 1e-4):
        st = dataclasses.replace(UNSTABLE, eps=eps)
        c = pv.make_context(st, perp)
        root, residual, _ = pv.newton_refine(c, branch.eval(eps))
        err = abs(root - branch.eval(eps))
        print(f"  eps = {eps:6.0e}: root = {root:.8f}, "
              f"|root - partial sum| = {err:.2e}")

    print()
    print("scan over directions (neutral state): all counts must be zero")
    scan = pv.scan_directions(NEUTRAL, n_dirs=16)
    print(f"  counts = {scan.count}")
    print(f"  numerically unstable: {scan.numerically_unstable}")


if __name__ == "__main__":
    main()
