"""Build explicit growing mode sequences and verify them by residuals.

Each mode solves the linearized interior equations, boundary conditions and
constraints up to roundoff, decays into both half-spaces at t = 0, and grows
like exp(n Re(s) t): amplitudes bounded initially, arbitrarily large later,
for every positive time -- the loss of well-posedness made concrete.
Run: python demos/04_hadamard_growth.py
"""

import pvstab as pv

STATE = pv.EquilibriumState(H_hat_t=(1, 0), Hv_hat_t=(2, 0), E1_hat=0.3)
PERP = pv.WaveDirection(0, 1)


def main():
    ctx = pv.make_context(STATE, PERP)
    report = pv.find_unstable_roots(ctx)
    s = report.roots[0]
    print(f"growing root at the worst direction: s = {s:.8f}\n")

    print("residual check (all equation groups, relative to amplitude size):")
    for n in (1, 10, 100):
        mode = pv.build_mode(STATE, s, PERP, n)
        rep = pv.residuals(mode, STATE)
        print(f"  n = {n:4d}: interior plasma {rep.interior_plasma:.1e}, "
              f"interior vacuum {rep.interior_vacuum:.1e}, "
              f"boundary {rep.boundary:.1e}, constraints {rep.constraints:.1e}")

    off = pv.residuals(pv.build_mode(STATE, s + 0.1, PERP, 1), STATE)
    print(f"  off-root control (s + 0.1): boundary pressure residual "
          f"{off.boundary_pressure:.1e} -- only the dispersion relation fails\n")

    print("growth of ||mode(t)|| / ||mode(0)|| = exp(n Re(s) t):")
    rows = pv.growth_table(STATE, s, PERP, [1, 10, 100, 1000], [0.01, 0.1, 1.0])
    print(f"  {'n':>6s} {'initial norm':>14s} " +
          " ".join(f"{'t=' + str(t):>12s}" for t in (0.01, 0.1, 1.0)))
    by_n = {}
    for row in rows:
        by_n.setdefault(row.n, []).append(row)
    for n, group in by_n.items():
        ratios = " ".join(f"{r.ratio:12.4g}" for r in group)
        print(f"  {n:6d} {group[0].initial_norm:14.6g} {ratios}")
    print()
    print("initial data shrink with n while the growth ratio explodes:")
    print("no Sobolev norm can control the solution -- Hadamard instability.")


if __name__ == "__main__":
    main()
