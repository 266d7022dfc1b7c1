"""Classify a handful of planar interfaces with the closed-form criterion.

The normal vacuum electric field E1 destabilizes the interface as soon as
E1^2 exceeds a threshold built from the two magnetic fields:

    threshold = ( |H|^2 + |Hv|^2 - sqrt((|H|^2 + |Hv|^2)^2 - 4|H x Hv|^2) ) / 2

Collinear fields make the threshold collapse to zero, so *any* nonzero E1
is violently unstable there.  Run: python demos/01_classify_interfaces.py
"""

import pvstab as pv

CASES = [
    ("collinear fields, small E1",
     pv.EquilibriumState(H_hat_t=(1, 0), Hv_hat_t=(2, 0), E1_hat=0.05)),
    ("collinear fields, E1 = 0",
     pv.EquilibriumState(H_hat_t=(1, 0), Hv_hat_t=(2, 0), E1_hat=0.0)),
    ("orthogonal fields, E1 below threshold",
     pv.EquilibriumState(H_hat_t=(1, 0), Hv_hat_t=(0, 2), E1_hat=0.5)),
    ("orthogonal fields, E1 above threshold",
     pv.EquilibriumState(H_hat_t=(1, 0), Hv_hat_t=(0, 2), E1_hat=1.4)),
    ("critical E1 with tangential flow (transitional)",
     pv.EquilibriumState(H_hat_t=(1, 0), Hv_hat_t=(0, 2), E1_hat=1.0,
                         v_hat_t=(1, 0))),
    ("E1 beyond the physical restriction",
     pv.EquilibriumState(H_hat_t=(1, 1), Hv_hat_t=(0.5, -0.5), E1_hat=3.0)),
]


def main():
    print(f"{'case':45s} {'threshold':>10s} {'margin':>9s}  verdict")
    print("-" * 92)
    for label, state in CASES:
        state, warnings = pv.validate_state(state)
        cls = pv.classify(state)
        print(f"{label:45s} {cls.f_min:10.4f} {cls.margin:+9.4f}  "
              f"{cls.verdict.value}")
        w = cls.minimizer
        print(f"{'':45s} worst direction omega* = "
              f"({w.omega2:+.3f}, {w.omega3:+.3f}), F_min = {cls.f_min:.4f}")
        for msg in warnings:
            print(f"{'':45s} note: {msg}")
    print()
    print("Threshold = 0 exactly whenever H x Hv = 0: with collinear fields,")
    print("any nonzero E1 destabilizes the interface.  The cross-check:")
    for mu, nu in [(1.0, 2.0), (-0.3, 0.7), (2.0, -1.0)]:
        st = pv.EquilibriumState(H_hat_t=(mu, mu), Hv_hat_t=(nu, nu), E1_hat=0.1)
        print(f"  H = {mu}*(1,1), Hv = {nu}*(1,1):  threshold = "
              f"{pv.critical_e1_squared(st):.1f}, verdict = "
              f"{pv.classify(st).verdict.value}")


if __name__ == "__main__":
    main()
