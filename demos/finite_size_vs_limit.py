#!/usr/bin/env python3
"""Watch the finite-size ferromagnet fields converge to the variational limit.

Tabulates phi_N and u_N against the Lax-Oleinik solution at a supercritical
point, together with the scaled fluctuation potential N * V_N, which stays
bounded while V_N itself dies like 1/N, and the scaled action error
N (phi_N - phi), which tends to the first viscous correction in closed form,
c1 = log(D) / 2 with D = 1 - t sech^2 y* the Jacobian of the characteristic
map.  The sizes run up to N = 10^7: the sector sum adds only the pairs of
mirror sectors within 105 of the peak in log-weight, 9 928 pairs at the
largest size, which costs about a quarter of a millisecond.
"""

import math

from spinflow import PlanePoint, exact_fields, lax_action


def main():
    p = PlanePoint(0.3, 2.0)
    limit = lax_action(p)
    c1 = 0.5 * math.log(1.0 - p.t / math.cosh(limit.y_star) ** 2)
    print(f"point (x, t) = ({p.x}, {p.t})")
    print(f"limit: phi = {limit.phi:.12f}, u = {limit.u:.12f}, c1 = {c1:.7f}\n")
    print(f"{'N':>8} {'phi_N':>18} {'|phi_N - phi|':>14} "
          f"{'u_N':>18} {'|u_N - u|':>12} {'N * V_N':>10} {'N(phi_N - phi)':>15}")
    for n in (10, 20, 40, 80, 160, 320, 10**4, 10**5, 10**6, 10**7):
        fields = exact_fields(p, n)
        print(f"{n:>8} {fields.phi:>18.12f} {abs(fields.phi - limit.phi):>14.2e} "
              f"{fields.u:>18.12f} {abs(fields.u - limit.u):>12.2e} "
              f"{n * fields.potential:>10.4f} {n * (fields.phi - limit.phi):>15.7f}")
    print("\nerrors shrink roughly linearly in 1/N while N * V_N levels off,")
    print("and N (phi_N - phi) approaches c1 with a gap of order 1/N")


if __name__ == "__main__":
    main()
