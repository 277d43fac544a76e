"""50-digit Curie-Weiss sector-sum references, for freezing into the tests.

    python3 tools/cw_references.py X T N [X T N ...]

For each point (x, t, n) it prints one line

    x t n phi u potential m1 m2 m3 m4

with x and t as given and every field to 50 significant digits: the action
phi = -(1/n) log Z, the velocity u = -<m>, the potential Var(m)/2 and the
moments <m^j>, from a sum over all n + 1 sectors with exact binomials in
mpmath at 70 digits, and more where the odd moments are a tiny difference:
log10(1 / (n |x|)) more when n |x| < 1.  x and t are read as doubles, so a
reference belongs to the double the library is handed.  A point at n = 250 000 takes a few
seconds.  Needs mpmath, which is not a dependency of the package.
"""

from __future__ import annotations

import math
import sys

DIGITS = 50


def sector_fields(x: float, t: float, n: int, mp) -> list:
    """(phi, u, potential, m1, m2, m3, m4) as mpf, from every sector of n spins."""
    x, t = mp.mpf(x), mp.mpf(t)
    binomial = mp.mpf(1)
    sums = [mp.mpf(0)] * 5  # sum of w m^j, j = 0..4
    for k in range(n + 1):
        m = mp.mpf(2 * k - n) / n
        power = binomial * mp.exp(n * (t * m * m / 2 + x * m))
        for j in range(5):
            sums[j] += power
            power *= m
        binomial = binomial * (n - k) / (k + 1)
    z = sums[0]
    moments = [s / z for s in sums[1:]]
    if x == 0:  # the odd sums cancel exactly, not to the working precision
        moments[0] = moments[2] = mp.zero
    # the variance cancels at most log10(<m^2> / Var m) of the working digits
    variance = moments[1] - moments[0] ** 2
    return [-mp.log(z) / n, -moments[0], variance / 2, *moments]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or len(args) % 3:
        sys.exit(__doc__.split("\n\n")[1].strip() + "\n(x, t, n triples)")
    try:
        import mpmath
    except ImportError:
        sys.exit("cw_references.py needs mpmath (pip install mpmath); it is not installed")
    mp = mpmath.mp
    for i in range(0, len(args), 3):
        x, t, n = float(args[i]), float(args[i + 1]), int(args[i + 2])
        if n < 1 or t < 0:
            sys.exit(f"need n >= 1 and t >= 0, got x={x}, t={t}, n={n}")
        # <m> is about n x <m^2> at small n |x|, a difference of sums of order 1
        mp.dps = DIGITS + 20 + (max(0, -math.floor(math.log10(abs(x) * n))) if x else 0)
        fields = sector_fields(x, t, n, mp)
        print(x, t, n, *(mpmath.nstr(v, DIGITS, strip_zeros=False) for v in fields))
    return 0


if __name__ == "__main__":
    sys.exit(main())
