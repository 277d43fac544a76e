"""50-digit Curie-Weiss sector-sum references, for freezing into the tests.

    python3 tools/cw_references.py [--errors] X T N [X T N ...]

For each point (x, t, n) it prints one line

    x t n phi u potential m1 m2 m3 m4

with x and t as given and every field to 50 significant digits: the action
phi = -(1/n) log Z, the velocity u = -<m>, the potential Var(m)/2 and the
moments <m^j>, from a sum over all n + 1 sectors with exact binomials in
mpmath at 70 digits, and more where the odd moments are a tiny difference:
log10(1 / (n |x|)) more when n |x| < 1.  x and t are read as doubles, so a
reference belongs to the double the library is handed.  A point at n = 250 000 takes a few
seconds.  Needs mpmath, which is not a dependency of the package.

With --errors it prints instead one line per field,

    x t n field reference error

the error being that of ``spinflow.cw_exact.exact_fields`` from the checkout
this file sits in: |value - reference| / |reference|, or |value| where the
reference is 0.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

DIGITS = 50
FIELDS = ("phi", "u", "potential", "m1", "m2", "m3", "m4")


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


def library_fields(x: float, t: float, n: int) -> list:
    """(phi, u, potential, m1, m2, m3, m4) from this checkout's exact_fields."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from spinflow.cw_exact import exact_fields
    from spinflow.plane import PlanePoint

    f = exact_fields(PlanePoint(x, t), n)
    return [f.phi, f.u, f.potential, *map(float, f.moments)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    errors = args[:1] == ["--errors"]
    args = args[errors:]
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
        if not errors:
            print(x, t, n, *(mpmath.nstr(v, DIGITS, strip_zeros=False) for v in fields))
            continue
        for name, reference, value in zip(FIELDS, fields, library_fields(x, t, n)):
            error = abs(mp.mpf(value) - reference) / (abs(reference) or 1)
            print(x, t, n, name, mpmath.nstr(reference, DIGITS, strip_zeros=False),
                  mpmath.nstr(error, 3, strip_zeros=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
