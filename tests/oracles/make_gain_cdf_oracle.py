"""Reference values of the gain CDF that analytic.effective_gain_cdf claims
to compute, from mpmath, independent of the code under test.

The law: gain = p + (eta*q)^2 with p ~ Exp(lam_d) and q ~ Gamma(s = kappa+1,
scale b), (kappa, b) the gamma fit of the link.  In u = q/b, with
h = sqrt(t)/(eta*b) and c = (eta*b)^2/lam_d,

    F(t) = int_0^h u^kappa e^-u / Gamma(s) * (1 - exp(c*u^2 - t/lam_d)) du.

It is computed two ways, at 60 digits, which must agree to 1e-12 relative:
- mpmath.quad of that integral in u, scaled to O(1) first, with
  breakpoints across the gamma bulk and at the edge of the boundary layer
  below h, where the direct power's factor falls from 1 to 0;
- where t/lam_d <= 2e3, the series from expanding exp(c*u^2) under the
  integral,
      F(t) = P(s, h) - e^(-t/lam_d) sum_k c^k/k! * P(s + 2k, h) Gamma(s + 2k)/Gamma(s),
  with P the regularized lower incomplete gamma.  Its two terms cancel to
  about t/lam_d, so at t = 1e-12 it keeps about 48 of its 60 digits;
- above that, mpmath.quad over the direct power x,
      F(t) = int_0^t e^(-x/lam_d)/lam_d * P(s, sqrt(t - x)/(eta*b)) dx.
  The series sums about t/lam_d terms, each an incomplete gamma: it takes
  7.6 s at R = 256, t = 1e4, and this integral about 1 s.
The quad in u is the value written.  The series agrees with it to 7.4e-48
or better, and the direct-power integral to 1.7e-47 or better.

Run by hand (mpmath is not a test dependency):

    PYTHONPATH=src python tests/oracles/make_gain_cdf_oracle.py [--write]

It prints the table as JSON, or with --write writes it to gain_cdf.json
beside this script, which tests/test_analytic.py reads: each link of LINKS
by name, as its lam_d, lam_g, lam_r and eta, and one [link, R, threshold,
float.hex(F)] row per threshold of each (link, element count R,
thresholds) cell in CELLS.  A threshold whose value is not a normal
float64 is left out: at R = 32, F(1e-12) underflows, and at R = 100 every
threshold below 1 is subnormal or 0.  A threshold where the two methods
miss the 1e-12 bar stops the run, and is to be dropped from its cell,
never kept with a wider bar; none is dropped today.  With its one
breakpoint at the gamma mean, quad missed the series by 8.6e-5 to 0.11 at
eta = 1e-6 and t >= 1e-2, where h puts the whole bulk in a sliver near 0.
"""
import json
import sys
from pathlib import Path

import mpmath as mp

from risnoma.analytic import gamma_fit

DIGITS = 60
TABLE = Path(__file__).with_name("gain_cdf.json")
# each link (lam_d, lam_g, lam_r, eta) by its name: the reference system's T
# link, the same at eta = 1e-2, 1e-4 and 1e-6 and at lam_d = 1e-3, and the
# link of the small-eta strict xfail
LINKS = {
    "T": (1.0, 0.8, 1.0, 1.0),
    "T eta 1e-2": (1.0, 0.8, 1.0, 1e-2),
    "T eta 1e-4": (1.0, 0.8, 1.0, 1e-4),
    "T eta 1e-6": (1.0, 0.8, 1.0, 1e-6),
    "T lam_d 1e-3": (1e-3, 0.8, 1.0, 1.0),
    "small eta": (10.0, 0.1, 1.0, 1e-4),
}
THRESHOLDS = (1e-12, 1e-8, 1e-4, 1e-2, 0.1, 1.0, 2.0)
CELLS = (
    *(("T", R, THRESHOLDS) for R in (1, 2, 3, 8, 32, 100)),
    # the gain's median is about 3.23e4 at R = 256 and 5.17e5 at R = 1024:
    # these bracket it, from F ~ 1e-166 and 1e-189 up to F < 0.99
    ("T", 256, (1e3, 1e4, 2e4, 2.5e4, 3e4, 3.5e4, 4e4)),
    ("T", 1024, (1e5, 2e5, 3e5, 4e5, 4.5e5, 5e5, 5.5e5)),
    ("T eta 1e-2", 8, THRESHOLDS),
    ("T eta 1e-4", 8, THRESHOLDS),
    ("T eta 1e-6", 8, THRESHOLDS),
    *(("T lam_d 1e-3", R, THRESHOLDS) for R in (1, 2, 3, 8, 32, 100)),
    ("small eta", 2, THRESHOLDS),
)


def by_quad(t, lam_d, kappa, b, eta):
    # in u on [0, h], divided by the integrand's scale at the gamma peak
    # min(kappa, h) and by 1 - e^(-t/lam_d), so it is O(1) however small F
    # is: quad's tolerance is absolute, and on the raw integrand it stops
    # early where F ~ 1e-96
    s, h, c = kappa + 1, mp.sqrt(t) / (eta * b), (eta * b) ** 2 / lam_d
    miss_at_0 = mp.expm1(-t / lam_d)
    peak = min(kappa, h)
    scale = peak**kappa * mp.exp(-peak) * miss_at_0

    def integrand(u):
        return u**kappa * mp.exp(-u) * mp.expm1(c * u * u - t / lam_d) / scale

    # breakpoints across the gamma bulk, s + k sqrt(s), and past its tail,
    # where they lie inside: at a tiny eta, h is so far out that the whole
    # bulk is a sliver near 0 of [0, h].  The direct power's factor falls
    # from 1 to 0 over the last 1/(2ch) below h, so one more sits 40 such
    # widths below h, where the factor is within e^-40 of 1
    bulk = [s + k * mp.sqrt(s) for k in (-12, -8, -4, 0, 4, 8, 12)] + [s + 12 * mp.sqrt(s) + 200]
    edges = sorted(u for u in (*bulk, h - 40 / (2 * c * h)) if 0 < u < h)
    body = mp.quad(integrand, [0, *edges, h])
    return -scale * body / mp.gamma(s)


def by_series(t, lam_d, kappa, b, eta):
    s, h, c = kappa + 1, mp.sqrt(t) / (eta * b), (eta * b) ** 2 / lam_d
    total, k = mp.mpf(0), 0
    while True:
        term = c**k / mp.factorial(k) * mp.gammainc(s + 2 * k, 0, h)
        total += term
        if term < total * mp.mpf(10) ** (-DIGITS):
            break
        k += 1
    return mp.gammainc(s, 0, h, regularized=True) - mp.exp(-t / lam_d) * total / mp.gamma(s)


def by_direct_power(t, lam_d, kappa, b, eta):
    def square_cdf(x):  # P((eta*q)^2 <= t - x)
        return mp.gammainc(kappa + 1, 0, mp.sqrt(t - x) / (eta * b), regularized=True)

    # divided by its value at x = 0, so the integrand is O(1) for quad's
    # absolute tolerance, with breakpoints where e^(-x/lam_d) has fallen by
    # each power of e^-4
    top = square_cdf(0)
    edges = [lam_d * 4**k for k in range(64) if lam_d * 4**k < t]
    body = mp.quad(lambda x: mp.exp(-x / lam_d) * square_cdf(x) / top, [0, *edges, t])
    return top * body / lam_d


def main(argv):
    mp.mp.dps = DIGITS
    rows = []
    for name, R, thresholds in CELLS:
        lam_d, lam_g, lam_r, eta = LINKS[name]
        kappa, b = gamma_fit(R, lam_g, lam_r)
        link = dict(lam_d=mp.mpf(lam_d), kappa=mp.mpf(kappa), b=mp.mpf(b), eta=mp.mpf(eta))
        for t in thresholds:
            check = by_series if t / lam_d <= 2e3 else by_direct_power
            quad, other = by_quad(mp.mpf(t), **link), check(mp.mpf(t), **link)
            gap = abs(quad - other) / other
            if not gap <= 1e-12:
                raise SystemExit(
                    f"{name}, R = {R}, t = {t!r}: quad {quad} and {check.__name__} {other} "
                    f"differ by {gap} relative"
                )
            if float(quad) >= sys.float_info.min:
                rows.append(json.dumps([name, R, t, float(quad).hex()]))
    links = [
        f"{json.dumps(name)}: {json.dumps(dict(zip(('lam_d', 'lam_g', 'lam_r', 'eta'), link)))}"
        for name, link in LINKS.items()
    ]
    # one link and one row per line, so a regenerated table diffs line by line
    text = '{\n"links": {\n%s\n},\n"cells": [\n%s\n]\n}\n' % (",\n".join(links), ",\n".join(rows))
    if "--write" in argv:
        TABLE.write_text(text, encoding="utf-8")
    else:
        print(text, end="")


if __name__ == "__main__":
    main(sys.argv[1:])
