"""Reference values of the gain CDF that analytic.effective_gain_cdf claims
to compute, from mpmath, independent of the code under test.

The law: gain = p + (eta*q)^2 with p ~ Exp(lam_d) and q ~ Gamma(s = kappa+1,
scale b), (kappa, b) the gamma fit of the link.  In u = q/b, with
h = sqrt(t)/(eta*b) and c = (eta*b)^2/lam_d,

    F(t) = int_0^h u^kappa e^-u / Gamma(s) * (1 - exp(c*u^2 - t/lam_d)) du.

It is computed two ways, at 60 digits, which must agree to 1e-12 relative:
- mpmath.quad of that integral, scaled to O(1) first;
- the series from expanding exp(c*u^2) under the integral,
      F(t) = P(s, h) - e^(-t/lam_d) sum_k c^k/k! * P(s + 2k, h) Gamma(s + 2k)/Gamma(s),
  with P the regularized lower incomplete gamma.  Its two terms cancel to
  about t/lam_d, so at t = 1e-12 it keeps about 48 of its 60 digits.
On these thresholds the two agree to 1e-48 or better.

Run by hand (mpmath is not a test dependency):

    PYTHONPATH=src python tests/oracles/make_gain_cdf_oracle.py

It prints, for the reference system's T link (R = 8, lambda_g = 0.8,
lambda_r = lambda_d = eta = 1), one `threshold: float.fromhex(...)` line
per threshold, as tests/test_analytic.py pins them.
"""
import mpmath as mp

from risnoma.channel import gamma_fit

DIGITS = 60
THRESHOLDS = (1e-12, 1e-8, 1e-4, 1e-2, 0.1, 1.0, 2.0)


def by_quad(t, lam_d, kappa, b, eta):
    # in x = u/h on [0, 1], with the scale h^s * (1 - e^(-t/lam_d)) taken
    # out, so the integrand is O(1) however small F is: quad's tolerance is
    # absolute, and on the raw integrand it stops early where F ~ 1e-96
    s, h, c = kappa + 1, mp.sqrt(t) / (eta * b), (eta * b) ** 2 / lam_d
    miss_at_0 = mp.expm1(-t / lam_d)

    def integrand(x):
        return x**kappa * mp.exp(-h * x) * mp.expm1(c * (h * x) ** 2 - t / lam_d) / miss_at_0

    # a breakpoint at the gamma mean, where the density peaks, if it lies inside
    body = mp.quad(integrand, [0, s / h, 1] if s < h else [0, 1])
    return -miss_at_0 * h**s * body / mp.gamma(s)


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


def main():
    mp.mp.dps = DIGITS
    fit = gamma_fit(8, 0.8, 1.0)
    link = dict(lam_d=mp.mpf(1.0), kappa=mp.mpf(fit.kappa), b=mp.mpf(fit.b), eta=mp.mpf(1.0))
    for t in THRESHOLDS:
        quad, series = by_quad(mp.mpf(t), **link), by_series(mp.mpf(t), **link)
        gap = abs(quad - series) / series
        if not gap <= 1e-12:
            raise SystemExit(f"t = {t!r}: quad {quad} and series {series} differ by {gap} relative")
        print(f'    {t!r}: float.fromhex("{float(quad).hex()}"),  # {float(quad):.6e}')


if __name__ == "__main__":
    main()
