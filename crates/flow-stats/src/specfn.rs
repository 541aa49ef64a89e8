//! Special functions implemented from first principles.
//!
//! Accuracy targets are ~1e-10 relative for `ln_gamma` and the
//! regularized incomplete beta over the parameter ranges this workspace
//! uses (Beta/Binomial parameters up to ~1e5), verified in tests against
//! independently computed reference values.

/// Natural log of the gamma function, Lanczos approximation (g = 7,
/// n = 9 coefficients). Valid for `x > 0`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Coefficients for g = 7 (Godfrey / Numerical Recipes style).
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy for small x.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Natural log of the beta function `B(a, b)`.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Natural log of the binomial coefficient `C(n, k)`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_choose requires k <= n ({k} > {n})");
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Regularized incomplete beta function `I_x(a, b)`, the CDF of a
/// `Beta(a, b)` random variable at `x`.
///
/// Uses the continued-fraction expansion (modified Lentz algorithm) with
/// the symmetry transform for fast convergence.
pub fn betainc_reg(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta parameters must be positive");
    assert!((0.0..=1.0).contains(&x), "x must lie in [0,1], got {x}");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    // Prefactor x^a (1-x)^b / (a B(a,b)), computed in logs.
    let ln_front = a * x.ln() + b * (1.0 - x).ln() - ln_beta(a, b);
    if x < (a + 1.0) / (a + b + 2.0) {
        (ln_front.exp() / a) * beta_cf(a, b, x)
    } else {
        1.0 - (ln_front.exp() / b) * beta_cf(b, a, 1.0 - x)
    }
}

/// Continued fraction for the incomplete beta (Numerical Recipes
/// `betacf`), evaluated with the modified Lentz method.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Inverse of the regularized incomplete beta: returns `x` such that
/// `I_x(a, b) = p`. Bisection-safeguarded Newton iteration.
pub fn betainc_inv(a: f64, b: f64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must lie in [0,1], got {p}");
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return 1.0;
    }
    let ln_b = ln_beta(a, b);
    // Newton with bisection fallback, starting from the mean.
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    let mut x = a / (a + b);
    for _ in 0..100 {
        let f = betainc_reg(a, b, x) - p;
        if f > 0.0 {
            hi = x;
        } else {
            lo = x;
        }
        if f.abs() < 1e-13 {
            break;
        }
        // pdf at x (derivative of the cdf), in logs to avoid overflow.
        let ln_pdf = (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln() - ln_b;
        let step = f / ln_pdf.exp();
        let newton = x - step;
        x = if newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
        if (hi - lo) < 1e-15 {
            break;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: f64, want: f64, tol: f64) {
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "got {got}, want {want}"
        );
    }

    #[test]
    fn ln_gamma_reference_values() {
        assert_close(ln_gamma(1.0), 0.0, 1e-12);
        assert_close(ln_gamma(2.0), 0.0, 1e-12);
        assert_close(ln_gamma(0.5), 0.572_364_942_924_700_1, 1e-12); // ln sqrt(pi)
        assert_close(ln_gamma(3.5), 1.200_973_602_347_074_3, 1e-12);
        assert_close(ln_gamma(10.0), 12.801_827_480_081_469, 1e-12); // ln 9!
                                                                     // Large argument (Stirling regime): ln Γ(100) = ln 99!
        assert_close(ln_gamma(100.0), 359.134_205_369_575_4, 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence_holds() {
        // Γ(x+1) = x Γ(x)  =>  lnΓ(x+1) = ln x + lnΓ(x)
        for &x in &[0.1, 0.7, 1.3, 5.5, 20.25] {
            assert_close(ln_gamma(x + 1.0), x.ln() + ln_gamma(x), 1e-11);
        }
    }

    #[test]
    fn ln_choose_small_cases() {
        assert_close(ln_choose(5, 2), (10.0f64).ln(), 1e-12);
        assert_close(ln_choose(10, 5), (252.0f64).ln(), 1e-12);
        assert_eq!(ln_choose(7, 0), 0.0);
        assert_eq!(ln_choose(7, 7), 0.0);
        // ln C(100,50) = ln(1.00891344545564e29)
        assert_close(ln_choose(100, 50), 66.783_841_652_017_3, 1e-10);
    }

    #[test]
    fn betainc_identities() {
        // I_x(1, 1) = x
        for &x in &[0.0, 0.2, 0.5, 0.9, 1.0] {
            assert_close(betainc_reg(1.0, 1.0, x), x, 1e-12);
        }
        // I_x(a, 1) = x^a
        assert_close(betainc_reg(3.0, 1.0, 0.4), 0.4f64.powi(3), 1e-12);
        // I_x(1, b) = 1 - (1-x)^b
        assert_close(betainc_reg(1.0, 4.0, 0.3), 1.0 - 0.7f64.powi(4), 1e-12);
        // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a)
        let v = betainc_reg(2.5, 7.0, 0.35);
        assert_close(v, 1.0 - betainc_reg(7.0, 2.5, 0.65), 1e-12);
        // Beta(2,2) cdf at 0.3 = 0.216 (hand integral).
        assert_close(betainc_reg(2.0, 2.0, 0.3), 0.216, 1e-12);
        // Median of a symmetric Beta is 1/2.
        assert_close(betainc_reg(5.0, 5.0, 0.5), 0.5, 1e-12);
    }

    #[test]
    fn betainc_large_parameters() {
        // With a = b = 1000 the distribution is ~N(0.5, 0.000125);
        // cdf at the mean is 1/2.
        assert_close(betainc_reg(1000.0, 1000.0, 0.5), 0.5, 1e-10);
        // Far tail is ~0/1.
        assert!(betainc_reg(1000.0, 1000.0, 0.4) < 1e-15);
        assert!(betainc_reg(1000.0, 1000.0, 0.6) > 1.0 - 1e-15);
    }

    #[test]
    fn betainc_inv_roundtrip() {
        for &(a, b) in &[
            (1.0, 1.0),
            (2.0, 5.0),
            (16.0, 4.0),
            (0.5, 0.5),
            (30.0, 70.0),
        ] {
            for &p in &[0.01, 0.1, 0.5, 0.9, 0.975, 0.999] {
                let x = betainc_inv(a, b, p);
                assert_close(betainc_reg(a, b, x), p, 1e-9);
            }
        }
        assert_eq!(betainc_inv(2.0, 3.0, 0.0), 0.0);
        assert_eq!(betainc_inv(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn betainc_matches_binomial_sum() {
        // CDF duality: for integer a=k+1, b=n-k,
        // I_p(k+1, n-k) = P(Bin(n,p) > k) = 1 - sum_{i<=k} C(n,i) p^i q^(n-i)
        let n = 12u64;
        let k = 4u64;
        let p = 0.37f64;
        let mut cdf = 0.0;
        for i in 0..=k {
            cdf +=
                (ln_choose(n, i) + (i as f64) * p.ln() + ((n - i) as f64) * (1.0 - p).ln()).exp();
        }
        let via_beta = betainc_reg((k + 1) as f64, (n - k) as f64, p);
        assert_close(via_beta, 1.0 - cdf, 1e-11);
    }
}
