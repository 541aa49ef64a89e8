//! Probability distributions used by the flow models.
//!
//! Everything is implemented on top of [`crate::specfn`] and the `rand`
//! uniform source — no external statistics crates. Each distribution
//! offers the operations the paper needs:
//!
//! * `Beta` — the betaICM edge posterior (§II-A), empirical confidence
//!   intervals in the bucket experiment (§IV-C), and priors for
//!   joint-Bayes learning (§V-B).
//! * `Gamma` — Marsaglia–Tsang sampler backing `Beta::sample`.
//! * `Binomial` — the summarized unattributed likelihood
//!   `L_J ~ Binomial(n_J, p_{J,k})` (§V-B, Eq. 9).
//! * `Normal` — the Gaussian per-edge approximation of Fig. 10 and the
//!   Box–Muller source for Gamma sampling.

use crate::specfn::{betainc_inv, betainc_reg, ln_beta, ln_choose};
use rand::Rng;

/// The Beta(α, β) distribution on `[0, 1]`.
///
/// ```
/// use flow_stats::Beta;
///
/// // Posterior after 3 successes / 7 failures on a uniform prior.
/// let b = Beta::from_counts(3, 7);
/// assert_eq!(b.mean(), 4.0 / 12.0);
/// let (lo, hi) = b.confidence_interval(0.95);
/// assert!(lo < b.mean() && b.mean() < hi);
/// assert!((b.cdf(b.quantile(0.9)) - 0.9).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Beta {
    alpha: f64,
    beta: f64,
}

impl Beta {
    /// Creates a Beta distribution. Panics unless both parameters are
    /// positive and finite.
    pub fn new(alpha: f64, beta: f64) -> Self {
        match Self::try_new(alpha, beta) {
            Ok(b) => b,
            // flow-analyze: allow(L1: documented panicking wrapper over try_new, L7: moment matching clamps both parameters positive before calling new)
            Err(e) => panic!("invalid Beta parameters: {e}"),
        }
    }

    /// Fallible construction: returns a typed error when either
    /// parameter is non-positive or non-finite instead of panicking.
    /// Learners updating posteriors from untrusted counts go through
    /// this path.
    pub fn try_new(alpha: f64, beta: f64) -> flow_core::FlowResult<Self> {
        let alpha = flow_core::fault::poison("learn.beta_params", alpha);
        if !(alpha > 0.0 && alpha.is_finite()) {
            return Err(flow_core::FlowError::InvalidProbability {
                what: "Beta alpha parameter",
                value: alpha,
            });
        }
        if !(beta > 0.0 && beta.is_finite()) {
            return Err(flow_core::FlowError::InvalidProbability {
                what: "Beta beta parameter",
                value: beta,
            });
        }
        Ok(Beta { alpha, beta })
    }

    /// The uniform prior Beta(1, 1) the paper initializes every edge with.
    pub fn uniform() -> Self {
        Beta::new(1.0, 1.0)
    }

    /// Builds the posterior after observing `successes` and `failures`
    /// Bernoulli outcomes on top of the uniform prior — the attributed
    /// training rule of §II-A (`α = 1 + successes`, `β = 1 + failures`).
    pub fn from_counts(successes: u64, failures: u64) -> Self {
        Beta::new(1.0 + successes as f64, 1.0 + failures as f64)
    }

    /// α parameter.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// β parameter.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Mean α / (α + β) — the expected point-probability ICM edge value.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Variance αβ / ((α+β)² (α+β+1)).
    pub fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Log-density at `x` (−∞ outside the open support where undefined).
    pub fn ln_pdf(&self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) {
            return f64::NEG_INFINITY;
        }
        // Handle boundary x = 0 / 1 where the density may be 0, finite, or +inf.
        if x <= 0.0 {
            return match self.alpha.total_cmp(&1.0) {
                std::cmp::Ordering::Less => f64::INFINITY,
                std::cmp::Ordering::Equal => -ln_beta(self.alpha, self.beta),
                std::cmp::Ordering::Greater => f64::NEG_INFINITY,
            };
        }
        if x >= 1.0 {
            return match self.beta.total_cmp(&1.0) {
                std::cmp::Ordering::Less => f64::INFINITY,
                std::cmp::Ordering::Equal => -ln_beta(self.alpha, self.beta),
                std::cmp::Ordering::Greater => f64::NEG_INFINITY,
            };
        }
        (self.alpha - 1.0) * x.ln() + (self.beta - 1.0) * (1.0 - x).ln()
            - ln_beta(self.alpha, self.beta)
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= 1.0 {
            1.0
        } else {
            betainc_reg(self.alpha, self.beta, x)
        }
    }

    /// Quantile function (inverse cdf) at probability `p`.
    pub fn quantile(&self, p: f64) -> f64 {
        betainc_inv(self.alpha, self.beta, p)
    }

    /// Central credible interval at the given `level` (e.g. `0.95` gives
    /// the 2.5%–97.5% quantile pair used by the bucket experiment).
    pub fn confidence_interval(&self, level: f64) -> (f64, f64) {
        assert!((0.0..=1.0).contains(&level));
        let tail = (1.0 - level) / 2.0;
        (self.quantile(tail), self.quantile(1.0 - tail))
    }

    /// Draws a sample via two Gamma variates: `X/(X+Y)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = Gamma::new(self.alpha, 1.0).sample(rng);
        let y = Gamma::new(self.beta, 1.0).sample(rng);
        if x + y <= 0.0 {
            // Numerically possible only for tiny shape parameters.
            return 0.5;
        }
        (x / (x + y)).clamp(0.0, 1.0)
    }
}

/// The Gamma(shape k, scale θ) distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a Gamma distribution. Panics unless both parameters are
    /// positive and finite.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(
            shape > 0.0 && shape.is_finite() && scale > 0.0 && scale.is_finite(),
            "invalid Gamma parameters ({shape}, {scale})"
        );
        Gamma { shape, scale }
    }

    /// Mean kθ.
    pub fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    /// Variance kθ².
    pub fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }

    /// Draws a sample with the Marsaglia–Tsang method (2000); the
    /// `shape < 1` case uses the standard boost `X_{k+1} · U^{1/k}`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.shape < 1.0 {
            let boosted = Gamma::new(self.shape + 1.0, self.scale).sample(rng);
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            return boosted * u.powf(1.0 / self.shape);
        }
        let d = self.shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = sample_standard_normal(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u: f64 = rng.random();
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 {
                return d * v * self.scale;
            }
            if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                return d * v * self.scale;
            }
        }
    }
}

/// The Normal(μ, σ) distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a Normal distribution. `std_dev` must be nonnegative
    /// (zero gives a point mass, useful for degenerate edge posteriors).
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev >= 0.0 && std_dev.is_finite(),
            "invalid Normal parameters ({mean}, {std_dev})"
        );
        Normal { mean, std_dev }
    }

    /// Mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws a sample (polar Box–Muller).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * sample_standard_normal(rng)
    }
}

/// Standard-normal variate via the Marsaglia polar method.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.random::<f64>() - 1.0;
        let v = 2.0 * rng.random::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// The Binomial(n, p) distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a Binomial distribution. `p` must be in `[0, 1]`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "invalid Binomial p = {p}");
        Binomial { n, p }
    }

    /// Mean np.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Variance np(1−p).
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// Log probability mass at `k`. Returns −∞ for `k > n` and handles
    /// the degenerate `p ∈ {0, 1}` cases exactly — the unattributed
    /// likelihood (Eq. 9) hits these when a characteristic's combined
    /// activation probability saturates.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return f64::NEG_INFINITY;
        }
        if self.p <= 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if self.p >= 1.0 {
            return if k == self.n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_choose(self.n, k) + k as f64 * self.p.ln() + (self.n - k) as f64 * (1.0 - self.p).ln()
    }

    /// Draws a sample as a sum of Bernoulli trials.
    ///
    /// O(n); the trial counts in this workspace (≤ tens of thousands,
    /// drawn once per synthetic summary row) do not justify BTPE.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut k = 0;
        for _ in 0..self.n {
            if rng.random::<f64>() < self.p {
                k += 1;
            }
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(got: f64, want: f64, tol: f64) {
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "got {got}, want {want}"
        );
    }

    #[test]
    fn beta_moments() {
        let b = Beta::new(16.0, 4.0);
        assert_close(b.mean(), 0.8, 1e-12);
        assert_close(b.variance(), 16.0 * 4.0 / (400.0 * 21.0), 1e-12);
    }

    #[test]
    fn beta_from_counts_matches_paper_rule() {
        let b = Beta::from_counts(3, 7);
        assert_eq!(b.alpha(), 4.0);
        assert_eq!(b.beta(), 8.0);
        assert_eq!(Beta::uniform(), Beta::from_counts(0, 0));
    }

    #[test]
    fn beta_pdf_integrates_to_one() {
        // Trapezoid integration of the pdf.
        let b = Beta::new(2.5, 4.0);
        let n = 20_000;
        let mut acc = 0.0;
        for i in 0..=n {
            let x = i as f64 / n as f64;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            acc += w * b.ln_pdf(x).exp();
        }
        acc /= n as f64;
        assert_close(acc, 1.0, 1e-6);
    }

    #[test]
    fn beta_cdf_quantile_inverse() {
        let b = Beta::new(3.0, 9.0);
        for &p in &[0.025, 0.5, 0.975] {
            assert_close(b.cdf(b.quantile(p)), p, 1e-9);
        }
        let (lo, hi) = b.confidence_interval(0.95);
        assert!(lo < b.mean() && b.mean() < hi);
        assert_close(b.cdf(hi) - b.cdf(lo), 0.95, 1e-9);
    }

    #[test]
    fn beta_uniform_special_case() {
        let u = Beta::uniform();
        assert_close(u.cdf(0.37), 0.37, 1e-12);
        assert_close(u.ln_pdf(0.5).exp(), 1.0, 1e-12);
        assert_close(u.quantile(0.9), 0.9, 1e-9);
    }

    #[test]
    fn beta_ln_pdf_boundaries() {
        assert_eq!(Beta::new(2.0, 2.0).ln_pdf(0.0), f64::NEG_INFINITY);
        assert_eq!(Beta::new(2.0, 2.0).ln_pdf(1.0), f64::NEG_INFINITY);
        assert_eq!(Beta::new(0.5, 2.0).ln_pdf(0.0), f64::INFINITY);
        assert_eq!(Beta::new(2.0, 2.0).ln_pdf(-0.1), f64::NEG_INFINITY);
        assert_eq!(Beta::new(2.0, 2.0).ln_pdf(1.1), f64::NEG_INFINITY);
        // Uniform is finite at the boundary.
        assert_close(Beta::uniform().ln_pdf(0.0), 0.0, 1e-12);
    }

    #[test]
    fn beta_sampling_matches_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let b = Beta::new(2.0, 8.0);
        let n = 40_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = b.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x));
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert_close(mean, b.mean(), 0.02);
        assert_close(var, b.variance(), 0.08);
    }

    #[test]
    fn gamma_sampling_matches_moments_all_regimes() {
        let mut rng = StdRng::seed_from_u64(12);
        for &(shape, scale) in &[(0.3, 2.0), (1.0, 1.0), (4.5, 0.5), (20.0, 3.0)] {
            let g = Gamma::new(shape, scale);
            let n = 40_000;
            let mut sum = 0.0;
            for _ in 0..n {
                let x = g.sample(&mut rng);
                assert!(x >= 0.0);
                sum += x;
            }
            let mean = sum / n as f64;
            assert_close(mean, g.mean(), 0.05);
        }
    }

    #[test]
    fn normal_degenerate_point_mass() {
        let d = Normal::new(0.7, 0.0);
        let mut rng = StdRng::seed_from_u64(13);
        assert_eq!(d.sample(&mut rng), 0.7);
    }

    #[test]
    fn normal_sampling_moments() {
        let mut rng = StdRng::seed_from_u64(14);
        let d = Normal::new(-1.5, 2.0);
        let n = 40_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - -1.5).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let b = Binomial::new(30, 0.37);
        let total: f64 = (0..=30).map(|k| b.ln_pmf(k).exp()).sum();
        assert_close(total, 1.0, 1e-12);
        assert_eq!(b.ln_pmf(31), f64::NEG_INFINITY);
    }

    #[test]
    fn binomial_degenerate_p() {
        let zero = Binomial::new(10, 0.0);
        assert_eq!(zero.ln_pmf(0).exp(), 1.0);
        assert_eq!(zero.ln_pmf(1).exp(), 0.0);
        let one = Binomial::new(10, 1.0);
        assert_eq!(one.ln_pmf(10).exp(), 1.0);
        assert_eq!(one.ln_pmf(9).exp(), 0.0);
    }

    #[test]
    fn binomial_sampling_moments() {
        let mut rng = StdRng::seed_from_u64(15);
        let b = Binomial::new(50, 0.2);
        let n = 20_000;
        let mut sum = 0u64;
        for _ in 0..n {
            let k = b.sample(&mut rng);
            assert!(k <= 50);
            sum += k;
        }
        let mean = sum as f64 / n as f64;
        assert_close(mean, 10.0, 0.02);
    }

    #[test]
    fn binomial_pmf_matches_direct_computation() {
        let b = Binomial::new(5, 0.5);
        assert_close(b.ln_pmf(2).exp(), 10.0 / 32.0, 1e-12);
        assert_close(b.ln_pmf(0).exp(), 1.0 / 32.0, 1e-12);
    }
}

/// The Exponential(rate λ) distribution on `[0, ∞)`, used for edge
/// delay models in the timed-flow extension.
#[derive(Clone, Copy, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an Exponential distribution. Panics unless `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "invalid Exponential rate {rate}"
        );
        Exponential { rate }
    }

    /// Mean 1/λ.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Variance 1/λ².
    pub fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    /// Draws a sample by inversion.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        -u.ln() / self.rate
    }
}

#[cfg(test)]
mod exponential_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments() {
        let e = Exponential::new(2.0);
        assert!((e.mean() - 0.5).abs() < 1e-12);
        assert!((e.variance() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_mean() {
        let mut rng = StdRng::seed_from_u64(44);
        let e = Exponential::new(4.0);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = e.sample(&mut rng);
            assert!(x >= 0.0);
            sum += x;
        }
        assert!((sum / n as f64 - 0.25).abs() < 0.005);
    }

    #[test]
    #[should_panic(expected = "invalid Exponential")]
    fn rejects_nonpositive_rate() {
        let _ = Exponential::new(0.0);
    }
}
