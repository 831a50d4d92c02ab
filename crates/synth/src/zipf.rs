//! Truncated Zipf distribution.
//!
//! `P(k) ∝ 1 / k^s` for `k ∈ 1..=n`. Sampling is by inverse CDF with binary
//! search over a precomputed table, so a sampler is O(n) to build and
//! O(log n) per draw. Implemented locally because `rand_distr` is outside
//! the allowed dependency set.

use dln_fault::{DlnError, DlnResult};
use rand::Rng;

/// A sampler for the Zipf distribution truncated to `1..=n`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Create a sampler over `1..=n` with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative / non-finite.
    pub fn new(n: usize, s: f64) -> Zipf {
        match Self::try_new(n, s) {
            Ok(z) => z,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`new`](Self::new): an empty support or a
    /// negative / non-finite exponent is reported as
    /// [`DlnError::InvalidConfig`].
    fn try_new(n: usize, s: f64) -> DlnResult<Zipf> {
        if n == 0 {
            return Err(DlnError::InvalidConfig(
                "Zipf support must be non-empty (n == 0)".to_string(),
            ));
        }
        if !s.is_finite() || s < 0.0 {
            return Err(DlnError::InvalidConfig(format!(
                "Zipf exponent must be finite and >= 0, got {s}"
            )));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        if let Some(last) = cdf.last_mut() {
            // Guard against floating-point undershoot at the top.
            *last = 1.0;
        }
        Ok(Zipf { cdf })
    }

    /// Support size `n`.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw a value in `1..=n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rand::RngExt::random(rng);
        self.quantile(u)
    }

    /// The value in `1..=n` at quantile `u ∈ [0, 1)`.
    pub fn quantile(&self, u: f64) -> usize {
        let i = self.cdf.partition_point(|&c| c <= u);
        i.min(self.cdf.len() - 1) + 1
    }

    /// Exact mean of the truncated distribution.
    pub fn mean(&self) -> f64 {
        let n = self.cdf.len();
        let mut prev = 0.0;
        let mut m = 0.0;
        for (k, &c) in self.cdf.iter().enumerate() {
            m += (k + 1) as f64 * (c - prev);
            prev = c;
        }
        let _ = n;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_are_in_support() {
        let z = Zipf::new(50, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = z.sample(&mut rng);
            assert!((1..=50).contains(&v));
        }
    }

    #[test]
    fn rank_one_dominates() {
        let z = Zipf::new(50, 1.2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 51];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[5]);
        assert!(counts[1] > 10_000, "rank 1 should carry a large mass");
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        // quantiles split evenly
        assert_eq!(z.quantile(0.0), 1);
        assert_eq!(z.quantile(0.26), 2);
        assert_eq!(z.quantile(0.51), 3);
        assert_eq!(z.quantile(0.76), 4);
    }

    #[test]
    fn quantile_edges() {
        let z = Zipf::new(10, 1.0);
        assert_eq!(z.quantile(0.0), 1);
        assert_eq!(z.quantile(0.999999999), 10);
    }

    #[test]
    fn empirical_mean_matches_exact() {
        let z = Zipf::new(50, 1.3);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let sum: usize = (0..n).map(|_| z.sample(&mut rng)).sum();
        let emp = sum as f64 / n as f64;
        assert!(
            (emp - z.mean()).abs() < 0.1,
            "empirical {emp} vs exact {}",
            z.mean()
        );
    }

    #[test]
    #[should_panic(expected = "support must be non-empty")]
    fn zero_support_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn try_new_rejects_bad_configs_without_panicking() {
        assert!(matches!(
            Zipf::try_new(0, 1.0),
            Err(DlnError::InvalidConfig(_))
        ));
        assert!(matches!(
            Zipf::try_new(10, -0.5),
            Err(DlnError::InvalidConfig(_))
        ));
        assert!(matches!(
            Zipf::try_new(10, f64::NAN),
            Err(DlnError::InvalidConfig(_))
        ));
        assert!(matches!(
            Zipf::try_new(10, f64::INFINITY),
            Err(DlnError::InvalidConfig(_))
        ));
        assert_eq!(Zipf::try_new(10, 1.0).unwrap().n(), 10);
    }

    #[test]
    fn single_value_support() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 1);
        assert!((z.mean() - 1.0).abs() < 1e-12);
    }
}
