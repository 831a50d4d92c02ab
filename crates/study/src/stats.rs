//! Statistical machinery for the user study.
//!
//! The paper: "Because of our small sample size, we used the
//! non-parametric Mann-Whitney test to determine the significance of the
//! results and tested our two-tailed hypotheses." This module implements
//! the two-sided Mann–Whitney U test with the normal approximation and tie
//! correction (the standard large-sample form; exact for our sample sizes
//! it is conservative enough for reporting).

/// Result of a Mann–Whitney U test.
#[derive(Clone, Copy, Debug)]
pub struct MannWhitney {
    /// The U statistic of the first sample.
    pub u1: f64,
    /// The U statistic of the second sample (`u1 + u2 = n1·n2`).
    pub u2: f64,
    /// Two-sided p-value from the tie-corrected normal approximation.
    pub p_value: f64,
    /// The z statistic.
    pub z: f64,
}

/// Two-sided Mann–Whitney U test of samples `a` vs `b`.
///
/// Returns `None` when either sample is empty or all values are tied
/// (zero variance).
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> Option<MannWhitney> {
    let (n1, n2) = (a.len(), b.len());
    if n1 == 0 || n2 == 0 {
        return None;
    }
    // Rank the pooled sample with midranks for ties.
    let mut pooled: Vec<(f64, usize)> = a
        .iter()
        .map(|&v| (v, 0usize))
        .chain(b.iter().map(|&v| (v, 1usize)))
        .collect();
    pooled.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));
    let n = pooled.len();
    let mut ranks = vec![0.0f64; n];
    let mut tie_term = 0.0f64; // Σ (t³ − t) over tie groups
    let mut i = 0usize;
    while i < n {
        let mut j = i + 1;
        while j < n && pooled[j].0 == pooled[i].0 {
            j += 1;
        }
        let rank = (i + j + 1) as f64 / 2.0; // average of ranks i+1..=j
        for r in ranks.iter_mut().take(j).skip(i) {
            *r = rank;
        }
        let t = (j - i) as f64;
        tie_term += t * t * t - t;
        i = j;
    }
    let r1: f64 = pooled
        .iter()
        .zip(ranks.iter())
        .filter(|((_, g), _)| *g == 0)
        .map(|(_, &r)| r)
        .sum();
    let (n1f, n2f) = (n1 as f64, n2 as f64);
    let u1 = r1 - n1f * (n1f + 1.0) / 2.0;
    let u2 = n1f * n2f - u1;
    // Normal approximation with tie correction.
    let mean = n1f * n2f / 2.0;
    let nf = n as f64;
    let var = n1f * n2f / 12.0 * ((nf + 1.0) - tie_term / (nf * (nf - 1.0)));
    if var <= 0.0 {
        return None;
    }
    // Continuity correction.
    let diff = u1 - mean;
    let z = if diff.abs() < 0.5 {
        0.0
    } else {
        (diff - 0.5 * diff.signum()) / var.sqrt()
    };
    let p_value = (2.0 * normal_sf(z.abs())).min(1.0);
    Some(MannWhitney { u1, u2, p_value, z })
}

/// Survival function of the standard normal (1 − Φ(x)) via the
/// Abramowitz–Stegun 7.1.26 erf approximation (|error| < 1.5e-7).
fn normal_sf(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// Lower median of a sample (`None` for empty input).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clearly_different_samples_are_significant() {
        let a: Vec<f64> = (0..15).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..15).map(|i| 100.0 + i as f64).collect();
        let mw = mann_whitney_u(&a, &b).unwrap();
        assert!(mw.p_value < 0.001, "p = {}", mw.p_value);
        assert_eq!(mw.u1, 0.0, "no a-value beats any b-value");
        assert_eq!(mw.u2, 225.0);
    }

    #[test]
    fn identical_distributions_are_not_significant() {
        let a: Vec<f64> = (0..20).map(|i| (i % 10) as f64).collect();
        let b: Vec<f64> = (0..20).map(|i| ((i + 5) % 10) as f64).collect();
        let mw = mann_whitney_u(&a, &b).unwrap();
        assert!(mw.p_value > 0.5, "p = {}", mw.p_value);
    }

    #[test]
    fn u_statistics_are_complementary() {
        let a = [1.0, 5.0, 9.0, 11.0];
        let b = [2.0, 3.0, 7.0];
        let mw = mann_whitney_u(&a, &b).unwrap();
        assert!((mw.u1 + mw.u2 - (a.len() * b.len()) as f64).abs() < 1e-9);
    }

    #[test]
    fn handles_ties_with_midranks() {
        let a = [1.0, 2.0, 2.0, 3.0];
        let b = [2.0, 2.0, 4.0, 5.0];
        let mw = mann_whitney_u(&a, &b).unwrap();
        assert!(mw.p_value > 0.0 && mw.p_value <= 1.0);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(mann_whitney_u(&[], &[1.0]).is_none());
        assert!(mann_whitney_u(&[1.0], &[]).is_none());
        assert!(
            mann_whitney_u(&[2.0, 2.0], &[2.0, 2.0]).is_none(),
            "all tied"
        );
    }

    #[test]
    fn matches_known_example() {
        // Worked example: a = {7,3,6,2,4,3,5,5}, b = {3,5,6,4,6,5,7,5}.
        // Midranks: 2→1; 3,3,3→3; 4,4→5.5; 5×5→9; 6×3→13; 7×2→15.5.
        // R1 = 15.5+3+13+1+5.5+3+9+9 = 59, U1 = 59 − 8·9/2 = 23.
        let a = [7.0, 3.0, 6.0, 2.0, 4.0, 3.0, 5.0, 5.0];
        let b = [3.0, 5.0, 6.0, 4.0, 6.0, 5.0, 7.0, 5.0];
        let mw = mann_whitney_u(&a, &b).unwrap();
        assert!((mw.u1 - 23.0).abs() < 1e-9, "u1 = {}", mw.u1);
        assert!((mw.u2 - 41.0).abs() < 1e-9);
        assert!(mw.p_value > 0.05, "not significant: p = {}", mw.p_value);
    }

    #[test]
    fn normal_sf_reference_values() {
        assert!((normal_sf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_sf(1.96) - 0.025).abs() < 1e-3);
        assert!((normal_sf(3.0) - 0.00135).abs() < 1e-4);
        assert!((normal_sf(-1.0) - 0.8413).abs() < 1e-3);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
