//! Accuracy measures for probabilistic predictions.
//!
//! These are the measures of the paper's Table III:
//!
//! * **Normalised likelihood** — the geometric mean of the probability
//!   assigned to the observed outcome (closer to 1 is better). The paper
//!   notes exact 0/1 predictions produce degenerate likelihoods, so
//!   predictions are clamped away from the boundary before scoring.
//! * **Brier probability score** — the mean squared difference between
//!   prediction and boolean outcome (closer to 0 is better).
//!
//! Table III also reports both measures over the *middle values* only —
//! the pairs whose prediction is not exactly 0 or 1 — which
//! [`middle_values`] extracts.

/// A single (prediction, outcome) pair from a bucket-style experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PredictionOutcome {
    /// Predicted probability of the event, in `[0, 1]`.
    pub prediction: f64,
    /// Whether the event occurred.
    pub outcome: bool,
}

impl PredictionOutcome {
    /// Convenience constructor.
    pub fn new(prediction: f64, outcome: bool) -> Self {
        debug_assert!((0.0..=1.0).contains(&prediction));
        PredictionOutcome {
            prediction,
            outcome,
        }
    }
}

/// Clamp boundary used by [`normalized_likelihood`], mirroring the
/// paper's "modified these values to be not quite 1 or 0".
pub const LIKELIHOOD_CLAMP: f64 = 1e-9;

/// Geometric mean of the probability of each observed outcome given the
/// prediction. Returns `None` for an empty slice.
///
/// `p(z) = prediction` when the event happened, `1 − prediction` when it
/// did not; predictions are clamped to `[ε, 1−ε]` first.
pub fn normalized_likelihood(pairs: &[PredictionOutcome]) -> Option<f64> {
    if pairs.is_empty() {
        return None;
    }
    let mut log_sum = 0.0;
    for pair in pairs {
        let p = pair
            .prediction
            .clamp(LIKELIHOOD_CLAMP, 1.0 - LIKELIHOOD_CLAMP);
        let likelihood = if pair.outcome { p } else { 1.0 - p };
        log_sum += likelihood.ln();
    }
    Some((log_sum / pairs.len() as f64).exp())
}

/// Brier probability score: mean of `(prediction − outcome)²`.
/// Returns `None` for an empty slice.
pub fn brier_score(pairs: &[PredictionOutcome]) -> Option<f64> {
    if pairs.is_empty() {
        return None;
    }
    let sum: f64 = pairs
        .iter()
        .map(|p| {
            let z = if p.outcome { 1.0 } else { 0.0 };
            (p.prediction - z) * (p.prediction - z)
        })
        .sum();
    Some(sum / pairs.len() as f64)
}

/// Filters out pairs whose prediction is exactly 0 or exactly 1 — the
/// paper's "middle values" variant, which avoids near-certain
/// predictions washing out the differences between methods.
pub fn middle_values(pairs: &[PredictionOutcome]) -> Vec<PredictionOutcome> {
    pairs
        .iter()
        .copied()
        // flow-analyze: allow(L3: saturated predictions are exact 0/1 by assignment and must be excluded exactly)
        .filter(|p| p.prediction != 0.0 && p.prediction != 1.0)
        .collect()
}

/// Root mean squared error between two equal-length slices.
/// Returns `None` when empty or lengths differ.
pub fn rmse(estimates: &[f64], truth: &[f64]) -> Option<f64> {
    if estimates.is_empty() || estimates.len() != truth.len() {
        return None;
    }
    let sum: f64 = estimates
        .iter()
        .zip(truth)
        .map(|(e, t)| (e - t) * (e - t))
        .sum();
    Some((sum / estimates.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(raw: &[(f64, bool)]) -> Vec<PredictionOutcome> {
        raw.iter()
            .map(|&(p, z)| PredictionOutcome::new(p, z))
            .collect()
    }

    #[test]
    fn perfect_predictions() {
        let ps = pairs(&[(1.0, true), (0.0, false), (1.0, true)]);
        assert!((brier_score(&ps).unwrap() - 0.0).abs() < 1e-15);
        // Clamped, so slightly below 1.
        let nl = normalized_likelihood(&ps).unwrap();
        assert!(nl > 0.999_999_9 && nl <= 1.0);
    }

    #[test]
    fn worst_predictions() {
        let ps = pairs(&[(1.0, false), (0.0, true)]);
        assert!((brier_score(&ps).unwrap() - 1.0).abs() < 1e-15);
        let nl = normalized_likelihood(&ps).unwrap();
        assert!(nl < 1e-8, "clamp keeps it positive but tiny: {nl}");
    }

    #[test]
    fn uninformative_predictions() {
        let ps = pairs(&[(0.5, true), (0.5, false), (0.5, true), (0.5, false)]);
        assert!((brier_score(&ps).unwrap() - 0.25).abs() < 1e-15);
        assert!((normalized_likelihood(&ps).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalized_likelihood_is_geometric_mean() {
        let ps = pairs(&[(0.8, true), (0.4, false)]);
        // sqrt(0.8 * 0.6)
        let want = (0.8f64 * 0.6).sqrt();
        assert!((normalized_likelihood(&ps).unwrap() - want).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_yield_none() {
        assert_eq!(normalized_likelihood(&[]), None);
        assert_eq!(brier_score(&[]), None);
        assert_eq!(rmse(&[], &[]), None);
        assert_eq!(rmse(&[1.0], &[]), None);
    }

    #[test]
    fn middle_values_drops_exact_boundaries() {
        let ps = pairs(&[(0.0, false), (0.3, true), (1.0, true), (0.999, false)]);
        let mid = middle_values(&ps);
        assert_eq!(mid.len(), 2);
        assert!((mid[0].prediction - 0.3).abs() < 1e-15);
        assert!((mid[1].prediction - 0.999).abs() < 1e-15);
    }

    #[test]
    fn rmse_reference() {
        let est = [0.1, 0.5, 0.9];
        let truth = [0.2, 0.5, 0.5];
        let want_rmse = ((0.01 + 0.0 + 0.16) / 3.0f64).sqrt();
        assert!((rmse(&est, &truth).unwrap() - want_rmse).abs() < 1e-12);
        assert_eq!(rmse(&est, &truth[..2]), None);
    }

    #[test]
    fn better_calibration_scores_better() {
        // Sharp and correct beats uninformative on both measures.
        let sharp = pairs(&[(0.9, true), (0.9, true), (0.1, false), (0.1, false)]);
        let vague = pairs(&[(0.5, true), (0.5, true), (0.5, false), (0.5, false)]);
        assert!(brier_score(&sharp).unwrap() < brier_score(&vague).unwrap());
        assert!(normalized_likelihood(&sharp).unwrap() > normalized_likelihood(&vague).unwrap());
    }
}
