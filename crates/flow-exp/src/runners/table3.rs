//! Table III: normalised likelihood and Brier probability score for the
//! bucket experiments, over all values and over the "middle values"
//! (predictions not exactly 0 or 1).

use crate::output::Output;
use crate::runners::ExpConfig;
use flow_stats::bootstrap::brier_interval;
use flow_stats::metrics::{brier_score, middle_values, normalized_likelihood, PredictionOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of Table III.
#[derive(Clone, Debug)]
pub struct MetricsRow {
    /// Experiment label.
    pub name: String,
    /// Normalised likelihood over all pairs.
    pub nl_all: Option<f64>,
    /// Normalised likelihood over middle values.
    pub nl_mid: Option<f64>,
    /// Brier score over all pairs.
    pub brier_all: Option<f64>,
    /// Brier score over middle values.
    pub brier_mid: Option<f64>,
    /// Number of pairs (all).
    pub count_all: usize,
    /// Number of pairs (middle).
    pub count_mid: usize,
    /// 95% bootstrap interval on the all-values Brier score.
    pub brier_ci: Option<(f64, f64)>,
}

/// Computes one Table III row from raw pairs.
pub fn metrics_row(name: &str, pairs: &[PredictionOutcome]) -> MetricsRow {
    let mid = middle_values(pairs);
    // Error bars via the percentile bootstrap (seeded from the pair
    // count so rows are deterministic).
    let mut rng = StdRng::seed_from_u64(0x7AB3 ^ pairs.len() as u64);
    let brier_ci = brier_interval(pairs, 200, 0.95, &mut rng).map(|iv| (iv.lo, iv.hi));
    MetricsRow {
        name: name.to_string(),
        nl_all: normalized_likelihood(pairs),
        nl_mid: normalized_likelihood(&mid),
        brier_all: brier_score(pairs),
        brier_mid: brier_score(&mid),
        count_all: pairs.len(),
        count_mid: mid.len(),
        brier_ci,
    }
}

/// Renders rows as the Table III layout.
pub fn render(rows: &[MetricsRow], out: &Output) -> std::io::Result<()> {
    let fmt = |v: Option<f64>| v.map(|x| format!("{x:.6}")).unwrap_or_else(|| "-".into());
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt(r.nl_all),
                format!("({})", r.count_all),
                fmt(r.nl_mid),
                format!("({})", r.count_mid),
                fmt(r.brier_all),
                fmt(r.brier_mid),
                r.brier_ci
                    .map(|(lo, hi)| format!("[{lo:.4},{hi:.4}]"))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    out.table(
        &[
            "exp.",
            "NL all",
            "(n)",
            "NL middle",
            "(n)",
            "Brier all",
            "Brier middle",
            "Brier 95% CI",
        ],
        &table_rows,
    );
    out.csv(
        "table3_metrics",
        &[
            "experiment",
            "nl_all",
            "count_all",
            "nl_middle",
            "count_middle",
            "brier_all",
            "brier_middle",
            "brier_ci",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    fmt(r.nl_all),
                    r.count_all.to_string(),
                    fmt(r.nl_mid),
                    r.count_mid.to_string(),
                    fmt(r.brier_all),
                    fmt(r.brier_mid),
                    r.brier_ci
                        .map(|(lo, hi)| format!("{lo}..{hi}"))
                        .unwrap_or_else(|| "-".into()),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Runs Table III from scratch: regenerates the pair sets of Figs. 1,
/// 2, 5 and 8 and tabulates the accuracy measures.
pub fn run_table3(cfg: &ExpConfig, out: &Output) -> std::io::Result<Vec<MetricsRow>> {
    out.heading("Table III — accuracy measures over the bucket experiments");
    let mut rows = Vec::new();
    let fig1 = crate::runners::fig01_synthetic_bucket::run_fig1(cfg, out)?;
    rows.push(metrics_row("MH Test - Fig. 1", &fig1.pairs));
    let fig5 = crate::runners::fig01_synthetic_bucket::run_fig5(cfg, out)?;
    rows.push(metrics_row("RWR - Fig. 5", &fig5.pairs));
    for r in crate::runners::fig02_attributed::run_fig2(cfg, out)? {
        rows.push(metrics_row(&format!("{} - Fig. 2", r.label), &r.pairs));
    }
    for r in crate::runners::fig08_tags::run_fig8(cfg, out)? {
        rows.push(metrics_row(&format!("{} - Fig. 8", r.label), &r.pairs));
    }
    out.heading("Table III (summary)");
    render(&rows, out)?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_row_computes_both_variants() {
        let pairs = vec![
            PredictionOutcome::new(0.0, false),
            PredictionOutcome::new(0.8, true),
            PredictionOutcome::new(0.2, false),
            PredictionOutcome::new(1.0, true),
        ];
        let row = metrics_row("demo", &pairs);
        assert_eq!(row.count_all, 4);
        assert_eq!(row.count_mid, 2);
        // All-values scores are *better* because the exact 0/1
        // predictions here were all correct (the paper's observation).
        assert!(row.nl_all.unwrap() > row.nl_mid.unwrap());
        assert!(row.brier_all.unwrap() < row.brier_mid.unwrap());
    }

    #[test]
    fn render_does_not_panic_on_empty_metrics() {
        let row = metrics_row("empty", &[]);
        assert!(row.nl_all.is_none());
        assert!(row.brier_ci.is_none());
        render(&[row], &Output::stdout_only()).unwrap();
    }
}
