//! Result output: stdout tables and CSV files under a results
//! directory.

use crate::bucket::BucketReport;
use std::path::{Path, PathBuf};

/// Writes experiment results to stdout and a results directory.
#[derive(Debug)]
pub struct Output {
    dir: Option<PathBuf>,
}

impl Output {
    /// Writes CSVs under `dir` (created on demand) and prints to stdout.
    pub fn to_dir(dir: impl Into<PathBuf>) -> Self {
        Output {
            dir: Some(dir.into()),
        }
    }

    /// Prints to stdout only.
    pub fn stdout_only() -> Self {
        Output { dir: None }
    }

    /// The results directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Prints a section heading.
    pub fn heading(&self, title: &str) {
        println!("\n=== {title} ===");
    }

    /// Prints one free-form line.
    pub fn line(&self, text: impl AsRef<str>) {
        println!("{}", text.as_ref());
    }

    /// Writes `text` to `<dir>/<name>`, creating the directory on
    /// demand, and reports the path (no-op without a directory).
    pub fn write_file(&self, name: &str, text: &str) -> std::io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let context = |what: &str, path: &Path, e: std::io::Error| {
            std::io::Error::new(e.kind(), format!("cannot {what} {}: {e}", path.display()))
        };
        std::fs::create_dir_all(dir).map_err(|e| context("create", dir, e))?;
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| context("write", &path, e))?;
        println!("  [wrote {}]", path.display());
        Ok(())
    }

    /// Writes rows to `<dir>/<name>.csv` (no-op without a directory).
    /// The first row is the header.
    pub fn csv(&self, name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
        let mut text = header.join(",") + "\n";
        for row in rows {
            text.push_str(&row.join(","));
            text.push('\n');
        }
        self.write_file(&format!("{name}.csv"), &text)
    }

    /// Prints an aligned text table.
    pub fn table(&self, header: &[&str], rows: &[Vec<String>]) {
        let cols = header.len();
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        println!("  {}", fmt_row(&head));
        println!("  {}", "-".repeat(widths.iter().sum::<usize>() + 2 * cols));
        for row in rows {
            println!("  {}", fmt_row(row));
        }
    }

    /// Prints a bucket report as a table, including the headline
    /// calibration fraction, and writes its bins to `<dir>/<name>.csv`.
    pub fn bucket_report(&self, name: &str, report: &BucketReport) -> std::io::Result<()> {
        self.line(format!(
            "{name}: {} pairs, {:.1}% of populated bins within the {:.0}% CI, calibration RMSE {:.4}",
            report.total,
            100.0 * report.fraction_within_ci(),
            100.0 * report.config.confidence,
            report.calibration_rmse(),
        ));
        let rows: Vec<Vec<String>> = report
            .populated()
            .map(|b| {
                vec![
                    format!("[{:.3},{:.3})", b.lo, b.hi),
                    b.count.to_string(),
                    b.positives.to_string(),
                    format!("{:.4}", b.mean_estimate),
                    format!("{:.4}", b.empirical_rate()),
                    format!("[{:.4},{:.4}]", b.ci.0, b.ci.1),
                    if b.mean_inside_ci { "x" } else { "." }.to_string(),
                ]
            })
            .collect();
        self.table(
            &[
                "bin",
                "count",
                "flows",
                "mean-est",
                "empirical",
                "95% CI",
                "in",
            ],
            &rows,
        );
        let csv_rows: Vec<Vec<String>> = report
            .bins
            .iter()
            .map(|b| {
                vec![
                    format!("{}", b.lo),
                    format!("{}", b.hi),
                    b.count.to_string(),
                    b.positives.to_string(),
                    format!("{}", b.mean_estimate),
                    format!("{}", b.empirical_rate()),
                    format!("{}", b.ci.0),
                    format!("{}", b.ci.1),
                    (b.mean_inside_ci as u8).to_string(),
                ]
            })
            .collect();
        self.csv(
            name,
            &[
                "lo",
                "hi",
                "count",
                "positives",
                "mean_estimate",
                "empirical_rate",
                "ci_lo",
                "ci_hi",
                "mean_inside_ci",
            ],
            &csv_rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_stats::metrics::PredictionOutcome;

    #[test]
    fn csv_writes_file() {
        let dir = std::env::temp_dir().join(format!("flowexp-test-{}", std::process::id()));
        let out = Output::to_dir(&dir);
        out.csv(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let content = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stdout_only_csv_is_noop() {
        let out = Output::stdout_only();
        assert!(out.csv("x", &["a"], &[]).is_ok());
        assert!(out.dir().is_none());
    }

    #[test]
    fn bucket_report_prints_without_panic() {
        let pairs = vec![
            PredictionOutcome::new(0.1, false),
            PredictionOutcome::new(0.9, true),
        ];
        let report =
            crate::bucket::BucketReport::build(&pairs, crate::bucket::BucketConfig::default());
        Output::stdout_only()
            .bucket_report("demo", &report)
            .unwrap();
    }
}
