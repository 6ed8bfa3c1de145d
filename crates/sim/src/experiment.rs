//! Parameter-sweep harness used by the figure-regeneration binaries.
//!
//! A sweep evaluates several algorithms over a sequence of x-values
//! (number of requests, payment ratio `H`, reliability ratio `K`, …),
//! averaging revenue over a few seeded repetitions, and renders the series
//! as an aligned text table — the textual equivalent of the paper's
//! figures.

use std::fmt;

/// A full sweep: one row per x-value, one column per algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTable {
    /// Name of the x-axis (e.g. `"requests"`, `"H"`, `"K"`).
    pub x_label: String,
    /// Metric name (e.g. `"revenue"`).
    pub y_label: String,
    /// Column order (algorithm names).
    pub columns: Vec<String>,
    /// Rows: (x value, one entry per column).
    pub rows: Vec<(f64, Vec<f64>)>,
}

impl SweepTable {
    /// Creates an empty table with the given axes and columns.
    pub fn new(
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        columns: Vec<String>,
    ) -> Self {
        SweepTable {
            x_label: x_label.into(),
            y_label: y_label.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the column count.
    pub fn push_row(&mut self, x: f64, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row arity must match columns"
        );
        self.rows.push((x, values));
    }

    /// Value of `column` at row index `row`.
    pub fn value(&self, row: usize, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|n| n == column)?;
        self.rows.get(row).map(|(_, vals)| vals[c])
    }

    /// Ratio `a / b` at the final row — used for "algorithm X outperforms
    /// greedy by N% at the largest size" style claims.
    pub fn final_ratio(&self, a: &str, b: &str) -> Option<f64> {
        let last = self.rows.len().checked_sub(1)?;
        let va = self.value(last, a)?;
        let vb = self.value(last, b)?;
        (vb != 0.0).then(|| va / vb)
    }

    /// Renders a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |", self.x_label));
        for c in &self.columns {
            out.push_str(&format!(" {c} |"));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.columns {
            out.push_str("---|");
        }
        out.push('\n');
        for (x, vals) in &self.rows {
            out.push_str(&format!("| {x} |"));
            for v in vals {
                out.push_str(&format!(" {v:.1} |"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for SweepTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} vs {}", self.y_label, self.x_label)?;
        write!(f, "{:>10}", self.x_label)?;
        for c in &self.columns {
            write!(f, " {c:>22}")?;
        }
        writeln!(f)?;
        for (x, vals) in &self.rows {
            write!(f, "{x:>10}")?;
            for v in vals {
                write!(f, " {v:>22.2}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SweepTable {
        let mut t = SweepTable::new("requests", "revenue", vec!["alg1".into(), "greedy".into()]);
        t.push_row(100.0, vec![50.0, 40.0]);
        t.push_row(200.0, vec![90.0, 60.0]);
        t
    }

    #[test]
    fn lookup_and_ratio() {
        let t = table();
        assert_eq!(t.value(0, "alg1"), Some(50.0));
        assert_eq!(t.value(1, "greedy"), Some(60.0));
        assert_eq!(t.value(1, "nope"), None);
        assert!((t.final_ratio("alg1", "greedy").unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn renders_markdown_and_text() {
        let t = table();
        let md = t.to_markdown();
        assert!(md.contains("| requests | alg1 | greedy |"));
        assert!(md.contains("| 100 | 50.0 | 40.0 |"));
        let txt = t.to_string();
        assert!(txt.contains("revenue vs requests"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = table();
        t.push_row(300.0, vec![1.0]);
    }
}
