//! Plain-text rendering of figure/table rows, for terminal reports and
//! the bench harness output.

use streamlab_analysis::figures::CdfSeries;
use streamlab_analysis::stats::BinnedSeries;

/// Render a CDF series as a quantile summary line, e.g.
/// `total-miss: p10=…  p50=…  p90=…  p99=… (n points)`.
pub fn cdf_line(s: &CdfSeries) -> String {
    let q = |p: f64| {
        s.x_at(p)
            .map(|x| format!("{x:.2}"))
            .unwrap_or_else(|| "-".into())
    };
    format!(
        "{:<22} p10={:>9}  p50={:>9}  p90={:>9}  p99={:>9}",
        s.label,
        q(0.10),
        q(0.50),
        q(0.90),
        q(0.99)
    )
}

/// Render a CCDF series as survival-level readings, e.g.
/// `video length: P(X>x)=0.5 at x=…, 0.1 at x=…, 0.01 at x=…`.
pub fn ccdf_line(s: &CdfSeries) -> String {
    let at_level = |level: f64| {
        s.points
            .iter()
            .find(|&&(_, p)| p <= level)
            .map(|&(x, _)| format!("{x:.2}"))
            .unwrap_or_else(|| "-".into())
    };
    format!(
        "{:<22} P>x=0.5 at {:>9}  0.1 at {:>9}  0.01 at {:>9}",
        s.label,
        at_level(0.5),
        at_level(0.1),
        at_level(0.01)
    )
}

/// Render a binned series as an aligned table: one row per bin with mean,
/// median and IQR — the same numbers the paper's error-bar plots carry.
pub fn binned_table(series: &BinnedSeries, x_label: &str) -> String {
    let mut out = format!(
        "{:>12} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
        x_label, "n", "mean", "median", "q25", "q75"
    );
    for b in &series.bins {
        out.push_str(&format!(
            "{:>12.2} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
            b.x_center, b.count, b.mean, b.median, b.q25, b.q75
        ));
    }
    out
}

/// A minimal fixed-width table builder for the Table 4/5-style exhibits.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with per-column alignment.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                line.push_str(&format!("{:<w$}", cells[i], w = widths[i] + 2));
            }
            line.trim_end().to_string() + "\n"
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlab_analysis::stats::Cdf;

    #[test]
    fn cdf_line_contains_quantiles() {
        let cdf = Cdf::new((1..=100).map(f64::from).collect());
        let s = CdfSeries::from_cdf("latency", &cdf, 100);
        let line = cdf_line(&s);
        assert!(line.contains("latency"));
        assert!(line.contains("p50="));
    }

    #[test]
    fn ccdf_line_reads_survival_levels() {
        let cdf = Cdf::new((1..=1000).map(f64::from).collect());
        let s = CdfSeries::from_ccdf("length", &cdf, 1000);
        let line = ccdf_line(&s);
        assert!(line.contains("length"));
        // P(X > x) = 0.5 at x ≈ 500.
        assert!(line.contains("0.5 at"));
        let at_half: f64 = line
            .split("P>x=0.5 at")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((at_half - 500.0).abs() < 10.0, "x@0.5 = {at_half}");
    }

    #[test]
    fn binned_table_renders_rows() {
        let pairs: Vec<(f64, f64)> = (0..20).map(|i| (f64::from(i), 2.0)).collect();
        let series = BinnedSeries::fixed_width(&pairs, 0.0, 20.0, 4);
        let t = binned_table(&series, "x");
        assert_eq!(t.lines().count(), 5); // header + 4 bins
        assert!(t.contains("mean"));
    }

    #[test]
    fn text_table_aligns() {
        let mut t = TextTable::new(&["org", "pct"]);
        t.row(vec!["Enterprise-1".into(), "43.4".into()]);
        t.row(vec!["E2".into(), "1.0".into()]);
        let s = t.render();
        assert!(s.contains("Enterprise-1"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn text_table_rejects_bad_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
