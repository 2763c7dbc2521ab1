//! Plain-text table formatting and small statistics helpers shared by the
//! benchmark harness binaries.

use std::fmt;

/// Geometric mean of a slice of positive values.
///
/// Returns 0.0 for an empty slice (the convention used when a figure has no
/// data points rather than panicking inside a report).
///
/// # Examples
///
/// ```
/// use gnnerator_bench::rows::geomean;
/// assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
/// assert_eq!(geomean(&[]), 0.0);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// A simple fixed-width text table, printed by every harness binary.
///
/// # Examples
///
/// ```
/// use gnnerator_bench::rows::Table;
///
/// let mut t = Table::new("Speedups", &["benchmark", "speedup"]);
/// t.add_row(vec!["cora-gcn".into(), "7.5x".into()]);
/// let text = t.to_string();
/// assert!(text.contains("cora-gcn"));
/// assert!(text.contains("Speedups"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with blanks;
    /// longer rows are truncated.
    pub fn add_row(&mut self, mut row: Vec<String>) {
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.column_widths();
        writeln!(f, "== {} ==", self.title)?;
        let header: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:<w$}"))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "{}", rule.join("  "))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
    }
}

/// Formats a speedup as the paper's figures do (`7.5x`).
pub fn format_speedup(value: f64) -> String {
    format!("{value:.1}x")
}

/// Formats a time in milliseconds with three significant decimals.
pub fn format_ms(seconds: f64) -> String {
    format!("{:.3} ms", seconds * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values_is_that_value() {
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_is_below_arithmetic_mean_for_spread_values() {
        let values = [1.0, 100.0];
        let gm = geomean(&values);
        assert!((gm - 10.0).abs() < 1e-9);
        assert!(gm < 50.5);
    }

    #[test]
    fn geomean_handles_empty_and_tiny_values() {
        assert_eq!(geomean(&[]), 0.0);
        assert!(geomean(&[0.0, 1.0]) >= 0.0);
    }

    #[test]
    fn table_pads_and_truncates_rows() {
        let mut t = Table::new("T", &["a", "b"]);
        t.add_row(vec!["1".into()]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].len(), 2);
        assert_eq!(t.rows[1].len(), 2);
    }

    #[test]
    fn table_display_aligns_columns() {
        let mut t = Table::new("Alignment", &["name", "value"]);
        t.add_row(vec!["short".into(), "1".into()]);
        t.add_row(vec!["a-much-longer-name".into(), "2".into()]);
        let text = t.to_string();
        assert!(text.contains("Alignment"));
        assert!(text.contains("a-much-longer-name"));
        // Header separator present.
        assert!(text.contains("----"));
        assert_eq!(t.title(), "Alignment");
    }

    #[test]
    fn formatters() {
        assert_eq!(format_speedup(7.523), "7.5x");
        assert_eq!(format_ms(0.0015), "1.500 ms");
    }
}
