//! Markdown report rendering for experiment output.

use std::fmt::Write as _;

/// A rendered experiment: a heading, the paper's claim, and one or more
/// tables with commentary.
#[derive(Clone, Debug, Default)]
pub struct Report {
    sections: Vec<String>,
}

impl Report {
    /// Starts an empty report.
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds a `###` heading.
    pub fn heading(&mut self, text: &str) -> &mut Self {
        self.sections.push(format!("### {text}\n"));
        self
    }

    /// Adds a paragraph.
    pub fn para(&mut self, text: &str) -> &mut Self {
        self.sections.push(format!("{text}\n"));
        self
    }

    /// Adds a finished table.
    pub fn table(&mut self, table: &Table) -> &mut Self {
        self.sections.push(table.to_markdown());
        self
    }

    /// Renders the report as markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        self.sections.join("\n")
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

/// A simple column-aligned markdown table builder.
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders as column-aligned markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            let _ = write!(out, "|");
            for i in 0..ncol {
                let _ = write!(out, " {:width$} |", cells[i], width = widths[i]);
            }
            let _ = writeln!(out);
        };
        render_row(&mut out, &self.header);
        let _ = write!(out, "|");
        for w in &widths {
            let _ = write!(out, "{:-<width$}|", "", width = w + 2);
        }
        let _ = writeln!(out);
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Renders the non-zero entries of a per-event totals vector (indexed by
/// [`nbsp_telemetry::Event`]; a whole telemetry row works too, its events
/// come first) as a table, with a per-operation column when
/// `ops` is known. Shared by the E11 report and `exp_contention`'s
/// per-cell `--quick` output.
#[must_use]
pub fn event_table(totals: &[u64], ops: Option<u64>) -> Table {
    let mut t = if ops.is_some() {
        Table::new(vec!["event", "count", "per op"])
    } else {
        Table::new(vec!["event", "count"])
    };
    for e in nbsp_telemetry::Event::ALL {
        let n = totals[e.index()];
        if n == 0 {
            continue;
        }
        match ops {
            Some(ops) if ops > 0 => {
                t.row([
                    e.name().to_string(),
                    n.to_string(),
                    format!("{:.3}", n as f64 / ops as f64),
                ]);
            }
            Some(_) => {
                t.row([e.name().to_string(), n.to_string(), "-".to_string()]);
            }
            None => {
                t.row([e.name().to_string(), n.to_string()]);
            }
        }
    }
    t
}

/// Formats a nanosecond quantity compactly.
#[must_use]
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

/// Formats an operations-per-second quantity compactly.
#[must_use]
pub fn fmt_ops(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e6 {
        format!("{:.2} Mops/s", ops_per_sec / 1e6)
    } else if ops_per_sec >= 1e3 {
        format!("{:.1} kops/s", ops_per_sec / 1e3)
    } else {
        format!("{ops_per_sec:.0} ops/s")
    }
}

/// Formats a duration in human units (for the wraparound table, whose
/// entries range from milliseconds to geological time).
#[must_use]
pub fn fmt_duration_secs(secs: f64) -> String {
    const YEAR: f64 = 365.25 * 24.0 * 3600.0;
    if secs.is_infinite() {
        "∞".to_string()
    } else if secs < 1.0 {
        format!("{:.1} ms", secs * 1e3)
    } else if secs < 60.0 {
        format!("{secs:.1} s")
    } else if secs < 3600.0 {
        format!("{:.1} min", secs / 60.0)
    } else if secs < 86_400.0 {
        format!("{:.1} h", secs / 3600.0)
    } else if secs < YEAR {
        format!("{:.1} days", secs / 86_400.0)
    } else if secs < 1e6 * YEAR {
        format!("{:.1} years", secs / YEAR)
    } else {
        format!("{:.2e} years", secs / YEAR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(["impl", "ns/op"]);
        t.row(["figure 4", "12.3"]);
        t.row(["lock", "45.6"]);
        let md = t.to_markdown();
        assert!(md.contains("| impl     | ns/op |"));
        assert!(md.lines().nth(1).unwrap().starts_with("|--"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn report_concatenates_sections() {
        let mut r = Report::new();
        r.heading("E1").para("claim").table(Table::new(["x"]).row(["1"]));
        let md = r.to_markdown();
        assert!(md.starts_with("### E1"));
        assert!(md.contains("claim"));
        assert!(md.contains("| x |"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(1_234.0), "1.23 µs");
        assert_eq!(fmt_ns(12_345_678.0), "12.35 ms");
        assert_eq!(fmt_ops(2.5e6), "2.50 Mops/s");
        assert_eq!(fmt_ops(2.5e3), "2.5 kops/s");
        assert_eq!(fmt_ops(42.0), "42 ops/s");
        assert_eq!(fmt_duration_secs(0.5), "500.0 ms");
        assert_eq!(fmt_duration_secs(90.0), "1.5 min");
        assert!(fmt_duration_secs(9.0 * 365.25 * 24.0 * 3600.0).contains("years"));
        assert_eq!(fmt_duration_secs(f64::INFINITY), "∞");
    }
}
