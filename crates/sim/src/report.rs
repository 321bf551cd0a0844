//! Plain-text table rendering.
//!
//! The experiment harness regenerates every table and figure of the paper as
//! plain-text tables on stdout (and as serialisable rows). This module holds
//! the small formatting helper shared by all experiments.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row, padding rows shorter than the header with empty cells.
    ///
    /// # Panics
    ///
    /// Panics when the row has more cells than the header: a too-long row is
    /// a bug in the caller (a column was added to the data but not the
    /// header), and silently dropping the extra cells would hide it.
    pub fn add_row(&mut self, cells: &[String]) {
        assert!(
            cells.len() <= self.header.len(),
            "row with {} cells does not fit table '{}' with {} columns",
            cells.len(),
            self.title,
            self.header.len()
        );
        let mut row = cells.to_vec();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers (used by tests and by JSON export).
    #[must_use]
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The rows as raw strings (used by tests and by JSON export).
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as column-aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (cell, &width) in cells.iter().zip(&widths) {
                let _ = write!(line, "| {cell:width$} ");
            }
            line.push('|');
            line
        };
        let header_line = render_row(&self.header);
        let sep: String = "-".repeat(header_line.len());
        let _ = writeln!(out, "{header_line}");
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row));
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with a fixed number of decimals, used by experiment rows.
#[must_use]
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.add_row(&["alpha".to_string(), "1".to_string()]);
        t.add_row(&["b".to_string(), "123456".to_string()]);
        let out = t.render();
        assert!(out.contains("== Demo =="));
        assert!(out.contains("| name  | value  |"));
        assert!(out.contains("| alpha | 1      |"));
        assert!(out.contains("| b     | 123456 |"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("demo", &["a", "b", "c"]);
        t.add_row(&["1".to_string()]);
        assert_eq!(t.rows()[0], vec!["1", "", ""]);
        assert!(t.render().contains("| 1 |   |   |"));
    }

    #[test]
    #[should_panic(expected = "does not fit table 'demo' with 2 columns")]
    fn over_long_rows_are_a_caller_bug() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(&["1".to_string(), "2".to_string(), "3".to_string()]);
    }

    #[test]
    fn fixed_decimal_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(2.0, 0), "2");
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new("X", &["c"]);
        t.add_row(&[42.to_string()]);
        assert_eq!(format!("{t}"), t.render());
    }
}
