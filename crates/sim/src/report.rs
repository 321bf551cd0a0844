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
    /// # Errors
    ///
    /// Returns [`RowLengthError`] — without mutating the table — when the
    /// row has more cells than the header: a too-long row is a bug in the
    /// caller (a column was added to the data but not the header), and
    /// silently dropping the extra cells would hide it.
    pub fn try_add_row(&mut self, cells: &[String]) -> Result<(), RowLengthError> {
        if cells.len() > self.header.len() {
            return Err(RowLengthError {
                table: self.title.clone(),
                expected: self.header.len(),
                got: cells.len(),
            });
        }
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        Ok(())
    }

    /// Adds a row. Rows shorter than the header are padded with empty cells.
    /// Over-long rows are kept **in full** — every cell is rendered under an
    /// unnamed column — and the mismatch is logged to stderr; use
    /// [`Table::try_add_row`] to handle the mismatch instead.
    pub fn add_row(&mut self, cells: &[String]) {
        if let Err(error) = self.try_add_row(cells) {
            eprintln!("[table] warning: {error}; keeping all cells");
            self.rows.push(cells.to_vec());
        }
    }

    /// Convenience helper adding a row of displayable values.
    pub fn add_display_row(&mut self, cells: &[&dyn std::fmt::Display]) {
        let row: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.add_row(&row);
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

    /// Renders the table as column-aligned text. Rows wider than the header
    /// (kept by [`Table::add_row`] after a logged length mismatch) render
    /// their extra cells under empty-named columns.
    #[must_use]
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths: Vec<usize> = vec![0; ncols];
        for (i, head) in self.header.iter().enumerate() {
            widths[i] = head.len();
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, &width) in widths.iter().enumerate().take(ncols) {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "| {cell:width$} ");
            }
            line.push('|');
            line
        };
        let header_line = render_row(&self.header, &widths);
        let sep: String = "-".repeat(header_line.len());
        let _ = writeln!(out, "{header_line}");
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }
}

/// A row handed to [`Table::try_add_row`] had more cells than the header has
/// columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowLengthError {
    /// Title of the table the row was destined for.
    pub table: String,
    /// Number of header columns.
    pub expected: usize,
    /// Number of cells in the offending row.
    pub got: usize,
}

impl std::fmt::Display for RowLengthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "row with {} cells does not fit table '{}' with {} columns",
            self.got, self.table, self.expected
        )
    }
}

impl std::error::Error for RowLengthError {}

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

/// Formats a percentage difference between `new` and `baseline`
/// (positive = `new` is larger).
#[must_use]
pub fn fmt_pct_change(new: f64, baseline: f64) -> String {
    if baseline == 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.2}%", (new - baseline) / baseline * 100.0)
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
    fn short_rows_are_padded_and_long_rows_keep_every_cell() {
        let mut t = Table::new("demo", &["a", "b", "c"]);
        t.add_row(&["1".to_string()]);
        // An over-long row is a caller bug: logged, but no cell is dropped.
        t.add_row(&[
            "1".to_string(),
            "2".to_string(),
            "3".to_string(),
            "4".to_string(),
        ]);
        assert_eq!(t.rows()[0].len(), 3);
        assert_eq!(t.rows()[1].len(), 4, "no cells may be dropped");
        assert!(t.render().contains('4'), "extra cells must render");
    }

    #[test]
    fn try_add_row_rejects_over_long_rows_without_mutating() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.try_add_row(&["1".to_string()]).expect("short rows pad");
        let error = t
            .try_add_row(&["1".to_string(), "2".to_string(), "3".to_string()])
            .expect_err("three cells into two columns");
        assert_eq!(error.expected, 2);
        assert_eq!(error.got, 3);
        assert_eq!(error.table, "demo");
        assert!(error.to_string().contains("does not fit"));
        assert_eq!(t.num_rows(), 1, "failed insert must not add a row");
    }

    #[test]
    fn percent_change_formatting() {
        assert_eq!(fmt_pct_change(110.0, 100.0), "+10.00%");
        assert_eq!(fmt_pct_change(95.0, 100.0), "-5.00%");
        assert_eq!(fmt_pct_change(1.0, 0.0), "n/a");
        assert_eq!(fmt_f(1.23456, 2), "1.23");
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new("X", &["c"]);
        t.add_display_row(&[&42]);
        assert_eq!(format!("{t}"), t.render());
    }
}
