//! Plain-text table rendering for experiment reports.

use std::fmt::Write as _;

/// A simple fixed-width text table.
///
/// # Examples
///
/// ```
/// use aix_bench::Table;
///
/// let mut t = Table::new(&["scenario", "delay [ps]"]);
/// t.row(&["noAging", "305.5"]);
/// let text = t.render();
/// assert!(text.contains("noAging"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn row(&mut self, cells: &[&str]) {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                let _ = write!(out, "{cell:<width$}");
                if i + 1 < widths.len() {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "long header"]);
        t.row(&["xxxxxx", "1"]);
        t.row(&["y", "2"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     "));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn tolerates_ragged_rows() {
        let mut t = Table::new(&["one"]);
        t.row(&["a", "b", "c"]);
        t.row(&[]);
        let text = t.render();
        assert!(text.contains('c'));
    }
}
