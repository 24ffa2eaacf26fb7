//! Minimal aligned-table printer (markdown-compatible output, so rows can
//! be pasted into an experiments log verbatim).

/// A simple text table whose rows name their cells.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Appends a row of named cells; the first row's names become the
    /// header, and every later row must name the same columns in order.
    pub fn cells(&mut self, cells: &[(&str, String)]) {
        if self.header.is_empty() {
            self.header = cells.iter().map(|c| c.0.to_string()).collect();
        }
        let names = cells.iter().map(|c| c.0);
        assert!(
            names.eq(self.header.iter().map(String::as_str)),
            "row names differ from the header"
        );
        self.rows.push(cells.iter().map(|c| c.1.clone()).collect());
    }

    /// Prints the table as markdown with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            println!("| {} |", padded.join(" | "));
        };
        line(&self.header);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::default();
        t.cells(&[("a", "1".to_string()), ("bbb", "22".to_string())]);
        t.print(); // visual; just ensure no panic and the name checks hold
    }

    #[test]
    #[should_panic(expected = "row names differ from the header")]
    fn named_cells_must_match_the_header() {
        let mut t = Table::default();
        t.cells(&[("a", "1".to_string()), ("b", "2".to_string())]);
        t.cells(&[("a", "3".to_string()), ("c", "4".to_string())]);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::default();
        t.cells(&[("a", "1".to_string())]);
        t.cells(&[("a", "1".to_string()), ("b", "2".to_string())]);
    }
}
