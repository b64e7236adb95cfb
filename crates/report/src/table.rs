//! Plain-text table rendering for the benchmark harness output.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    Left,
    Right,
}

/// A simple monospace table builder.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Self {
            aligns: headers.iter().map(|_| Align::Right).collect(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Set the alignment of column `i` (default: right).
    pub fn align(mut self, i: usize, a: Align) -> Self {
        self.aligns[i] = a;
        self
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize], aligns: &[Align]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = width[i] - c.chars().count();
                match aligns[i] {
                    Align::Left => {
                        line.push_str(c);
                        line.push_str(&" ".repeat(pad));
                    }
                    Align::Right => {
                        line.push_str(&" ".repeat(pad));
                        line.push_str(c);
                    }
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &width, &self.aligns));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &width, &self.aligns));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]).align(0, Align::Left);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(&["h1", "h2"]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }
}
