//! Common result table: printable, serializable, comparable.

/// One experiment's output: labeled rows of numeric columns.
#[derive(Clone, Debug)]
pub struct Table {
    pub id: String,
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<(String, Vec<f64>)>,
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, label: impl Into<String>, values: Vec<f64>) -> &mut Self {
        debug_assert_eq!(values.len(), self.columns.len());
        self.rows.push((label.into(), values));
        self
    }

    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    pub fn get(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        let (_, values) = self.rows.iter().find(|(l, _)| l == row)?;
        values.get(c).copied()
    }

    /// Render as a markdown-ish table.
    pub fn render(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([8])
            .max()
            .unwrap();
        out.push_str(&format!("| {:label_w$} |", ""));
        for c in &self.columns {
            out.push_str(&format!(" {c:>14} |"));
        }
        out.push('\n');
        out.push_str(&format!("|{}|", "-".repeat(label_w + 2)));
        for _ in &self.columns {
            out.push_str(&format!("{}|", "-".repeat(16)));
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(&format!("| {label:label_w$} |"));
            for v in values {
                out.push_str(&format!(" {:>14} |", format_value(*v)));
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out
    }

    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The table as one pretty JSON object: fields in declaration order,
    /// two-space indents, each row a `[label, [values…]]` pair.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"id\": ");
        push_json_string(&mut out, &self.id);
        out.push_str(",\n  \"title\": ");
        push_json_string(&mut out, &self.title);
        out.push_str(",\n  \"columns\": ");
        push_json_array(&mut out, 1, &self.columns, |out, c| {
            push_json_string(out, c)
        });
        out.push_str(",\n  \"rows\": ");
        push_json_array(&mut out, 1, &self.rows, |out, (label, values)| {
            out.push_str("[\n      ");
            push_json_string(out, label);
            out.push_str(",\n      ");
            push_json_array(out, 3, values, |out, v| out.push_str(&json_number(*v)));
            out.push_str("\n    ]");
        });
        out.push_str(",\n  \"notes\": ");
        push_json_array(&mut out, 1, &self.notes, |out, n| push_json_string(out, n));
        out.push_str("\n}");
        out
    }
}

/// A JSON array nested `depth` levels deep: `[]` when empty, else one
/// item a line, indented one level past the brackets.
fn push_json_array<T>(
    out: &mut String,
    depth: usize,
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        item(out, x);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(']');
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Whole floats keep a `.0` below 1e16; JSON has no NaN or infinity, so
/// those print `null` and the document stays loadable.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e16 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut t = Table::new("t1", "demo", &["a", "b"]);
        t.row("r1", vec![1.0, 2.0]).row("r2", vec![3.5, 4000.0]);
        t.note("a note");
        assert_eq!(t.get("r1", "a"), Some(1.0));
        assert_eq!(t.get("r2", "b"), Some(4000.0));
        assert_eq!(t.get("r3", "a"), None);
        assert_eq!(t.get("r1", "c"), None);
        let rendered = t.render();
        assert!(rendered.contains("r1"));
        assert!(rendered.contains("4000"));
        assert!(rendered.contains("a note"));
        assert!(t.to_json().contains("\"id\": \"t1\""));
    }

    #[test]
    fn json_matches_the_pinned_serde_json_rendering() {
        // pinned: the text the serde_json shim printed for this table
        let mut t = Table::new("t\"1", "a \\ b\u{1}\t", &["whole", "frac"]);
        t.row("r1", vec![2.0, 0.125])
            .row("r\"2", vec![f64::NAN, 1e16]);
        let pinned = r#"{
  "id": "t\"1",
  "title": "a \\ b\u0001\t",
  "columns": [
    "whole",
    "frac"
  ],
  "rows": [
    [
      "r1",
      [
        2.0,
        0.125
      ]
    ],
    [
      "r\"2",
      [
        null,
        10000000000000000
      ]
    ]
  ],
  "notes": []
}"#;
        assert_eq!(t.to_json(), pinned);
    }
}
