//! Minimal aligned-text table rendering, CSV, and the flat baseline JSON
//! (no serde_json offline, so the harness emits all three itself).

use std::fmt::Write as _;

/// A simple table: headers plus string rows.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line: String = widths.iter().map(|w| "-".repeat(w + 2)).collect();
        let mut hdr = String::new();
        for (w, h) in widths.iter().zip(&self.headers) {
            let _ = write!(hdr, " {h:>w$} ");
        }
        let _ = writeln!(out, "{hdr}");
        let _ = writeln!(out, "{line}");
        for row in &self.rows {
            let mut r = String::new();
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(r, " {cell:>w$} ");
            }
            let _ = writeln!(out, "{r}");
        }
        out
    }

    /// Render as CSV (for plotting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Print the table.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Print the table and write its CSV to `csv_path`.
    pub fn emit(&self, csv_path: &str) -> Result<(), String> {
        print!("{}", self.render());
        write_artifact(csv_path, &self.to_csv())?;
        println!("(csv written to {csv_path})\n");
        Ok(())
    }
}

/// Write one output file. Every artifact the scenarios write goes
/// through here, so a failure names the path and the OS error.
pub fn write_artifact(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// A flat, committed baseline: gated numbers under `entries` (one key
/// per line, so baselines diff cleanly in review) and string-valued
/// context under `info`.
pub struct Baseline {
    schema: &'static str,
    entries: Vec<(String, String)>,
    info: Vec<(String, String)>,
}

impl Baseline {
    /// An empty baseline tagged with `schema`.
    pub fn new(schema: &'static str) -> Self {
        Baseline {
            schema,
            entries: Vec::new(),
            info: Vec::new(),
        }
    }

    /// A gated entry; `value` is written verbatim as a JSON number.
    pub fn entry(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.entries.push((key.into(), value.to_string()));
    }

    /// A context entry, written as a JSON string.
    pub fn info(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.info.push((key.into(), format!("\"{value}\"")));
    }

    /// Render as JSON; `info` appears only when it has keys.
    pub fn to_json(&self) -> String {
        let block = |name: &str, kv: &[(String, String)]| {
            let body: Vec<String> = kv
                .iter()
                .map(|(k, v)| format!("    \"{k}\": {v}"))
                .collect();
            format!("  \"{name}\": {{\n{}\n  }}", body.join(",\n"))
        };
        let mut json = format!(
            "{{\n  \"schema\": \"{}\",\n{}",
            self.schema,
            block("entries", &self.entries)
        );
        if !self.info.is_empty() {
            json.push_str(&format!(",\n{}", block("info", &self.info)));
        }
        json + "\n}\n"
    }

    /// Write the JSON to `path`.
    pub fn write(&self, path: &str) -> Result<(), String> {
        write_artifact(path, &self.to_json())
    }
}

/// Format a byte count the way the paper's axes do (64kB, 1MB, 16MB).
pub fn fmt_size(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}MiB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}KiB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["size", "MiB/s"]);
        t.row(vec!["64KiB".into(), "650.1".into()]);
        t.row(vec!["16MiB".into(), "955.0".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("64KiB"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("size,MiB/s"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn baseline_json_is_flat_with_optional_info() {
        let mut b = Baseline::new("demo-v1");
        b.entry("a.p50_ns", format!("{:.1}", 4067.0));
        b.entry("zero", 0);
        assert_eq!(
            b.to_json(),
            "{\n  \"schema\": \"demo-v1\",\n  \"entries\": {\n    \"a.p50_ns\": 4067.0,\n    \
             \"zero\": 0\n  }\n}\n"
        );
        b.info("rounds", 200);
        assert!(b
            .to_json()
            .ends_with("  },\n  \"info\": {\n    \"rounds\": \"200\"\n  }\n}\n"));
    }

    #[test]
    fn unwritable_artifact_names_path_and_error() {
        let err = write_artifact("no-such-dir/x.csv", "x").unwrap_err();
        assert!(err.starts_with("cannot write no-such-dir/x.csv: "), "{err}");
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(64 * 1024), "64KiB");
        assert_eq!(fmt_size(16 << 20), "16MiB");
        assert_eq!(fmt_size(100), "100B");
    }
}
