//! Experiment results and plain-text rendering.

use tlp_sim::serial::escape;

/// One row of an experiment table: a label plus named numeric columns.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (workload, scheme, bandwidth point, ...).
    pub label: String,
    /// `(column, value)` pairs, in display order.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Builds a row.
    #[must_use]
    pub fn new(label: impl Into<String>, values: Vec<(String, f64)>) -> Self {
        Self {
            label: label.into(),
            values,
        }
    }

    /// Looks up a value by column name.
    #[must_use]
    pub fn get(&self, column: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(c, _)| c == column)
            .map(|&(_, v)| v)
    }
}

/// The result of one experiment (one paper figure or table).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `fig10a`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// What the numbers mean (units).
    pub unit: String,
    /// Data rows.
    pub rows: Vec<Row>,
    /// Summary rows (averages/geomeans), rendered separately.
    pub summary: Vec<Row>,
}

impl ExperimentResult {
    /// Creates an empty result shell.
    #[must_use]
    pub fn new(id: impl Into<String>, title: impl Into<String>, unit: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            unit: unit.into(),
            rows: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Looks up a summary value.
    #[must_use]
    pub fn summary_value(&self, row: &str, column: &str) -> Option<f64> {
        self.summary
            .iter()
            .find(|r| r.label == row)
            .and_then(|r| r.get(column))
    }

    /// Renders the result as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== {} — {} [{}]\n",
            self.id, self.title, self.unit
        ));
        let columns: Vec<String> = self
            .rows
            .first()
            .or(self.summary.first())
            .map(|r| r.values.iter().map(|(c, _)| c.clone()).collect())
            .unwrap_or_default();
        let label_w = self
            .rows
            .iter()
            .chain(&self.summary)
            .map(|r| r.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let col_w = columns.iter().map(|c| c.len().max(10)).collect::<Vec<_>>();
        out.push_str(&format!("{:label_w$}", ""));
        for (c, w) in columns.iter().zip(&col_w) {
            out.push_str(&format!(" {c:>w$}"));
        }
        out.push('\n');
        let fmt_row = |r: &Row, out: &mut String| {
            out.push_str(&format!("{:label_w$}", r.label));
            for ((_, v), w) in r.values.iter().zip(&col_w) {
                out.push_str(&format!(" {v:>w$.2}"));
            }
            out.push('\n');
        };
        for r in &self.rows {
            fmt_row(r, &mut out);
        }
        if !self.summary.is_empty() {
            out.push_str(&format!("{}\n", "-".repeat(label_w + 4)));
            for r in &self.summary {
                fmt_row(r, &mut out);
            }
        }
        out
    }

    /// Renders the result as JSON (the paper's artifact feeds its Jupyter
    /// notebooks from machine-readable results; this is the equivalent).
    /// Hand-rolled to avoid a JSON dependency — the value space is only
    /// strings and finite floats; strings go through the workspace
    /// codec's [`escape`].
    #[must_use]
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_owned()
            }
        }
        fn rows_json(rows: &[Row]) -> String {
            let items: Vec<String> = rows
                .iter()
                .map(|r| {
                    let vals: Vec<String> = r
                        .values
                        .iter()
                        .map(|(c, v)| format!("{{\"column\":{},\"value\":{}}}", escape(c), num(*v)))
                        .collect();
                    format!(
                        "{{\"label\":{},\"values\":[{}]}}",
                        escape(&r.label),
                        vals.join(",")
                    )
                })
                .collect();
            format!("[{}]", items.join(","))
        }
        format!(
            "{{\"id\":{},\"title\":{},\"unit\":{},\"rows\":{},\"summary\":{}}}",
            escape(&self.id),
            escape(&self.title),
            escape(&self.unit),
            rows_json(&self.rows),
            rows_json(&self.summary)
        )
    }

    /// Renders one column of the result as a horizontal ASCII bar chart —
    /// the terminal stand-in for the paper's per-workload bar figures.
    /// Bars are scaled to the largest absolute value; negative values
    /// grow leftward from a shared zero axis.
    ///
    /// Returns an empty string when `column` is absent from every row.
    #[must_use]
    pub fn render_chart(&self, column: &str, width: usize) -> String {
        let rows: Vec<(&str, f64)> = self
            .rows
            .iter()
            .filter_map(|r| r.get(column).map(|v| (r.label.as_str(), v)))
            .collect();
        if rows.is_empty() {
            return String::new();
        }
        let width = width.max(10);
        let max_abs = rows
            .iter()
            .map(|(_, v)| v.abs())
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(8).max(8);
        let half = width / 2;
        let any_negative = rows.iter().any(|(_, v)| *v < 0.0);
        let mut out = format!("== {} — {} [{}]\n", self.id, column, self.unit);
        for (label, v) in rows {
            let frac = (v.abs() / max_abs).min(1.0);
            let bar_w = if any_negative { half } else { width };
            let n = (frac * bar_w as f64).round() as usize;
            let bar: String = "█".repeat(n);
            if any_negative {
                // Two-sided chart around a zero axis.
                if v < 0.0 {
                    out.push_str(&format!(
                        "{label:label_w$} {pad}{bar}|{space} {v:9.2}\n",
                        pad = " ".repeat(half - n),
                        space = " ".repeat(half),
                    ));
                } else {
                    out.push_str(&format!(
                        "{label:label_w$} {pad}|{bar}{space} {v:9.2}\n",
                        pad = " ".repeat(half),
                        space = " ".repeat(half - n),
                    ));
                }
            } else {
                out.push_str(&format!("{label:label_w$} {bar:<bar_w$} {v:9.2}\n"));
            }
        }
        out
    }

    /// Renders the result as CSV: a header row of `label,<columns...>`,
    /// data rows, then summary rows. Labels containing commas or quotes
    /// are quoted.
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }
        let columns: Vec<String> = self
            .rows
            .first()
            .or(self.summary.first())
            .map(|r| r.values.iter().map(|(c, _)| c.clone()).collect())
            .unwrap_or_default();
        let mut out = String::new();
        out.push_str("label");
        for c in &columns {
            out.push(',');
            out.push_str(&field(c));
        }
        out.push('\n');
        for r in self.rows.iter().chain(&self.summary) {
            out.push_str(&field(&r.label));
            for (_, v) in &r.values {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> ExperimentResult {
        let mut r = ExperimentResult::new("figX", "Test", "%");
        r.rows
            .push(Row::new("w1", vec![("A".into(), 1.5), ("B".into(), -2.25)]));
        r.summary.push(Row::new(
            "mean",
            vec![("A".into(), 1.5), ("B".into(), -2.25)],
        ));
        r
    }

    #[test]
    fn lookup_by_name() {
        let r = result();
        assert_eq!(r.rows[0].get("B"), Some(-2.25));
        assert_eq!(r.summary_value("mean", "A"), Some(1.5));
        assert_eq!(r.summary_value("mean", "C"), None);
    }

    #[test]
    fn render_contains_all_parts() {
        let s = result().render();
        assert!(s.contains("figX"));
        assert!(s.contains("w1"));
        assert!(s.contains("mean"));
        assert!(s.contains("-2.25"));
    }

    #[test]
    fn render_empty_result_is_safe() {
        let r = ExperimentResult::new("e", "Empty", "");
        let s = r.render();
        assert!(s.contains("Empty"));
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let s = result().to_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"id\":\"figX\""));
        assert!(s.contains("\"label\":\"w1\""));
        assert!(s.contains("\"column\":\"A\""));
        assert!(s.contains("\"value\":-2.25"));
        assert!(s.contains("\"summary\":[{\"label\":\"mean\""));
        // Balanced braces/brackets (cheap structural sanity check).
        let braces = s.chars().filter(|&c| c == '{').count();
        let closes = s.chars().filter(|&c| c == '}').count();
        assert_eq!(braces, closes);
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut r = ExperimentResult::new("e", "quote \" and \\ slash", "");
        r.rows
            .push(Row::new("line\nbreak", vec![("c".into(), 1.0)]));
        let s = r.to_json();
        assert!(s.contains("quote \\\" and \\\\ slash"));
        assert!(s.contains("line\\nbreak"));
        assert!(!s.contains("line\nbreak"));
    }

    #[test]
    fn json_nonfinite_becomes_null() {
        let mut r = ExperimentResult::new("e", "t", "");
        r.rows
            .push(Row::new("w", vec![("c".into(), f64::INFINITY)]));
        assert!(r.to_json().contains("\"value\":null"));
    }

    #[test]
    fn csv_has_header_rows_and_summary() {
        let s = result().to_csv();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "label,A,B");
        assert_eq!(lines[1], "w1,1.5,-2.25");
        assert_eq!(lines[2], "mean,1.5,-2.25");
    }

    #[test]
    fn csv_quotes_awkward_labels() {
        let mut r = ExperimentResult::new("e", "t", "");
        r.rows.push(Row::new("a,b \"c\"", vec![("x".into(), 1.0)]));
        let s = r.to_csv();
        assert!(s.contains("\"a,b \"\"c\"\"\",1"));
    }

    #[test]
    fn chart_scales_bars_to_maximum() {
        let mut r = ExperimentResult::new("e", "t", "%");
        r.rows.push(Row::new("big", vec![("v".into(), 10.0)]));
        r.rows.push(Row::new("half", vec![("v".into(), 5.0)]));
        let s = r.render_chart("v", 20);
        let bars: Vec<usize> = s
            .lines()
            .skip(1)
            .map(|l| l.chars().filter(|&c| c == '█').count())
            .collect();
        assert_eq!(bars[0], 20, "max value fills the width");
        assert_eq!(bars[1], 10, "half value gets half the bar");
        assert!(s.contains("10.00") && s.contains("5.00"));
    }

    #[test]
    fn chart_handles_mixed_signs_around_axis() {
        let mut r = ExperimentResult::new("e", "t", "%");
        r.rows.push(Row::new("up", vec![("v".into(), 8.0)]));
        r.rows.push(Row::new("down", vec![("v".into(), -8.0)]));
        let s = r.render_chart("v", 20);
        for line in s.lines().skip(1) {
            assert!(line.contains('|'), "two-sided chart keeps the axis: {line}");
        }
        let up = s.lines().nth(1).expect("row");
        let down = s.lines().nth(2).expect("row");
        assert!(up.find('|').expect("axis") < up.find('█').expect("bar"));
        assert!(down.find('█').expect("bar") < down.find('|').expect("axis"));
    }

    #[test]
    fn chart_of_missing_column_is_empty() {
        let r = result();
        assert!(r.render_chart("nope", 30).is_empty());
        assert!(!r.render_chart("A", 30).is_empty());
    }

    #[test]
    fn chart_survives_all_zero_values() {
        let mut r = ExperimentResult::new("e", "t", "");
        r.rows.push(Row::new("z", vec![("v".into(), 0.0)]));
        let s = r.render_chart("v", 16);
        assert!(s.contains("0.00"));
        assert_eq!(s.chars().filter(|&c| c == '█').count(), 0);
    }
}
