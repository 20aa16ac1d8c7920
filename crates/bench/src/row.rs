//! An experiment row as a value: an ordered list of named cells, with the
//! one JSON writer and the one table printer every experiment family shares.
//!
//! The build environment has no crates.io access, so the JSON is written by
//! hand; the output is one plain JSON object per row, keys in cell order.

use oar_simnet::Summary;

/// One value of a row.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A count.
    U64(u64),
    /// A measurement; non-finite values serialise as `null`.
    F64(f64),
    /// A verdict.
    Bool(bool),
    /// A label.
    Str(String),
    /// One count per group.
    List(Vec<u64>),
    /// A latency distribution.
    Summary(Summary),
}

macro_rules! cell_from {
    ($($from:ty => |$v:ident| $variant:ident($conv:expr)),* $(,)?) => {$(
        impl From<$from> for Cell {
            fn from($v: $from) -> Self {
                Cell::$variant($conv)
            }
        }
    )*};
}
cell_from! {
    u64 => |v| U64(v),
    usize => |v| U64(v as u64),
    f64 => |v| F64(v),
    bool => |v| Bool(v),
    &str => |v| Str(v.to_string()),
    String => |v| Str(v),
    Vec<u64> => |v| List(v),
    Summary => |v| Summary(v),
}

/// One measured row: `label` names its family (the `JSON <label> {...}` line
/// and the table it is printed in), `key` identifies it within its
/// experiment (what a bound selects it by, e.g. `adaptive@8`), and the cells
/// keep their insertion order everywhere they are rendered.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Row family.
    pub label: &'static str,
    /// Identity within the experiment.
    pub key: String,
    cells: Vec<(&'static str, Cell)>,
}

impl Row {
    /// An empty row of family `label`.
    pub fn new(label: &'static str, key: impl Into<String>) -> Self {
        Row {
            label,
            key: key.into(),
            cells: Vec::new(),
        }
    }

    /// Appends a cell.
    pub fn with(mut self, name: &'static str, value: impl Into<Cell>) -> Self {
        debug_assert!(
            self.cells.iter().all(|(n, _)| *n != name),
            "duplicate cell `{name}`"
        );
        self.cells.push((name, value.into()));
        self
    }

    /// The names of the cells, in order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.cells.iter().map(|(name, _)| *name)
    }

    /// Replaces the value of an existing cell.
    pub fn set(&mut self, name: &str, value: impl Into<Cell>) {
        let at = self.cells.iter().position(|(n, _)| *n == name);
        match at {
            Some(i) => self.cells[i].1 = value.into(),
            None => self.missing(name),
        }
    }

    fn missing(&self, name: &str) -> ! {
        let keys: Vec<_> = self.names().collect();
        panic!(
            "no cell `{name}` in {} row `{}`; its cells are {keys:?}",
            self.label, self.key
        )
    }

    fn mismatch(&self, name: &str, want: &str) -> ! {
        let cell = self.cell(name);
        panic!(
            "cell `{name}` of row `{}` is {cell:?}, not {want}",
            self.key
        )
    }

    /// The cell called `name`. Panics, naming the key and the row's keys, if
    /// there is none: a misspelled metric must never read as a default.
    pub fn cell(&self, name: &str) -> &Cell {
        match self.cells.iter().find(|(n, _)| *n == name) {
            Some((_, cell)) => cell,
            None => self.missing(name),
        }
    }

    /// The count in cell `name`.
    pub fn u64(&self, name: &str) -> u64 {
        match self.cell(name) {
            Cell::U64(v) => *v,
            _ => self.mismatch(name, "a count"),
        }
    }

    /// The verdict in cell `name`.
    pub fn bool(&self, name: &str) -> bool {
        match self.cell(name) {
            Cell::Bool(v) => *v,
            _ => self.mismatch(name, "a verdict"),
        }
    }

    /// The label in cell `name`.
    pub fn str(&self, name: &str) -> &str {
        match self.cell(name) {
            Cell::Str(v) => v,
            _ => self.mismatch(name, "a label"),
        }
    }

    /// The per-group counts in cell `name`.
    pub fn list(&self, name: &str) -> &[u64] {
        match self.cell(name) {
            Cell::List(v) => v,
            _ => self.mismatch(name, "a list"),
        }
    }

    /// The numeric view of a metric, which is what bounds compare: `name` for
    /// a count, measurement or verdict (true = 1), `name[i]` for one element
    /// of a list, `name.p99` (or `mean`, `min`, `p50`, `p95`, `max`) for one
    /// field of a latency summary.
    pub fn num(&self, metric: &str) -> f64 {
        let (name, part) = metric.split_at(metric.find(['[', '.']).unwrap_or(metric.len()));
        let index = part.strip_prefix('[').and_then(|p| p.strip_suffix(']'));
        match (self.cell(name), part) {
            (Cell::U64(v), "") => *v as f64,
            (Cell::F64(v), "") => *v,
            (Cell::Bool(v), "") => f64::from(u8::from(*v)),
            (Cell::List(v), _) => match index.and_then(|i| v.get(i.parse::<usize>().ok()?)) {
                Some(item) => *item as f64,
                None => panic!("`{metric}` names no element of {v:?} in row `{}`", self.key),
            },
            (Cell::Summary(s), ".mean") => s.mean,
            (Cell::Summary(s), ".min") => s.min,
            (Cell::Summary(s), ".p50") => s.p50,
            (Cell::Summary(s), ".p95") => s.p95,
            (Cell::Summary(s), ".p99") => s.p99,
            (Cell::Summary(s), ".max") => s.max,
            (other, _) => panic!(
                "`{metric}` has no numeric view: row `{}` holds {other:?}",
                self.key
            ),
        }
    }

    /// The row as one JSON object, keys in cell order.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .cells
            .iter()
            .map(|(name, cell)| format!("\"{name}\":{}", cell.to_json()))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// The row with key `key`. Panics, naming the key and the keys there are, if
/// the run produced no such row.
pub fn by_key<'a>(rows: &'a [Row], key: &str) -> &'a Row {
    rows.iter().find(|row| row.key == key).unwrap_or_else(|| {
        let keys: Vec<_> = rows.iter().map(|row| &row.key).collect();
        panic!("no row `{key}` among {keys:?}")
    })
}

/// Escapes a string for inclusion in a JSON document.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn joined(items: &[u64], separator: &str) -> String {
    let items: Vec<String> = items.iter().map(u64::to_string).collect();
    items.join(separator)
}

impl Cell {
    fn to_json(&self) -> String {
        match self {
            Cell::U64(v) => v.to_string(),
            Cell::F64(v) => float(*v),
            Cell::Bool(v) => v.to_string(),
            Cell::Str(v) => format!("\"{}\"", escape(v)),
            Cell::List(v) => format!("[{}]", joined(v, ",")),
            Cell::Summary(s) => format!(
                "{{\"count\":{},\"mean\":{},\"min\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{},\"std_dev\":{}}}",
                s.count,
                float(s.mean),
                float(s.min),
                float(s.p50),
                float(s.p95),
                float(s.p99),
                float(s.max),
                float(s.std_dev),
            ),
        }
    }

    /// The cell as a table entry; `None` for text that does not fit on a
    /// line (a figure's timeline), which only the JSON carries.
    fn to_table(&self) -> Option<String> {
        Some(match self {
            Cell::U64(v) => v.to_string(),
            Cell::F64(v) => format!("{v:.3}"),
            Cell::Bool(v) => v.to_string(),
            Cell::Str(v) if v.contains('\n') => return None,
            Cell::Str(v) => v.clone(),
            Cell::List(v) => joined(v, "/"),
            Cell::Summary(s) => format!("{:.3}/{:.3}/{:.3}/{:.3}", s.mean, s.p50, s.p95, s.p99),
        })
    }
}

/// Renders rows as aligned text tables, one per run of rows sharing a label,
/// headed by the cell names (a latency summary shows mean/p50/p95/p99).
pub fn render_tables(rows: &[Row]) -> String {
    let mut out = String::new();
    for family in rows.chunk_by(|a, b| a.label == b.label) {
        let mut lines: Vec<Vec<String>> = vec![Vec::new(); family.len() + 1];
        for (name, cell) in &family[0].cells {
            if cell.to_table().is_none() {
                continue;
            }
            let summary = matches!(cell, Cell::Summary(_));
            lines[0].push(format!(
                "{name}{}",
                if summary { "(mean/p50/p95/p99)" } else { "" }
            ));
            for (line, row) in lines[1..].iter_mut().zip(family) {
                line.push(row.cell(name).to_table().unwrap_or_default());
            }
        }
        let widths: Vec<usize> = (0..lines[0].len())
            .map(|c| {
                lines
                    .iter()
                    .map(|l| l[c].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for line in &lines {
            let padded: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(entry, &w)| format!("{entry:>w$}"))
                .collect();
            out.push_str(padded.join("  ").trim_end());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Row {
        Row::new("sample", "s@1")
            .with("name", "a\"b")
            .with("count", 3usize)
            .with("rate", 1.5)
            .with("never", f64::INFINITY)
            .with("ok", true)
            .with("per_group", vec![5u64, 6])
            .with("p99_latency_ms", 0.4826)
    }

    #[test]
    fn json_keeps_cell_order_and_escapes() {
        assert_eq!(
            sample().to_json(),
            "{\"name\":\"a\\\"b\",\"count\":3,\"rate\":1.5,\"never\":null,\"ok\":true,\
             \"per_group\":[5,6],\"p99_latency_ms\":0.4826}"
        );
        assert_eq!(escape("a\\c\nd"), "a\\\\c\\nd");
        assert_eq!(Cell::List(vec![]).to_json(), "[]");
    }

    #[test]
    fn summary_serialises_every_field() {
        let s = Summary {
            count: 2,
            mean: 1.5,
            min: 1.0,
            p50: 1.5,
            p95: 2.0,
            p99: 2.0,
            max: 2.0,
            std_dev: f64::NAN,
        };
        let row = Row::new("latency", "oar@3").with("latency_ms", s);
        assert_eq!(
            row.to_json(),
            "{\"latency_ms\":{\"count\":2,\"mean\":1.5,\"min\":1,\"p50\":1.5,\"p95\":2,\
             \"p99\":2,\"max\":2,\"std_dev\":null}}"
        );
        assert_eq!(row.num("latency_ms.p95"), 2.0);
    }

    #[test]
    fn numeric_view_reads_counts_verdicts_and_list_elements() {
        let row = sample();
        assert_eq!(row.num("count"), 3.0);
        assert_eq!(row.num("ok"), 1.0);
        assert_eq!(row.num("per_group[1]"), 6.0);
        assert_eq!(
            (row.u64("count"), row.bool("ok"), row.str("name")),
            (3, true, "a\"b")
        );
        assert_eq!(row.list("per_group"), [5, 6]);
    }

    #[test]
    #[should_panic(
        expected = "no cell `cuont` in sample row `s@1`; its cells are [\"name\", \"count\""
    )]
    fn a_misspelled_metric_panics_naming_the_key_and_the_rows_keys() {
        sample().num("cuont");
    }

    #[test]
    #[should_panic(expected = "`per_group[2]` names no element")]
    fn an_out_of_range_list_element_panics() {
        sample().num("per_group[2]");
    }

    #[test]
    fn tables_align_columns_and_leave_multi_line_text_to_the_json() {
        let rows = [
            Row::new("t", "a")
                .with("id", "fig1a")
                .with("n", 3u64)
                .with("timeline", "x\ny"),
            Row::new("t", "b")
                .with("id", "fig1b-oar")
                .with("n", 12u64)
                .with("timeline", "z\nw"),
            Row::new("u", "c").with("ms", 0.25),
        ];
        assert_eq!(
            render_tables(&rows),
            "       id   n\n    fig1a   3\nfig1b-oar  12\n   ms\n0.250\n"
        );
    }
}
