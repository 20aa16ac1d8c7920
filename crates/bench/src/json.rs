//! The committed `BENCH_*.json` trajectory files: where they live, the line
//! a harness row contributes to one, and how such lines are merged in next to
//! what `cargo bench` wrote.

use crate::row::{escape, Row};

/// `row` as one result line of a `BENCH_*.json` file, in the shape the
/// vendored criterion writes: `mean_ns` / `min_ns` are the row's host
/// `wall_ms`, `elements` its `requests`, `counters` its [`Row::counters`].
pub fn bench_line(group: &str, id: &str, row: &Row) -> String {
    let wall_ns = row.num("wall_ms") * 1e6;
    let counters: Vec<String> = row
        .counters()
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    format!(
        "{{\"group\":\"{group}\",\"id\":\"{}\",\"mean_ns\":{wall_ns:.1},\"min_ns\":{wall_ns:.1},\
         \"iters_per_sample\":1,\"samples\":1,\"elements\":{},\"counters\":{{{}}}}}",
        escape(id),
        row.u64("requests"),
        counters.join(",")
    )
}

/// Merges result rows into a criterion-written `BENCH_<bench>.json` file.
///
/// The vendored criterion writes these files with one result object per line
/// (see `vendor/criterion`); this helper relies on that layout: every line
/// holding a `"group":"<group>"` row is replaced by `rows` (each element one
/// serialised result object), other groups' rows are preserved, and a
/// missing or foreign file is rewritten from scratch. This is how a full
/// `harness reconfig` run lands its rows next to the `cargo bench`
/// trajectory in `BENCH_throughput.json` without clobbering it.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be read (other than not
/// existing) or written.
pub fn merge_bench_rows(
    path: &std::path::Path,
    bench: &str,
    group: &str,
    rows: &[String],
) -> std::io::Result<()> {
    let existing = match std::fs::read_to_string(path) {
        Ok(contents) => contents,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let marker = format!("\"group\":\"{group}\"");
    let mut kept: Vec<String> = existing
        .lines()
        .filter(|line| line.starts_with("{\"group\":") && !line.contains(&marker))
        .map(|line| line.trim_end_matches(',').to_string())
        .collect();
    kept.extend(rows.iter().cloned());
    let json = format!(
        "{{\"bench\":\"{}\",\"results\":[\n{}\n]}}\n",
        escape(bench),
        kept.join(",\n")
    );
    std::fs::write(path, json)
}

/// The directory `BENCH_*.json` files live in: `OAR_BENCH_OUT_DIR` when set,
/// otherwise the nearest ancestor of the current directory whose
/// `Cargo.toml` declares `[workspace]` — the same resolution the vendored
/// criterion uses, so the harness and `cargo bench` write to the same place.
pub fn bench_out_dir() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("OAR_BENCH_OUT_DIR") {
        return dir.into();
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
    loop {
        if let Ok(contents) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            if contents.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return ".".into();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_line_has_the_criterion_row_shape() {
        let row = Row::new("reconfig", "replace")
            .with("scenario", "replace")
            .with("requests", 240u64)
            .with("consistent", true)
            .with("wall_ms", 1.5);
        assert_eq!(
            bench_line("reconfig", "replace/120", &row),
            "{\"group\":\"reconfig\",\"id\":\"replace/120\",\"mean_ns\":1500000.0,\
             \"min_ns\":1500000.0,\"iters_per_sample\":1,\"samples\":1,\"elements\":240,\
             \"counters\":{\"requests\":240,\"consistent\":1}}"
        );
    }

    #[test]
    fn merge_bench_rows_replaces_only_its_group() {
        let dir = std::env::temp_dir().join(format!("oar-bench-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_throughput.json");
        std::fs::write(
            &path,
            concat!(
                "{\"bench\":\"throughput\",\"results\":[\n",
                "{\"group\":\"oar_throughput\",\"id\":\"unbatched/1\",\"mean_ns\":1.0},\n",
                "{\"group\":\"reconfig\",\"id\":\"replace/2\",\"mean_ns\":2.0}\n",
                "]}\n"
            ),
        )
        .unwrap();
        let fresh = "{\"group\":\"reconfig\",\"id\":\"replace/4\",\"mean_ns\":3.0}".to_string();
        merge_bench_rows(&path, "throughput", "reconfig", &[fresh]).unwrap();
        let merged = std::fs::read_to_string(&path).unwrap();
        assert!(merged.contains("\"id\":\"unbatched/1\""), "{merged}");
        assert!(merged.contains("\"id\":\"replace/4\""), "{merged}");
        assert!(!merged.contains("\"id\":\"replace/2\""), "{merged}");
        // The merged file still parses as one row per line between the
        // header and the footer, so a second merge round-trips.
        merge_bench_rows(&path, "throughput", "reconfig", &[]).unwrap();
        let stripped = std::fs::read_to_string(&path).unwrap();
        assert!(stripped.contains("\"id\":\"unbatched/1\""));
        assert!(!stripped.contains("\"group\":\"reconfig\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_bench_rows_creates_missing_file() {
        let dir = std::env::temp_dir().join(format!("oar-bench-create-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_fresh.json");
        let row = "{\"group\":\"reconfig\",\"id\":\"replace/1\",\"mean_ns\":1.0}".to_string();
        merge_bench_rows(&path, "fresh", "reconfig", &[row]).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.starts_with("{\"bench\":\"fresh\",\"results\":["));
        assert!(written.contains("\"id\":\"replace/1\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
