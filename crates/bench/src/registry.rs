//! The experiment registry: every experiment the `harness` binary knows, as
//! one [`Experiment`] value in [`EXPERIMENTS`]. `harness <name>`,
//! `harness <name>-smoke`, `harness all`, the usage text, the wall-clock
//! budgets, the gate table of `docs/BENCHMARKS.md` (`harness gates`) and the
//! `cargo test` run of every gate at its smoke size
//! (`experiments::tests::every_bound_is_violated_by_its_own_mutation_and_only_there`)
//! are all derived from that table.

use std::fmt::Write as _;

use crate::experiments as x;
use crate::figures;
use crate::gate::{check, Bound, Params};
use crate::row::{render_tables, Row};

/// Seed of every harness run: the rows are reproducible bit for bit, host
/// times aside.
pub const SEED: u64 = 20010614;

/// One experiment: what it is called, the sizes it runs at, how to run it
/// and what must hold of its rows.
pub struct Experiment {
    /// Subcommand name; `<name>-smoke` runs the smoke size.
    pub name: &'static str,
    /// Heading printed above the rows.
    pub title: &'static str,
    /// Size of `harness <name>` and `harness all`. A `budget_s` parameter is
    /// the run's wall-clock budget in seconds.
    pub full: Params,
    /// Size of `harness <name>-smoke` and, `mc` aside, of the gate's run
    /// under `cargo test` (gated experiments only).
    pub smoke: Option<Params>,
    /// Runs the experiment at a size.
    pub run: fn(&Params) -> Vec<Row>,
    /// What must hold of the rows; a violation makes the harness exit 1.
    pub bounds: &'static [Bound],
}

fn size(params: &Params, name: &str) -> usize {
    params.get(name) as usize
}

const NO_SIZE: Params = Params(&[]);

/// An experiment without bounds: its rows are asserted by tests, not gated.
const fn ungated(
    name: &'static str,
    title: &'static str,
    full: Params,
    run: fn(&Params) -> Vec<Row>,
) -> Experiment {
    Experiment {
        name,
        title,
        full,
        smoke: None,
        run,
        bounds: &[],
    }
}

/// Every experiment, in the order `harness all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    ungated(
        "fig1a",
        "Figure 1(a): the fixed-sequencer baseline in a good run",
        NO_SIZE,
        |_| vec![figures::figure_1a(SEED).row()],
    ),
    ungated(
        "fig1b",
        "Figure 1(b): the sequencer is lost after replying — the baseline turns inconsistent, \
         OAR does not",
        NO_SIZE,
        |_| {
            vec![
                figures::figure_1b(SEED).row(),
                figures::figure_1b_oar(SEED).row(),
            ]
        },
    ),
    ungated("fig2", "Figure 2: OAR, failure-free", NO_SIZE, |_| {
        vec![figures::figure_2(SEED).row()]
    }),
    ungated(
        "fig3",
        "Figure 3: OAR, sequencer crash without Opt-undeliver",
        NO_SIZE,
        |_| vec![figures::figure_3(SEED).row()],
    ),
    ungated(
        "fig4",
        "Figure 4: OAR, crash + minority partition with Opt-undeliver",
        NO_SIZE,
        |_| vec![figures::figure_4(SEED).row()],
    ),
    ungated(
        "latency",
        "T-LAT: failure-free latency vs group size (3, 5, 7, 9 replicas)",
        Params(&[("per_client", 100)]),
        |p| x::latency_experiment(&[3, 5, 7, 9], size(p, "per_client"), SEED),
    ),
    ungated(
        "failover",
        "T-FAILOVER: recovery time after a sequencer crash vs failure-detector timeout",
        NO_SIZE,
        |_| x::failover_experiment(&[3, 5], &[10, 25, 50, 100], SEED),
    ),
    ungated(
        "undo",
        "T-UNDO: Opt-undeliver frequency under failures",
        NO_SIZE,
        |_| x::undo_experiment(SEED),
    ),
    ungated(
        "throughput",
        "T-THROUGHPUT: closed-loop throughput vs client count (1, 2, 4, 8 clients)",
        Params(&[("servers", 3), ("per_client", 50)]),
        |p| {
            x::throughput_experiment(
                size(p, "servers"),
                &[1, 2, 4, 8],
                size(p, "per_client"),
                SEED,
            )
        },
    ),
    ungated(
        "gc",
        "T-GC: §5.3 epoch-cut ablation (never, every 100, every 10 deliveries)",
        Params(&[("per_client", 60)]),
        |p| x::gc_experiment(&[None, Some(100), Some(10)], size(p, "per_client"), SEED),
    ),
    Experiment {
        name: "soak",
        title: "T-SOAK: batched + pipelined run across many epoch cuts",
        full: Params(&[("clients", 8), ("per_client", 640)]),
        smoke: Some(Params(&[("clients", 4), ("per_client", 200)])),
        run: |p| {
            vec![x::soak_experiment(
                size(p, "clients"),
                size(p, "per_client"),
                SEED,
            )]
        },
        bounds: x::SOAK_BOUNDS,
    },
    Experiment {
        name: "recovery",
        title: "T-RECOVER: crash + blank restart + snapshot/delta catch-up under load",
        full: Params(&[("clients", 8), ("per_client", 640)]),
        smoke: Some(Params(&[("clients", 4), ("per_client", 200)])),
        run: |p| {
            vec![x::recovery_experiment(
                size(p, "clients"),
                size(p, "per_client"),
                SEED,
            )]
        },
        bounds: x::RECOVERY_BOUNDS,
    },
    Experiment {
        name: "sharded",
        title: "T-SHARD: aggregate throughput over 1, 2, 4 groups at fixed per-group load",
        full: Params(&[("clients_per_group", 4), ("per_client", 100)]),
        smoke: Some(Params(&[("clients_per_group", 2), ("per_client", 40)])),
        run: |p| {
            let (clients, requests) = (size(p, "clients_per_group"), size(p, "per_client"));
            x::sharded_experiment(&[1, 2, 4], clients, requests, SEED)
        },
        bounds: x::SHARDED_BOUNDS,
    },
    Experiment {
        name: "txn",
        title: "T-TXN: multi-key transactions over 1, 2, 4 groups",
        full: Params(&[("clients", 4), ("per_client", 50)]),
        smoke: Some(Params(&[("clients", 2), ("per_client", 20)])),
        run: |p| x::txn_experiment(&[1, 2, 4], size(p, "clients"), size(p, "per_client"), SEED),
        bounds: x::TXN_BOUNDS,
    },
    Experiment {
        name: "adaptive",
        title: "T-ADAPTIVE: load-driven batching vs static settings at 1 and 8 clients \
                (wall_ms: min of the repeats), and per-group convergence under skew",
        full: Params(&[("per_client", 50), ("repeats", 5), ("skew_per_client", 40)]),
        smoke: Some(Params(&[
            ("per_client", 30),
            ("repeats", 3),
            ("skew_per_client", 24),
        ])),
        run: |p| {
            let mut rows =
                x::adaptive_experiment(&[1, 8], size(p, "per_client"), size(p, "repeats"), SEED);
            rows.push(x::adaptive_skew_experiment(
                4,
                size(p, "skew_per_client"),
                SEED,
            ));
            rows
        },
        bounds: x::ADAPTIVE_BOUNDS,
    },
    // The extra repeats of the smoke size keep the min-over-repeats
    // wall-clock robust on noisy shared runners (each repeat costs ~15 ms).
    Experiment {
        name: "parallel",
        title: "T-PARALLEL: conflict-graph apply scheduling (wall_ms: min of the repeats), \
                and a parallel deployment vs its serial twin",
        full: Params(&[
            ("commands", 96),
            ("block_us", 300),
            ("repeats", 5),
            ("clients", 4),
            ("per_client", 48),
        ]),
        smoke: Some(Params(&[
            ("commands", 48),
            ("block_us", 200),
            ("repeats", 6),
            ("clients", 2),
            ("per_client", 24),
        ])),
        run: |p| {
            let mut rows = x::parallel_apply_experiment(
                size(p, "commands"),
                x::PARALLEL_SPIN_ROUNDS,
                p.get("block_us"),
                size(p, "repeats"),
            );
            rows.push(x::parallel_cluster_experiment(
                size(p, "clients"),
                size(p, "per_client"),
                SEED,
            ));
            rows
        },
        bounds: x::PARALLEL_BOUNDS,
    },
    Experiment {
        name: "reconfig",
        title: "T-RECONFIG: replica replacement, key-range migration, divergence detection",
        full: Params(&[("per_client", 120), ("budget_s", 240)]),
        smoke: Some(Params(&[("per_client", 60), ("budget_s", 240)])),
        run: |p| x::reconfig_experiment(size(p, "per_client"), SEED),
        bounds: x::RECONFIG_BOUNDS,
    },
    Experiment {
        name: "mc",
        title: "T-MC: bounded model checking over simnet",
        full: Params(&[("state_cap", 2_000_000), ("budget_s", 1800)]),
        smoke: Some(Params(&[("state_cap", 200_000), ("budget_s", 240)])),
        run: |p| x::mc_experiment(p.get("state_cap")),
        bounds: x::MC_BOUNDS,
    },
];

/// The experiment `harness <arg>` asks for, and whether at its smoke size:
/// `<name>` (full size) or `<name>-smoke`.
pub fn find(arg: &str) -> Option<(&'static Experiment, bool)> {
    let (name, smoke) = match arg.strip_suffix("-smoke") {
        Some(name) => (name, true),
        None => (arg, false),
    };
    let experiment = EXPERIMENTS.iter().find(|e| e.name == name)?;
    (!smoke || experiment.smoke.is_some()).then_some((experiment, smoke))
}

/// What `harness` accepts, for the unknown-argument message.
pub fn usage() -> String {
    let names: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| match e.smoke {
            Some(_) => format!("{0} | {0}-smoke", e.name),
            None => e.name.to_string(),
        })
        .collect();
    format!("all | figures | gates | {}", names.join(" | "))
}

/// Runs `experiment` at its full or its smoke size: prints the heading, the
/// rows as tables and as `JSON <label> {...}` lines, then every violated
/// bound on stderr. Returns whether the gate passed.
///
/// # Panics
///
/// If `smoke` is asked of an experiment that has no smoke size.
pub fn run(experiment: &Experiment, smoke: bool) -> bool {
    let params = match (&experiment.smoke, smoke) {
        (_, false) => &experiment.full,
        (Some(smoke), true) => smoke,
        (None, true) => panic!("{} has no smoke size", experiment.name),
    };
    match params.0 {
        [] => println!("== {} ==", experiment.title),
        _ => println!("== {} ({params}) ==", experiment.title),
    }
    let start = std::time::Instant::now();
    let rows = (experiment.run)(params);
    print!("{}", render_tables(&rows));
    for row in &rows {
        println!("JSON {} {}", row.label, row.to_json());
    }
    let found = check(experiment.bounds, params, &rows);
    let mut violations: Vec<String> = found.into_iter().map(|v| v.message).collect();
    let elapsed = start.elapsed().as_secs_f64();
    let budget = params.find("budget_s");
    if let Some(budget) = budget.filter(|&budget| elapsed > budget as f64) {
        violations.push(format!(
            "wall-clock budget exceeded: {elapsed:.0}s > {budget}s"
        ));
    }
    for violation in &violations {
        eprintln!("{} VIOLATION: {violation}", experiment.name.to_uppercase());
    }
    violations.is_empty()
}

/// The gate table of `docs/BENCHMARKS.md`, as Markdown: one line per bound
/// of every experiment (one line for an ungated experiment).
pub fn gates_markdown() -> String {
    let mut out = String::from(
        "| experiment (`harness <name>`) | sizes: full; smoke (`harness <name>-smoke`, \
         run by `cargo test`) | rows | must hold | because |\n|---|---|---|---|---|\n",
    );
    for e in EXPERIMENTS {
        let sizes = match (&e.smoke, e.full.0) {
            (Some(smoke), _) => format!("{}; {smoke}", e.full),
            (None, []) => "fixed".to_string(),
            (None, _) => e.full.to_string(),
        };
        let mut head = format!("| `{}` — {} | {sizes} ", e.name, e.title);
        if e.bounds.is_empty() {
            out.push_str(&head);
            out.push_str(
                "| all | — | ungated: the rows are asserted by unit and integration tests |\n",
            );
        }
        for b in e.bounds {
            let _ = writeln!(
                out,
                "{head}| {} | `{}` {} {} | {} |",
                b.rows, b.metric, b.op, b.limit, b.why
            );
            head = "| | ".to_string();
        }
        if let Some(budget) = e.smoke.as_ref().and_then(|smoke| smoke.find("budget_s")) {
            let _ = writeln!(
                out,
                "| | | the run | wall clock ≤ budget_s ({budget} s at the smoke size) \
                 | a smoke run stays interactive |"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolve_to_their_sizes() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i]
                    .iter()
                    .all(|earlier| earlier.name != e.name),
                "{} is registered twice",
                e.name
            );
            assert!(!e.name.ends_with("-smoke") && !["all", "figures", "gates"].contains(&e.name));
            let (found, smoke) = find(e.name).expect("registered name resolves");
            assert!(found.name == e.name && !smoke);
        }
        let (soak, smoke) = find("soak-smoke").expect("smoke size resolves");
        assert_eq!((soak.name, smoke), ("soak", true));
        assert!(
            find("latency-smoke").is_none(),
            "an ungated experiment has no smoke size"
        );
        assert!(find("realtime").is_none() && find("soak-smok").is_none());
    }

    #[test]
    fn every_gated_experiment_has_a_smoke_size_and_only_those() {
        for e in EXPERIMENTS {
            assert_eq!(e.bounds.is_empty(), e.smoke.is_none(), "{}", e.name);
            if let Some(smoke) = &e.smoke {
                let names = |p: &Params| p.0.iter().map(|(n, _)| *n).collect::<Vec<_>>();
                assert_eq!(names(smoke), names(&e.full), "{}: same parameters", e.name);
            }
        }
    }

    #[test]
    fn usage_and_the_gate_table_name_every_experiment() {
        let (usage, gates) = (usage(), gates_markdown());
        for e in EXPERIMENTS {
            assert!(usage.contains(e.name), "usage lacks {}", e.name);
            assert!(
                gates.contains(&format!("| `{}` — ", e.name)),
                "gates lack {}",
                e.name
            );
        }
        assert!(usage.contains("mc | mc-smoke") && !usage.contains("latency-smoke"));
        let bounds: usize = EXPERIMENTS.iter().map(|e| e.bounds.len()).sum();
        let ungated = EXPERIMENTS.iter().filter(|e| e.bounds.is_empty()).count();
        // Header (2 lines), one line per bound or ungated experiment, one
        // per wall-clock budget (reconfig, mc).
        assert_eq!(gates.lines().count(), 2 + bounds + ungated + 2);
    }

    /// `docs/BENCHMARKS.md` carries the output of `harness gates` verbatim,
    /// so the documented gates cannot drift from the enforced ones.
    #[test]
    fn the_documented_gate_table_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/BENCHMARKS.md");
        let doc = std::fs::read_to_string(path).expect("docs/BENCHMARKS.md is readable");
        assert!(
            doc.contains(&gates_markdown()),
            "docs/BENCHMARKS.md is stale: paste the output of \
             `cargo run -p oar-bench --bin harness -- gates` under \
             \"Harness experiments and their gates\""
        );
    }

    /// Every `` `path:line` `symbol` ``, `` `symbol` (`path:line` ``,
    /// `` `symbol` words (`path:line` `` and `` `symbol` at `path:line` ``
    /// anchor in the docs (a bare `` `:line` `` continues the last path)
    /// names a symbol that occurs within two lines of the cited line, so
    /// code that moves cannot leave the docs pointing at something else.
    /// Fenced blocks are not scanned.
    #[test]
    fn every_doc_anchor_names_what_it_points_at() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let is_symbol = |s: &str| {
            s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let (mut checked, mut stale) = (0, Vec::new());
        for doc in [
            "docs/ARCHITECTURE.md",
            "docs/BENCHMARKS.md",
            "README.md",
            "crates/oar/README.md",
        ] {
            let text = std::fs::read_to_string(format!("{root}/{doc}")).expect("doc is readable");
            let mut fenced = false;
            let mut prose = String::new();
            for line in text.lines() {
                if line.trim_start().starts_with("```") {
                    fenced = !fenced;
                } else if !fenced {
                    prose.push_str(line);
                    prose.push('\n');
                }
            }
            // Code spans are the odd pieces between backticks.
            let pieces: Vec<&str> = prose.split('`').collect();
            let mut path = "";
            for i in (1..pieces.len().saturating_sub(2)).step_by(2) {
                let Some((file, line)) = pieces[i].rsplit_once(':') else {
                    continue;
                };
                let Ok(line) = line.parse::<usize>() else {
                    continue;
                };
                if !file.is_empty() && !file.contains('.') {
                    continue; // not a path (`3:1`, a ratio)
                }
                if !file.is_empty() {
                    path = file;
                }
                // The symbol right after the anchor; the one before it when
                // only `(` or `at` stands between them, or, if no symbol
                // follows the anchor, plain words and a `(`.
                let after = (pieces[i + 1].trim().is_empty() && is_symbol(pieces[i + 2]))
                    .then(|| pieces[i + 2]);
                let between = pieces[i - 1].trim();
                let words = between.strip_suffix('(').map(str::trim_end);
                let plain = |w: &str| w.chars().all(|c| c.is_alphabetic() || c.is_whitespace());
                let before = (i >= 2
                    && (["(", "at"].contains(&between)
                        || (after.is_none() && words.is_some_and(plain))))
                .then(|| pieces[i - 2]);
                for symbol in [after, before]
                    .into_iter()
                    .flatten()
                    .filter(|s| is_symbol(s))
                {
                    let name = symbol.rsplit("::").next().expect("split yields a piece");
                    let source =
                        std::fs::read_to_string(format!("{root}/{path}")).unwrap_or_default();
                    let lines: Vec<&str> = source.lines().collect();
                    let end = (line + 2).min(lines.len());
                    let near = &lines[line.saturating_sub(3).min(end)..end];
                    checked += 1;
                    if !near.iter().any(|l| l.contains(name)) {
                        stale.push(format!("{doc}: `{path}:{line}` `{symbol}`"));
                    }
                }
            }
        }
        assert!(checked > 0, "no symbol-tagged anchor found");
        assert!(
            stale.is_empty(),
            "doc anchors whose symbol is not within two lines of the cited line \
             (missing file, or the code moved):\n{}",
            stale.join("\n")
        );
    }
}
