//! Gates as data: a [`Bound`] says *which rows · metric · op · limit · why*,
//! a table of them is written with the `bounds!` macro, and [`check`] is the one
//! function that evaluates any such table over the rows of a run.

use std::cmp::Ordering;
use std::fmt;

use crate::row::{by_key, Row};

/// The sizes an experiment runs at, by name (`clients=4 per_client=200`).
#[derive(Clone, Copy, Debug)]
pub struct Params(pub &'static [(&'static str, u64)]);

impl Params {
    /// The parameter called `name`, if the experiment has one.
    pub fn find(&self, name: &str) -> Option<u64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The parameter called `name`. Panics, naming it and the parameters
    /// there are, if it is missing.
    pub fn get(&self, name: &str) -> u64 {
        self.find(name)
            .unwrap_or_else(|| panic!("no parameter `{name}` among `{self}`"))
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sizes: Vec<String> = self.0.iter().map(|(n, v)| format!("{n}={v}")).collect();
        f.write_str(&sizes.join(" "))
    }
}

/// Which rows of a run a bound applies to. A selection that matches no row is
/// itself a violation: a gate must fail loudly, never pass vacuously, when a
/// sweep stops producing the rows it compares.
#[derive(Clone, Copy)]
pub enum Select {
    /// Every row of the family with this label.
    Each(&'static str),
    /// The one row with this key.
    Key(&'static str),
    /// The rows a predicate accepts; the text describes it in the gate table.
    Where(&'static str, fn(&Row) -> bool),
}

impl Select {
    /// Whether the selection includes `row`.
    pub fn matches(&self, row: &Row) -> bool {
        match self {
            Select::Each(label) => row.label == *label,
            Select::Key(key) => row.key == *key,
            Select::Where(_, accepts) => accepts(row),
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Select::Each(label) => write!(f, "every `{label}` row"),
            Select::Key(key) => write!(f, "`{key}`"),
            Select::Where(what, _) => f.write_str(what),
        }
    }
}

/// The comparison a bound demands between its metric and its limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `metric = limit`
    Eq,
    /// `metric ≠ limit`
    Ne,
    /// `metric ≤ limit`
    Le,
    /// `metric < limit`
    Lt,
    /// `metric ≥ limit`
    Ge,
    /// `metric > limit`
    Gt,
}

impl Op {
    /// Whether the bound holds when the metric compares to the limit as
    /// `ordering` (`None`: a NaN is involved, so only `≠` holds).
    fn holds(self, ordering: Option<Ordering>) -> bool {
        use Ordering::{Equal, Greater, Less};
        match self {
            Op::Eq => ordering == Some(Equal),
            Op::Ne => ordering != Some(Equal),
            Op::Le => matches!(ordering, Some(Less | Equal)),
            Op::Lt => ordering == Some(Less),
            Op::Ge => matches!(ordering, Some(Greater | Equal)),
            Op::Gt => ordering == Some(Greater),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Eq => "=",
            Op::Ne => "≠",
            Op::Le => "≤",
            Op::Lt => "<",
            Op::Ge => "≥",
            Op::Gt => ">",
        })
    }
}

/// What a limit function sees: the run's parameters, the row under test and
/// the whole row set.
pub struct Ctx<'a> {
    /// The sizes the experiment ran at.
    pub params: &'a Params,
    /// The row the bound is being evaluated on.
    pub row: &'a Row,
    /// Every row of the run.
    pub rows: &'a [Row],
}

impl Ctx<'_> {
    /// `metric` of the row with key `key` (`""`: the row under test). Panics
    /// if the run has no such row — the experiment that declares the bound
    /// also produces the rows, so that is a bug in it, not a measurement.
    pub fn other(&self, key: &str, metric: &str) -> f64 {
        match key {
            "" => self.row.num(metric),
            key => by_key(self.rows, key).num(metric),
        }
    }
}

/// The right-hand side of a bound.
#[derive(Clone, Copy)]
pub enum Limit {
    /// A constant.
    Const(f64),
    /// A label the metric's text is compared with (`=` / `≠` only).
    Text(&'static str),
    /// A function of the run's parameters (and, for a sweep, of the row's own
    /// coordinates); the text is its formula in the gate table.
    Of(&'static str, fn(&Ctx) -> f64),
    /// `factor × metric` of the row with the given key (`""`: the same row).
    Times(f64, &'static str, &'static str),
}

/// `Limit::Const(1.0)`: the numeric view of a verdict that holds.
pub const TRUE: Limit = Limit::Const(1.0);
/// `Limit::Const(0.0)`: a verdict that does not hold, or a count of nothing.
pub const ZERO: Limit = Limit::Const(0.0);

impl fmt::Display for Limit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Limit::Const(v) => write!(f, "{v}"),
            Limit::Text(text) => write!(f, "\"{text}\""),
            Limit::Of(formula, _) => f.write_str(formula),
            Limit::Times(factor, key, metric) => {
                if *factor != 1.0 {
                    write!(f, "{factor} × ")?;
                }
                match *key {
                    "" => write!(f, "its `{metric}`"),
                    key => write!(f, "`{key}`.`{metric}`"),
                }
            }
        }
    }
}

impl Limit {
    /// The number this limit evaluates to for `ctx.row` (NaN for a text).
    pub(crate) fn value(&self, ctx: &Ctx) -> f64 {
        match *self {
            Limit::Const(value) => value,
            Limit::Text(_) => f64::NAN,
            Limit::Of(_, of) => of(ctx),
            Limit::Times(factor, key, metric) => factor * ctx.other(key, metric),
        }
    }

    /// The metric of `ctx.row` as text, how it compares with this limit, and
    /// the limit as text (with the number a formula evaluated to).
    fn compare(&self, metric: &str, ctx: &Ctx) -> (String, Option<Ordering>, String) {
        if let Limit::Text(text) = *self {
            let measured = ctx.row.str(metric);
            let ordering = measured.partial_cmp(text);
            return (format!("\"{measured}\""), ordering, self.to_string());
        }
        let (measured, value) = (ctx.row.num(metric), self.value(ctx));
        let required = match self {
            Limit::Const(_) => self.to_string(),
            _ => format!("{value} = {self}"),
        };
        (measured.to_string(), measured.partial_cmp(&value), required)
    }
}

/// One gate: on every selected row, `metric op limit` must hold, because
/// `why`.
pub struct Bound {
    /// Which rows.
    pub rows: Select,
    /// The metric, in the syntax of [`Row::num`].
    pub metric: &'static str,
    /// The comparison.
    pub op: Op,
    /// What it is compared with.
    pub limit: Limit,
    /// What the bound defends.
    pub why: &'static str,
}

/// Writes a table of bounds, one `rows => "metric" op limit, "why";` per line.
macro_rules! bounds {
    ($($rows:expr => $metric:literal $op:tt $limit:expr, $why:literal;)*) => {
        &[$($crate::gate::Bound {
            rows: $rows,
            metric: $metric,
            op: $crate::gate::op!($op),
            limit: $limit,
            why: $why,
        }),*]
    };
}
macro_rules! op {
    (==) => {
        $crate::gate::Op::Eq
    };
    (!=) => {
        $crate::gate::Op::Ne
    };
    (<=) => {
        $crate::gate::Op::Le
    };
    (<) => {
        $crate::gate::Op::Lt
    };
    (>=) => {
        $crate::gate::Op::Ge
    };
    (>) => {
        $crate::gate::Op::Gt
    };
}
pub(crate) use {bounds, op};

/// A bound that does not hold on a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Index of the violated bound in its table.
    pub bound: usize,
    /// What was measured against what, and why it matters.
    pub message: String,
}

/// Evaluates `bounds` over the `rows` of a run made at `params`; returns
/// every violation found (empty = pass).
pub fn check(bounds: &[Bound], params: &Params, rows: &[Row]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (bound, b) in bounds.iter().enumerate() {
        let mut selected = rows.iter().filter(|row| b.rows.matches(row)).peekable();
        if selected.peek().is_none() {
            let message = format!(
                "the run has no row for {}, so `{}` was not evaluated — {}",
                b.rows, b.metric, b.why
            );
            violations.push(Violation { bound, message });
        }
        for row in selected {
            let ctx = Ctx { params, row, rows };
            let (measured, ordering, required) = b.limit.compare(b.metric, &ctx);
            if !b.op.holds(ordering) {
                let message = format!(
                    "{}: {} is {measured}, required {} {required} — {}",
                    row.key, b.metric, b.op, b.why
                );
                violations.push(Violation { bound, message });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use Select::{Each, Key, Where};

    fn rows() -> Vec<Row> {
        ["base", "fast"]
            .iter()
            .zip([100.0, 130.0])
            .map(|(key, rate)| {
                Row::new("demo", *key)
                    .with("rate", rate)
                    .with("kind", "ok")
                    .with("done", true)
            })
            .collect()
    }

    const PARAMS: Params = Params(&[("clients", 4)]);

    #[test]
    fn bounds_hold_or_report_the_row_the_values_and_the_reason() {
        let table: &[Bound] = bounds! {
            Each("demo") => "done" == TRUE, "runs finish";
            Key("fast") => "rate" >= Limit::Times(1.15, "base", "rate"), "fast pays off";
            Key("fast") => "rate" >= Limit::Times(1.5, "base", "rate"), "fast pays off a lot";
            Each("demo") => "kind" != Limit::Text("ok"), "kinds differ";
            Key("base") => "rate"
                < Limit::Of("25 × clients", |c| 25.0 * c.params.get("clients") as f64),
                "capped";
        };
        let found = check(table, &PARAMS, &rows());
        let bounds: Vec<usize> = found.iter().map(|v| v.bound).collect();
        assert_eq!(bounds, [2, 3, 3, 4]);
        assert_eq!(
            found[0].message,
            "fast: rate is 130, required ≥ 150 = 1.5 × `base`.`rate` — fast pays off a lot"
        );
        assert_eq!(
            found[1].message,
            "base: kind is \"ok\", required ≠ \"ok\" — kinds differ"
        );
        assert_eq!(
            found[3].message,
            "base: rate is 100, required < 100 = 25 × clients — capped"
        );
    }

    #[test]
    fn a_selection_without_rows_is_a_violation_not_a_pass() {
        let table: &[Bound] = bounds! {
            Key("slow") => "rate" > ZERO, "the sweep covers the slow variant";
            Where("rows over 1000/s", |r| r.num("rate") > 1000.0) => "done" == TRUE,
                "fast runs finish";
        };
        let found = check(table, &PARAMS, &rows());
        assert_eq!(found.len(), 2);
        assert!(found[0]
            .message
            .starts_with("the run has no row for `slow`"));
        assert!(found[1].message.contains("rows over 1000/s"));
    }

    #[test]
    fn a_nan_measurement_violates_every_ordering() {
        let row = Row::new("demo", "nan").with("rate", f64::NAN);
        let table: &[Bound] = bounds! {
            Key("nan") => "rate" <= Limit::Const(1.0), "bounded";
            Key("nan") => "rate" >= Limit::Const(1.0), "bounded";
        };
        assert_eq!(check(table, &PARAMS, &[row]).len(), 2);
    }

    #[test]
    #[should_panic(expected = "no parameter `servers` among `clients=4`")]
    fn a_misspelled_parameter_panics() {
        PARAMS.get("servers");
    }

    #[test]
    #[should_panic(expected = "no row `bsae` among [\"base\", \"fast\"]")]
    fn a_bound_on_a_row_the_run_lacks_panics() {
        let table: &[Bound] = bounds! {
            Key("fast") => "rate" >= Limit::Times(1.0, "bsae", "rate"), "typo";
        };
        check(table, &PARAMS, &rows());
    }
}
