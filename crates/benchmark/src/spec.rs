//! What the benchmark declares: the workloads, the metric sheet read
//! from the repository's `BENCHMARK.json` (compiled in, so the binary
//! and the declaration cannot drift), and the frozen load constants.

use crate::json::{self, Json};
use std::collections::BTreeMap;

/// The root `BENCHMARK.json`, embedded at build time.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Schema tag of result files written by `run --out`.
pub const RESULT_SCHEMA: &str = "asset-benchmark/v2";

/// Which locks the system under test was built with: the registry-less
/// build (`offline/Cargo.toml`) patches `parking_lot` to a stand-in over
/// `std::sync` and switches this feature on. Every result carries the
/// label, and `compare` refuses to set one build against the other.
pub const LOCKS: &str = if cfg!(feature = "std-shim-locks") {
    "std-shim"
} else {
    "parking_lot"
};

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1;

/// Accounts of the ledger workloads (1 000 with `--smoke`).
pub const ACCOUNTS: u64 = 100_000;
/// Accounts with `--smoke`.
pub const SMOKE_ACCOUNTS: u64 = 1_000;
/// Every account's opening balance; conservation is
/// `sum == accounts * INITIAL_BALANCE`.
pub const INITIAL_BALANCE: i64 = 1_000;
/// Size of `exec_hot`'s hot set.
pub const HOT_ACCOUNTS: u64 = 16;
/// Executor workers of the system under test (`nproc` of the
/// reference sandbox).
pub const EXEC_WORKERS: usize = 2;
/// Load-generating threads / client connections (at most `nproc`).
pub const DRIVERS: usize = 2;
/// Transactions `exec_*` keeps outstanding.
pub const OUTSTANDING: usize = 64;
/// Participant nodes (and acceptors) of `dist_commit`.
pub const DIST_NODES: usize = 3;
/// Travel worlds of `models_mix`.
pub const TRAVEL_WORLDS: usize = 1_024;
/// Clean aborts (deadlock victims) the driver retries per unit before
/// it counts the unit as failed.
pub const MAX_RETRIES: u32 = 64;

/// Warm-up, as a share of `--seconds` (3 s for a 20 s window).
pub const WARMUP_FRAC: f64 = 0.15;
/// Untraced reference slice that precedes the traced window, as a
/// share of `--seconds`; `obs.trace_overhead_frac` compares the two.
pub const REFERENCE_FRAC: f64 = 0.2;
/// Fewest set-ups per run; `setup_s` is the median of all of them.
pub const SETUP_BUILDS: usize = 5;
/// Set-ups are repeated until they have taken this long in all, seconds.
pub const SETUP_SPAN_S: f64 = 1.0;

/// `wire_open` arrival rates in txn/s: 25 / 50 / 75 % of the
/// `wire_closed` capacity measured on the reference sandbox, two
/// significant figures, frozen (calibration record in the README).
pub const OPEN_RATES: [f64; 3] = [580.0, 1_200.0, 1_700.0];
/// `wire_open` latency limit on p99 from the due time, µs: 5 × the p99
/// measured at the lowest rate, one significant figure, frozen.
pub const SLO_P99_US: f64 = 9_000.0;

/// Per-layer metrics that are counts made by the program or dictated
/// by the inputs: they must repeat exactly, and `compare` says so when
/// they do not.
pub const EXACT_COUNTS: [&str; 4] = [
    "coord.msgs_per_txn.twopc",
    "coord.msgs_per_txn.paxos",
    "server.requests_per_txn",
    "models.compensations_per_kactivity",
];

/// Per-layer entries that are end-to-end by meaning: a user sees them,
/// but they are defined on some workloads only, read 0 where all is
/// well, or spread by more than the 5 % a declared bound of 10 % allows
/// on the reference sandbox. `compare` judges them against a bound
/// derived from the baseline's own spread.
pub const END_TO_END_BY_MEANING: [&str; 10] = [
    "txn_per_s",
    "txn_latency_p50_us",
    "txn_latency_p99_us",
    "failed_frac",
    "peak_rss_mb",
    "lat_p99_us_rate_lo",
    "lat_p99_us_rate_mid",
    "lat_p99_us_rate_hi",
    "max_rate_in_slo",
    "recovery_ms_per_mb",
];

/// The six workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop wire transfers.
    WireClosed,
    /// Open-loop wire transfers at three frozen rates.
    WireOpen,
    /// In-process step programs over 100 000 accounts.
    ExecUniform,
    /// The same over a hot set of 16.
    ExecHot,
    /// The paper's extended-transaction models, blocking API, in memory.
    ModelsMix,
    /// 2PC / Paxos Commit over three on-disk nodes.
    DistCommit,
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 6] = [
        Workload::WireClosed,
        Workload::WireOpen,
        Workload::ExecUniform,
        Workload::ExecHot,
        Workload::ModelsMix,
        Workload::DistCommit,
    ];

    /// The name later issues refer to.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireClosed => "wire_closed",
            Workload::WireOpen => "wire_open",
            Workload::ExecUniform => "exec_uniform",
            Workload::ExecHot => "exec_hot",
            Workload::ModelsMix => "models_mix",
            Workload::DistCommit => "dist_commit",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    /// Name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Clone, Debug)]
pub struct Declaration {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (printed by an untraced run).
    pub end_to_end: Vec<MetricDecl>,
    /// Per-layer metrics (printed by a traced run).
    pub per_layer: Vec<MetricDecl>,
    /// `run_seconds`.
    pub run_seconds: f64,
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<MetricDecl>, String> {
    doc.get(key)
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::str)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry without `{k}`"))
            };
            Ok(MetricDecl {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                better: match field("better")? {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: m.get("bound").and_then(Json::num),
            })
        })
        .collect()
}

impl Declaration {
    /// Parse a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Declaration, String> {
        let doc = json::parse(text)?;
        Ok(Declaration {
            workloads: doc
                .get("workloads")
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::str).map(str::to_string))
                .collect(),
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
            run_seconds: doc.get("run_seconds").and_then(Json::num).unwrap_or(10.0),
        })
    }

    /// The declaration compiled into this binary.
    pub fn embedded() -> Declaration {
        Declaration::parse(BENCHMARK_JSON)
            .expect("the embedded BENCHMARK.json parses (a unit test checks it)")
    }

    /// Look a metric up in either list.
    pub fn find(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The values one pass measured, by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sheet(BTreeMap<String, f64>);

impl Sheet {
    /// Record `name = value` (last write wins).
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every `(name, value)`, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn declared_names_are_well_formed_and_unique() {
        let d = Declaration::embedded();
        let mut seen = BTreeSet::new();
        for n in d
            .workloads
            .iter()
            .chain(d.end_to_end.iter().map(|m| &m.name))
            .chain(d.per_layer.iter().map(|m| &m.name))
        {
            assert!(
                well_formed(n),
                "name {n:?} must match [A-Za-z0-9][A-Za-z0-9_.-]*"
            );
            assert!(seen.insert(n.clone()), "name {n:?} is declared twice");
        }
        assert!(
            !well_formed("") && !well_formed(".x") && !well_formed("a b") && !well_formed("µs")
        );
    }

    #[test]
    fn declaration_matches_the_code_and_the_contract() {
        let d = Declaration::embedded();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(d.workloads, names, "workloads of BENCHMARK.json vs spec.rs");
        assert!((2..=8).contains(&d.workloads.len()));
        assert!((1..=16).contains(&d.end_to_end.len()));
        assert!((1..=128).contains(&d.per_layer.len()));
        for m in &d.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let setup = d.find("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = d
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
