//! The experiment suite (see `EXPERIMENTS.md` at the repo root): the
//! questions no `(workload, sheet row)` pair of `asset-benchmark` answers —
//! a comparison of two designs (E2, E3, E4, E6, E7, E11, E12), a sweep over
//! a parameter the benchmark's workloads fix (E9b, E16) or a fault/outage
//! cell (E8, E13, E17).
//!
//! Each experiment is a function returning a [`Table`]; the
//! `experiments` binary prints them all. A [`Scale`] knob shrinks the
//! workloads so the whole suite can run as a smoke test in debug builds.

mod ablations;
mod concurrency;
mod coord_exp;
mod crashes;
mod ledger_exp;
mod models_exp;
mod stripes;

pub use ablations::e12_ablations;
pub use concurrency::{e2_permits_vs_2pl, e6_cursor_stability, e7_split_early_release};
pub use coord_exp::e17_coord;
pub use crashes::e13_crash_matrix;
pub use ledger_exp::e16_ledger;
pub use models_exp::{e11_contingent, e3_nested, e4_sagas, e8_workflow};
pub use stripes::{e9b_stripe_contention, e9b_stripe_contention_traced};

use crate::Table;

/// Workload scale for the suite.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Multiplier on iteration counts (1.0 = harness defaults).
    pub factor: f64,
}

impl Scale {
    /// Full harness scale.
    pub fn full() -> Scale {
        Scale { factor: 1.0 }
    }

    /// Smoke-test scale (used by `cargo test` over this crate).
    pub fn quick() -> Scale {
        Scale { factor: 0.05 }
    }

    /// Scale an iteration count, keeping a floor so nothing degenerates.
    pub fn n(&self, base: usize) -> usize {
        ((base as f64 * self.factor) as usize).max(2)
    }
}

/// (p50, p95, p99) of a latency sample, nearest-rank; zeros when empty.
fn percentiles(mut ns: Vec<u64>) -> (f64, f64, f64) {
    ns.sort_unstable();
    let pct = |p: f64| -> f64 {
        if ns.is_empty() {
            0.0
        } else {
            ns[((ns.len() - 1) as f64 * p) as usize] as f64
        }
    };
    (pct(0.50), pct(0.95), pct(0.99))
}

/// An experiment: its command-line name and its function.
pub type Experiment = (&'static str, fn(Scale) -> Table);

/// Every experiment, in the order the suite runs them.
pub const ALL: &[Experiment] = &[
    ("e2", e2_permits_vs_2pl),
    ("e3", e3_nested),
    ("e4", e4_sagas),
    ("e6", e6_cursor_stability),
    ("e7", e7_split_early_release),
    ("e8", e8_workflow),
    ("e9b", e9b_stripe_contention),
    ("e11", e11_contingent),
    ("e12", e12_ablations),
    ("e13", e13_crash_matrix),
    ("e16", e16_ledger),
    ("e17", e17_coord),
];

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke test: every experiment runs end to end at quick scale and
    // produces a non-empty table. The name list is exact, so a resurrected
    // or silently dropped experiment fails here. (Shapes are asserted where
    // they are deterministic; timing magnitudes are not.)
    #[test]
    fn all_experiments_produce_tables() {
        let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            ["e2", "e3", "e4", "e6", "e7", "e8", "e9b", "e11", "e12", "e13", "e16", "e17"]
        );
        for (name, run) in ALL {
            let t = run(Scale::quick());
            assert!(!t.headers.is_empty(), "{name}: {} has headers", t.title);
            assert!(!t.rows.is_empty(), "{name}: {} has rows", t.title);
            // renders without panicking
            let _ = t.to_string();
        }
    }
}
