//! `compare <a.json> <b.json>`: one row per (workload, metric) with
//! both sides' medians and quartiles, the bound from `BENCHMARK.json`,
//! and a verdict. Exit code 1 on any regression, on more failures or on
//! a count that does not repeat.

use crate::common::{ctx, ratio, R};
use crate::json::{self, Json};
use crate::spec::{Better, Declaration, MetricDecl, RESULT_SCHEMA};
use crate::stats;
use std::collections::BTreeMap;

/// What `compare` concludes about one (workload, end-to-end metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound and by more than `a`'s own
    /// interquartile range, quartile ranges apart, and `b` ahead in at
    /// least nine tenths of at least [`MIN_PAIRS`] rep pairs.
    Improved,
    /// Both spreads and the difference of the medians within the bound.
    Unchanged,
    /// The runs cannot tell: a spread wider than the bound, or a
    /// difference beyond the bound that the pairs do not carry.
    Unresolved,
    /// Worse by more than the bound, quartile ranges apart.
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Fewest rep pairs a gain can rest on (guide `choosing-metrics` §8).
pub const MIN_PAIRS: usize = 10;

/// Judge `b` against `a` for a metric that improves in direction
/// `better` and may worsen by `bound` (a share of `a`'s median). Rep
/// `i` of `a` is paired with rep `i` of `b`: take the two sides
/// alternately (`run --vs`), or the pairs mean nothing.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    // runs that spread by more than the bound cannot resolve it: that is
    // neither "unchanged" nor a gain nor a loss
    if stats::spread(a) > bound || stats::spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (a1, am, a3) = stats::quartiles(a);
    let (b1, bm, b3) = stats::quartiles(b);
    // positive = b is worse
    let worse_by = match better {
        Better::Lower => ratio(bm - am, am.abs()),
        Better::Higher => ratio(am - bm, am.abs()),
    };
    let apart = match (better, worse_by > 0.0) {
        (Better::Lower, true) | (Better::Higher, false) => b1 > a3,
        (Better::Lower, false) | (Better::Higher, true) => b3 < a1,
    };
    // ties count for neither side
    let (mut b_wins, mut a_wins) = (0, 0);
    for (x, y) in a.iter().zip(b) {
        let b_better = match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        };
        b_wins += usize::from(b_better);
        a_wins += usize::from(!b_better && x != y);
    }
    let carried = a.len().min(b.len()) >= MIN_PAIRS
        && 10 * b_wins >= 9 * (b_wins + a_wins)
        && (bm - am).abs() > a3 - a1;
    if worse_by > bound && apart {
        Verdict::Regressed
    } else if -worse_by > bound && apart && carried {
        Verdict::Improved
    } else if worse_by.abs() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// One side's runs: which locks the build had, and per workload, per
/// pass (`trace` 0 / 1), the value of every metric in rep order.
struct Side {
    locks: String,
    values: BTreeMap<(String, bool, String), Vec<f64>>,
}

/// Load a result file written by `run --out`.
fn load(path: &str) -> R<Side> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::str) != Some(RESULT_SCHEMA) {
        return Err(format!("{path}: not an {RESULT_SCHEMA} result file"));
    }
    let mut side = Side {
        locks: doc
            .get("locks")
            .and_then(Json::str)
            .ok_or_else(|| format!("{path}: no `locks` label"))?
            .to_string(),
        values: BTreeMap::new(),
    };
    for run in doc.get("runs").map(Json::items).unwrap_or_default() {
        let workload = run
            .get("workload")
            .and_then(Json::str)
            .ok_or_else(|| format!("{path}: run without a workload"))?;
        let traced = run.get("trace").and_then(Json::num) == Some(1.0);
        for (name, v) in run.get("metrics").map(Json::members).unwrap_or_default() {
            if let Some(v) = v.num() {
                side.values
                    .entry((workload.to_string(), traced, name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(side)
}

impl Side {
    /// A metric's values: from the untraced pass where it is measured
    /// there (every end-to-end metric, the counter ratios), else from
    /// the traced pass (spans, gated histograms, probes).
    fn get(&self, workload: &str, m: &MetricDecl) -> Option<&Vec<f64>> {
        let key = |traced| (workload.to_string(), traced, m.name.clone());
        self.values.get(&key(false)).or_else(|| {
            m.bound
                .is_none()
                .then(|| self.values.get(&key(true)))
                .flatten()
        })
    }

    /// Of `values` (one per untraced run of `workload`), those of runs
    /// in which no cleanly aborted attempt was retried.
    fn without_retries(&self, workload: &str, values: &[f64]) -> Vec<f64> {
        let key = (
            workload.to_string(),
            false,
            "bench.retries_per_ktxn".to_string(),
        );
        match self.values.get(&key) {
            Some(retries) if retries.len() == values.len() => values
                .iter()
                .zip(retries)
                .filter_map(|(v, r)| (*r == 0.0).then_some(*v))
                .collect(),
            _ => values.to_vec(),
        }
    }
}

/// Compare two result files; `Ok(true)` when nothing regressed, no
/// count differs and no more operations failed.
pub fn compare(decl: &Declaration, path_a: &str, path_b: &str) -> R<bool> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    if a.locks != b.locks {
        return Err(format!(
            "{path_a} was measured with {} locks, {path_b} with {}: \
             the two builds are different systems and are not compared",
            a.locks, b.locks
        ));
    }
    let mut clean = true;
    println!("# locks={}", a.locks);
    println!(
        "{:<14} {:<40} {:>12} {:>12} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "a.median", "a.iqr", "b.median", "b.iqr", "change", "bound"
    );
    for workload in &decl.workloads {
        for m in decl.end_to_end.iter().chain(&decl.per_layer) {
            let (Some(va), Some(vb)) = (a.get(workload, m), b.get(workload, m)) else {
                continue;
            };
            let ((a1, am, a3), (b1, bm, b3)) = (stats::quartiles(va), stats::quartiles(vb));
            let failures = m.name == "failed_frac";
            if m.bound.is_none() && am == 0.0 && bm == 0.0 && !failures {
                continue; // a layer this workload does not exercise
            }
            // A metric that is end-to-end by meaning but too noisy (or
            // too partial) for a declared bound is judged against the
            // noise side `a` itself shows, max(5 %, 2 x IQR / median) --
            // but never against more than 10 %: runs that spread wider
            // resolve nothing, and `judge` says so.
            let bound = m.bound.or_else(|| {
                crate::spec::END_TO_END_BY_MEANING
                    .contains(&m.name.as_str())
                    .then(|| (2.0 * stats::spread(va)).clamp(0.05, 0.10))
            });
            let verdict = if failures && am == 0.0 {
                // the usual run of `a` had no failure (a victim in one
                // run of five is usual, and leaves the median at 0): `b`
                // regressed if its usual run has one
                Some(if bm > 0.0 {
                    Verdict::Regressed
                } else {
                    Verdict::Unchanged
                })
            } else {
                bound.map(|bound| judge(va, vb, m.better, bound))
            };
            // a count must repeat exactly, run to run and side to side --
            // among the runs that retried no victim: an aborted attempt's
            // requests are real, and belong to no committed transaction
            let exact = crate::spec::EXACT_COUNTS.contains(&m.name.as_str());
            let counts: Vec<f64> = [(&a, va), (&b, vb)]
                .into_iter()
                .flat_map(|(side, v)| side.without_retries(workload, v))
                .collect();
            let same = counts.windows(2).all(|w| w[0] == w[1]);
            clean &= verdict != Some(Verdict::Regressed) && (!exact || same);
            let label = match verdict {
                Some(v) => v.label(),
                None if !exact => "-",
                None if same => "same count",
                None => "COUNT DIFFERS",
            };
            println!(
                "{:<14} {:<40} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>+6.1}% {:>6}  {}",
                workload,
                m.name,
                am,
                a3 - a1,
                bm,
                b3 - b1,
                100.0 * ratio(bm - am, am.abs()),
                bound.map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                label,
            );
        }
    }
    println!(
        "# {}",
        if clean {
            "no regression"
        } else {
            "REGRESSED, MORE FAILURES OR A COUNT DIFFERS (see rows above)"
        }
    );
    Ok(clean)
}

/// Entry point of the subcommand.
pub fn main(args: &[String]) -> R<bool> {
    let [a, b] = args else {
        return Err("usage: asset-benchmark compare <a.json> <b.json>".into());
    };
    let decl = Declaration::embedded();
    compare(&decl, a, b).map_err(ctx("compare"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.9, 99.1, 100.0,
    ];

    fn shifted(by: f64) -> [f64; 10] {
        BASE.map(|x| x * by)
    }

    #[test]
    fn verdicts_follow_the_rule() {
        // lower is better, bound 5 %
        assert_eq!(
            judge(&BASE, &shifted(1.01), Better::Lower, 0.05),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&BASE, &shifted(1.20), Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&BASE, &shifted(0.80), Better::Lower, 0.05),
            Verdict::Improved
        );
        // higher is better: the same shifts read the other way round
        assert_eq!(
            judge(&BASE, &shifted(1.20), Better::Higher, 0.05),
            Verdict::Improved
        );
        assert_eq!(
            judge(&BASE, &shifted(0.80), Better::Higher, 0.05),
            Verdict::Regressed
        );
        // beyond the bound, each spread within it, but the quartile
        // ranges still touch: unresolved
        let a = [
            99.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 103.0, 103.0, 104.0,
        ];
        let b = [
            102.0, 102.5, 103.0, 106.0, 106.0, 106.0, 106.0, 106.5, 106.5, 107.0,
        ];
        assert!(stats::spread(&a) <= 0.05 && stats::spread(&b) <= 0.05);
        assert_eq!(judge(&a, &b, Better::Lower, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn a_gain_needs_ten_pairs_and_nine_wins_in_ten() {
        // five pairs, however clear, carry no gain ...
        assert_eq!(
            judge(&BASE[..5], &shifted(0.80)[..5], Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // ... but they do carry a loss
        assert_eq!(
            judge(&BASE[..5], &shifted(1.20)[..5], Better::Lower, 0.05),
            Verdict::Regressed
        );
        // ten pairs of which b loses two: medians and quartiles say
        // "better", the pairs do not
        let mut a = BASE;
        (a[0], a[1]) = (79.0, 79.5);
        assert!(stats::spread(&a) <= 0.10);
        assert_eq!(
            judge(&a, &shifted(0.80), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&BASE, &shifted(0.80), Better::Lower, 0.10),
            Verdict::Improved
        );
        // ties count for neither side: one tie and nine wins is a gain
        let mut b = shifted(0.80);
        b[0] = BASE[0];
        assert_eq!(judge(&BASE, &b, Better::Lower, 0.05), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_whatever_the_medians_say() {
        let noisy = [
            80.0, 120.0, 95.0, 105.0, 100.0, 85.0, 115.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // even a same-commit set taken on a slower host is not a loss,
        // and one taken on a faster host is not a gain
        let slower = noisy.map(|x| x * 2.0);
        assert_eq!(
            judge(&noisy, &slower, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&slower, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
    }

    fn result_file(dir: &std::path::Path, name: &str, locks: &str, runs: &[(f64, f64)]) -> String {
        let runs: Vec<Json> = runs
            .iter()
            .map(|(msgs, failed)| {
                Json::obj([
                    ("workload", Json::from("dist_commit")),
                    ("trace", Json::from(0u64)),
                    (
                        "metrics",
                        Json::obj([
                            ("coord.msgs_per_txn.twopc", Json::from(*msgs)),
                            ("failed_frac", Json::from(*failed)),
                            ("log_bytes_per_txn", Json::from(342.0)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("schema", Json::from(RESULT_SCHEMA)),
            ("locks", Json::from(locks)),
            ("runs", Json::Arr(runs)),
        ]);
        let path = dir.join(name);
        std::fs::write(&path, format!("{doc}\n")).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn a_differing_count_a_new_failure_and_mixed_builds_all_fail_the_comparison() {
        let mut dir = crate::env::RunDir::create("unit-test-compare").unwrap();
        let d = dir.fresh("files").unwrap();
        let decl = Declaration::embedded();
        let steady = [(6.0, 0.0); 3];
        let a = result_file(&d, "a.json", "std-shim", &steady);
        let same = result_file(&d, "same.json", "std-shim", &steady);
        assert_eq!(compare(&decl, &a, &same), Ok(true));
        let count = result_file(
            &d,
            "count.json",
            "std-shim",
            &[(6.0, 0.0), (6.0, 0.0), (7.0, 0.0)],
        );
        assert_eq!(compare(&decl, &a, &count), Ok(false), "a count differs");
        let fails = result_file(
            &d,
            "fails.json",
            "std-shim",
            &[(6.0, 0.002), (6.0, 0.001), (6.0, 0.0)],
        );
        assert_eq!(
            compare(&decl, &a, &fails),
            Ok(false),
            "failures where none were"
        );
        let other = result_file(&d, "other.json", "parking_lot", &steady);
        assert!(compare(&decl, &a, &other)
            .unwrap_err()
            .contains("not compared"));
        dir.finish(true);
    }
}
