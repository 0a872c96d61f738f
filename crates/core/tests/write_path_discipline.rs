//! Regression guard for the data-write path (DESIGN.md §6, "one visit per
//! structure"): a write takes its lock, then `Database::install` latches,
//! logs and installs, then visits the transaction table once. The
//! discipline is structural, so the guard is too — it scans the sources
//! it was built from (`include_str!`) and asserts:
//!
//! 1. `TxnCtx::lock` and `StepCtx::try_acquire` make no status probe: an
//!    abort poisons the victim's lock requests, which the lock table
//!    refuses.
//! 2. `Database::install` visits the transaction table once, and that
//!    visit lists a new LRD, pushes the undo entry and checks the status;
//!    the entry's sequence is what `write_object` returns, not a counter
//!    of its own.
//! 3. `ObjectCache::entry` takes its shard once on every path — a hit, or
//!    a miss filled in the visit that found it — and calls nothing on the
//!    store.
//!
//! And for the TD as the one per-transaction record (§6): `initiate`
//! takes no global mutex, the executor keeps no tid-keyed table, and the
//! dependency graph keeps no fates.

const CONTEXT_SRC: &str = include_str!("../src/context.rs");
const EXEC_SRC: &str = include_str!("../src/exec.rs");
const DATABASE_SRC: &str = include_str!("../src/database.rs");
const CACHE_SRC: &str = include_str!("../../storage/src/cache.rs");
const GRAPH_SRC: &str = include_str!("../../dep/src/graph.rs");

/// The body of the item that starts with `header`, up to the next item at
/// the same (4-space) indentation.
fn fn_body<'a>(src: &'a str, header: &str) -> &'a str {
    let start = src
        .find(header)
        .unwrap_or_else(|| panic!("{header} not found"));
    let rest = &src[start + header.len()..];
    let end = [
        "\n    pub fn ",
        "\n    pub(crate) fn ",
        "\n    fn ",
        "\n    /// ",
        "\n}",
    ]
    .iter()
    .filter_map(|pat| rest.find(pat))
    .min()
    .unwrap_or(rest.len());
    &rest[..end]
}

#[test]
fn taking_a_data_lock_makes_no_status_probe() {
    for (what, body) in [
        ("TxnCtx::lock", fn_body(CONTEXT_SRC, "fn lock(")),
        ("StepCtx::try_acquire", fn_body(EXEC_SRC, "fn try_acquire(")),
    ] {
        for probe in ["check_live", "status(", "txns."] {
            assert!(!body.contains(probe), "{what} probes the TD: `{probe}`");
        }
        assert!(body.contains("locks"), "{what} takes its lock");
    }
    assert!(
        !DATABASE_SRC.contains("fn check_live("),
        "the pre-lock probe stays gone"
    );
}

#[test]
fn install_visits_the_transaction_table_once() {
    let body = fn_body(DATABASE_SRC, "pub(crate) fn install(");
    assert_eq!(body.matches("txns.").count(), 1, "one TD visit: {body}");
    let visit = &body[body.find("txns.with(").expect("the visit")..];
    assert!(
        visit.contains("undo.push(") && visit.contains("locks.push(ob)"),
        "the visit pushes the undo entry and lists a new LRD"
    );
    assert!(visit.contains("slot.status"), "the visit checks the status");
    let write = body.find("write_object(").expect("install writes");
    assert!(write < body.find("txns.with(").unwrap(), "log, then the TD");
    for counter in ["undo_seq", "fetch_add"] {
        assert!(
            !body.contains(counter),
            "the undo sequence is the record's place in the log, not `{counter}`"
        );
    }
}

#[test]
fn any_miss_is_filled_in_one_cache_shard_visit() {
    let body = fn_body(CACHE_SRC, "pub fn entry(");
    assert_eq!(
        body.matches(".lock()").count(),
        1,
        "a hit or a miss: one shard visit: {body}"
    );
    assert!(
        body.contains("Entry::Vacant(v)") && body.contains("v.insert("),
        "the visit that finds a miss fills it"
    );
    assert!(!body.contains("store"), "no store call: {body}");
}

#[test]
fn the_td_is_the_one_per_transaction_record() {
    let initiate = fn_body(DATABASE_SRC, "pub(crate) fn initiate_with_parent(");
    assert!(
        !initiate.contains("deps"),
        "initiate takes the graph's mutex"
    );
    assert!(
        !EXEC_SRC.contains("IdMap<Tid"),
        "the executor finds a task through its TD, not a table of its own"
    );
    let graph = &GRAPH_SRC[GRAPH_SRC.find("pub struct DepGraph {").unwrap()..];
    for map in graph[..graph.find("\n}").unwrap()].lines() {
        let edges = ["GateEdge", "IdSet<Tid>"].iter().any(|e| map.contains(e));
        assert!(!map.contains("IdMap<Tid,") || edges, "a fate map: {map}");
    }
}
