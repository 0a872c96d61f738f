//! Acceptance tests for the `asset-trace` export layer: a
//! saga-with-compensation run (plus a delegation handoff and a CD link, so
//! the trace carries every causal-edge kind) exported to Chrome
//! trace-event JSON has one track per transaction and one flow-event pair
//! per delegation/dependency edge; and a live Prometheus scrape returns
//! the same counter totals as `metrics_snapshot()`.

use asset::models::{Saga, SagaOutcome};
use asset::obs::EventKind;
use asset::trace::{chrome, json, prom, CausalGraph};
use asset::{Database, DepType, ObSet, OpSet, Tid};
use std::collections::HashSet;

/// Drive a saga with a failing step (so compensation runs), then a
/// delegation + permit handoff, then a CD-linked pair — a §3 sampler that
/// exercises every edge kind the causal graph knows.
fn run_workload(db: &Database) {
    // saga: reserve → boom (aborts) → compensate
    let a = db.new_oid();
    let saga = Saga::new()
        .step(
            "reserve",
            move |ctx| ctx.write(a, b"held".to_vec()),
            move |ctx| ctx.delete(a),
        )
        .final_step("boom", |ctx| ctx.abort_self::<()>().map(|_| ()));
    let (outcome, _) = saga.run(db).unwrap();
    assert_eq!(outcome, SagaOutcome::Compensated { failed_step: 1 });

    // delegation + permit handoff (§2.1): t1 writes, permits and delegates
    // to t2; t1 commits empty, t2 aborts and owns the undo
    let o = db.new_oid();
    assert!(db.run(move |ctx| ctx.write(o, b"base".to_vec())).unwrap());
    let t1 = db
        .initiate(move |ctx| ctx.write(o, b"handoff".to_vec()))
        .unwrap();
    db.begin(t1).unwrap();
    assert!(db.wait(t1).unwrap());
    let t2 = db.initiate(|_| Ok(())).unwrap();
    db.permit(t1, Some(t2), ObSet::one(o), OpSet::ALL).unwrap();
    db.delegate(t1, t2, None).unwrap();
    assert!(db.commit(t1).unwrap());
    assert!(db.abort(t2).unwrap());

    // CD-linked pair (§3.2.1)
    let (x, y) = (db.new_oid(), db.new_oid());
    let ti = db
        .initiate(move |ctx| ctx.write(x, b"ti".to_vec()))
        .unwrap();
    let tj = db
        .initiate(move |ctx| ctx.write(y, b"tj".to_vec()))
        .unwrap();
    db.form_dependency(DepType::CD, ti, tj).unwrap();
    db.begin(ti).unwrap();
    db.begin(tj).unwrap();
    assert!(db.commit(ti).unwrap());
    assert!(db.commit(tj).unwrap());
}

#[test]
fn chrome_export_has_one_track_per_txn_and_one_flow_per_edge() {
    let db = Database::in_memory();
    db.obs().enable_tracing(16384);
    run_workload(&db);

    let trace = db.obs().trace();
    assert_eq!(db.metrics_snapshot().events_dropped, 0);
    let g = CausalGraph::from_events(&trace);

    // ground truth from the raw event stream
    let mut tids: HashSet<Tid> = HashSet::new();
    let mut delegations = 0usize;
    let mut deps = 0usize;
    for e in &trace {
        match e.kind {
            EventKind::TxnInitiate { tid, .. } | EventKind::TxnBegin { tid } => {
                tids.insert(tid);
            }
            EventKind::Delegate { from, to, .. } => {
                tids.insert(from);
                tids.insert(to);
                delegations += 1;
            }
            EventKind::DepFormed { ti, tj, .. } => {
                tids.insert(ti);
                tids.insert(tj);
                deps += 1;
            }
            _ => {}
        }
    }
    assert!(delegations >= 1, "workload delegates at least once");
    assert!(deps >= 1, "workload forms at least one dependency");
    assert_eq!(
        g.tracks.len(),
        tids.len(),
        "one causal track per transaction seen in the trace"
    );

    let doc = chrome::render(&g);
    let v = json::parse(&doc).expect("chrome export must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");

    // one named track per transaction (plus one storage lane if storage
    // activity was captured)
    let thread_names = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .count();
    let expected_lanes = g.tracks.len() + usize::from(!g.storage.is_empty());
    assert_eq!(thread_names, expected_lanes);

    // every causal edge (delegation, permit, dependency, group-commit)
    // shows as exactly one s/f flow pair, as does every commit landing on
    // a shared flush window
    let s_count = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s"))
        .count();
    let f_count = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f"))
        .count();
    // what a viewer needs before anything else: complete ("X") spans and
    // track metadata ("M"); that the flows pair up and are not zero
    // follows from the counts below
    let phases: HashSet<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
        .collect();
    assert!(phases.contains("X"), "no complete events");
    assert!(phases.contains("M"), "no track metadata");
    assert_eq!(s_count, g.edges.len() + g.flush_flows.len());
    assert_eq!(f_count, g.edges.len() + g.flush_flows.len());
    assert!(
        !g.flush_flows.is_empty(),
        "durable commits route through the group flusher, so their flows \
         must terminate on flush-window spans"
    );
    // and the delegation/dependency edges specifically are all present
    assert_eq!(g.edges_labeled("delegate").len(), delegations);
    let dep_edges = g.edges_labeled("dep-cd").len()
        + g.edges_labeled("dep-ad").len()
        + g.edges_labeled("dep-gc").len();
    assert_eq!(dep_edges, deps);
}

#[test]
fn prometheus_scrape_matches_metrics_snapshot() {
    let db = Database::in_memory();
    db.obs().enable_tracing(16384);
    run_workload(&db);

    let server = {
        let src = db.clone();
        prom::PromServer::spawn("127.0.0.1:0", move || {
            prom::render(&src.metrics_snapshot(), &src.locks().stripe_stats())
        })
        .unwrap()
    };

    // The workload is quiesced: a snapshot taken now and a scrape taken
    // now must agree on every counter total.
    let snap = db.metrics_snapshot();
    let body = prom::scrape(server.addr()).unwrap();
    snap.counters.for_each(|name, value| {
        let series = format!("asset_{name}_total");
        assert_eq!(
            prom::sample(&body, &series),
            Some(value as f64),
            "scrape and snapshot disagree on {series}"
        );
    });
    assert_eq!(
        prom::sample(&body, "asset_events_dropped_total"),
        Some(snap.events_dropped as f64)
    );
    assert_eq!(prom::sample(&body, "asset_tracing_enabled"), Some(1.0));
    // histogram totals round-trip too
    assert_eq!(
        prom::sample(&body, "asset_commit_ns_count"),
        Some(snap.commit_ns.count as f64),
        "commit latency observations serve over the endpoint"
    );
    assert!(snap.commit_ns.count > 0, "commits were timed under tracing");
}
