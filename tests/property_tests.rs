//! Property-based tests (proptest) over the core invariants:
//!
//! * log record encode/decode round-trips for arbitrary payloads;
//! * recovery produces the same state as the runtime did, for arbitrary
//!   interleavings of commit/abort decisions;
//! * saga traces always have the paper's `t1..tk ctk..ct1` shape;
//! * OpSet/ObSet algebra laws that the transitive-permit semantics rely on;
//! * contingent transactions commit exactly the first viable alternative;
//! * random transfer workloads conserve totals.

use asset::storage::{LogManager, LogRecord};
use asset::{Database, ObSet, Oid, OpSet, Operation, Tid, TxnCtx};
use proptest::prelude::*;

// --- log round-trip ---------------------------------------------------------

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..256)
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (1u64..1000, 1u64..1000, proptest::option::of(arb_bytes())).prop_map(|(t, o, after)| {
            LogRecord::Overwrite {
                tid: Tid(t),
                oid: Oid(o),
                after,
            }
        }),
        (
            1u64..1000,
            1u64..1000,
            proptest::option::of(arb_bytes()),
            proptest::option::of(arb_bytes())
        )
            .prop_map(|(t, o, before, after)| LogRecord::Update {
                tid: Tid(t),
                oid: Oid(o),
                before,
                after
            }),
        proptest::collection::vec(1u64..1000, 1..8).prop_map(|ts| LogRecord::Commit {
            tids: ts.into_iter().map(Tid).collect()
        }),
        (1u64..1000).prop_map(|t| LogRecord::Abort { tid: Tid(t) }),
        (
            1u64..1000,
            1u64..1000,
            proptest::option::of(proptest::collection::vec(1u64..1000, 0..10))
        )
            .prop_map(|(f, t, obs)| LogRecord::Delegate {
                from: Tid(f),
                to: Tid(t),
                obs: obs.map(|v| v.into_iter().map(Oid).collect()),
            }),
        Just(LogRecord::Checkpoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn log_record_roundtrip(rec in arb_record()) {
        let body = rec.encode_body();
        let back = LogRecord::decode_body(&body).unwrap();
        prop_assert_eq!(&rec, &back);
        let frame = rec.encode_frame();
        let (back2, next) = LogRecord::decode_frame(&frame, 0).unwrap().unwrap();
        prop_assert_eq!(&rec, &back2);
        prop_assert_eq!(next, frame.len());
    }

    #[test]
    fn log_stream_roundtrip(recs in proptest::collection::vec(arb_record(), 0..20)) {
        let log = LogManager::in_memory();
        for r in &recs {
            log.append(r).unwrap();
        }
        let scanned: Vec<LogRecord> = log.scan().unwrap().into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(recs, scanned);
    }

    #[test]
    fn torn_tail_never_errors(rec in arb_record(), cut_fraction in 0.0f64..1.0) {
        // any prefix of a single frame decodes as clean EOF, never Err
        let frame = rec.encode_frame();
        let cut = ((frame.len() as f64) * cut_fraction) as usize;
        if cut < frame.len() {
            let r = LogRecord::decode_frame(&frame[..cut], 0).unwrap();
            prop_assert!(r.is_none());
        }
    }
}

// --- opset / obset algebra ----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn opset_intersection_is_conjunction(a in 0u8..4, b in 0u8..4) {
        let mk = |bits: u8| {
            let mut s = OpSet::NONE;
            if bits & 1 != 0 { s = s.insert(Operation::Read); }
            if bits & 2 != 0 { s = s.insert(Operation::Write); }
            s
        };
        let (sa, sb) = (mk(a), mk(b));
        for op in [Operation::Read, Operation::Write] {
            prop_assert_eq!(
                sa.intersect(sb).contains(op),
                sa.contains(op) && sb.contains(op)
            );
            prop_assert_eq!(
                sa.union(sb).contains(op),
                sa.contains(op) || sb.contains(op)
            );
        }
    }

    #[test]
    fn obset_intersection_is_conjunction(
        a in proptest::collection::btree_set(1u64..50, 0..20),
        b in proptest::collection::btree_set(1u64..50, 0..20),
        probe in 1u64..50,
    ) {
        let sa = ObSet::Objects(a.iter().copied().map(Oid).collect());
        let sb = ObSet::Objects(b.iter().copied().map(Oid).collect());
        let both = sa.intersect(&sb);
        prop_assert_eq!(
            both.contains(Oid(probe)),
            sa.contains(Oid(probe)) && sb.contains(Oid(probe))
        );
        // All is the identity of intersection
        prop_assert_eq!(ObSet::All.intersect(&sa), sa.clone());
        prop_assert_eq!(sa.intersect(&ObSet::All), sa);
    }
}

// --- runtime semantics ---------------------------------------------------------

proptest! {
    // these spin up real databases and threads — keep the case count modest
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For an arbitrary commit/abort decision vector over independent
    /// transactions, the final state contains exactly the committed writes.
    #[test]
    fn commit_abort_decisions_apply_exactly(decisions in proptest::collection::vec(any::<bool>(), 1..12)) {
        let db = Database::in_memory();
        let mut expectations = vec![];
        for (i, commit) in decisions.iter().enumerate() {
            let oid = db.new_oid();
            let t = db.initiate(move |ctx: &TxnCtx| ctx.write(oid, vec![i as u8])).unwrap();
            db.begin(t).unwrap();
            db.wait(t).unwrap();
            if *commit {
                prop_assert!(db.commit(t).unwrap());
            } else {
                prop_assert!(db.abort(t).unwrap());
            }
            expectations.push((oid, *commit, i as u8));
        }
        for (oid, committed, tag) in expectations {
            match db.peek(oid).unwrap() {
                Some(v) => {
                    prop_assert!(committed);
                    prop_assert_eq!(v, vec![tag]);
                }
                None => prop_assert!(!committed),
            }
        }
    }

    /// Saga traces always match t1..tk (ctk..ct1 on failure): committed
    /// steps in order, then their compensations in exact reverse order.
    #[test]
    fn saga_trace_shape(n_steps in 1usize..8, fail_at in proptest::option::of(0usize..8)) {
        use asset::models::{Saga, SagaOutcome};
        let fail_at = fail_at.filter(|f| *f < n_steps);
        let db = Database::in_memory();
        let mut saga = Saga::new();
        for i in 0..n_steps {
            let fails = fail_at == Some(i);
            saga = saga.step(
                format!("s{i}"),
                move |ctx: &TxnCtx| {
                    if fails { ctx.abort_self::<()>().map(|_| ()) } else { Ok(()) }
                },
                |_| Ok(()),
            );
        }
        let (outcome, trace) = saga.run(&db).unwrap();
        match fail_at {
            None => {
                prop_assert_eq!(outcome, SagaOutcome::Committed);
                let expect: Vec<String> = (0..n_steps).map(|i| format!("s{i}")).collect();
                prop_assert_eq!(trace.events, expect);
            }
            Some(k) => {
                prop_assert_eq!(outcome, SagaOutcome::Compensated { failed_step: k });
                let mut expect: Vec<String> = (0..k).map(|i| format!("s{i}")).collect();
                expect.extend((0..k).rev().map(|i| format!("~s{i}")));
                prop_assert_eq!(trace.events, expect);
            }
        }
    }

    /// Contingent transactions commit exactly the first viable alternative.
    #[test]
    fn contingent_picks_first_viable(viability in proptest::collection::vec(any::<bool>(), 1..8)) {
        use asset::models::run_contingent;
        let db = Database::in_memory();
        let alternatives = viability
            .iter()
            .map(|&ok| {
                Box::new(move |ctx: &TxnCtx| {
                    if ok { Ok(()) } else { ctx.abort_self::<()>().map(|_| ()) }
                }) as Box<dyn FnOnce(&TxnCtx) -> asset::Result<()> + Send>
            })
            .collect();
        let chosen = run_contingent(&db, alternatives).unwrap();
        prop_assert_eq!(chosen, viability.iter().position(|&v| v));
    }

    /// Sequential random transfers conserve the total.
    #[test]
    fn transfers_conserve_total(
        moves in proptest::collection::vec((0usize..4, 0usize..4, 0i64..100), 0..25)
    ) {
        let db = Database::in_memory();
        let accounts: Vec<Oid> = (0..4).map(|_| db.new_oid()).collect();
        let a2 = accounts.clone();
        assert!(db.run(move |ctx| {
            for oid in &a2 {
                ctx.write(*oid, 500i64.to_le_bytes().to_vec())?;
            }
            Ok(())
        }).unwrap());
        for (from, to, amount) in moves {
            let (f, t) = (accounts[from], accounts[to]);
            if f == t { continue; }
            let _ = db.run(move |ctx| {
                let vf = i64::from_le_bytes(ctx.read(f)?.unwrap().try_into().unwrap());
                if vf < amount {
                    return ctx.abort_self();
                }
                ctx.write(f, (vf - amount).to_le_bytes().to_vec())?;
                let vt = i64::from_le_bytes(ctx.read(t)?.unwrap().try_into().unwrap());
                ctx.write(t, (vt + amount).to_le_bytes().to_vec())
            }).unwrap();
        }
        let total: i64 = accounts
            .iter()
            .map(|o| i64::from_le_bytes(db.peek(*o).unwrap().unwrap().try_into().unwrap()))
            .sum();
        prop_assert_eq!(total, 2_000);
    }
}
