//! Property tests (seeded cases over `asset::faults::Rng`) of the core
//! invariants:
//!
//! * log record encode/decode round-trips for arbitrary payloads;
//! * recovery produces the same state as the runtime did, for arbitrary
//!   interleavings of commit/abort decisions;
//! * saga traces always have the paper's `t1..tk ctk..ct1` shape;
//! * OpSet/ObSet algebra laws that the transitive-permit semantics rely on;
//! * contingent transactions commit exactly the first viable alternative;
//! * random transfer workloads conserve totals.

use asset::faults::{cases, Rng};
use asset::storage::log::{LogEntry, LogManager, LogRecord};
use asset::{Database, ObSet, Oid, OpSet, Operation, Tid, TxnCtx};
use std::collections::BTreeSet;

// --- log round-trip ---------------------------------------------------------

/// An id in `1..1000`.
fn arb_id(rng: &mut Rng) -> u64 {
    1 + rng.below(999)
}

/// `None`, or up to 255 random bytes.
fn arb_image(rng: &mut Rng) -> Option<Vec<u8>> {
    (rng.below(2) == 1).then(|| {
        let len = rng.below(256) as usize;
        rng.bytes(len)
    })
}

fn arb_record(rng: &mut Rng) -> LogRecord {
    match rng.below(6) {
        0 => LogRecord::Overwrite {
            tid: Tid(arb_id(rng)),
            oid: Oid(arb_id(rng)),
            after: arb_image(rng),
        },
        1 => LogRecord::Update {
            tid: Tid(arb_id(rng)),
            oid: Oid(arb_id(rng)),
            before: arb_image(rng),
            after: arb_image(rng),
        },
        2 => LogRecord::Commit {
            tids: (0..1 + rng.below(7)).map(|_| Tid(arb_id(rng))).collect(),
        },
        3 => LogRecord::Abort {
            tid: Tid(arb_id(rng)),
        },
        4 => LogRecord::Delegate {
            from: Tid(arb_id(rng)),
            to: Tid(arb_id(rng)),
            obs: (rng.below(2) == 1)
                .then(|| (0..rng.below(10)).map(|_| Oid(arb_id(rng))).collect()),
        },
        _ => LogRecord::Checkpoint,
    }
}

#[test]
fn log_record_roundtrip() {
    cases(0x0A55_E701, 64, |rng| {
        // a record is self-delimiting: it decodes the same whatever follows
        let rec = arb_record(rng);
        let mut bytes = rec.encode();
        let len = bytes.len();
        bytes.extend_from_slice(&arb_record(rng).encode());
        let Some((LogEntry::Record(back), next)) = LogEntry::decode(&bytes, 0).unwrap() else {
            panic!("a record");
        };
        assert_eq!(rec, back.to_owned());
        assert_eq!(next, len);
    });
}

#[test]
fn log_stream_roundtrip() {
    cases(0x0A55_E702, 64, |rng| {
        let recs: Vec<LogRecord> = (0..rng.below(20)).map(|_| arb_record(rng)).collect();
        let log = LogManager::in_memory();
        for r in &recs {
            log.append(r).unwrap();
        }
        let scanned: Vec<LogRecord> = log.scan().unwrap().into_iter().map(|(_, r)| r).collect();
        assert_eq!(recs, scanned);
    });
}

#[test]
fn torn_tail_never_errors() {
    cases(0x0A55_E703, 64, |rng| {
        // any proper prefix of a record decodes as "not whole", never Err
        let bytes = arb_record(rng).encode();
        let cut = rng.below(bytes.len() as u64) as usize;
        let r = LogEntry::decode(&bytes[..cut], 0).unwrap();
        assert!(r.is_none());
    });
}

// --- opset / obset algebra ----------------------------------------------------

#[test]
fn opset_intersection_is_conjunction() {
    cases(0x0A55_E704, 128, |rng| {
        let mk = |bits: u64| {
            let mut s = OpSet::NONE;
            if bits & 1 != 0 {
                s = s.insert(Operation::Read);
            }
            if bits & 2 != 0 {
                s = s.insert(Operation::Write);
            }
            s
        };
        let (sa, sb) = (mk(rng.below(4)), mk(rng.below(4)));
        for op in [Operation::Read, Operation::Write] {
            assert_eq!(
                sa.intersect(sb).contains(op),
                sa.contains(op) && sb.contains(op)
            );
            assert_eq!(
                sa.union(sb).contains(op),
                sa.contains(op) || sb.contains(op)
            );
        }
    });
}

#[test]
fn obset_intersection_is_conjunction() {
    cases(0x0A55_E705, 128, |rng| {
        let arb_set = |rng: &mut Rng| -> BTreeSet<u64> {
            (0..rng.below(20)).map(|_| 1 + rng.below(49)).collect()
        };
        let (a, b) = (arb_set(rng), arb_set(rng));
        let probe = 1 + rng.below(49);
        let sa = ObSet::Objects(a.iter().copied().map(Oid).collect());
        let sb = ObSet::Objects(b.iter().copied().map(Oid).collect());
        let both = sa.intersect(&sb);
        assert_eq!(
            both.contains(Oid(probe)),
            sa.contains(Oid(probe)) && sb.contains(Oid(probe))
        );
        // All is the identity of intersection
        assert_eq!(ObSet::All.intersect(&sa), sa.clone());
        assert_eq!(sa.intersect(&ObSet::All), sa);
    });
}

// --- runtime semantics ---------------------------------------------------------

/// These spin up real databases and threads — the case count stays modest.
const RUNTIME_CASES: u64 = 12;

/// For an arbitrary commit/abort decision vector over independent
/// transactions, the final state contains exactly the committed writes.
#[test]
fn commit_abort_decisions_apply_exactly() {
    cases(0x0A55_E706, RUNTIME_CASES, |rng| {
        let decisions: Vec<bool> = (0..1 + rng.below(11)).map(|_| rng.below(2) == 1).collect();
        let db = Database::in_memory();
        let mut expectations = vec![];
        for (i, commit) in decisions.iter().enumerate() {
            let oid = db.new_oid();
            let t = db
                .initiate(move |ctx: &TxnCtx| ctx.write(oid, vec![i as u8]))
                .unwrap();
            db.begin(t).unwrap();
            db.wait(t).unwrap();
            if *commit {
                assert!(db.commit(t).unwrap());
            } else {
                assert!(db.abort(t).unwrap());
            }
            expectations.push((oid, *commit, i as u8));
        }
        for (oid, committed, tag) in expectations {
            match db.peek(oid).unwrap() {
                Some(v) => {
                    assert!(committed);
                    assert_eq!(v, vec![tag]);
                }
                None => assert!(!committed),
            }
        }
    });
}

/// Saga traces always match t1..tk (ctk..ct1 on failure): committed
/// steps in order, then their compensations in exact reverse order.
#[test]
fn saga_trace_shape() {
    use asset::models::{Saga, SagaOutcome};
    cases(0x0A55_E707, RUNTIME_CASES, |rng| {
        let n_steps = 1 + rng.below(7) as usize;
        let fail_at = (rng.below(2) == 1)
            .then(|| rng.below(8) as usize)
            .filter(|f| *f < n_steps);
        let db = Database::in_memory();
        let mut saga = Saga::new();
        for i in 0..n_steps {
            let fails = fail_at == Some(i);
            saga = saga.step(
                format!("s{i}"),
                move |ctx: &TxnCtx| {
                    if fails {
                        ctx.abort_self::<()>().map(|_| ())
                    } else {
                        Ok(())
                    }
                },
                |_| Ok(()),
            );
        }
        let (outcome, trace) = saga.run(&db).unwrap();
        match fail_at {
            None => {
                assert_eq!(outcome, SagaOutcome::Committed);
                let expect: Vec<String> = (0..n_steps).map(|i| format!("s{i}")).collect();
                assert_eq!(trace.events, expect);
            }
            Some(k) => {
                assert_eq!(outcome, SagaOutcome::Compensated { failed_step: k });
                let mut expect: Vec<String> = (0..k).map(|i| format!("s{i}")).collect();
                expect.extend((0..k).rev().map(|i| format!("~s{i}")));
                assert_eq!(trace.events, expect);
            }
        }
    });
}

/// Contingent transactions commit exactly the first viable alternative.
#[test]
fn contingent_picks_first_viable() {
    use asset::models::run_contingent;
    cases(0x0A55_E708, RUNTIME_CASES, |rng| {
        let viability: Vec<bool> = (0..1 + rng.below(7)).map(|_| rng.below(2) == 1).collect();
        let db = Database::in_memory();
        let alternatives = viability
            .iter()
            .map(|&ok| {
                Box::new(move |ctx: &TxnCtx| {
                    if ok {
                        Ok(())
                    } else {
                        ctx.abort_self::<()>().map(|_| ())
                    }
                }) as Box<dyn FnOnce(&TxnCtx) -> asset::Result<()> + Send>
            })
            .collect();
        let chosen = run_contingent(&db, alternatives).unwrap();
        assert_eq!(chosen, viability.iter().position(|&v| v));
    });
}

/// Sequential random transfers conserve the total.
#[test]
fn transfers_conserve_total() {
    cases(0x0A55_E709, RUNTIME_CASES, |rng| {
        let moves: Vec<(usize, usize, i64)> = (0..rng.below(25))
            .map(|_| {
                (
                    rng.below(4) as usize,
                    rng.below(4) as usize,
                    rng.below(100) as i64,
                )
            })
            .collect();
        let db = Database::in_memory();
        let accounts: Vec<Oid> = (0..4).map(|_| db.new_oid()).collect();
        let a2 = accounts.clone();
        assert!(db
            .run(move |ctx| {
                for oid in &a2 {
                    ctx.write(*oid, 500i64.to_le_bytes().to_vec())?;
                }
                Ok(())
            })
            .unwrap());
        for (from, to, amount) in moves {
            let (f, t) = (accounts[from], accounts[to]);
            if f == t {
                continue;
            }
            let _ = db
                .run(move |ctx| {
                    let vf = i64::from_le_bytes(ctx.read(f)?.unwrap().try_into().unwrap());
                    if vf < amount {
                        return ctx.abort_self();
                    }
                    ctx.write(f, (vf - amount).to_le_bytes().to_vec())?;
                    let vt = i64::from_le_bytes(ctx.read(t)?.unwrap().try_into().unwrap());
                    ctx.write(t, (vt + amount).to_le_bytes().to_vec())
                })
                .unwrap();
        }
        let total: i64 = accounts
            .iter()
            .map(|o| i64::from_le_bytes(db.peek(*o).unwrap().unwrap().try_into().unwrap()))
            .sum();
        assert_eq!(total, 2_000);
    });
}
