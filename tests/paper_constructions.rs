//! Integration tests: each §3 construction of the paper, end to end,
//! through the public facade crate.

use asset::models::workflow::travel::{run_x_conference, TravelWorld};
use asset::models::{
    join, required_subtransaction, run_atomic, run_contingent, run_distributed, run_nested, split,
    CoopSession, Coupling, Saga, SagaOutcome, WorkflowOutcome,
};
use asset::{Database, DepType, ObSet, OpSet, TxnCtx, TxnStatus};
use std::sync::Mutex;

#[test]
fn s311_atomic_transaction() {
    let db = Database::in_memory();
    let oid = db.new_oid();
    assert!(run_atomic(&db, move |ctx| ctx.write(oid, b"atomic".to_vec())).unwrap());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"atomic");
}

#[test]
fn s312_distributed_transaction() {
    let db = Database::in_memory();
    let oids: Vec<_> = (0..4).map(|_| db.new_oid()).collect();
    let components = oids
        .iter()
        .map(|&oid| {
            Box::new(move |ctx: &TxnCtx| ctx.write(oid, b"part".to_vec()))
                as Box<dyn FnOnce(&TxnCtx) -> asset::Result<()> + Send>
        })
        .collect();
    assert!(run_distributed(&db, components).unwrap());
    for oid in oids {
        assert_eq!(db.peek(oid).unwrap().unwrap(), b"part");
    }
}

#[test]
fn s313_contingent_transaction() {
    let db = Database::in_memory();
    let oid = db.new_oid();
    let chosen = run_contingent(
        &db,
        vec![
            Box::new(|ctx: &TxnCtx| ctx.abort_self::<()>().map(|_| ())),
            Box::new(move |ctx: &TxnCtx| ctx.write(oid, b"plan-b".to_vec())),
        ],
    )
    .unwrap();
    assert_eq!(chosen, Some(1));
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"plan-b");
}

#[test]
fn s314_nested_transaction_trip() {
    let db = Database::in_memory();
    let airline = db.new_oid();
    let hotel = db.new_oid();
    // success path
    let committed = run_nested(&db, move |ctx| {
        required_subtransaction(ctx, move |c| c.write(airline, b"DL-42".to_vec()))?;
        required_subtransaction(ctx, move |c| c.write(hotel, b"Equator".to_vec()))?;
        Ok(())
    })
    .unwrap();
    assert!(committed);
    assert_eq!(db.peek(airline).unwrap().unwrap(), b"DL-42");
    assert_eq!(db.peek(hotel).unwrap().unwrap(), b"Equator");
}

#[test]
fn s315_split_and_join() {
    let db = Database::in_memory();
    let released_early = db.new_oid();
    let held = db.new_oid();
    let committed = run_atomic(&db, move |ctx| {
        ctx.write(released_early, b"publish me now".to_vec())?;
        ctx.write(held, b"publish me at the end".to_vec())?;
        let s = split(ctx, ObSet::one(released_early), |_| Ok(()))?;
        ctx.commit(s)?; // the split's commit releases the early object
        Ok(())
    })
    .unwrap();
    assert!(committed);
    assert_eq!(db.peek(released_early).unwrap().unwrap(), b"publish me now");
    assert_eq!(db.peek(held).unwrap().unwrap(), b"publish me at the end");

    // join path
    let target = db.new_oid();
    let committed = run_atomic(&db, move |ctx| {
        let me = ctx.id();
        let s = split(ctx, ObSet::empty(), move |c| {
            c.write(target, b"joined".to_vec())
        })?;
        assert!(join(ctx, s, me)?);
        Ok(())
    })
    .unwrap();
    assert!(committed);
    assert_eq!(db.peek(target).unwrap().unwrap(), b"joined");
}

#[test]
fn s316_saga_success_and_compensation() {
    let db = Database::in_memory();
    let ledger = db.new_oid();
    assert!(db
        .run(move |ctx| ctx.write(ledger, 0u64.to_le_bytes().to_vec()))
        .unwrap());
    let add = move |delta: i64| {
        move |ctx: &TxnCtx| {
            ctx.update(ledger, move |cur| {
                let v = u64::from_le_bytes(cur.unwrap().try_into().unwrap());
                ((v as i64 + delta) as u64).to_le_bytes().to_vec()
            })
        }
    };
    // failing saga: two committed steps then failure → full compensation
    let saga = Saga::new()
        .step("s1", add(10), add(-10))
        .step("s2", add(5), add(-5))
        .final_step("boom", |ctx: &TxnCtx| ctx.abort_self::<()>().map(|_| ()));
    let (outcome, trace) = saga.run(&db).unwrap();
    assert_eq!(outcome, SagaOutcome::Compensated { failed_step: 2 });
    assert_eq!(trace.events, vec!["s1", "s2", "~s2", "~s1"]);
    let v = u64::from_le_bytes(db.peek(ledger).unwrap().unwrap().try_into().unwrap());
    assert_eq!(v, 0);
}

#[test]
fn s321_cooperating_transactions() {
    let db = Database::in_memory();
    let shared = db.new_oid();
    assert!(db
        .run(move |ctx| ctx.write(shared, b"base".to_vec()))
        .unwrap());
    let t1 = db
        .initiate(move |ctx| ctx.write(shared, b"t1's take".to_vec()))
        .unwrap();
    let t2 = db
        .initiate(move |ctx| {
            ctx.update(shared, |cur| {
                let mut v = cur.unwrap();
                v.extend_from_slice(b" + t2's touch");
                v
            })
        })
        .unwrap();
    CoopSession::establish(&db, t1, t2, ObSet::one(shared), Coupling::Ordered).unwrap();
    db.begin(t1).unwrap();
    db.wait(t1).unwrap();
    db.begin(t2).unwrap();
    assert!(db.commit(t1).unwrap());
    assert!(db.commit(t2).unwrap());
    assert_eq!(db.peek(shared).unwrap().unwrap(), b"t1's take + t2's touch");
}

#[test]
fn s322_cursor_stability() {
    use asset::models::Cursor;
    let db = Database::in_memory();
    let oids: Vec<_> = (0..3).map(|_| db.new_oid()).collect();
    let o2 = oids.clone();
    assert!(db
        .run(move |ctx| {
            for oid in &o2 {
                ctx.write(*oid, b"rec".to_vec())?;
            }
            Ok(())
        })
        .unwrap());
    let first = oids[0];
    let dbc = db.clone();
    let committed = run_atomic(&db, move |ctx| {
        let mut cursor = Cursor::open(ctx, oids.clone());
        cursor.next()?; // releases record 0 to writers
                        // an independent writer gets through immediately
        assert!(run_atomic(&dbc, move |c| c.write(first, b"overwritten".to_vec()))?);
        Ok(())
    })
    .unwrap();
    assert!(committed);
    assert_eq!(db.peek(first).unwrap().unwrap(), b"overwritten");
}

#[test]
fn s323_workflow_appendix() {
    let db = Database::in_memory();
    let world = TravelWorld::setup(&db, 1, 1, 1, 1, 1, 1).unwrap();
    let (outcome, results) = run_x_conference(&db, &world).unwrap();
    assert_eq!(outcome, WorkflowOutcome::Completed);
    assert_eq!(results[0].chosen.as_deref(), Some("Delta"));
}

#[test]
fn primitives_compose_across_models() {
    // a workflow step that is itself a nested transaction with a
    // cooperative inner pair — the models compose because they all reduce
    // to the same primitives
    let db = Database::in_memory();
    let doc = db.new_oid();
    assert!(db.run(move |ctx| ctx.write(doc, Vec::new())).unwrap());
    let committed = run_nested(&db, move |ctx| {
        required_subtransaction(ctx, move |c| {
            c.update(doc, |cur| {
                let mut v = cur.unwrap();
                v.push(b'a');
                v
            })
        })?;
        required_subtransaction(ctx, move |c| {
            c.update(doc, |cur| {
                let mut v = cur.unwrap();
                v.push(b'b');
                v
            })
        })?;
        Ok(())
    })
    .unwrap();
    assert!(committed);
    assert_eq!(db.peek(doc).unwrap().unwrap(), b"ab");
}

#[test]
fn paper_s2_example_cooperation_with_cd() {
    // §3.2.1's exact recipe: form_dependency(CD, ti, tj); permit(ti, tj, ob, op)
    let db = Database::in_memory();
    let ob = db.new_oid();
    assert!(db.run(move |ctx| ctx.write(ob, b"v".to_vec())).unwrap());
    // ti writes, says so, and stays active until tj has written through
    // the permit: tj's write follows ti's and overlaps ti's body
    let (wrote_tx, wrote_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let (wrote_tx, release_rx) = (Mutex::new(wrote_tx), Mutex::new(release_rx));
    let ti = db
        .initiate(move |ctx| {
            ctx.write(ob, b"ti".to_vec())?;
            wrote_tx.lock().unwrap().send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
            Ok(())
        })
        .unwrap();
    let tj = db
        .initiate(move |ctx| {
            ctx.write(ob, b"tj".to_vec())?;
            Ok(())
        })
        .unwrap();
    db.form_dependency(DepType::CD, ti, tj).unwrap();
    db.permit(ti, Some(tj), ObSet::one(ob), OpSet::ALL).unwrap();
    db.begin(ti).unwrap();
    wrote_rx.recv().unwrap();
    db.begin(tj).unwrap();
    db.wait(tj).unwrap();
    release_tx.send(()).unwrap();
    assert!(db.commit(ti).unwrap());
    assert!(db.commit(tj).unwrap());
    assert_eq!(db.status(tj).unwrap(), TxnStatus::Committed);
}
