//! Nested transactions (§3.1.4).
//!
//! A subtransaction may access any object its ancestors hold (no conflict),
//! can abort without killing the parent, and on commit hands its effects to
//! the parent; durability waits for the top-level commit. The paper's
//! synthesis, which [`subtransaction`] reproduces:
//!
//! ```text
//! t1 = initiate(make_airline_reservation);
//! permit(self(), t1);
//! begin(t1);
//! if (!wait(t1)) abort(self());
//! delegate(t1, self());
//! commit(t1);
//! ```
//!
//! One refinement: the paper's `permit(self(), t1)` materializes over the
//! parent's object set at call time; we grant a *standing* wildcard permit
//! so objects the parent locks after spawning the child are covered too —
//! which is what "can access any object currently accessed by an ancestor"
//! needs in general. Grandchildren are covered transitively: each level
//! permits the next, and permit chains compose (§2.2 property 3).

use asset_core::{Database, Result, TxnCtx};
use asset_obs::{EventKind, ModelKind};

/// Outcome of a subtransaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubtxnOutcome {
    /// The child completed; its work was delegated to the parent and will
    /// commit (durably) with the top level.
    Merged,
    /// The child aborted; its effects are undone, the parent lives on.
    Aborted,
}

/// Run `f` as a subtransaction of the transaction executing `ctx`.
///
/// On success the child's locks and undo responsibility are delegated to
/// the parent (so the parent's eventual abort undoes the child's work, and
/// the parent's commit makes it durable). On child failure the child is
/// aborted and the parent continues — failure containment, the point of
/// nesting.
pub fn subtransaction(
    ctx: &TxnCtx,
    f: impl FnOnce(&TxnCtx) -> Result<()> + Send + 'static,
) -> Result<SubtxnOutcome> {
    let child = ctx.initiate(f)?;
    ctx.db().obs().record(EventKind::Model {
        model: ModelKind::Nested,
        tid: child,
        label: "subtransaction",
    });
    ctx.permit_all(child)?;
    ctx.begin(child)?;
    if !ctx.wait(child)? {
        return Ok(SubtxnOutcome::Aborted);
    }
    // a parent that is aborting refuses the child's work: it goes too
    (ctx.delegate(child, ctx.id(), None)).or_else(|e| ctx.abort(child).and(Err(e)))?;
    ctx.commit(child)?;
    Ok(SubtxnOutcome::Merged)
}

/// Like [`subtransaction`], but a child abort aborts the parent too — the
/// paper's trip example (`if (!wait(t1)) abort(self())`).
pub fn required_subtransaction(
    ctx: &TxnCtx,
    f: impl FnOnce(&TxnCtx) -> Result<()> + Send + 'static,
) -> Result<()> {
    match subtransaction(ctx, f)? {
        SubtxnOutcome::Merged => Ok(()),
        SubtxnOutcome::Aborted => ctx.abort_self(),
    }
}

/// Run `f` as the root of a nested transaction (just an atomic transaction
/// whose body spawns subtransactions).
pub fn run_nested(
    db: &Database,
    f: impl FnOnce(&TxnCtx) -> Result<()> + Send + 'static,
) -> Result<bool> {
    crate::atomic::run_atomic(db, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_common::Oid;

    #[test]
    fn child_work_commits_with_parent() {
        let db = Database::in_memory();
        let oid = db.new_oid();
        let committed = run_nested(&db, move |ctx| {
            required_subtransaction(ctx, move |c| c.write(oid, b"child".to_vec()))?;
            Ok(())
        })
        .unwrap();
        assert!(committed);
        assert_eq!(db.peek(oid).unwrap().unwrap(), b"child");
    }

    #[test]
    fn child_abort_is_contained() {
        let db = Database::in_memory();
        let (a, b) = (db.new_oid(), db.new_oid());
        let committed = run_nested(&db, move |ctx| {
            let out = subtransaction(ctx, move |c| {
                c.write(a, b"doomed".to_vec())?;
                c.abort_self::<()>().map(|_| ())
            })?;
            assert_eq!(out, SubtxnOutcome::Aborted);
            // parent continues and does its own work
            ctx.write(b, b"parent".to_vec())
        })
        .unwrap();
        assert!(committed);
        assert_eq!(db.peek(a).unwrap(), None, "child's write undone");
        assert_eq!(db.peek(b).unwrap().unwrap(), b"parent");
    }

    #[test]
    fn required_child_abort_kills_parent() {
        let db = Database::in_memory();
        let (a, b) = (db.new_oid(), db.new_oid());
        let committed = run_nested(&db, move |ctx| {
            ctx.write(b, b"parent-before".to_vec())?;
            required_subtransaction(ctx, move |c| {
                c.write(a, b"child".to_vec())?;
                c.abort_self::<()>().map(|_| ())
            })
        })
        .unwrap();
        assert!(!committed);
        assert_eq!(db.peek(a).unwrap(), None);
        assert_eq!(db.peek(b).unwrap(), None, "parent's own write undone too");
    }

    #[test]
    fn parent_abort_undoes_merged_child_work() {
        let db = Database::in_memory();
        let oid = db.new_oid();
        let committed = run_nested(&db, move |ctx| {
            required_subtransaction(ctx, move |c| c.write(oid, b"child".to_vec()))?;
            // child merged; now the parent aborts
            ctx.abort_self::<()>().map(|_| ())
        })
        .unwrap();
        assert!(!committed);
        assert_eq!(db.peek(oid).unwrap(), None, "delegated undo fired");
    }

    #[test]
    fn child_accesses_parent_locked_object() {
        let db = Database::in_memory();
        let oid = db.new_oid();
        let committed = run_nested(&db, move |ctx| {
            ctx.write(oid, b"parent".to_vec())?; // parent holds the write lock
            required_subtransaction(ctx, move |c| {
                // would deadlock without the permit
                let seen = c.read(oid)?.unwrap();
                assert_eq!(seen, b"parent");
                c.write(oid, b"child-over-parent".to_vec())
            })?;
            Ok(())
        })
        .unwrap();
        assert!(committed);
        assert_eq!(db.peek(oid).unwrap().unwrap(), b"child-over-parent");
    }

    #[test]
    fn two_level_nesting_grandchild_reaches_root_objects() {
        let db = Database::in_memory();
        let oid = db.new_oid();
        let committed = run_nested(&db, move |root| {
            root.write(oid, b"root".to_vec())?;
            required_subtransaction(root, move |mid| {
                required_subtransaction(mid, move |leaf| {
                    // leaf reaches the root's lock through the permit chain
                    leaf.write(oid, b"leaf".to_vec())
                })
            })
        })
        .unwrap();
        assert!(committed);
        assert_eq!(db.peek(oid).unwrap().unwrap(), b"leaf");
    }

    #[test]
    fn trip_example_airline_and_hotel() {
        // the paper's §3.1.4 trip: both reservations succeed → trip commits
        let db = Database::in_memory();
        let airline = db.new_oid();
        let hotel = db.new_oid();
        let committed = run_nested(&db, move |ctx| {
            required_subtransaction(ctx, move |c| c.write(airline, b"AA-123".to_vec()))?;
            required_subtransaction(ctx, move |c| c.write(hotel, b"Equator".to_vec()))?;
            Ok(())
        })
        .unwrap();
        assert!(committed);
        assert_eq!(db.peek(airline).unwrap().unwrap(), b"AA-123");
        assert_eq!(db.peek(hotel).unwrap().unwrap(), b"Equator");
    }

    #[test]
    fn trip_example_hotel_failure_cancels_airline() {
        let db = Database::in_memory();
        let airline = db.new_oid();
        let hotel: Oid = db.new_oid();
        let committed = run_nested(&db, move |ctx| {
            required_subtransaction(ctx, move |c| c.write(airline, b"AA-123".to_vec()))?;
            required_subtransaction(ctx, move |c| {
                c.write(hotel, b"Equator".to_vec())?;
                c.abort_self::<()>().map(|_| ()) // no rooms
            })
        })
        .unwrap();
        assert!(!committed);
        assert_eq!(
            db.peek(airline).unwrap(),
            None,
            "airline undone with the trip"
        );
        assert_eq!(db.peek(hotel).unwrap(), None);
    }

    #[test]
    fn siblings_serialize_on_shared_objects() {
        // two children of the same parent still conflict with each other
        // (they are atomic w.r.t. siblings); here they run sequentially so
        // the second sees the first's delegated write
        let db = Database::in_memory();
        let oid = db.new_oid();
        let committed = run_nested(&db, move |ctx| {
            required_subtransaction(ctx, move |c| c.write(oid, vec![1]))?;
            required_subtransaction(ctx, move |c| {
                let v = c.read(oid)?.unwrap();
                c.write(oid, vec![v[0] + 1])
            })
        })
        .unwrap();
        assert!(committed);
        assert_eq!(db.peek(oid).unwrap().unwrap(), vec![2]);
    }
}
