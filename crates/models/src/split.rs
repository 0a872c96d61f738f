//! Split and join transactions (§3.1.5, after Pu/Kaiser/Hutchinson).
//!
//! `split` carves a new transaction out of a running one, delegating
//! responsibility for a set of objects at the split point; the two then
//! commit or abort independently. `join` merges a transaction back by
//! delegating everything to the target.
//!
//! Paper synthesis:
//!
//! ```text
//! s = initiate(f);
//! delegate(parent(s), s, X);   // X = objects handed to the split
//! begin(s);
//! ...
//! wait(s); delegate(s, t);     // join(s, t)
//! ```

use asset_common::ObSet;
use asset_core::{Result, Tid, TxnCtx};
use asset_obs::{EventKind, ModelKind};

/// Split a new transaction off the one executing `ctx`, delegating the
/// objects in `obs` (with their locks and undo responsibility) to it.
/// Returns the split transaction's tid; it is already running and commits
/// or aborts independently of the splitter.
pub fn split(
    ctx: &TxnCtx,
    obs: ObSet,
    f: impl FnOnce(&TxnCtx) -> Result<()> + Send + 'static,
) -> Result<Tid> {
    let s = ctx.initiate(f)?;
    ctx.db().obs().record(EventKind::Model {
        model: ModelKind::Split,
        tid: s,
        label: "split",
    });
    ctx.delegate(ctx.id(), s, Some(obs))?;
    ctx.begin(s)?;
    Ok(s)
}

/// Join transaction `s` into `t`: wait for `s` to complete, then delegate
/// everything it is responsible for to `t`. Returns `false` if `s` aborted
/// (in which case there is nothing to join).
pub fn join(ctx: &TxnCtx, s: Tid, t: Tid) -> Result<bool> {
    if !ctx.wait(s)? {
        return Ok(false);
    }
    ctx.db().obs().record(EventKind::Model {
        model: ModelKind::Split,
        tid: s,
        label: "join",
    });
    // a `t` that is aborting refuses `s`'s work: it goes too
    (ctx.delegate(s, t, None)).or_else(|e| ctx.abort(s).and(Err(e)))?;
    // `s` has handed everything over; committing it is now a formality
    // (the paper notes the same about delegating reservation children).
    ctx.commit(s)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::run_atomic;
    use asset_core::Database;

    #[test]
    fn split_commits_independently() {
        let db = Database::in_memory();
        let handed = db.new_oid();
        let kept = db.new_oid();
        let dbc = db.clone();
        let committed = run_atomic(&db, move |ctx| {
            ctx.write(handed, b"early work".to_vec())?;
            ctx.write(kept, b"kept work".to_vec())?;
            // hand `handed` to a split that commits right away
            let s = split(ctx, ObSet::one(handed), |_| Ok(()))?;
            ctx.commit(s)?;
            // the split committed `handed` durably while we are still alive
            assert_eq!(dbc.peek(handed)?.unwrap(), b"early work");
            Ok(())
        })
        .unwrap();
        assert!(committed);
        assert_eq!(db.peek(kept).unwrap().unwrap(), b"kept work");
    }

    #[test]
    fn splitter_abort_does_not_undo_split_committed_work() {
        let db = Database::in_memory();
        let handed = db.new_oid();
        let kept = db.new_oid();
        let committed = run_atomic(&db, move |ctx| {
            ctx.write(handed, b"split keeps this".to_vec())?;
            ctx.write(kept, b"dies with splitter".to_vec())?;
            let s = split(ctx, ObSet::one(handed), |_| Ok(()))?;
            ctx.commit(s)?;
            ctx.abort_self::<()>().map(|_| ())
        })
        .unwrap();
        assert!(!committed);
        assert_eq!(db.peek(handed).unwrap().unwrap(), b"split keeps this");
        assert_eq!(db.peek(kept).unwrap(), None);
    }

    #[test]
    fn split_abort_does_not_kill_splitter() {
        let db = Database::in_memory();
        let handed = db.new_oid();
        let kept = db.new_oid();
        let committed = run_atomic(&db, move |ctx| {
            ctx.write(handed, b"goes down with split".to_vec())?;
            ctx.write(kept, b"stays".to_vec())?;
            let s = split(ctx, ObSet::one(handed), |c| {
                c.abort_self::<()>().map(|_| ())
            })?;
            assert!(!ctx.commit(s)?);
            Ok(())
        })
        .unwrap();
        assert!(committed);
        assert_eq!(
            db.peek(handed).unwrap(),
            None,
            "delegated write undone by split abort"
        );
        assert_eq!(db.peek(kept).unwrap().unwrap(), b"stays");
    }

    #[test]
    fn split_then_join_merges_back() {
        let db = Database::in_memory();
        let a = db.new_oid();
        let b = db.new_oid();
        let committed = run_atomic(&db, move |ctx| {
            ctx.write(a, b"pre-split".to_vec())?;
            let me = ctx.id();
            let s = split(ctx, ObSet::one(a), move |c| {
                // the split works on its delegated object and more
                c.write(a, b"split-updated".to_vec())?;
                c.write(b, b"split-created".to_vec())
            })?;
            // join s back into this transaction
            assert!(join(ctx, s, me)?);
            Ok(())
        })
        .unwrap();
        assert!(committed);
        assert_eq!(db.peek(a).unwrap().unwrap(), b"split-updated");
        assert_eq!(db.peek(b).unwrap().unwrap(), b"split-created");
    }

    #[test]
    fn join_of_aborted_split_reports_false() {
        let db = Database::in_memory();
        let a = db.new_oid();
        let committed = run_atomic(&db, move |ctx| {
            ctx.write(a, b"x".to_vec())?;
            let me = ctx.id();
            let s = split(ctx, ObSet::empty(), |c| c.abort_self::<()>().map(|_| ()))?;
            assert!(!join(ctx, s, me)?);
            Ok(())
        })
        .unwrap();
        assert!(committed);
        assert_eq!(db.peek(a).unwrap().unwrap(), b"x");
    }

    #[test]
    fn joined_work_aborts_with_the_target() {
        let db = Database::in_memory();
        let a = db.new_oid();
        let b = db.new_oid();
        let committed = run_atomic(&db, move |ctx| {
            ctx.write(a, b"mine".to_vec())?;
            let me = ctx.id();
            let s = split(ctx, ObSet::empty(), move |c| {
                c.write(b, b"split's".to_vec())
            })?;
            assert!(join(ctx, s, me)?);
            ctx.abort_self::<()>().map(|_| ())
        })
        .unwrap();
        assert!(!committed);
        assert_eq!(db.peek(a).unwrap(), None);
        assert_eq!(db.peek(b).unwrap(), None, "joined undo dies with target");
    }
}
