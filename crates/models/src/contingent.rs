//! Contingent transactions (§3.1.3): alternatives tried in order; at most
//! one commits.
//!
//! ```text
//! trans {f1()} else trans {f2()} else ... else trans {fn()}
//! ```

use crate::atomic::trans;
use asset_core::{Database, Result, TxnCtx};
use asset_obs::ModelKind;

/// One alternative of a contingent transaction.
pub type Alternative = Box<dyn FnOnce(&TxnCtx) -> Result<()> + Send + 'static>;

/// Run the alternatives in order until one commits. Returns the index of
/// the committed alternative, or `None` if every alternative aborted.
pub fn run_contingent(db: &Database, alternatives: Vec<Alternative>) -> Result<Option<usize>> {
    contingent(db, ModelKind::Contingent, alternatives)
}

/// [`run_contingent`] on behalf of `model`.
pub(crate) fn contingent<F>(
    db: &Database,
    model: ModelKind,
    alternatives: impl IntoIterator<Item = F>,
) -> Result<Option<usize>>
where
    F: FnOnce(&TxnCtx) -> Result<()> + Send + 'static,
{
    for (i, f) in alternatives.into_iter().enumerate() {
        if trans(db, model, "step", f)? {
            return Ok(Some(i));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failing(oid: asset_common::Oid) -> Alternative {
        Box::new(move |ctx: &TxnCtx| {
            ctx.write(oid, b"should vanish".to_vec())?;
            ctx.abort_self::<()>().map(|_| ())
        })
    }

    fn succeeding(oid: asset_common::Oid, tag: &'static [u8]) -> Alternative {
        Box::new(move |ctx: &TxnCtx| ctx.write(oid, tag.to_vec()))
    }

    #[test]
    fn first_alternative_wins_when_it_commits() {
        let db = Database::in_memory();
        let oid = db.new_oid();
        let chosen = run_contingent(
            &db,
            vec![succeeding(oid, b"first"), succeeding(oid, b"second")],
        )
        .unwrap();
        assert_eq!(chosen, Some(0));
        assert_eq!(db.peek(oid).unwrap().unwrap(), b"first");
    }

    #[test]
    fn falls_through_to_later_alternative() {
        let db = Database::in_memory();
        let oid = db.new_oid();
        let chosen = run_contingent(
            &db,
            vec![failing(oid), failing(oid), succeeding(oid, b"third")],
        )
        .unwrap();
        assert_eq!(chosen, Some(2));
        assert_eq!(db.peek(oid).unwrap().unwrap(), b"third");
    }

    #[test]
    fn all_fail_returns_none_and_no_effects() {
        let db = Database::in_memory();
        let oid = db.new_oid();
        let chosen = run_contingent(&db, vec![failing(oid), failing(oid)]).unwrap();
        assert_eq!(chosen, None);
        assert_eq!(
            db.peek(oid).unwrap(),
            None,
            "each failed alternative undone"
        );
    }

    #[test]
    fn at_most_one_commits() {
        // the winning alternative stops the cascade: later ones never run
        let db = Database::in_memory();
        let ran = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let (r1, r2) = (ran.clone(), ran.clone());
        let chosen = run_contingent(
            &db,
            vec![
                Box::new(move |_: &TxnCtx| {
                    r1.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    Ok(())
                }),
                Box::new(move |_: &TxnCtx| {
                    r2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    Ok(())
                }),
            ],
        )
        .unwrap();
        assert_eq!(chosen, Some(0));
        assert_eq!(ran.load(std::sync::atomic::Ordering::SeqCst), 1);
    }
}
