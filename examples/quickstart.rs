//! Quickstart: the ASSET primitives, one at a time.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Walks through the paper's §2: initiate/begin/commit, completion vs
//! commit, wait, abort with undo, delegation, permits, and each dependency
//! type — printing what happens at every step.

use asset::{Database, DepType, ObSet, OpSet, TxnStatus};

fn main() -> asset::Result<()> {
    let db = Database::in_memory();
    db.obs().enable_tracing(0); // default ring; step 7 reads it back
    println!("== ASSET quickstart ==\n");

    // ------------------------------------------------------------------
    println!("-- 1. An atomic transaction (initiate / begin / commit)");
    let account = db.new_oid();
    let t = db.initiate(move |ctx| {
        ctx.write(account, 100u64.to_le_bytes().to_vec())?;
        Ok(())
    })?;
    println!("   initiated {t}: status = {}", db.status(t)?);
    db.begin(t)?;
    let committed = db.commit(t)?;
    println!("   committed = {committed}; balance object now durable");

    // ------------------------------------------------------------------
    println!("\n-- 2. Completion is not commit");
    let t = db.initiate(move |ctx| {
        ctx.write(account, 150u64.to_le_bytes().to_vec())?;
        Ok(())
    })?;
    db.begin(t)?;
    db.wait(t)?; // completed — but locks are held, changes volatile
    println!("   after wait: status = {} (locks retained)", db.status(t)?);
    db.commit(t)?;
    println!("   after commit: status = {}", db.status(t)?);

    // ------------------------------------------------------------------
    println!("\n-- 3. Abort installs before images");
    let t = db.initiate(move |ctx| {
        ctx.write(account, 0u64.to_le_bytes().to_vec())?; // oops
        Ok(())
    })?;
    db.begin(t)?;
    db.wait(t)?;
    db.abort(t)?;
    let balance = u64::from_le_bytes(db.peek(account)?.unwrap().try_into().unwrap());
    println!("   aborted; balance restored to {balance}");
    assert_eq!(balance, 150);

    // ------------------------------------------------------------------
    println!("\n-- 4. delegate: hand uncommitted work to another transaction");
    let follower = db.initiate(|_| Ok(()))?;
    let leader = db.initiate(move |ctx| {
        ctx.write(account, 999u64.to_le_bytes().to_vec())?;
        ctx.delegate_to(follower) // everything we did is now `follower`'s
    })?;
    db.begin(leader)?;
    db.wait(leader)?;
    db.abort(leader)?; // aborting the leader undoes nothing — it delegated
    println!("   leader aborted after delegating; write survives so far");
    db.begin(follower)?;
    db.commit(follower)?;
    let balance = u64::from_le_bytes(db.peek(account)?.unwrap().try_into().unwrap());
    println!("   follower committed the delegated write: balance = {balance}");
    assert_eq!(balance, 999);

    // ------------------------------------------------------------------
    println!("\n-- 5. permit: let a conflicting reader through");
    let holder = db.initiate(move |ctx| {
        ctx.write(account, 1000u64.to_le_bytes().to_vec())?;
        Ok(())
    })?;
    db.begin(holder)?;
    db.wait(holder)?; // write lock held, uncommitted
    db.permit(holder, None, ObSet::one(account), OpSet::READ)?;
    let peeked = db.run(move |ctx| {
        let dirty = u64::from_le_bytes(ctx.read(account)?.unwrap().try_into().unwrap());
        println!("   reader saw uncommitted value {dirty} thanks to the permit");
        Ok(())
    })?;
    assert!(peeked);
    db.commit(holder)?;

    // ------------------------------------------------------------------
    println!("\n-- 6. form_dependency: CD, AD, GC");
    // CD: t2 cannot commit before t1 terminates
    let t1 = db.initiate(|_| Ok(()))?;
    let t2 = db.initiate(|_| Ok(()))?;
    db.form_dependency(DepType::CD, t1, t2)?;
    db.begin_many(&[t1, t2])?;
    db.commit(t1)?;
    db.commit(t2)?;
    println!("   CD: t2 committed only after t1 terminated");

    // AD: if t1 aborts, t2 must abort
    let t1 = db.initiate(|_| Ok(()))?;
    let t2 = db.initiate(|_| Ok(()))?;
    db.form_dependency(DepType::AD, t1, t2)?;
    db.begin_many(&[t1, t2])?;
    db.wait(t2)?;
    db.abort(t1)?;
    // t2's AD gate holds its commit until t1 has terminated, then refuses it
    assert!(!db.commit(t2)?);
    assert_eq!(db.status(t2)?, TxnStatus::Aborted);
    println!("   AD: aborting t1 dragged t2 down with it");

    // GC: both or neither
    let t1 = db.initiate(|_| Ok(()))?;
    let t2 = db.initiate(|_| Ok(()))?;
    db.form_dependency(DepType::GC, t1, t2)?;
    db.begin_many(&[t1, t2])?;
    db.commit(t1)?; // commits the whole group
    assert_eq!(db.status(t2)?, TxnStatus::Committed);
    println!("   GC: committing t1 committed the pair atomically");

    // ------------------------------------------------------------------
    println!("\n-- 7. introspection: what the tracer saw");
    let g = asset::trace::CausalGraph::from_events(&db.obs().trace());
    println!(
        "   causal graph: {} txn tracks, {} delegation edge(s), {} permit edge(s), {} dependency edge(s)",
        g.tracks.len(),
        g.edges_labeled("delegate").len(),
        g.edges_labeled("permit").len(),
        g.edges
            .iter()
            .filter(|e| e.kind.label().starts_with("dep-"))
            .count()
    );
    println!("   one asset-top frame of this session:");
    let frame = asset::trace::top::render_frame(&db.introspect(), &db.metrics_snapshot());
    for line in frame.lines() {
        println!("      {line}");
    }

    println!("\nAll seven walkthroughs done.");
    Ok(())
}
