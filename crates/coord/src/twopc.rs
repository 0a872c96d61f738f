//! Classic two-phase commit (DESIGN.md §14.4).
//!
//! Phase 1 collects a vote from every member node; the decision —
//! commit iff every vote is yes — is forced to the **coordinator log**
//! before phase 2 delivers it. Presumed abort: a global transaction
//! with no logged decision aborts on recovery, so only the commit
//! window needs the force.
//!
//! 2PC is **blocking**: between a participant's yes vote and the
//! decision's arrival, the participant can do nothing but hold its
//! locks; if the coordinator (and its log) stays unreachable, that
//! window is unbounded. E17 measures it; [`crate::PaxosCommit`] removes
//! it.

use crate::transport::{CommitTransport, CoordError};
use crate::{CoordObs, Decision, Driver, GlobalTxn};
use asset_faults::FaultRegistry;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// The coordinator's durable decision log: `gid → decision`, forced
/// before any participant learns the outcome. On disk each record is 9
/// bytes (`u64` gid LE + decision byte, `synced` per record); an
/// in-memory variant backs tests that crash participants but not the
/// coordinator.
pub struct CoordLog {
    file: Option<Mutex<File>>,
    mem: Mutex<BTreeMap<u64, Decision>>,
}

impl CoordLog {
    /// A volatile log (coordinator crashes lose it — which is exactly
    /// the blocking scenario, so crash matrices use [`CoordLog::at`]).
    pub fn in_memory() -> CoordLog {
        CoordLog {
            file: None,
            mem: Mutex::new(BTreeMap::new()),
        }
    }

    /// Open (or create) the durable log at `path`, replaying existing
    /// records. A torn 9-byte tail (crash mid-append) is ignored — the
    /// decision it would have recorded was never acknowledged.
    pub fn at(path: &Path) -> std::io::Result<CoordLog> {
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut mem = BTreeMap::new();
        for rec in bytes.chunks_exact(9) {
            // verify: allow(no_panics) — chunks_exact yields 9 bytes
            let gid = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
            let d = if rec[8] == 1 {
                Decision::Commit
            } else {
                Decision::Abort
            };
            mem.insert(gid, d);
        }
        Ok(CoordLog {
            file: Some(Mutex::new(file)),
            mem: Mutex::new(mem),
        })
    }

    /// Force `gid → decision`. Idempotent: re-recording the same
    /// decision is a no-op; recording a *different* one is a logic
    /// error and panics (a decision, once durable, is immutable).
    pub fn record(&self, gid: u64, decision: Decision) -> std::io::Result<()> {
        {
            let mut mem = self.mem.lock();
            if let Some(prev) = mem.get(&gid) {
                assert_eq!(
                    *prev, decision,
                    "decision for gid {gid} is immutable once recorded"
                );
                return Ok(());
            }
            mem.insert(gid, decision);
        }
        if let Some(file) = &self.file {
            let mut f = file.lock();
            let mut rec = gid.to_le_bytes().to_vec();
            rec.push(if decision == Decision::Commit { 1 } else { 0 });
            f.write_all(&rec)?;
            f.sync_data()?;
        }
        Ok(())
    }

    /// The recorded decision for `gid`, if any.
    pub fn decision(&self, gid: u64) -> Option<Decision> {
        self.mem.lock().get(&gid).copied()
    }
}

/// A two-phase-commit coordinator over a [`CommitTransport`].
pub struct TwoPhase {
    driver: Driver,
    log: Arc<CoordLog>,
}

impl TwoPhase {
    /// A coordinator speaking through `transport`, deciding into `log`.
    pub fn new(transport: Arc<dyn CommitTransport>, log: Arc<CoordLog>) -> TwoPhase {
        TwoPhase {
            driver: Driver::new(transport),
            log,
        }
    }

    /// Builder-style: script coordinator crashes through `faults` (arm
    /// [`COORD_BEFORE_DECIDE`](crate::failpoints::COORD_BEFORE_DECIDE) /
    /// [`COORD_AFTER_DECIDE`](crate::failpoints::COORD_AFTER_DECIDE)).
    pub fn with_faults(mut self, faults: Arc<FaultRegistry>) -> TwoPhase {
        self.driver.faults = faults;
        self
    }

    /// Builder-style: record coordinator-side observability into `co` —
    /// `coord_msg_*` counters, the `decision_ns` histogram, and (with
    /// tracing enabled on the hub) `MsgSend`/`MsgAck` events plus a
    /// trace context on every message (DESIGN.md §7.2).
    pub fn with_obs(mut self, co: CoordObs) -> TwoPhase {
        self.driver.obs = Some(co);
        self
    }

    /// The decision log (a recovery coordinator reuses it).
    pub fn log(&self) -> &Arc<CoordLog> {
        &self.log
    }

    /// Drive `txn` to a decision: prepare every member node, force the
    /// decision, deliver it. Returns the decision; delivery is
    /// best-effort per node (the decision is durable, so
    /// [`recover`](Self::recover) re-delivers to anyone that missed
    /// it).
    pub fn commit(&self, txn: &GlobalTxn) -> Result<Decision, CoordError> {
        // the decision point: one forced coordinator-log record
        self.driver
            .commit(txn, |decision, _| Ok(self.log.record(txn.gid, decision)?))
    }

    /// Recovery coordinator: finish `txn` from the durable log alone.
    /// A logged decision is re-delivered (cooperative termination); no
    /// logged decision means the crash preceded the decision point and
    /// the transaction is **presumed aborted** — the abort is made
    /// explicit in the log, then delivered.
    pub fn recover(&self, txn: &GlobalTxn) -> Result<Decision, CoordError> {
        let decision = self.log.decision(txn.gid).unwrap_or(Decision::Abort);
        self.log.record(txn.gid, decision)?;
        self.driver.terminate(txn.gid, &txn.members(), decision)?;
        Ok(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoints::{COORD_AFTER_DECIDE, COORD_BEFORE_DECIDE};
    use crate::tests::{mem_nodes, stage};
    use crate::transport::{ChannelTransport, CommitMessage};
    use crate::ParticipantState;
    use asset_faults::FaultAction;

    fn coordinator(nodes: usize) -> (TwoPhase, Arc<ChannelTransport>, Vec<asset_common::Oid>) {
        let nodes = mem_nodes(nodes);
        let oids = nodes.iter().map(|n| n.db().new_oid()).collect();
        let transport = Arc::new(ChannelTransport::new(nodes));
        let coord = TwoPhase::new(transport.clone(), Arc::new(CoordLog::in_memory()));
        (coord, transport, oids)
    }

    #[test]
    fn unanimous_yes_commits_everywhere() {
        let (coord, transport, oids) = coordinator(3);
        let mut g = GlobalTxn::new(1);
        for (i, oid) in oids.iter().enumerate() {
            let t = stage(transport.node(i), *oid, b"paid");
            g.add_member(i as u32, t);
        }
        assert_eq!(coord.commit(&g).unwrap(), Decision::Commit);
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(transport.node(i).db().peek(*oid).unwrap().unwrap(), b"paid");
        }
    }

    #[test]
    fn one_no_vote_aborts_everywhere() {
        let (coord, transport, oids) = coordinator(3);
        let mut g = GlobalTxn::new(2);
        for (i, oid) in oids.iter().enumerate() {
            let t = stage(transport.node(i), *oid, b"doomed");
            g.add_member(i as u32, t);
            if i == 1 {
                // node 1's member aborts before prepare: it will vote no
                transport.node(i).db().abort(t).unwrap();
            }
        }
        assert_eq!(coord.commit(&g).unwrap(), Decision::Abort);
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(
                transport.node(i).db().peek(*oid).unwrap(),
                None,
                "no effect survives a global abort (node {i})"
            );
        }
    }

    #[test]
    fn recovery_with_no_logged_decision_presumes_abort() {
        let (coord, transport, oids) = coordinator(2);
        let mut g = GlobalTxn::new(3);
        for (i, oid) in oids.iter().enumerate() {
            let t = stage(transport.node(i), *oid, b"blocked");
            g.add_member(i as u32, t);
        }
        // crash before the decision: votes collected, nothing logged
        let faults = Arc::new(FaultRegistry::new());
        faults.arm(
            COORD_BEFORE_DECIDE,
            asset_faults::Trigger::Once,
            FaultAction::Error,
        );
        let coord = TwoPhase::new(transport.clone(), coord.log.clone()).with_faults(faults);
        assert!(coord.commit(&g).is_err());
        // both participants are prepared — in doubt, locks held
        for i in 0..2 {
            let db = transport.node(i).db();
            assert_eq!(db.in_doubt_transactions().len(), 1, "node {i} in doubt");
        }
        // a recovery coordinator with the same (empty) log presumes abort
        assert_eq!(coord.recover(&g).unwrap(), Decision::Abort);
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(transport.node(i).db().peek(*oid).unwrap(), None);
            assert!(transport.node(i).db().in_doubt_transactions().is_empty());
        }
    }

    #[test]
    fn recovery_after_logged_decision_redelivers_commit() {
        let (coord, transport, oids) = coordinator(2);
        let mut g = GlobalTxn::new(4);
        for (i, oid) in oids.iter().enumerate() {
            let t = stage(transport.node(i), *oid, b"landed");
            g.add_member(i as u32, t);
        }
        let faults = Arc::new(FaultRegistry::new());
        faults.arm(
            COORD_AFTER_DECIDE,
            asset_faults::Trigger::Once,
            FaultAction::Error,
        );
        let coord = TwoPhase::new(transport.clone(), coord.log.clone()).with_faults(faults);
        // decision logged, delivery never happened
        assert!(coord.commit(&g).is_err());
        assert_eq!(coord.log().decision(4), Some(Decision::Commit));
        assert_eq!(coord.recover(&g).unwrap(), Decision::Commit);
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(
                transport.node(i).db().peek(*oid).unwrap().unwrap(),
                b"landed"
            );
        }
        // idempotent: a second recovery changes nothing
        assert_eq!(coord.recover(&g).unwrap(), Decision::Commit);
    }

    #[test]
    fn dropped_decide_message_leaves_node_prepared_until_recovery() {
        let nodes = mem_nodes(2);
        let oids: Vec<_> = nodes.iter().map(|n| n.db().new_oid()).collect();
        let msg_faults = Arc::new(FaultRegistry::new());
        let transport = Arc::new(ChannelTransport::new(nodes).with_faults(Arc::clone(&msg_faults)));
        let coord = TwoPhase::new(transport.clone(), Arc::new(CoordLog::in_memory()));
        let mut g = GlobalTxn::new(5);
        for (i, oid) in oids.iter().enumerate() {
            let t = stage(transport.node(i), *oid, b"late");
            g.add_member(i as u32, t);
        }
        // drop the first decide (node 0's); node 1 still gets its
        msg_faults.arm(
            crate::failpoints::MSG_DECIDE_DROP,
            asset_faults::Trigger::Once,
            FaultAction::Error,
        );
        assert_eq!(coord.commit(&g).unwrap(), Decision::Commit);
        let db0 = transport.node(0).db();
        assert_eq!(db0.in_doubt_transactions().len(), 1, "decide was dropped");
        assert_eq!(
            transport.node(1).db().peek(oids[1]).unwrap().unwrap(),
            b"late"
        );
        // termination re-delivers from the durable decision
        assert_eq!(coord.recover(&g).unwrap(), Decision::Commit);
        assert_eq!(db0.peek(oids[0]).unwrap().unwrap(), b"late");
    }

    #[test]
    fn coord_log_survives_reload_and_ignores_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "asset-coordlog-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coord.log");
        {
            let log = CoordLog::at(&path).unwrap();
            log.record(7, Decision::Commit).unwrap();
            log.record(8, Decision::Abort).unwrap();
        }
        // torn tail: a crash mid-append left 3 bytes of a record
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[9, 0, 0]).unwrap();
        }
        let log = CoordLog::at(&path).unwrap();
        assert_eq!(log.decision(7), Some(Decision::Commit));
        assert_eq!(log.decision(8), Some(Decision::Abort));
        assert_eq!(log.decision(9), None, "torn record never happened");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_state_reports_the_lifecycle() {
        let (coord, transport, oids) = coordinator(1);
        let t = stage(transport.node(0), oids[0], b"s");
        let mut g = GlobalTxn::new(6);
        g.add_member(0, t);
        let state =
            |tp: &ChannelTransport| match tp.send(0, CommitMessage::QueryState { tid: t }).unwrap()
            {
                CommitMessage::State(s) => s,
                other => panic!("unexpected reply {other:?}"),
            };
        assert_eq!(state(&transport), ParticipantState::Other);
        assert_eq!(coord.commit(&g).unwrap(), Decision::Commit);
        assert_eq!(state(&transport), ParticipantState::Committed);
    }
}
