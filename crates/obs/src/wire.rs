//! Versioned wire encoding of a [`MetricsSnapshot`] — the body of the
//! `STATS` reply (DESIGN.md §13.3).
//!
//! The format is **self-describing**: counters and histograms travel as
//! `(name, value)` pairs driven by the
//! [`CounterSnapshot::for_each`](crate::CounterSnapshot::for_each) /
//! [`MetricsSnapshot::histograms`] registries, so a snapshot encoded by
//! a newer server decodes on an older client (unknown names are
//! skipped) and a new counter can never be silently missing from the
//! wire. All integers are little-endian.
//!
//! ```text
//! u8   version (SNAPSHOT_WIRE_VERSION)
//! u32  counter count
//!      per counter:   u8 name len | name bytes | u64 value
//! u32  histogram count
//!      per histogram: u8 name len | name bytes
//!                     u32 boundary count | boundaries ×u64
//!                     buckets ×u64 (boundary count + 1)
//!                     u64 count | u64 sum | u64 max
//! u64  events_dropped
//! u8   tracing_enabled (0/1)
//! ```
//!
//! Histogram boundaries are transmitted, then matched against the two
//! static boundary sets ([`LATENCY_NS_BOUNDS`], [`SMALL_COUNT_BOUNDS`])
//! on decode — a histogram with unrecognized boundaries is consumed and
//! skipped rather than failing the whole snapshot.

use crate::hist::{HistogramSnapshot, LATENCY_NS_BOUNDS, SMALL_COUNT_BOUNDS};
use crate::snapshot::MetricsSnapshot;

/// Current snapshot wire-format version (the body's leading byte).
pub const SNAPSHOT_WIRE_VERSION: u8 = 1;

/// Encode `snap` in the versioned wire format.
pub fn encode_snapshot(snap: &MetricsSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(2048);
    out.push(SNAPSHOT_WIRE_VERSION);
    let mut n_counters = 0u32;
    snap.counters.for_each(|_, _| n_counters += 1);
    out.extend_from_slice(&n_counters.to_le_bytes());
    snap.counters.for_each(|name, v| {
        put_name(&mut out, name);
        out.extend_from_slice(&v.to_le_bytes());
    });
    let hists = snap.histograms();
    out.extend_from_slice(&(hists.len() as u32).to_le_bytes());
    for (name, h) in hists {
        put_name(&mut out, name);
        out.extend_from_slice(&(h.boundaries.len() as u32).to_le_bytes());
        for b in h.boundaries {
            out.extend_from_slice(&b.to_le_bytes());
        }
        for i in 0..=h.boundaries.len() {
            let v = h.buckets.get(i).copied().unwrap_or(0);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&h.count.to_le_bytes());
        out.extend_from_slice(&h.sum.to_le_bytes());
        out.extend_from_slice(&h.max.to_le_bytes());
    }
    out.extend_from_slice(&snap.events_dropped.to_le_bytes());
    out.push(snap.tracing_enabled as u8);
    out
}

/// Decode a snapshot encoded by [`encode_snapshot`]. `None` on a
/// truncated body or an unknown format version; names this build does
/// not know are skipped, not errors.
pub fn decode_snapshot(body: &[u8]) -> Option<MetricsSnapshot> {
    let mut r = Reader { buf: body, pos: 0 };
    if r.u8()? != SNAPSHOT_WIRE_VERSION {
        return None;
    }
    let mut snap = MetricsSnapshot::empty();
    let n_counters = r.u32()?;
    for _ in 0..n_counters {
        let name = r.name()?;
        let value = r.u64()?;
        // unknown counters (newer peer) are dropped on the floor
        let _ = snap.counters.set(&name, value);
    }
    let n_hists = r.u32()?;
    for _ in 0..n_hists {
        let name = r.name()?;
        let n_bounds = r.u32()? as usize;
        // cap wildly-wrong counts before allocating (a histogram has a
        // handful of boundaries, never thousands)
        if n_bounds > 1024 {
            return None;
        }
        let mut bounds = Vec::with_capacity(n_bounds);
        for _ in 0..n_bounds {
            bounds.push(r.u64()?);
        }
        let mut buckets = Vec::with_capacity(n_bounds + 1);
        for _ in 0..=n_bounds {
            buckets.push(r.u64()?);
        }
        let (count, sum, max) = (r.u64()?, r.u64()?, r.u64()?);
        let boundaries: &'static [u64] = if bounds == LATENCY_NS_BOUNDS {
            LATENCY_NS_BOUNDS
        } else if bounds == SMALL_COUNT_BOUNDS {
            SMALL_COUNT_BOUNDS
        } else {
            continue; // consumed but unknown boundary set: skip
        };
        if let Some(slot) = snap.histogram_mut(&name) {
            *slot = HistogramSnapshot {
                boundaries,
                buckets,
                count,
                sum,
                max,
            };
        }
    }
    snap.events_dropped = r.u64()?;
    snap.tracing_enabled = r.u8()? != 0;
    Some(snap)
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    debug_assert!(name.len() <= u8::MAX as usize);
    out.push(name.len() as u8);
    out.extend_from_slice(name.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn name(&mut self) -> Option<String> {
        let len = self.u8()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{add, bump, EventKind, Obs};
    use asset_common::Tid;

    #[test]
    fn snapshot_round_trips_counters_histograms_and_flags() {
        let obs = Obs::new();
        obs.enable_tracing(16);
        bump(&obs.counters.txn_committed);
        add(&obs.counters.server_requests, 41);
        bump(&obs.counters.coord_msg_prepare);
        obs.lock_wait_ns.record(12_345);
        obs.in_doubt_ns.record(9_000_000);
        obs.commit_group_size.record(3);
        obs.record(EventKind::TxnBegin { tid: Tid(1) });
        let snap = obs.snapshot();
        let decoded = decode_snapshot(&encode_snapshot(&snap)).expect("decodes");
        assert_eq!(decoded.counters, snap.counters);
        assert_eq!(decoded.lock_wait_ns, snap.lock_wait_ns);
        assert_eq!(decoded.in_doubt_ns, snap.in_doubt_ns);
        assert_eq!(decoded.commit_group_size, snap.commit_group_size);
        assert_eq!(decoded.events_dropped, snap.events_dropped);
        assert_eq!(decoded.tracing_enabled, snap.tracing_enabled);
    }

    #[test]
    fn truncated_and_wrong_version_bodies_are_rejected() {
        let snap = Obs::new().snapshot();
        let enc = encode_snapshot(&snap);
        assert!(decode_snapshot(&enc[..enc.len() - 1]).is_none());
        assert!(decode_snapshot(&[]).is_none());
        let mut wrong = enc.clone();
        wrong[0] = 99;
        assert!(decode_snapshot(&wrong).is_none());
    }

    #[test]
    fn unknown_counter_names_are_skipped_not_fatal() {
        // splice a bogus counter in front: version, count=1, "nope"=7,
        // zero histograms, dropped=0, tracing=0
        let mut body = vec![SNAPSHOT_WIRE_VERSION];
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(4);
        body.extend_from_slice(b"nope");
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        body.push(0);
        let snap = decode_snapshot(&body).expect("decodes");
        assert_eq!(snap.counters.txn_committed, 0);
    }

    #[test]
    fn trace_ctx_round_trips() {
        let ctx = crate::TraceCtx {
            origin: 0xC0FFEE,
            root: 42,
        };
        assert_eq!(crate::TraceCtx::from_bytes(&ctx.to_bytes()), Some(ctx));
        assert_eq!(crate::TraceCtx::from_bytes(&[0; 11]), None);
    }
}
