//! Meta fixture (violating) — asset-lock's crate root after `poison` was
//! renamed `poison_all` while `BLESSED` still lists `poison`: the stale
//! entry would exempt any later `poison` call from R2, so it is reported.

impl LockTable {
    #[verify_allow(lock_order, reason = "one stripe at a time")]
    pub fn release_all(&self, tid: Tid) -> usize {
        0
    }

    #[verify_allow(lock_order, reason = "one stripe at a time")]
    pub fn delegate(&self, from: Tid, to: Tid) {}

    #[verify_allow(lock_order, reason = "one stripe at a time")]
    pub fn permit(&self, grantor: Tid) {}

    #[verify_allow(lock_order, reason = "one stripe at a time")]
    pub fn permit_accessed(&self, grantor: Tid) {}

    #[verify_allow(lock_order, reason = "one stripe at a time")]
    pub fn poison_all(&self) {}
}
