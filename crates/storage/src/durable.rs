//! Durable writes: the one place this crate writes, cuts or syncs a file.
//! Each goes through the [`Failpoint`] that guards it, so a crash can be
//! tested on either side of every one, and the crate's `clippy.toml` bans
//! the methods they wrap anywhere else. Without the `faults` feature the
//! failpoints compile to nothing.
#![expect(clippy::disallowed_methods, reason = "the guarded durable writes")]

use asset_common::sync::may_block;
use asset_faults::FaultRegistry;
use std::fs::File;
use std::io::{Result, Write};

/// A failpoint guarding a durable write: its registry and its name.
#[derive(Clone, Copy)]
#[cfg_attr(
    not(feature = "faults"),
    expect(dead_code, reason = "read by failpoints")
)]
pub(crate) struct Failpoint<'a>(pub &'a FaultRegistry, pub &'static str);

impl Failpoint<'_> {
    /// Where nothing is written or synced: `Error` refuses, a crash action
    /// crashes.
    pub(crate) fn check(self) -> Result<()> {
        asset_faults::failpoint!(self.0, self.1, |act| {
            return Err(self.0.realize_plain(self.1, act));
        });
        Ok(())
    }

    /// Make `file`, which ends at `len`, end in `bytes` — or, with no
    /// bytes, cut it to `len`: `Torn` lands a prefix of `bytes` and
    /// crashes, `Error` refuses with nothing written, `Crash` crashes. A
    /// write that fails partway is left as it is: a torn log block (the
    /// log stops, and restart chops it) or a partial image beside the
    /// store, which is never renamed over it.
    pub(crate) fn write(self, mut file: &File, len: u64, bytes: &[u8]) -> Result<()> {
        asset_faults::failpoint!(self.0, self.1, |act| {
            if let asset_faults::FaultAction::Torn { keep_per_mille } = act {
                self.tear(keep_per_mille, file, bytes);
            }
            return Err(self.0.realize_plain(self.1, act));
        });
        if bytes.is_empty() {
            return file.set_len(len);
        }
        file.write_all(bytes)
    }

    /// Make `file` stable — its data, or all of it (a directory whose
    /// entries changed) — and say whether it synced: `ElideSync` skips the
    /// sync and reports success, `Error` refuses, a crash action crashes.
    pub(crate) fn sync(self, file: &File, all: bool) -> Result<bool> {
        if asset_faults::failpoint_sync!(self.0, self.1) {
            return Ok(false);
        }
        may_block();
        let sync = if all { File::sync_all } else { File::sync_data };
        sync(file).map(|()| true)
    }

    /// The `Torn` action: `keep_per_mille` thousandths of `bytes` reach
    /// the end of `file`, then the process dies.
    #[cfg(feature = "faults")]
    pub(crate) fn tear(self, keep_per_mille: u16, mut file: &File, bytes: &[u8]) -> ! {
        let _ = file.write_all(&bytes[..bytes.len() * keep_per_mille as usize / 1000]);
        self.0.crash_now(self.1)
    }
}
