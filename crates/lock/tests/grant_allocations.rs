//! An uncontended grant and its release allocate nothing: an object
//! descriptor holds its first lock-request descriptor in place. Driven
//! through the list-taking pair asset-core uses, with the caller's list
//! reused. Counted with a global allocator that tallies the heap blocks
//! this thread asks for.

use asset_common::{Oid, Operation, Tid};
use asset_lock::LockTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the count is a
// const-initialized thread-local `Cell`, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        // SAFETY: the caller's contract for `alloc` is passed on as it is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        // SAFETY: the caller's contract for `realloc` is passed on as it is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap blocks asked for while transaction `first + i` write-locks object
/// `first + i`, lists it in `held` and releases it, for `n` distinct pairs.
fn blocks_for(table: &LockTable, held: &mut Vec<Oid>, first: u64, n: u64) -> u64 {
    let before = BLOCKS.with(Cell::get);
    for i in first..first + n {
        let new = (table.acquire(Tid(i), Oid(i), Operation::Write, None)).expect("uncontended");
        if new {
            held.push(Oid(i));
        }
        assert_eq!(table.release(Tid(i), held), 1);
        held.clear();
    }
    BLOCKS.with(Cell::get) - before
}

#[test]
fn uncontended_grant_and_release_cycles_allocate_no_block_per_cycle() {
    let (table, mut held) = (LockTable::with_shards(8), Vec::new());
    // warm-up: the stripes' maps and the list reach the capacity one cycle needs
    blocks_for(&table, &mut held, 1, 1_000);
    let small = blocks_for(&table, &mut held, 10_000, 1_000);
    let large = blocks_for(&table, &mut held, 100_000, 16_000);
    assert_eq!(
        (small, large),
        (0, 0),
        "1 000 cycles asked for {small} blocks, 16 000 for {large}"
    );
}
