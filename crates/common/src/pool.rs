//! The workspace's one pool of reused threads: the transaction threads
//! `Database::begin` hands bodies to, and the delivery threads a
//! coordinator's transport overlaps participant exchanges on.
//!
//! A job handed to the pool runs on a free thread, and a hand that finds
//! every thread taken spawns one — so a job never waits in the queue behind
//! another job that may be waiting on it (GC partners that rendezvous, a
//! body blocked until a later one releases it, two participants' prepares
//! contending for locks). The queue therefore never holds more jobs than
//! there are free threads. Free threads beyond the pool's `idle_max` exit,
//! and all of them once the pool is closed. The pool mutex is a leaf: no
//! job runs under it, and [`Work::finish`] runs outside it.

use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// What a [`Pool`]'s threads do.
pub trait Work: Send + Sync + 'static {
    /// One unit of work handed to the pool.
    type Job: Send + 'static;
    /// What running a job leaves for [`finish`](Self::finish).
    type Done;
    /// Run `job` on a pool thread.
    fn run(&self, job: Self::Job) -> Self::Done;
    /// Publish a job's result once its thread counts as free again: whoever
    /// learns here that the job is over and hands the next one finds the
    /// thread free, instead of spawning another.
    fn finish(&self, done: Self::Done);
    /// A pool thread was spawned.
    fn spawned(&self) {}
    /// A pool thread exited.
    fn exited(&self) {}
}

/// Threads that run [`Work::Job`]s, spawned when none is free.
pub struct Pool<W: Work> {
    work: W,
    name: &'static str,
    idle_max: usize,
    state: Mutex<State<W::Job>>,
    wake: Condvar,
}

struct State<J> {
    /// Handed jobs no thread has popped.
    queue: VecDeque<J>,
    /// Threads not running a job: waiting for one, or on their way back
    /// to the queue.
    free: usize,
    /// The pool's owner is gone.
    closed: bool,
}

impl<W: Work> Pool<W> {
    /// An empty pool doing `work` on threads named `name`, keeping at most
    /// `idle_max` free ones.
    pub fn new(work: W, name: &'static str, idle_max: usize) -> Arc<Pool<W>> {
        Arc::new(Pool {
            work,
            name,
            idle_max,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                free: 0,
                closed: false,
            }),
            wake: Condvar::new(),
        })
    }

    /// The work the threads do.
    pub fn work(&self) -> &W {
        &self.work
    }

    /// Queue `job` for a free thread, spawning one if every thread is
    /// taken. Should no thread spawn, the job waits for the next free one,
    /// or for its owner to [`reclaim`](Self::reclaim) it.
    pub fn hand(self: &Arc<Self>, job: W::Job) {
        let spawn = {
            let mut state = self.state.lock();
            state.queue.push_back(job);
            let spawn = state.queue.len() > state.free;
            state.free += usize::from(spawn);
            spawn
        };
        if !spawn {
            self.wake.notify_one();
            return;
        }
        // detached: a thread may drop its owner's last handle itself
        let me = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(self.name.into())
            .spawn(move || me.serve());
        match spawned {
            Ok(_) => self.work.spawned(),
            Err(_) => self.state.lock().free -= 1,
        }
    }

    /// Take back the first queued job `matches` accepts, if no thread has
    /// popped it yet: its owner runs it instead.
    pub fn reclaim(&self, matches: impl FnMut(&W::Job) -> bool) -> Option<W::Job> {
        let mut state = self.state.lock();
        let at = state.queue.iter().position(matches)?;
        state.queue.remove(at)
    }

    /// The owner is gone: waiting threads exit, running ones once their
    /// job and whatever is still queued are done.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.wake.notify_all();
    }

    /// A pool thread: pop and run; wait while nothing is queued; exit when
    /// surplus or closed.
    fn serve(self: Arc<Self>) {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.queue.pop_front() {
                state.free -= 1;
                drop(state);
                // a job that panics leaves nothing to finish, and the
                // thread free as after any other job
                let done = catch_unwind(AssertUnwindSafe(|| self.work.run(job)));
                self.state.lock().free += 1;
                if let Ok(done) = done {
                    self.work.finish(done);
                }
                state = self.state.lock();
            } else if state.closed || state.free > self.idle_max {
                state.free -= 1;
                drop(state);
                self.work.exited();
                return;
            } else {
                self.wake.wait(&mut state);
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{channel, Sender};

    /// Jobs are numbers sent back to the test, counting threads as they
    /// come and go.
    #[derive(Default)]
    struct Echo {
        spawned: AtomicU64,
        exited: AtomicU64,
    }

    impl Work for Echo {
        type Job = (u32, Sender<u32>);
        type Done = (u32, Sender<u32>);
        fn run(&self, job: Self::Job) -> Self::Done {
            job
        }
        fn finish(&self, (n, back): Self::Done) {
            let _ = back.send(n);
        }
        fn spawned(&self) {
            self.spawned.fetch_add(1, Ordering::Relaxed);
        }
        fn exited(&self) {
            self.exited.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One job at a time, each handed after the previous one finished,
    /// needs one thread; closing lets it go.
    #[test]
    fn sequential_jobs_reuse_one_thread_and_close_ends_it() {
        let pool = Pool::new(Echo::default(), "pool-test", 4);
        let (back, answers) = channel();
        for n in 0..200 {
            pool.hand((n, back.clone()));
            assert_eq!(answers.recv().unwrap(), n);
        }
        assert_eq!(pool.work().spawned.load(Ordering::Relaxed), 1);
        pool.close();
        while pool.work().exited.load(Ordering::Relaxed) < 1 {
            std::thread::yield_now();
        }
    }
}
