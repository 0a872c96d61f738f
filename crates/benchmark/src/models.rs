//! `models_mix`: the paper's own traffic — the appendix travel
//! workflow, nested transactions, sagas and cooperating pairs — through
//! the blocking thread-per-transaction API on an in-memory database.
//! Two closed-loop drivers; one unit is one *activity*.

use crate::common::{
    closed_loop_sheet, counter_sheet, ctx, join_drivers, ratio, span_sheet, traced_hist_sheet,
    DriverTally, Params, PassResult, SetupTimer, TraceSwitch, Window, EVENT_RING, R,
};
use crate::env::RunDir;
use crate::rng::Rng;
use crate::spec;
use crate::trace::{TraceData, Tracer};
use asset_common::{Config, ObSet, Oid};
use asset_core::{Database, TxnCtx};
use asset_models::workflow::travel::{run_x_conference, TravelWorld};
use asset_models::{nested, CoopSession, Coupling, Saga, SagaOutcome, WorkflowOutcome};
use std::time::Instant;

/// Inventory of every provider that is not sold out: large enough that
/// nothing drains during a fixed-time window.
const PLENTY: u64 = 1 << 40;

/// What a travel world was built to exercise, by `index % 20`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorldClass {
    /// Everything available: books Delta, the hotel and a car.
    Normal,
    /// Delta sold out (15 %): the contingent step falls back to United.
    DeltaSoldOut,
    /// Hotel sold out (10 %): the booked flight is compensated.
    HotelSoldOut,
    /// No cars (5 %): the optional step is skipped.
    NoCars,
}

impl WorldClass {
    /// The class of world `index`.
    pub fn of(index: usize) -> WorldClass {
        match index % 20 {
            0..=2 => WorldClass::DeltaSoldOut,
            3..=4 => WorldClass::HotelSoldOut,
            5 => WorldClass::NoCars,
            _ => WorldClass::Normal,
        }
    }
}

/// One activity of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activity {
    /// The appendix workflow over world `world`.
    Travel {
        /// Index of the world.
        world: usize,
    },
    /// A nested transaction with two subtransactions.
    Nested,
    /// A three-step saga; `fails` makes the last step abort, so the
    /// first two are compensated.
    Saga {
        /// Does the final step abort?
        fails: bool,
    },
    /// A cooperating pair writing one shared object.
    Coop,
}

#[cfg(test)]
impl Activity {
    /// The activity as bytes (for the determinism test).
    pub fn to_bytes(self) -> [u8; 5] {
        let (tag, arg) = match self {
            Activity::Travel { world } => (0, world as u32),
            Activity::Nested => (1, 0),
            Activity::Saga { fails } => (2, u32::from(fails)),
            Activity::Coop => (3, 0),
        };
        let mut b = [tag, 0, 0, 0, 0];
        b[1..].copy_from_slice(&arg.to_le_bytes());
        b
    }
}

/// Activities per block. Every block holds the same multiset — 40 %
/// travel (of which 15 / 10 / 5 % hit a Delta-sold-out / hotel-sold-out
/// / no-cars world), 25 % nested, 20 % saga (one in eight failing),
/// 15 % cooperating pair — in a seeded order, so the mix does not
/// drift with the window's length and compensations per whole block
/// are a constant of the workload.
pub const BLOCK: usize = 200;
/// Compensating transactions one block must run: 8 hotel-sold-out
/// travels (1 each) + 5 failing sagas (2 each).
pub const COMPENSATIONS_PER_BLOCK: u64 = 18;

/// Driver `thread`'s activity stream: a pure function of the seed.
pub struct ActivityStream {
    rng: Rng,
    /// World indices this driver may use, by class (drivers use disjoint
    /// worlds, so an activity's outcome never depends on the other
    /// driver's timing).
    worlds: [Vec<usize>; 4],
    block: Vec<Activity>,
}

impl ActivityStream {
    /// Stream of driver `thread` of `threads`.
    pub fn new(seed: u64, thread: usize, threads: usize) -> ActivityStream {
        let mut worlds: [Vec<usize>; 4] = Default::default();
        for i in (0..spec::TRAVEL_WORLDS).filter(|i| (i / 20) % threads == thread) {
            worlds[WorldClass::of(i) as usize].push(i);
        }
        ActivityStream {
            rng: Rng::new(seed, 0xAC7 + thread as u64),
            worlds,
            block: Vec::new(),
        }
    }

    fn refill(&mut self) {
        let travel = |class: WorldClass, n: usize| std::iter::repeat_n(class, n);
        let mut classes: Vec<WorldClass> = travel(WorldClass::Normal, 56)
            .chain(travel(WorldClass::DeltaSoldOut, 12))
            .chain(travel(WorldClass::HotelSoldOut, 8))
            .chain(travel(WorldClass::NoCars, 4))
            .collect();
        let mut block: Vec<Activity> = Vec::with_capacity(BLOCK);
        for class in classes.drain(..) {
            let pool = &self.worlds[class as usize];
            let world = pool[self.rng.below(pool.len() as u64) as usize];
            block.push(Activity::Travel { world });
        }
        block.extend(std::iter::repeat_n(Activity::Nested, 50));
        block.extend(std::iter::repeat_n(Activity::Saga { fails: false }, 35));
        block.extend(std::iter::repeat_n(Activity::Saga { fails: true }, 5));
        block.extend(std::iter::repeat_n(Activity::Coop, 30));
        debug_assert_eq!(block.len(), BLOCK);
        self.rng.shuffle(&mut block);
        self.block = block;
    }
}

impl Iterator for ActivityStream {
    type Item = Activity;

    fn next(&mut self) -> Option<Activity> {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop()
    }
}

/// The counters a driver's nested, saga and coop activities work on.
#[derive(Clone, Copy, Debug)]
struct DriverObjects {
    nested: [Oid; 2],
    /// Saga ledger: debit side, credit side, confirmations.
    saga: [Oid; 3],
    coop: Oid,
}

/// The database with everything the activities touch.
struct Bed {
    db: Database,
    worlds: Vec<TravelWorld>,
    drivers: Vec<DriverObjects>,
}

fn enc(v: i64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

/// Add `by` to the i64 counter `ob` inside transaction `t`.
fn bump(t: &TxnCtx, ob: Oid, by: i64) -> asset_core::Result<()> {
    t.update(ob, move |old| {
        enc(crate::common::decode_i64(old.as_deref()).wrapping_add(by))
    })
}

fn set_up() -> R<Bed> {
    let (db, _) = Database::open(Config::in_memory()).map_err(ctx("open database"))?;
    let mut worlds = Vec::with_capacity(spec::TRAVEL_WORLDS);
    for i in 0..spec::TRAVEL_WORLDS {
        let stock = |sold_out: bool| if sold_out { 0 } else { PLENTY };
        let class = WorldClass::of(i);
        let world = TravelWorld::setup(
            &db,
            stock(class == WorldClass::DeltaSoldOut),
            PLENTY,
            PLENTY,
            stock(class == WorldClass::HotelSoldOut),
            stock(class == WorldClass::NoCars),
            stock(class == WorldClass::NoCars),
        )
        .map_err(ctx("travel world"))?;
        worlds.push(world);
    }
    let drivers: Vec<DriverObjects> = (0..spec::DRIVERS)
        .map(|_| DriverObjects {
            nested: [db.new_oid(), db.new_oid()],
            saga: [db.new_oid(), db.new_oid(), db.new_oid()],
            coop: db.new_oid(),
        })
        .collect();
    let zeroed: Vec<Oid> = drivers
        .iter()
        .flat_map(|d| d.nested.into_iter().chain(d.saga).chain([d.coop]))
        .collect();
    let committed = db
        .run(move |t| zeroed.iter().try_for_each(|ob| t.write(*ob, enc(0))))
        .map_err(ctx("zero counters"))?;
    if !committed {
        return Err("counter bootstrap aborted".into());
    }
    Ok(Bed {
        db,
        worlds,
        drivers,
    })
}

/// What a driver saw its activities do — the expectation the final
/// state is checked against.
#[derive(Debug)]
struct Ledger {
    /// Per world, per provider (Delta, United, American, Equator,
    /// National, Avis): reservations that stayed booked.
    booked: Vec<[u64; 6]>,
    nested_ok: i64,
    saga_ok: i64,
    coop_ok: i64,
    /// Compensating transactions observed in whole blocks.
    compensations_in_blocks: u64,
    whole_blocks: u64,
    activities: u64,
    compensations: u64,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            booked: vec![[0; 6]; spec::TRAVEL_WORLDS],
            nested_ok: 0,
            saga_ok: 0,
            coop_ok: 0,
            compensations_in_blocks: 0,
            whole_blocks: 0,
            activities: 0,
            compensations: 0,
        }
    }
}

const PROVIDERS: [&str; 6] = ["Delta", "United", "American", "Equator", "National", "Avis"];

/// Run one activity; `Ok(true)` if it ended the way its inputs dictate
/// (a sold-out hotel that compensates the flight is such an ending).
fn perform(
    bed: &Bed,
    me: &DriverObjects,
    a: Activity,
    seen: &mut Ledger,
    tr: &mut Tracer,
) -> R<bool> {
    let db = &bed.db;
    let t0 = Instant::now();
    let (span, ok, compensations) = match a {
        Activity::Travel { world } => {
            let (outcome, steps) =
                run_x_conference(db, &bed.worlds[world]).map_err(ctx("travel workflow"))?;
            let chosen = |step: usize| steps.get(step).and_then(|s| s.chosen.as_deref());
            let (want_flight, want_outcome, want_car) = match WorldClass::of(world) {
                WorldClass::Normal => ("Delta", WorkflowOutcome::Completed, true),
                WorldClass::DeltaSoldOut => ("United", WorkflowOutcome::Completed, true),
                WorldClass::HotelSoldOut => {
                    ("Delta", WorkflowOutcome::Failed { failed_step: 1 }, false)
                }
                WorldClass::NoCars => ("Delta", WorkflowOutcome::Completed, false),
            };
            let ok = outcome == want_outcome
                && chosen(0) == Some(want_flight)
                && chosen(2).is_some() == want_car;
            if outcome == WorkflowOutcome::Completed {
                for name in steps.iter().filter_map(|s| s.chosen.as_deref()) {
                    if let Some(i) = PROVIDERS.iter().position(|p| *p == name) {
                        seen.booked[world][i] += 1;
                    }
                }
            }
            // a failed hotel step runs one compensation: the flight's
            (
                "models.travel",
                ok,
                u64::from(matches!(
                    outcome,
                    WorkflowOutcome::Failed { failed_step: 1 }
                )),
            )
        }
        Activity::Nested => {
            let [a, b] = me.nested;
            let committed = nested::run_nested(db, move |t| {
                nested::required_subtransaction(t, move |c| bump(c, a, 1))?;
                nested::required_subtransaction(t, move |c| bump(c, b, 1))
            })
            .map_err(ctx("nested transaction"))?;
            seen.nested_ok += i64::from(committed);
            ("models.nested", committed, 0)
        }
        Activity::Saga { fails } => {
            let [debit, credit, confirmed] = me.saga;
            let (outcome, trace) = Saga::new()
                .step(
                    "debit",
                    move |t| bump(t, debit, -5),
                    move |t| bump(t, debit, 5),
                )
                .step(
                    "credit",
                    move |t| bump(t, credit, 5),
                    move |t| bump(t, credit, -5),
                )
                .final_step("confirm", move |t| {
                    if fails {
                        return t.abort_self();
                    }
                    bump(t, confirmed, 1)
                })
                .run(db)
                .map_err(ctx("saga"))?;
            let compensations = trace.events.iter().filter(|e| e.starts_with('~')).count() as u64;
            let ok = match outcome {
                SagaOutcome::Committed => !fails && compensations == 0,
                SagaOutcome::Compensated { failed_step } => {
                    fails && failed_step == 2 && compensations == 2
                }
            };
            seen.saga_ok += i64::from(outcome == SagaOutcome::Committed);
            ("models.saga", ok, compensations)
        }
        Activity::Coop => {
            let shared = me.coop;
            let spawn = || {
                db.initiate(move |t| bump(t, shared, 1))
                    .map_err(ctx("coop initiate"))
            };
            let (leader, follower) = (spawn()?, spawn()?);
            CoopSession::establish(db, leader, follower, ObSet::one(shared), Coupling::Mutual)
                .map_err(ctx("coop establish"))?;
            // the partners take turns: permits trade isolation for
            // concurrency, so unsynchronised increments could be lost
            let mut completed = true;
            for t in [leader, follower] {
                db.begin(t).map_err(ctx("coop begin"))?;
                completed &= db.wait(t).map_err(ctx("coop wait"))?;
            }
            // one commit takes the whole GC group through
            let committed = completed
                && db.commit(leader).map_err(ctx("coop commit"))?
                && db.commit(follower).map_err(ctx("coop commit"))?;
            seen.coop_ok += i64::from(committed);
            ("models.coop", committed, 0)
        }
    };
    tr.child(span, t0, Instant::now());
    seen.compensations += compensations;
    Ok(ok)
}

fn peek_i64(db: &Database, ob: Oid) -> R<i64> {
    let v = db.peek(ob).map_err(ctx("peek"))?;
    Ok(crate::common::decode_i64(v.as_deref()))
}

/// The gate: every provider's inventory equals its initial stock minus
/// the bookings the drivers saw stay booked; nested and coop counters
/// equal what committed; each saga ledger nets to zero.
fn final_state_gate(res: &mut PassResult, bed: &Bed, seen: &[Ledger]) -> R<()> {
    let mut booked = vec![[0u64; 6]; bed.worlds.len()];
    for (world, kept) in seen.iter().flat_map(|l| l.booked.iter().enumerate()) {
        for (total, k) in booked[world].iter_mut().zip(kept) {
            *total += k;
        }
    }
    for (i, world) in bed.worlds.iter().enumerate() {
        let class = WorldClass::of(i);
        let oids = world
            .flights
            .iter()
            .chain([&world.hotel])
            .chain(&world.cars);
        for (p, (name, oid)) in oids.enumerate() {
            let sold_out = match class {
                WorldClass::DeltaSoldOut => p == 0,
                WorldClass::HotelSoldOut => p == 3,
                WorldClass::NoCars => p >= 4,
                WorldClass::Normal => false,
            };
            let initial = if sold_out { 0 } else { PLENTY };
            let left = world.remaining(&bed.db, *oid);
            res.gate(left + booked[i][p] == initial, || {
                format!(
                    "world {i} {name}: {left} left + {} booked != {initial} initial",
                    booked[i][p]
                )
            });
        }
    }
    for (d, (me, l)) in bed.drivers.iter().zip(seen).enumerate() {
        let db = &bed.db;
        let nested = [peek_i64(db, me.nested[0])?, peek_i64(db, me.nested[1])?];
        res.gate(nested == [l.nested_ok; 2], || {
            format!(
                "driver {d}: nested counters {nested:?}, {} committed",
                l.nested_ok
            )
        });
        let saga = [
            peek_i64(db, me.saga[0])?,
            peek_i64(db, me.saga[1])?,
            peek_i64(db, me.saga[2])?,
        ];
        res.gate(
            saga[0] + saga[1] == 0 && saga == [-5 * l.saga_ok, 5 * l.saga_ok, l.saga_ok],
            || {
                format!(
                    "driver {d}: saga ledger {saga:?} after {} committed sagas",
                    l.saga_ok
                )
            },
        );
        let coop = peek_i64(db, me.coop)?;
        res.gate(coop == 2 * l.coop_ok, || {
            format!(
                "driver {d}: shared object at {coop} after {} committed pairs",
                l.coop_ok
            )
        });
    }
    Ok(())
}

/// Run `models_mix`.
pub fn run(p: &Params, dir: &mut RunDir) -> R<(PassResult, TraceData)> {
    let (bed, setup) = SetupTimer::first(dir, |_| set_up())?;
    let mut res = PassResult::begin();
    let db = &bed.db;
    let before = db.metrics_snapshot();
    let log_before = db.engine().log().watermarks().tail.0;
    let switch = TraceSwitch::new(p.traced);
    let w = Window::start(p);
    let outs: Vec<R<(DriverTally, Ledger, Tracer)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bed
            .drivers
            .iter()
            .enumerate()
            .map(|(i, me)| {
                let (w, switch, bed) = (&w, &switch, &bed);
                scope.spawn(move || {
                    let mut stream = ActivityStream::new(p.seed, i, spec::DRIVERS);
                    let mut tally = DriverTally::default();
                    let mut seen = Ledger::new();
                    let mut tracer = Tracer::new(w.epoch, i as u32);
                    for n in 0u64.. {
                        let start = Instant::now();
                        if w.over(start) {
                            break;
                        }
                        switch.poll(w.measuring(start), &mut tracer, || {
                            bed.db.obs().enable_tracing(EVENT_RING);
                        });
                        let a = stream.next().expect("activity streams are endless");
                        tracer.open("models.activity", (i as u64) << 48 | n, start);
                        let ok = perform(bed, me, a, &mut seen, &mut tracer)?;
                        let done = Instant::now();
                        tracer.close(done);
                        tally.record(w, start, done, ok, 0);
                        seen.activities += 1;
                        if seen.activities.is_multiple_of(BLOCK as u64) {
                            seen.whole_blocks += 1;
                            seen.compensations_in_blocks = seen.compensations;
                        }
                    }
                    Ok((tally, seen, tracer))
                })
            })
            .collect();
        join_drivers(handles)
    });
    let run_s = w.elapsed_s();
    let mut tally = DriverTally::default();
    let mut trace = TraceData::default();
    let mut seen = Vec::new();
    for out in outs {
        let (t, l, tr) = out?;
        tally.absorb(t);
        trace.absorb(tr);
        seen.push(l);
    }
    closed_loop_sheet(&mut res, &w, &mut tally, p.traced);
    let activities: u64 = seen.iter().map(|l| l.activities).sum();
    let delta = db.metrics_snapshot().delta(&before);
    counter_sheet(&mut res, &delta, activities, run_s);
    let log_bytes = db.engine().log().watermarks().tail.0 - log_before;
    res.sheet.set(
        "log_bytes_per_txn",
        ratio(log_bytes as f64, activities as f64),
    );
    // over whole blocks the count is a constant of the workload; a run
    // too short for one block reports what it saw
    let blocks: u64 = seen.iter().map(|l| l.whole_blocks).sum();
    let (comps, over) = if blocks > 0 {
        (
            seen.iter().map(|l| l.compensations_in_blocks).sum::<u64>(),
            blocks * BLOCK as u64,
        )
    } else {
        (seen.iter().map(|l| l.compensations).sum(), activities)
    };
    res.sheet.set(
        "models.compensations_per_kactivity",
        1e3 * ratio(comps as f64, over as f64),
    );
    res.gate(
        blocks == 0 || comps == blocks * COMPENSATIONS_PER_BLOCK,
        || {
            format!(
                "{comps} compensations in {blocks} whole blocks, the mix dictates {}",
                blocks * COMPENSATIONS_PER_BLOCK
            )
        },
    );
    if p.traced {
        db.obs().disable_tracing();
        traced_hist_sheet(&mut res.sheet, &delta);
        for kind in ["travel", "nested", "saga", "coop"] {
            span_sheet(
                &mut res.sheet,
                &trace,
                &format!("models.{kind}"),
                &format!("models.{kind}_us_p50"),
                None,
            );
        }
        res.sheet
            .set("models.unattributed_frac", trace.unattributed_frac());
    }
    final_state_gate(&mut res, &bed, &seen)?;
    drop(bed);
    setup.finish(p, dir, &mut res, |_| set_up(), drop)?;
    Ok((res, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_streams_are_seeded_and_keep_the_declared_mix() {
        let bytes = |seed, thread| -> Vec<u8> {
            ActivityStream::new(seed, thread, 2)
                .take(3 * BLOCK)
                .flat_map(Activity::to_bytes)
                .collect()
        };
        assert_eq!(bytes(1, 0), bytes(1, 0));
        assert_ne!(bytes(1, 0), bytes(2, 0));
        assert_ne!(bytes(1, 0), bytes(1, 1));
        // every block: 80 travel, 50 nested, 40 saga (5 failing), 30 coop
        let block: Vec<Activity> = ActivityStream::new(5, 1, 2)
            .skip(BLOCK)
            .take(BLOCK)
            .collect();
        let count = |f: fn(&Activity) -> bool| block.iter().filter(|a| f(a)).count();
        assert_eq!(count(|a| matches!(a, Activity::Travel { .. })), 80);
        assert_eq!(count(|a| matches!(a, Activity::Nested)), 50);
        assert_eq!(count(|a| matches!(a, Activity::Saga { .. })), 40);
        assert_eq!(count(|a| matches!(a, Activity::Saga { fails: true })), 5);
        assert_eq!(count(|a| matches!(a, Activity::Coop)), 30);
        let hotel_out = block
            .iter()
            .filter(|a| matches!(a, Activity::Travel { world } if WorldClass::of(*world) == WorldClass::HotelSoldOut))
            .count();
        assert_eq!(hotel_out as u64 + 2 * 5, COMPENSATIONS_PER_BLOCK);
        // drivers never share a world
        for a in &block {
            if let Activity::Travel { world } = a {
                assert_eq!((world / 20) % 2, 1);
            }
        }
    }
}
