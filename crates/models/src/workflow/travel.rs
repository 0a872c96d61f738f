//! The paper's appendix workflow: person X travels to a conference
//! (June 11–14, 1994), needing a flight (Delta ≻ United ≻ American), the
//! hotel Equator, and optionally a car (National or Avis, raced — the
//! appendix begins both and keeps whichever completes first).
//!
//! The reservation "services" are inventory objects in the database: one
//! u64 seat/room/car counter per provider. A reservation decrements the
//! counter inside an atomic transaction that aborts when the counter is
//! zero; a cancellation increments it back (the compensating transaction).

use super::{Branch, Step, StepResult, Workflow, WorkflowOutcome};
use asset_common::{AssetError, Oid, Tid};
use asset_core::{Database, Handle, ObjectCodec, Result, TxnCtx};

/// The reservation inventory for the scenario.
#[derive(Clone, Debug)]
pub struct TravelWorld {
    /// Flight seat counters, in preference order.
    pub flights: Vec<(String, Oid)>,
    /// The hotel room counter.
    pub hotel: (String, Oid),
    /// Car counters, raced.
    pub cars: Vec<(String, Oid)>,
}

impl TravelWorld {
    /// Create the inventory with the given capacities.
    pub fn setup(
        db: &Database,
        delta: u64,
        united: u64,
        american: u64,
        equator: u64,
        national: u64,
        avis: u64,
    ) -> Result<TravelWorld> {
        let providers = [
            ("Delta", delta),
            ("United", united),
            ("American", american),
            ("Equator", equator),
            ("National", national),
            ("Avis", avis),
        ];
        let oids: Vec<Oid> = providers.iter().map(|_| db.new_oid()).collect();
        let seed: Vec<(Oid, u64)> = oids
            .iter()
            .copied()
            .zip(providers.iter().map(|p| p.1))
            .collect();
        let committed = db.run(move |ctx| {
            for (oid, cap) in &seed {
                ctx.put(Handle::from_oid(*oid), cap)?;
            }
            Ok(())
        })?;
        if !committed {
            return Err(AssetError::TxnAborted(Tid::NULL));
        }
        Ok(TravelWorld {
            flights: vec![
                ("Delta".into(), oids[0]),
                ("United".into(), oids[1]),
                ("American".into(), oids[2]),
            ],
            hotel: ("Equator".into(), oids[3]),
            cars: vec![("National".into(), oids[4]), ("Avis".into(), oids[5])],
        })
    }

    /// Remaining inventory of a provider (0 for a missing or malformed
    /// counter).
    #[expect(
        clippy::unwrap_used,
        reason = "a diagnostic read; a storage error here means the test setup is broken"
    )]
    pub fn remaining(&self, db: &Database, oid: Oid) -> u64 {
        db.peek(oid)
            .unwrap()
            .and_then(|b| u64::decode(&b).ok())
            .unwrap_or(0)
    }
}

/// `reserve`: decrement the provider's counter, aborting when sold out.
/// A malformed counter fails the reservation with `Corrupt`.
fn reserve(oid: Oid) -> impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static {
    let h = Handle::<u64>::from_oid(oid);
    move |ctx: &TxnCtx| {
        let cur = ctx.get(h)?.unwrap_or(0);
        if cur == 0 {
            return ctx.abort_self(); // sold out
        }
        ctx.put(h, &(cur - 1))
    }
}

/// `cancel_*_reservation`: increment the counter back.
fn cancel(oid: Oid) -> impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static {
    let h = Handle::<u64>::from_oid(oid);
    move |ctx: &TxnCtx| {
        let cur = ctx.get(h)?.unwrap_or(0);
        ctx.put(h, &(cur + 1))
    }
}

/// Build the `X_conference` workflow over `world`.
pub fn x_conference(world: &TravelWorld) -> Workflow {
    let flight_branches: Vec<Branch> = world
        .flights
        .iter()
        .map(|(name, oid)| Branch::new(name.clone(), reserve(*oid), cancel(*oid)))
        .collect();
    let (hotel_name, hotel_oid) = &world.hotel;
    let car_branches: Vec<Branch> = world
        .cars
        .iter()
        .map(|(name, oid)| Branch::new(name.clone(), reserve(*oid), cancel(*oid)))
        .collect();
    Workflow::new("X_conference")
        .step(Step::alternatives("flight", flight_branches))
        .step(Step::single(
            "hotel",
            Branch::new(hotel_name.clone(), reserve(*hotel_oid), cancel(*hotel_oid)),
        ))
        .step(Step::race("car", car_branches).optional())
}

/// Run the appendix activity end to end. Returns the outcome and per-step
/// results (`1`/`0` in the paper's int-returning function).
pub fn run_x_conference(
    db: &Database,
    world: &TravelWorld,
) -> Result<(WorkflowOutcome, Vec<StepResult>)> {
    x_conference(world).run(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everything_available_books_delta() {
        let db = Database::in_memory();
        let world = TravelWorld::setup(&db, 5, 5, 5, 5, 5, 5).unwrap();
        let (outcome, results) = run_x_conference(&db, &world).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Completed);
        assert_eq!(results[0].chosen.as_deref(), Some("Delta"));
        assert!(results[1].succeeded);
        assert!(results[2].succeeded, "a car was rented");
        assert_eq!(world.remaining(&db, world.flights[0].1), 4);
        assert_eq!(world.remaining(&db, world.hotel.1), 4);
        let cars_left =
            world.remaining(&db, world.cars[0].1) + world.remaining(&db, world.cars[1].1);
        assert_eq!(cars_left, 9, "exactly one car reserved across the race");
    }

    #[test]
    fn delta_sold_out_falls_back_to_united() {
        let db = Database::in_memory();
        let world = TravelWorld::setup(&db, 0, 3, 3, 3, 1, 1).unwrap();
        let (outcome, results) = run_x_conference(&db, &world).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Completed);
        assert_eq!(results[0].chosen.as_deref(), Some("United"));
        assert_eq!(world.remaining(&db, world.flights[1].1), 2);
    }

    #[test]
    fn no_flights_fails_the_activity() {
        let db = Database::in_memory();
        let world = TravelWorld::setup(&db, 0, 0, 0, 3, 1, 1).unwrap();
        let (outcome, _) = run_x_conference(&db, &world).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Failed { failed_step: 0 });
        assert_eq!(world.remaining(&db, world.hotel.1), 3, "hotel untouched");
    }

    #[test]
    fn hotel_sold_out_compensates_flight() {
        let db = Database::in_memory();
        let world = TravelWorld::setup(&db, 2, 2, 2, 0, 1, 1).unwrap();
        let (outcome, _) = run_x_conference(&db, &world).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Failed { failed_step: 1 });
        // the flight reservation already committed, so it was compensated
        assert_eq!(
            world.remaining(&db, world.flights[0].1),
            2,
            "Delta seat returned by cancel_flight_reservation"
        );
    }

    #[test]
    fn no_cars_trip_still_proceeds() {
        let db = Database::in_memory();
        let world = TravelWorld::setup(&db, 2, 2, 2, 2, 0, 0).unwrap();
        let (outcome, results) = run_x_conference(&db, &world).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Completed, "public transportation");
        assert!(!results[2].succeeded);
        assert_eq!(world.remaining(&db, world.flights[0].1), 1);
        assert_eq!(world.remaining(&db, world.hotel.1), 1);
    }

    #[test]
    fn malformed_counter_fails_the_reservation_without_panicking() {
        let db = Database::in_memory();
        let world = TravelWorld::setup(&db, 5, 5, 5, 5, 5, 5).unwrap();
        let delta = world.flights[0].1;
        assert!(db.run(move |ctx| ctx.write(delta, vec![1, 2, 3])).unwrap());
        let (outcome, results) = run_x_conference(&db, &world).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Completed);
        assert_eq!(results[0].chosen.as_deref(), Some("United"));
        assert_eq!(db.peek(delta).unwrap().unwrap(), vec![1, 2, 3]);
        assert_eq!(world.remaining(&db, world.flights[1].1), 4);
    }

    #[test]
    fn repeated_activities_drain_inventory() {
        let db = Database::in_memory();
        let world = TravelWorld::setup(&db, 2, 1, 0, 3, 2, 2).unwrap();
        // 1st: Delta; 2nd: Delta; 3rd: United; 4th: fails (no flights)
        let outcomes: Vec<WorkflowOutcome> = (0..4)
            .map(|_| run_x_conference(&db, &world).unwrap().0)
            .collect();
        assert_eq!(outcomes[0], WorkflowOutcome::Completed);
        assert_eq!(outcomes[1], WorkflowOutcome::Completed);
        assert_eq!(outcomes[2], WorkflowOutcome::Completed);
        assert_eq!(outcomes[3], WorkflowOutcome::Failed { failed_step: 0 });
        // only 3 hotel rooms existed and exactly 3 trips succeeded
        assert_eq!(world.remaining(&db, world.hotel.1), 0);
    }
}
