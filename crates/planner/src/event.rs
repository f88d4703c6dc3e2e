//! Typed events driving the planner kernel, and their outcomes.
//!
//! Every adapter mutation is one of these events; [`PlannerCore::apply`]
//! dispatches them onto the kernel's named methods. The event form exists
//! so callers that treat the kernel as a state machine (the CLI's offline
//! replay, future sharding/replication layers) can log, forward and replay
//! a single stream; in-process adapters are free to call the methods
//! directly — the two surfaces are defined to be equivalent.

use crate::core::{JobId, JobSpec, PlanDelta, PlannerCore, SampleOutcome};
use crate::PlannerError;

/// One state transition of the planner kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannerEvent {
    /// A job entered the system. With `id: None` the kernel assigns the
    /// next free id (daemon semantics); with `Some(id)` the caller owns
    /// the id space (simulator semantics) and re-registration replaces
    /// the record.
    JobArrival {
        /// Caller-chosen id, or `None` to let the kernel assign one.
        id: Option<JobId>,
        /// The job being registered.
        spec: JobSpec,
    },
    /// A task of `job` completed in `runtime` slots.
    TaskSample {
        /// The job the sample belongs to.
        job: JobId,
        /// Observed task runtime in slots.
        runtime: u64,
    },
    /// A task attempt of `job` failed (its η inflates next plan).
    TaskFailed {
        /// The job charged with the failure.
        job: JobId,
    },
    /// `job` was cancelled or fully completed; drop it from the registry.
    Cancel {
        /// The job to remove.
        job: JobId,
    },
    /// Admission control parked or unparked `job`.
    SetParked {
        /// The job to (un)park.
        job: JobId,
        /// `true` to park, `false` to unpark.
        parked: bool,
    },
    /// The epoch closed / the clock reads `now_slot`: ensure the plan is
    /// fresh, recomputing from the registry if needed.
    Tick {
        /// Logical slot to plan at.
        now_slot: u64,
    },
    /// The cluster's effective capacity changed (spot revocation, restock,
    /// node failure, operator resize). The next plan pass replans against
    /// the new total; the peel replay treats it as a divergence layer
    /// rather than a from-scratch re-peel.
    CapacityChange {
        /// New effective capacity in containers; must be ≥ 1.
        capacity: u32,
    },
}

/// What applying a [`PlannerEvent`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum EventOutcome {
    /// The job was registered under this id.
    Arrived {
        /// Assigned (or caller-chosen) job id.
        job: JobId,
    },
    /// The sample was ingested.
    Sampled(SampleOutcome),
    /// The failure was recorded (`known` = the job was resident).
    FailureRecorded {
        /// Whether the job was resident.
        known: bool,
    },
    /// The cancel was processed (`known` = the job was resident).
    Cancelled {
        /// Whether the job was resident.
        known: bool,
    },
    /// The park flag was updated.
    Parked,
    /// The plan is fresh; this is what the last replan changed.
    Planned(PlanDelta),
    /// The capacity was updated.
    CapacityChanged {
        /// The new effective capacity.
        capacity: u32,
    },
}

impl PlannerCore {
    /// Applies one typed event. Equivalent to calling the corresponding
    /// named method ([`PlannerCore::admit`], [`PlannerCore::ingest_sample`],
    /// [`PlannerCore::record_failure`], [`PlannerCore::cancel`],
    /// [`PlannerCore::set_parked`], [`PlannerCore::plan_at`]) — except
    /// [`PlannerEvent::CapacityChange`], whose setter is crate-private:
    /// the event is the only public way to change capacity.
    ///
    /// # Errors
    ///
    /// Whatever the corresponding method returns.
    pub fn apply(&mut self, event: PlannerEvent) -> Result<EventOutcome, PlannerError> {
        match event {
            PlannerEvent::JobArrival { id: None, spec } => {
                Ok(EventOutcome::Arrived { job: self.admit(spec) })
            }
            PlannerEvent::JobArrival { id: Some(id), spec } => {
                self.admit_as(id, spec);
                Ok(EventOutcome::Arrived { job: id })
            }
            PlannerEvent::TaskSample { job, runtime } => {
                self.ingest_sample(job, runtime).map(EventOutcome::Sampled)
            }
            PlannerEvent::TaskFailed { job } => {
                Ok(EventOutcome::FailureRecorded { known: self.record_failure(job) })
            }
            PlannerEvent::Cancel { job } => {
                Ok(EventOutcome::Cancelled { known: self.cancel(job) })
            }
            PlannerEvent::SetParked { job, parked } => {
                self.set_parked(job, parked)?;
                Ok(EventOutcome::Parked)
            }
            PlannerEvent::Tick { now_slot } => {
                let delta = self.plan_at(now_slot)?.clone();
                Ok(EventOutcome::Planned(delta))
            }
            PlannerEvent::CapacityChange { capacity } => {
                if capacity == 0 {
                    return Err(PlannerError::Config("capacity must be >= 1".into()));
                }
                self.set_capacity(capacity);
                Ok(EventOutcome::CapacityChanged { capacity })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_core::RushConfig;
    use rush_utility::TimeUtility;

    fn spec(label: &str, tasks: u64) -> JobSpec {
        JobSpec {
            label: label.into(),
            utility: TimeUtility::sigmoid(400.0, 3.0, 0.02).expect("valid utility"),
            tasks,
            arrived_slot: 0,
            runtime_hint: Some(40.0),
            parked: false,
        }
    }

    #[test]
    fn event_stream_is_equivalent_to_method_calls() {
        let mut by_events = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let mut by_methods = PlannerCore::new(RushConfig::default(), 8).expect("kernel");

        let id = match by_events
            .apply(PlannerEvent::JobArrival { id: None, spec: spec("a", 5) })
            .expect("arrival")
        {
            EventOutcome::Arrived { job } => job,
            other => panic!("unexpected outcome {other:?}"),
        };
        by_events.apply(PlannerEvent::TaskSample { job: id, runtime: 42 }).expect("sample");
        by_events.apply(PlannerEvent::TaskFailed { job: id }).expect("failure");
        let planned = by_events.apply(PlannerEvent::Tick { now_slot: 3 }).expect("tick");

        let mid = by_methods.admit(spec("a", 5));
        by_methods.ingest_sample(mid, 42).expect("sample");
        by_methods.record_failure(mid);
        let mdelta = by_methods.plan_at(3).expect("plan").clone();

        assert_eq!(id, mid);
        assert_eq!(planned, EventOutcome::Planned(mdelta));
        assert_eq!(by_events.plan(), by_methods.plan());
        assert_eq!(by_events.plan_ids(), by_methods.plan_ids());
    }

    #[test]
    fn explicit_id_arrival_replaces_and_bumps_next_id() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        k.apply(PlannerEvent::JobArrival { id: Some(JobId(7)), spec: spec("x", 3) })
            .expect("arrival");
        assert_eq!(k.next_id(), 8);
        assert_eq!(k.job(JobId(7)).map(|j| j.remaining_tasks), Some(3));
        // Re-registration replaces the record.
        k.apply(PlannerEvent::JobArrival { id: Some(JobId(7)), spec: spec("x", 9) })
            .expect("arrival");
        assert_eq!(k.job(JobId(7)).map(|j| j.remaining_tasks), Some(9));
    }

    #[test]
    fn cancel_and_park_events_report_status() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let id = k.admit(spec("a", 2));
        assert_eq!(
            k.apply(PlannerEvent::SetParked { job: id, parked: true }).expect("park"),
            EventOutcome::Parked
        );
        assert_eq!(
            k.apply(PlannerEvent::Cancel { job: id }).expect("cancel"),
            EventOutcome::Cancelled { known: true }
        );
        assert_eq!(
            k.apply(PlannerEvent::Cancel { job: id }).expect("cancel"),
            EventOutcome::Cancelled { known: false }
        );
        assert!(k.apply(PlannerEvent::SetParked { job: id, parked: true }).is_err());
    }

    #[test]
    fn capacity_change_event_matches_method_call() {
        let mut by_events = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let mut by_methods = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        by_events.apply(PlannerEvent::JobArrival { id: None, spec: spec("a", 5) }).expect("a");
        by_methods.admit(spec("a", 5));
        by_events.apply(PlannerEvent::Tick { now_slot: 0 }).expect("tick");
        by_methods.plan_at(0).expect("plan");

        // A revocation mid-stream: the event and the method land on the
        // same kernel state and the same next plan.
        assert_eq!(
            by_events.apply(PlannerEvent::CapacityChange { capacity: 5 }).expect("capacity"),
            EventOutcome::CapacityChanged { capacity: 5 }
        );
        by_methods.set_capacity(5);
        assert_eq!(by_events.capacity(), by_methods.capacity());
        let de = by_events.apply(PlannerEvent::Tick { now_slot: 1 }).expect("tick");
        let dm = by_methods.plan_at(1).expect("plan").clone();
        assert_eq!(de, EventOutcome::Planned(dm));
        assert_eq!(by_events.plan(), by_methods.plan());

        // Zero capacity is rejected as a typed config error.
        assert!(matches!(
            by_events.apply(PlannerEvent::CapacityChange { capacity: 0 }),
            Err(PlannerError::Config(_))
        ));
    }
}
