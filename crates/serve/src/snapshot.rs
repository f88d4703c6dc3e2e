//! Durable daemon state: snapshot on shutdown, restore on startup.
//!
//! The snapshot is one JSON document (same strict codec as the wire
//! protocol, and the same `wire.rs` field list for the submission
//! inside each job record) holding the kernel's job records
//! ([`rush_planner::JobRecord`], written and read as they are), the id
//! counter, the daemon counters and the logical slot at which the
//! snapshot was taken. It deliberately
//! does **not** store the [`rush_core::RushConfig`] or the capacity as the
//! source of truth — those come from the daemon's startup flags — but it
//! records both and the restore path *verifies* them, because a plan is
//! only reproducible under the same configuration.
//!
//! Restoring sets the restarted daemon's slot clock base to the snapshot's
//! `now_slot`, so job ages — and therefore the age-shifted utilities, the
//! peel targets and the whole plan — are bit-identical to what the old
//! daemon would have produced at that slot (`tests/snapshot_restore.rs`
//! proves this).

use crate::state::{Counters, ServeState};
use crate::wire::{self, DocFormat, Wire};
use crate::ServeError;
use rush_core::cluster::{ClusterModel, ContainerClass, ReliabilityTier};
use rush_core::RushConfig;
use rush_planner::JobRecord;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Format version of the snapshot document.
pub const SNAPSHOT_VERSION: u64 = 1;

const KIND: &str = "rushd-snapshot";

fn snap_err(msg: impl Into<String>) -> ServeError {
    ServeError::Snapshot(msg.into())
}

/// The snapshot document, described once for both directions like every
/// wire message (see `wire.rs`).
#[derive(Default)]
struct Document {
    now_slot: u64,
    next_id: u64,
    capacity: u32,
    /// The attached [`ClusterModel`], minus its event schedule: capacity
    /// changes arrive over the wire, so only the provisioned classes are
    /// durable state. Absent in a pre-model snapshot, which restores
    /// without revocation-aware admission, exactly as that daemon ran.
    cluster: Option<ClusterModel>,
    theta: f64,
    delta: f64,
    counters: Counters,
    jobs: Vec<(u64, JobRecord)>,
}

fn document<F: DocFormat>(f: &mut F, d: &Document) -> Wire<Document> {
    let v = f.u64("v", SNAPSHOT_VERSION)?;
    f.reject(v != SNAPSHOT_VERSION, "v", "unsupported snapshot version")?;
    let kind = f.string("kind", KIND)?;
    f.reject(kind != KIND, "kind", "not a rushd snapshot")?;
    let now_slot = f.u64("now_slot", d.now_slot)?;
    let next_id = f.u64("next_id", d.next_id)?;
    let capacity = f.u32("capacity", d.capacity)?;
    let no_model = ClusterModel { classes: Vec::new(), events: Vec::new() };
    let cluster = if f.present("cluster", d.cluster.is_some())? {
        Some(f.nested("cluster", d.cluster.as_ref().unwrap_or(&no_model), cluster)?)
    } else {
        None
    };
    Ok(Document {
        now_slot,
        next_id,
        capacity,
        cluster,
        theta: f.f64("theta", d.theta)?,
        delta: f.f64("delta", d.delta)?,
        counters: f.nested("counters", &d.counters, counters)?,
        jobs: f.list("jobs", &d.jobs, &Default::default(), job)?,
    })
}

fn cluster<F: DocFormat>(f: &mut F, m: &ClusterModel) -> Wire<ClusterModel> {
    let provisioned = f.u32("provisioned", m.total_capacity())?;
    let blank = ContainerClass {
        name: String::new(),
        count: 0,
        price: 0.0,
        tier: ReliabilityTier::Reserved,
    };
    let model =
        ClusterModel { classes: f.list("classes", &m.classes, &blank, class)?, events: Vec::new() };
    f.reject(provisioned != model.total_capacity(), "provisioned", "disagrees with the classes")?;
    Ok(model)
}

fn class<F: DocFormat>(f: &mut F, c: &ContainerClass) -> Wire<ContainerClass> {
    Ok(ContainerClass {
        name: f.string("name", &c.name)?,
        count: f.u32("count", c.count)?,
        price: f.f64("price", c.price)?,
        tier: f.text(
            "tier",
            c.tier,
            |t| t.as_str().to_string(),
            |s| ReliabilityTier::from_wire(s).ok_or_else(|| "unknown tier".to_string()),
        )?,
    })
}

fn counters<F: DocFormat>(f: &mut F, c: &Counters) -> Wire<Counters> {
    Ok(Counters {
        epochs: f.u64("epochs", c.epochs)?,
        admitted: f.u64("admitted", c.admitted)?,
        deferred: f.u64("deferred", c.deferred)?,
        rejected: f.u64("rejected", c.rejected)?,
        cancelled: f.u64("cancelled", c.cancelled)?,
        completed: f.u64("completed", c.completed)?,
        samples: f.u64("samples", c.samples)?,
    })
}

/// A job record is the wire's submission — same fields, same validation —
/// plus the kernel's bookkeeping for it.
fn job<F: DocFormat>(f: &mut F, (id, j): &(u64, JobRecord)) -> Wire<(u64, JobRecord)> {
    let id = f.u64("id", *id)?;
    let submission = wire::submission(f, &j.submission)?;
    let remaining_tasks = f.u64("remaining_tasks", j.remaining_tasks)?;
    f.reject(remaining_tasks > submission.tasks, "remaining_tasks", "must be <= tasks")?;
    let record = JobRecord {
        submission,
        remaining_tasks,
        arrived_slot: f.u64("arrived_slot", j.arrived_slot)?,
        parked: f.boolean("parked", j.parked)?,
        samples: f.u64s("samples", &j.samples)?,
    };
    Ok((id, record))
}

/// Serializes the daemon state (plus the slot it was taken at) to a JSON
/// document.
pub fn encode(state: &ServeState, now_slot: u64) -> String {
    let doc = Document {
        now_slot,
        next_id: state.next_id(),
        capacity: state.capacity(),
        cluster: state.cluster_model().cloned(),
        theta: state.config().theta,
        delta: state.config().delta,
        counters: state.counters(),
        jobs: state.jobs().map(|(id, j)| (id, j.clone())).collect(),
    };
    wire::to_json(|w| document(w, &doc).map(drop))
}

/// Rebuilds a [`ServeState`] from a snapshot document under the daemon's
/// startup `config` and `capacity`. Returns the state and the logical slot
/// the snapshot was taken at (the restarted clock's base).
///
/// A snapshot file is input from outside the program: every job record
/// passes the same validation a `submit` frame does.
///
/// # Errors
///
/// [`ServeError::Snapshot`] when the document is malformed, claims a
/// different format version, or was taken under a different capacity /
/// `θ` / `δ` than the daemon was restarted with.
pub fn decode(text: &str, config: RushConfig, capacity: u32) -> Result<(ServeState, u64), ServeError> {
    let doc = wire::from_json(text, |r| document(r, &Document::default()))
        .map_err(|e| snap_err(e.message))?;
    if doc.capacity != capacity {
        return Err(snap_err(format!(
            "snapshot was taken at capacity {}, daemon restarted with {capacity}",
            doc.capacity
        )));
    }
    for (name, want, have) in
        [("theta", doc.theta, config.theta), ("delta", doc.delta, config.delta)]
    {
        if (want - have).abs() > 1e-12 {
            return Err(snap_err(format!(
                "snapshot was taken with {name}={want}, daemon restarted with {have}"
            )));
        }
    }
    let state = ServeState::from_parts(config, capacity, doc.jobs, doc.next_id, doc.counters)?;
    let state = match doc.cluster {
        None => state,
        // The refusal already names the model: it is re-filed as a
        // snapshot error, not prefixed again.
        Some(model) => state.with_cluster_model(model).map_err(|e| match e {
            ServeError::Config(reason) => snap_err(reason),
            other => other,
        })?,
    };
    Ok((state, doc.now_slot))
}

/// The file a snapshot bound for `path` is staged in: `.tmp` appended to
/// the whole file name, so distinct snapshot paths stage in distinct files.
/// (`Path::with_extension` *replaces* the last extension and would stage
/// `snap.json.shard0` and `snap.json.shard1` in the same `snap.json.tmp`,
/// which concurrently snapshotting shards then race on.)
fn temp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Writes a snapshot atomically and durably: the document is staged in a
/// temp file next to `path`, synced to disk, and renamed into place, so a
/// crash leaves either the previous snapshot or the complete new one.
///
/// # Errors
///
/// [`ServeError::Io`] on filesystem failure.
#[expect(clippy::disallowed_methods, reason = "file I/O on the planner thread, never on an event loop")]
pub fn write(path: &Path, state: &ServeState, now_slot: u64) -> Result<(), ServeError> {
    let tmp = temp_path(path);
    let mut file = File::create(&tmp)?;
    file.write_all((encode(state, now_slot) + "\n").as_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    // The rename itself is durable only once the directory entry is.
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Reads and decodes a snapshot file.
///
/// # Errors
///
/// [`ServeError::Io`] on filesystem failure, [`ServeError::Snapshot`] on a
/// malformed or mismatched document.
pub fn read(path: &Path, config: RushConfig, capacity: u32) -> Result<(ServeState, u64), ServeError> {
    let text = std::fs::read_to_string(path)?;
    decode(&text, config, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Decision, JobSubmission};
    use rush_utility::TimeUtility;

    fn populated() -> (ServeState, u64) {
        let mut s = ServeState::new(RushConfig::default(), 16).expect("state");
        let subs = vec![
            JobSubmission {
                label: "grep".into(),
                tasks: 12,
                runtime_hint: Some(40.0),
                utility: TimeUtility::sigmoid(2000.0, 4.0, 0.005).expect("valid"),
                budget: Some(2000),
                priority: 4,
            },
            JobSubmission {
                label: "bulk".into(),
                tasks: 50,
                runtime_hint: None,
                utility: TimeUtility::constant(1.0).expect("valid"),
                budget: None,
                priority: 1,
            },
        ];
        let verdicts = s.submit_epoch(subs, 3).expect("epoch");
        assert!(verdicts.iter().all(|v| v.decision == Decision::Admit));
        let id = verdicts[0].job.expect("id");
        s.report_sample(id, 38).expect("sample");
        s.report_sample(id, 44).expect("sample");
        (s, 7)
    }

    #[test]
    fn snapshot_round_trips_state_and_slot() {
        let (mut a, slot) = populated();
        let text = encode(&a, slot);
        let (mut b, restored_slot) =
            decode(&text, RushConfig::default(), 16).expect("decode");
        assert_eq!(restored_slot, slot);
        assert_eq!(a.next_id(), b.next_id());
        assert_eq!(a.counters(), b.counters());
        let ja: Vec<_> = a.jobs().collect();
        let jb: Vec<_> = b.jobs().collect();
        assert_eq!(ja, jb);
        // The restored daemon reproduces the plan bit-identically.
        assert_eq!(a.rows(slot, None).expect("rows"), b.rows(slot, None).expect("rows"));
        // And encoding the restored state yields the identical document.
        assert_eq!(text, encode(&b, slot));
    }

    #[test]
    fn snapshot_files_round_trip() {
        let (state, slot) = populated();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rushd-snap-test-{}.json", std::process::id()));
        write(&path, &state, slot).expect("write");
        let (restored, restored_slot) =
            read(&path, RushConfig::default(), 16).expect("read");
        std::fs::remove_file(&path).ok();
        assert_eq!(restored_slot, slot);
        assert_eq!(restored.next_id(), state.next_id());
    }

    #[test]
    fn distinct_snapshot_paths_stage_in_distinct_temp_files() {
        // Shards snapshot concurrently: two targets must never share a
        // staging file, whatever their extensions look like.
        let paths = ["snap.json", "snap.json.shard0", "snap.json.shard1", "snap"];
        let temps: Vec<PathBuf> = paths.iter().map(|p| temp_path(Path::new(p))).collect();
        for (i, a) in temps.iter().enumerate() {
            assert!(!paths.iter().any(|p| Path::new(p) == a), "{a:?} shadows a snapshot path");
            for b in &temps[i + 1..] {
                assert_ne!(a, b, "two snapshot paths share a temp file");
            }
        }
        assert_eq!(temps[1], Path::new("snap.json.shard0.tmp"));
    }

    #[test]
    fn cluster_model_round_trips_and_reattaches() {
        let (s, slot) = populated();
        let s = s
            .with_cluster_model(ClusterModel::tiered(8, 4, 4).with_spot_churn(2, 10, 100, 30, 2, 3))
            .expect("valid model");
        let text = encode(&s, slot);
        assert!(text.contains("\"cluster\""), "{text}");
        let (b, _) = decode(&text, RushConfig::default(), 16).expect("decode");
        let m = b.cluster_model().expect("model restored");
        assert_eq!(m.total_capacity(), 16);
        assert_eq!(m.classes.len(), 3);
        assert_eq!(m.classes[2].tier, ReliabilityTier::Spot);
        // The event schedule is deliberately not durable: capacity changes
        // arrive over the wire after restart.
        assert!(m.events.is_empty());
        // Re-encoding the restored state reproduces the document.
        assert_eq!(text, encode(&b, slot));
    }

    #[test]
    fn pre_model_snapshots_restore_without_a_model() {
        let (s, slot) = populated();
        let text = encode(&s, slot);
        assert!(!text.contains("\"cluster\""), "{text}");
        let (b, _) = decode(&text, RushConfig::default(), 16).expect("decode");
        assert!(b.cluster_model().is_none());
    }

    #[test]
    fn malformed_cluster_fields_are_refused() {
        let (s, slot) = populated();
        let s = s.with_cluster_model(ClusterModel::tiered(8, 4, 4)).expect("valid model");
        let text = encode(&s, slot);
        for (from, to) in [
            // Unknown tier name.
            ("\"tier\":\"spot\"", "\"tier\":\"preemptible\""),
            // Provisioned total out of step with the classes.
            ("\"provisioned\":16", "\"provisioned\":12"),
            // Class list gone entirely.
            ("\"classes\"", "\"klasses\""),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text, "replacement {from:?} must apply");
            assert!(
                matches!(decode(&bad, RushConfig::default(), 16), Err(ServeError::Snapshot(_))),
                "{from} -> {to}"
            );
        }
    }

    #[test]
    fn job_records_face_the_wire_validation_on_restore() {
        // A snapshot file is outside input: what a `submit` frame could
        // not carry, a hand-edited snapshot cannot smuggle in either.
        let (state, slot) = populated();
        let text = encode(&state, slot);
        for (from, to, field) in [
            ("\"tasks\":12", "\"tasks\":0", "tasks"),
            ("\"priority\":4", "\"priority\":0", "priority"),
            ("\"hint\":40", "\"hint\":-3", "hint"),
            ("\"remaining_tasks\":10", "\"remaining_tasks\":13", "remaining_tasks"),
            // A live daemon retires a job at its last sample, and refuses a
            // runtime it cannot estimate the job's remaining tasks from:
            // kept, it would fail every later plan and admit nothing.
            ("\"remaining_tasks\":10", "\"remaining_tasks\":0", "remaining_tasks"),
            ("\"samples\":[38,44]", "\"samples\":[38,4000000000000000]", "samples"),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text, "replacement {from:?} must apply");
            match decode(&bad, RushConfig::default(), 16) {
                Err(ServeError::Snapshot(msg)) => {
                    assert!(msg.contains(&format!("\"{field}\"")), "{from} -> {to}: {msg}")
                }
                other => panic!("{from} -> {to} must be refused, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn mismatched_restore_configuration_is_refused() {
        let (state, slot) = populated();
        let text = encode(&state, slot);
        assert!(matches!(
            decode(&text, RushConfig::default(), 8),
            Err(ServeError::Snapshot(_))
        ));
        let other = RushConfig { theta: 0.5, ..RushConfig::default() };
        assert!(matches!(decode(&text, other, 16), Err(ServeError::Snapshot(_))));
    }

    #[test]
    fn malformed_snapshots_are_refused() {
        for bad in [
            "",
            "{}",
            r#"{"v":1,"kind":"other"}"#,
            r#"{"v":9,"kind":"rushd-snapshot"}"#,
        ] {
            assert!(
                matches!(decode(bad, RushConfig::default(), 4), Err(ServeError::Snapshot(_))),
                "{bad:?}"
            );
        }
    }
}
