//! End-to-end snapshot/restore: a daemon is stopped gracefully and a new
//! daemon restored from its snapshot must reproduce the *same plan* for
//! the in-flight jobs — bit-identical `η`, targets and levels (the
//! `assert_eq!` below compares the raw `f64` fields).
//!
//! The daemons run with an hour-long logical slot so the slot clock cannot
//! advance during the test: both plans are computed at the snapshot's
//! slot, which is exactly the restart contract (the restored daemon's
//! clock starts at the snapshot slot, not at zero).

use rush_core::{ClusterModel, RushConfig};
use rush_serve::protocol::Decision;
use rush_serve::server::{serve, ServeConfig};
use rush_serve::{snapshot, Client, ServeError, ServeState};
use rush_utility::TimeUtility;
use std::path::PathBuf;

fn submission(label: &str, tasks: u64, budget: u64) -> rush_serve::protocol::JobSubmission {
    rush_serve::protocol::JobSubmission {
        label: label.into(),
        tasks,
        runtime_hint: Some(45.0),
        utility: TimeUtility::sigmoid(budget as f64, 4.0, 10.0 / budget as f64).expect("valid"),
        budget: Some(budget),
        priority: 2,
    }
}

fn config(snapshot: PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        capacity: 16,
        epoch_max_batch: 8,
        epoch_ms: 10,
        // One slot per hour: the logical clock is frozen for the duration
        // of the test, on both sides of the restart.
        ms_per_slot: 3_600_000,
        snapshot_path: Some(snapshot),
        ..ServeConfig::default()
    }
}

#[test]
fn restarted_daemon_reproduces_the_plan_bit_identically() {
    let snap = std::env::temp_dir()
        .join(format!("rushd-restore-test-{}.json", std::process::id()));
    std::fs::remove_file(&snap).ok();

    // First life: submit three jobs, feed one of them samples.
    let handle = serve(config(snap.clone())).expect("serve");
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let mut ids = Vec::new();
    for sub in [
        submission("grep", 12, 4000),
        submission("terasort", 40, 9000),
        submission("wordcount", 25, 6000),
    ] {
        let (decision, id, _, _) = client.submit(sub).expect("submit");
        assert_eq!(decision, Decision::Admit);
        ids.push(id.expect("admitted jobs have ids"));
    }
    client.report_sample(ids[0], 43).expect("sample");
    client.report_sample(ids[0], 48).expect("sample");
    let rows_before = client.query_plan(None).expect("plan");
    assert_eq!(rows_before.len(), 3);
    let bound_before = client.predict(ids[1]).expect("predict");
    assert!(client.shutdown(true).expect("shutdown"), "snapshot must be written");
    handle.join().expect("join");

    // Second life: restore from the snapshot, ask for the same plan.
    let handle = serve(config(snap.clone())).expect("serve restored");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let rows_after = client.query_plan(None).expect("plan");
    let bound_after = client.predict(ids[1]).expect("predict");
    let stats = client.stats().expect("stats");

    // Bit-identical: PlanRow's PartialEq compares the f64 targets/levels
    // exactly, and eta/task_len/planned_completion are integers.
    assert_eq!(rows_before, rows_after);
    assert_eq!(bound_before.to_bits(), bound_after.to_bits());
    // Counters and ids survived too: new submissions must not reuse ids.
    assert_eq!(stats.active_jobs, 3);
    assert_eq!(stats.samples, 2);
    let (_, new_id, _, _) =
        client.submit(submission("late", 5, 3000)).expect("submit after restore");
    assert!(new_id.expect("admitted") > ids[2], "ids must not be reused after restore");

    client.shutdown(false).expect("shutdown");
    handle.join().expect("join");
    std::fs::remove_file(&snap).ok();
}

#[test]
fn snapshotless_shutdown_writes_nothing() {
    let snap = std::env::temp_dir()
        .join(format!("rushd-nosnap-test-{}.json", std::process::id()));
    std::fs::remove_file(&snap).ok();
    let handle = serve(config(snap.clone())).expect("serve");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.submit(submission("j", 4, 2000)).expect("submit");
    // shutdown(snapshot: false) must not write the file.
    assert!(!client.shutdown(false).expect("shutdown"));
    handle.join().expect("join");
    assert!(!snap.exists(), "no snapshot requested, none should exist");
}

#[test]
fn classes_past_u32_max_containers_are_refused_not_wrapped() {
    // A snapshot file is outside input: class counts that add up past
    // `u32::MAX` must come back as a typed error, whether the document's
    // `provisioned` total is saturated or wrapped (u32::MAX + 24 wraps to
    // 23, enough for the daemon's 16 containers).
    let state = ServeState::new(RushConfig::default(), 16)
        .and_then(|s| s.with_cluster_model(ClusterModel::tiered(8, 4, 4)))
        .expect("valid model");
    let text = snapshot::encode(&state, 0);
    // A saturated total matches the classes' saturated sum, so the model's
    // own check refuses it; a wrapped one disagrees with the classes first.
    // Either refusal names its cause once.
    for (provisioned, refusal) in [
        (u32::MAX, "cluster model provisions more than u32::MAX containers"),
        (23, "field \"provisioned\": disagrees with the classes"),
    ] {
        let bad = text
            .replace("\"count\":4", "\"count\":12")
            .replace("\"count\":8", &format!("\"count\":{}", u32::MAX))
            .replace("\"provisioned\":16", &format!("\"provisioned\":{provisioned}"));
        assert_ne!(bad, text, "the class count and total must be in the document");
        let restored = snapshot::decode(&bad, RushConfig::default(), 16);
        assert!(matches!(restored, Err(ServeError::Snapshot(_))), "provisioned {provisioned}");
        assert_eq!(
            restored.err().map(|e| e.to_string()),
            Some(format!("snapshot: {refusal}")),
            "provisioned {provisioned}"
        );
    }
}
