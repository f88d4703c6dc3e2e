//! Server quickstart: spin up an in-process `rushd`, submit jobs over the
//! wire protocol, watch the plan evolve as task samples arrive, and shut
//! the daemon down with a snapshot.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example server_quickstart
//! ```
//!
//! The same conversation works against a standalone daemon started with
//! `cargo run --release --bin rushd`; swap the ephemeral address for
//! `127.0.0.1:4117`.

use rush::serve::protocol::JobSubmission;
use rush::serve::{serve, Client, ServeConfig};
use rush::utility::TimeUtility;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Start a daemon on an ephemeral loopback port. One logical slot
    //    per 50 ms of wall clock; an epoch closes as soon as the planner
    //    is free, and at the latest after 8 submissions or 10 ms.
    let snapshot = std::env::temp_dir().join("rushd_quickstart_snapshot.json");
    std::fs::remove_file(&snapshot).ok();
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        capacity: 16,
        epoch_max_batch: 8,
        epoch_ms: 10,
        ms_per_slot: 50,
        snapshot_path: Some(snapshot.clone()),
        shards: 1,
        // Reactor count and backpressure knobs keep their defaults (see
        // DESIGN.md §15).
        ..ServeConfig::default()
    })?;
    println!("daemon on {}", handle.local_addr());

    // 2. Submit three jobs with different completion-time sensitivities.
    let mut client = Client::connect(handle.local_addr())?;
    let jobs = [
        ("grep", 12, 40.0, TimeUtility::sigmoid(3000.0, 5.0, 0.005)?, Some(3000)),
        ("terasort", 30, 55.0, TimeUtility::linear(6000.0, 3.0, 0.01)?, Some(6000)),
        ("backfill", 10, 45.0, TimeUtility::constant(1.0)?, None),
    ];
    let mut ids = Vec::new();
    for (label, tasks, hint, utility, budget) in jobs {
        let (decision, id, epoch, waited_us) = client.submit(JobSubmission {
            label: label.into(),
            tasks,
            runtime_hint: Some(hint),
            utility,
            budget,
            priority: 1,
        })?;
        println!("{label:9} -> {decision:?} (id {id:?}, epoch {epoch}, waited {waited_us} us)");
        ids.push(id);
    }

    // 3. The plan: robust demand η per job, its onion-peeling target slot
    //    and the Theorem-3 completion bound.
    for row in client.query_plan(None)? {
        println!(
            "  {:9} eta {:6}  target {:8.1}  bound {:8.1}{}",
            row.label,
            row.eta,
            row.target,
            row.target + row.task_len as f64,
            if row.impossible { "  (deadline impossible)" } else { "" },
        );
    }

    // 4. Report a few finished map tasks for the first job; the next
    //    query pays one incremental replan and the bound tightens.
    let grep = ids[0].expect("admitted");
    for runtime in [38, 44, 41] {
        client.report_sample(grep, runtime)?;
    }
    println!("after 3 samples, grep bound: {:.1}", client.predict(grep)?);

    // 5. Graceful shutdown with a snapshot. Restarting with the same
    //    snapshot path reproduces the plan bit-for-bit (see the
    //    `snapshot_restore` integration test for the proof).
    let stats = client.stats()?;
    println!(
        "epochs {} admitted {} deferred {} rejected {}",
        stats.epochs, stats.admitted, stats.deferred, stats.rejected
    );
    client.shutdown(true)?;
    handle.join()?;
    println!("snapshot written to {}", snapshot.display());
    std::fs::remove_file(&snapshot).ok();
    Ok(())
}
