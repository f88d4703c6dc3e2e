//! The load generator against a live daemon: `loadgen::run` end to end
//! over both codecs, through graceful shutdown.

use rush_serve::loadgen::{run, LoadgenConfig};
use rush_serve::{serve, ServeConfig, ServerHandle};

fn daemon() -> ServerHandle {
    serve(ServeConfig { addr: "127.0.0.1:0".into(), epoch_ms: 5, ..ServeConfig::default() })
        .unwrap()
}

#[test]
fn loadgen_refuses_zero_connections() {
    let err = run(&LoadgenConfig { connections: 0, ..Default::default() }).unwrap_err();
    assert!(err.to_string().contains("connections must be >= 1"), "{err}");
}

#[cfg(target_os = "linux")]
#[test]
fn loadgen_drives_a_live_daemon_over_the_binary_codec() {
    let handle = daemon();
    let cfg = LoadgenConfig {
        addr: handle.local_addr().to_string(),
        jobs: 8,
        connections: 4,
        binary: true,
        mean_interarrival_ms: 2.0,
        epoch_ms: 5,
        shutdown: true,
        ..Default::default()
    };
    let report = run(&cfg).unwrap();
    assert_eq!(report.protocol_errors, 0);
    let out = report.summary(&cfg);
    assert!(out.contains("8 submitted"), "{out}");
    assert!(out.contains("4 conns (binary)"), "{out}");
    let waits = handle.join().unwrap();
    assert_eq!(waits.count(), 8);
}

#[cfg(target_os = "linux")]
#[test]
fn loadgen_drives_a_live_daemon_to_shutdown() {
    // Bind on an ephemeral port, point loadgen at it with `shutdown`, and
    // check both summaries.
    let handle = daemon();
    let cfg = LoadgenConfig {
        addr: handle.local_addr().to_string(),
        jobs: 6,
        connections: 2,
        mean_interarrival_ms: 2.0,
        epoch_ms: 5,
        shutdown: true,
        ..Default::default()
    };
    let report = run(&cfg).unwrap();
    assert_eq!(report.protocol_errors, 0);
    let out = report.summary(&cfg);
    assert!(out.contains("6 submitted"), "{out}");
    assert!(out.contains("within epoch deadline"), "{out}");
    let waits = handle.join().unwrap();
    assert_eq!(waits.count(), 6);
}
