//! The `rushd` binary end to end: the launcher contract that no in-process
//! test sees. Spawns the real daemon on an ephemeral port, drives it from
//! several clients at once over each codec, shuts it down over the wire
//! and reads its exit status and last line; also pins the exit codes of a
//! bad flag (2) and a refused configuration (1).

#![cfg(target_os = "linux")]

use rush_serve::protocol::{Decision, JobSubmission};
use rush_serve::{Client, ServeError};
use rush_utility::TimeUtility;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// How long any one step may take before the daemon counts as wedged.
const TIMEOUT: Duration = Duration::from_secs(60);

/// A spawned `rushd`, killed on drop so a failing assertion never leaks a
/// daemon.
struct Rushd {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Rushd {
    fn spawn(args: &[&str]) -> Rushd {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rushd"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rushd");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Rushd { child, stdout }
    }

    /// The address from the `rushd listening on ADDR` line.
    fn listening_addr(&mut self) -> SocketAddr {
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("stdout");
        line.trim_end()
            .strip_prefix("rushd listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
            .parse()
            .expect("a socket address")
    }

    /// Waits for the daemon to exit (a daemon that keeps serving fails
    /// after [`TIMEOUT`]); returns its status, the stdout not yet read,
    /// and its stderr.
    fn exit(&mut self) -> (ExitStatus, String, String) {
        let deadline = Instant::now() + TIMEOUT;
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "rushd did not exit within {TIMEOUT:?}"
            );
            thread::sleep(Duration::from_millis(10));
        };
        let (mut stdout, mut stderr) = (String::new(), String::new());
        self.stdout.read_to_string(&mut stdout).expect("stdout");
        self.child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("stderr");
        (status, stdout, stderr)
    }
}

impl Drop for Rushd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn job(label: &str, tasks: u64, utility: TimeUtility, budget: u64) -> JobSubmission {
    JobSubmission {
        label: label.into(),
        tasks,
        runtime_hint: Some(5.0),
        utility,
        budget: Some(budget),
        priority: 1,
    }
}

/// One client's share of the burst, in submission order. A one-task job
/// with a long budget fits; 10⁵ tasks due in 10 slots cannot on 48
/// containers, so admission rejects the time-sensitive one and parks the
/// insensitive (constant-utility) one.
fn burst() -> Vec<JobSubmission> {
    let sensitive = TimeUtility::linear(5000.0, 3.0, 0.01).expect("valid utility");
    let insensitive = TimeUtility::Constant { weight: 1.0 };
    (0..3)
        .flat_map(|i| {
            [
                job(&format!("small-{i}"), 1, sensitive, 5000),
                job(&format!("hopeless-{i}"), 100_000, sensitive, 10),
                job(&format!("patient-{i}"), 100_000, insensitive, 10),
            ]
        })
        .collect()
}

/// Admit / defer / reject counts one client saw.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Tally {
    admitted: u64,
    deferred: u64,
    rejected: u64,
}

fn drive(mut client: Client) -> Tally {
    let mut tally = Tally::default();
    for sub in burst() {
        let (decision, id, _, _) = client.submit(sub).expect("submit");
        match decision {
            Decision::Admit => {
                tally.admitted += 1;
                client
                    .report_sample(id.expect("admitted id"), 5)
                    .expect("sample");
            }
            Decision::Defer => tally.deferred += 1,
            Decision::Reject => tally.rejected += 1,
        }
    }
    tally
}

fn rushd_serves_clients_to_a_clean_exit(connect: fn(SocketAddr) -> Result<Client, ServeError>) {
    const CLIENTS: usize = 4;
    let mut daemon = Rushd::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--capacity",
        "48",
        "--epoch-ms",
        "5",
    ]);
    let addr = daemon.listening_addr();
    let connect_with_timeout = move || {
        let client = connect(addr).expect("connect");
        client.set_timeout(Some(TIMEOUT)).expect("read timeout");
        client
    };

    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let client = connect_with_timeout();
            thread::spawn(move || drive(client))
        })
        .collect();
    let tally = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .fold(Tally::default(), |a, b| Tally {
            admitted: a.admitted + b.admitted,
            deferred: a.deferred + b.deferred,
            rejected: a.rejected + b.rejected,
        });
    let submitted = (CLIENTS * burst().len()) as u64;
    assert_eq!(tally.admitted + tally.deferred + tally.rejected, submitted);
    assert!(
        tally.admitted > 0 && tally.deferred > 0 && tally.rejected > 0,
        "the burst draws every verdict: {tally:?}"
    );

    let mut client = connect_with_timeout();
    let stats = client.stats().expect("stats");
    assert_eq!(
        Tally {
            admitted: stats.admitted,
            deferred: stats.deferred,
            rejected: stats.rejected
        },
        tally
    );
    // Every admitted job ran its one task; the deferred ones stay parked.
    assert_eq!(stats.samples, tally.admitted);
    assert_eq!(stats.completed, tally.admitted);
    assert_eq!(stats.active_jobs, 0);
    assert_eq!(stats.deferred_jobs, tally.deferred);
    assert!(!client.shutdown(false).expect("shutdown"));

    let (status, stdout, stderr) = daemon.exit();
    assert!(status.success(), "rushd exited with {status}: {stderr}");
    let last = stdout.lines().last().unwrap_or_default();
    let served: u64 = last
        .strip_prefix("rushd: served ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unexpected exit line: {last:?}"));
    assert_eq!(served, submitted, "every submission waited for an epoch");
}

#[test]
fn rushd_serves_json_clients_to_a_clean_exit() {
    rushd_serves_clients_to_a_clean_exit(Client::connect);
}

#[test]
fn rushd_serves_rush1_clients_to_a_clean_exit() {
    rushd_serves_clients_to_a_clean_exit(Client::connect_binary);
}

#[test]
fn rushd_exits_2_with_usage_on_an_unknown_flag() {
    let (status, stdout, stderr) = Rushd::spawn(&["--frontend", "threads"]).exit();
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --frontend"), "{stderr}");
    assert!(stderr.contains("usage: rushd"), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn rushd_exits_1_on_a_refused_config() {
    for (flag, value, cause) in [
        ("--theta", "1.5", "theta must be in (0, 1)"),
        ("--capacity", "0", "capacity must be >= 1"),
    ] {
        let (status, stdout, stderr) = Rushd::spawn(&["--addr", "127.0.0.1:0", flag, value]).exit();
        assert_eq!(status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(
            stderr.starts_with("rushd: ") && stderr.contains(cause),
            "{flag} {value}: {stderr}"
        );
        assert!(!stdout.contains("listening"), "{flag} {value}: {stdout}");
    }
}
