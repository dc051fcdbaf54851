//! Process-level checks of the distributed service mode: the real
//! `vigil-sim collect` / `vigil-sim agent` binaries, talking over
//! loopback TCP or a Unix socket, must reproduce
//! `vigil-sim stream --json --trials 1` byte for byte — including
//! across a collector kill/restore cycle and under seeded wire chaos.
//!
//! The in-module tests in `vigil::distributed` already exercise the
//! library API over real sockets; these tests cover the CLI surface:
//! flag parsing, `--addr-file` discovery of an ephemeral port, the
//! metrics endpoint, snapshot/resume through real process exits, and
//! the `--resilient`/`--chaos` self-healing path.
//!
//! Every process a test spawns lives in a [`Procs`]: each wait has a
//! deadline, and a failing test kills and reaps whatever still runs.

use std::io::{Read, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long any one process may take. The whole file runs in seconds;
/// a run past this is hung (an agent replaying forever, a collector
/// waiting on a barrier that never comes).
const DEADLINE: Duration = Duration::from_secs(120);

fn vigil_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vigil-sim"))
}

/// The `vigil-sim` processes of one test, each under a name. Dropping
/// it — at the end of the test, or while a failed assertion unwinds —
/// kills and reaps every one still running, so no test leaves a
/// process behind.
#[derive(Default)]
struct Procs(Vec<(String, Child)>);

impl Procs {
    /// Spawns `cmd` as `name`; returns its handle for [`Procs::wait`].
    fn spawn(&mut self, name: impl Into<String>, cmd: &mut Command) -> usize {
        self.0
            .push((name.into(), cmd.spawn().expect("spawn vigil-sim")));
        self.0.len() - 1
    }

    /// Waits for process `i` and collects its piped output. Past
    /// [`DEADLINE`] it fails the test, naming the process; the drop then
    /// kills every process of the test.
    fn wait(&mut self, i: usize) -> Output {
        fn read_all(pipe: Option<impl Read + Send + 'static>) -> Option<JoinHandle<Vec<u8>>> {
            pipe.map(|mut pipe| {
                std::thread::spawn(move || {
                    let mut bytes = Vec::new();
                    pipe.read_to_end(&mut bytes).ok();
                    bytes
                })
            })
        }
        let (name, child) = &mut self.0[i];
        let stdout = read_all(child.stdout.take());
        let stderr = read_all(child.stderr.take());
        let deadline = Instant::now() + DEADLINE;
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll vigil-sim") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "{name} did not exit within {DEADLINE:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let collect = |h: Option<JoinHandle<Vec<u8>>>| h.map_or(Vec::new(), |h| h.join().unwrap());
        Output {
            status,
            stdout: collect(stdout),
            stderr: collect(stderr),
        }
    }
}

impl Drop for Procs {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            // An exited child's kill fails harmlessly; wait reaps it.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A per-test scratch directory keyed by pid so parallel test binaries
/// never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vigil-dist-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Polls an `--addr-file` until the collector has written the bound
/// address into it (port 0 means we can't know it in advance).
fn wait_for_addr(path: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            let s = s.trim().to_string();
            if !s.is_empty() {
                return s;
            }
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The `single-failure` preset fabric has 800 hosts; each agent serves
/// half of them.
const HOST_SPLITS: [&str; 2] = ["0..400", "400..800"];

fn spawn_agent(
    procs: &mut Procs,
    addr: &str,
    hosts: &str,
    start_epoch: usize,
    epochs: usize,
) -> usize {
    procs.spawn(
        format!("agent {hosts}"),
        vigil_sim()
            .args([
                "agent",
                "--collector",
                addr,
                "--hosts",
                hosts,
                "--start-epoch",
                &start_epoch.to_string(),
                "--epochs",
                &epochs.to_string(),
                "--seed",
                "7",
            ])
            .stderr(Stdio::null()),
    )
}

fn reap_agents(procs: &mut Procs, agents: Vec<usize>) {
    for agent in agents {
        assert!(procs.wait(agent).status.success(), "agent process failed");
    }
}

fn stream_reference(procs: &mut Procs, epochs: &str) -> Vec<u8> {
    let stream = procs.spawn(
        "stream reference",
        vigil_sim()
            .args([
                "stream", "--json", "--trials", "1", "--epochs", epochs, "--seed", "7",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    );
    let out = procs.wait(stream);
    assert!(out.status.success());
    out.stdout
}

#[test]
fn collect_binary_matches_stream_binary() {
    let mut procs = Procs::default();
    let dir = scratch("loopback");
    let addr_file = dir.join("addr");
    let metrics_file = dir.join("metrics-addr");
    let collector = procs.spawn(
        "collector",
        vigil_sim()
            .args([
                "collect",
                "--listen",
                "127.0.0.1:0",
                "--addr-file",
                addr_file.to_str().unwrap(),
                "--metrics",
                "127.0.0.1:0",
                "--metrics-addr-file",
                metrics_file.to_str().unwrap(),
                "--agents",
                "2",
                "--epochs",
                "2",
                "--seed",
                "7",
                "--json",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    );
    let addr = wait_for_addr(&addr_file);

    // The metrics endpoint is live before any agent is admitted; it
    // must already answer valid JSON (all-zero totals at this point).
    let metrics_addr = wait_for_addr(&metrics_file);
    let mut sock = TcpStream::connect(&metrics_addr).unwrap();
    sock.set_read_timeout(Some(DEADLINE)).unwrap();
    sock.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = String::new();
    sock.read_to_string(&mut resp).unwrap();
    assert!(resp.contains("\"windows\""), "metrics response:\n{resp}");

    let agents = HOST_SPLITS
        .iter()
        .map(|hosts| spawn_agent(&mut procs, &addr, hosts, 0, 2))
        .collect();
    reap_agents(&mut procs, agents);
    let out = procs.wait(collector);
    assert!(out.status.success());

    assert_eq!(
        out.stdout,
        stream_reference(&mut procs, "2"),
        "distributed report must be byte-identical to the in-process stream"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn collector_failover_resumes_to_identical_report() {
    let mut procs = Procs::default();
    let dir = scratch("failover");
    let snapshot = dir.join("snap.json");

    // Phase 1: serve two of three windows, snapshot each, then pause.
    let addr_file = dir.join("addr1");
    let collector = procs.spawn(
        "phase-1 collector",
        vigil_sim()
            .args([
                "collect",
                "--listen",
                "127.0.0.1:0",
                "--addr-file",
                addr_file.to_str().unwrap(),
                "--agents",
                "2",
                "--epochs",
                "3",
                "--seed",
                "7",
                "--json",
                "--snapshot",
                snapshot.to_str().unwrap(),
                "--exit-after",
                "2",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    );
    let addr = wait_for_addr(&addr_file);
    let agents = HOST_SPLITS
        .iter()
        .map(|hosts| spawn_agent(&mut procs, &addr, hosts, 0, 2))
        .collect();
    reap_agents(&mut procs, agents);
    let paused = procs.wait(collector);
    assert!(paused.status.success());
    assert!(
        paused.stdout.is_empty(),
        "a paused collector emits no report"
    );
    assert!(
        snapshot.exists(),
        "snapshot must be on disk after the pause"
    );

    // Phase 2: a fresh collector process restores the ledger from the
    // snapshot and serves only the remaining window.
    let addr_file = dir.join("addr2");
    let collector = procs.spawn(
        "phase-2 collector",
        vigil_sim()
            .args([
                "collect",
                "--listen",
                "127.0.0.1:0",
                "--addr-file",
                addr_file.to_str().unwrap(),
                "--agents",
                "2",
                "--epochs",
                "3",
                "--seed",
                "7",
                "--json",
                "--snapshot",
                snapshot.to_str().unwrap(),
                "--resume",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    );
    let addr = wait_for_addr(&addr_file);
    let agents = HOST_SPLITS
        .iter()
        .map(|hosts| spawn_agent(&mut procs, &addr, hosts, 2, 1))
        .collect();
    reap_agents(&mut procs, agents);
    let out = procs.wait(collector);
    assert!(out.status.success());

    assert_eq!(
        out.stdout,
        stream_reference(&mut procs, "3"),
        "resumed report must match an uninterrupted three-epoch stream"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A resilient agent under seeded wire chaos, spawned once for the whole
/// run — it must survive injected faults *and* a collector swap.
fn spawn_chaos_agent(
    procs: &mut Procs,
    addr: &str,
    hosts: &str,
    epochs: usize,
    chaos: &str,
) -> usize {
    procs.spawn(
        format!("chaos agent {hosts}"),
        vigil_sim()
            .args([
                "agent",
                "--collector",
                addr,
                "--hosts",
                hosts,
                "--epochs",
                &epochs.to_string(),
                "--seed",
                "7",
                "--resilient",
                "--chaos",
                chaos,
                "--backoff-ms",
                "10",
            ])
            .stderr(Stdio::piped()),
    )
}

#[test]
fn chaos_fleet_with_collector_failover_stays_byte_identical() {
    // The full robustness story over real processes: frame corruption,
    // duplication, injected connection resets escalating into short
    // partitions — plus a collector kill + `--resume` mid-chaos, over a
    // Unix socket whose path survives the swap. The self-healing
    // protocol (reconnect, resume-from-ack, replay, dedup) must make
    // all of it invisible in the final tally.
    let mut procs = Procs::default();
    let dir = scratch("chaos");
    let sock = dir.join("collector.sock");
    let addr = sock.to_str().unwrap().to_string();
    let snapshot = dir.join("snap.json");
    // One chaos reset roughly every 200 frames: an agent emits ~80
    // frames per epoch here, so full epochs always fit between resets
    // (the loss-recoverable regime); every reset has a 50% chance of
    // escalating into a 2-attempt partition.
    let chaos = "seed=11,corrupt=0.02,dup=0.01,reset_every=200,partition=0.5:2";

    // Phase 1: serve two of three windows, then pause (the "kill").
    let collector = procs.spawn(
        "phase-1 collector",
        vigil_sim()
            .args([
                "collect",
                "--listen",
                &addr,
                "--agents",
                "2",
                "--epochs",
                "3",
                "--seed",
                "7",
                "--snapshot",
                snapshot.to_str().unwrap(),
                "--exit-after",
                "2",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    );
    // Unix socket: the path is known up front; resilient agents retry
    // until the collector answers, so no addr-file dance is needed.
    let agents: Vec<usize> = HOST_SPLITS
        .iter()
        .map(|hosts| spawn_chaos_agent(&mut procs, &addr, hosts, 3, chaos))
        .collect();
    let paused = procs.wait(collector);
    assert!(paused.status.success(), "phase-1 collector failed");
    assert!(snapshot.exists(), "snapshot must survive the kill");

    // Phase 2: a successor resumes on the SAME socket path. The agents
    // from phase 1 are still running — they reconnect, replay their
    // unacked epoch, and finish the run against the successor.
    let collector = procs.spawn(
        "phase-2 collector",
        vigil_sim()
            .args([
                "collect",
                "--listen",
                &addr,
                "--agents",
                "2",
                "--epochs",
                "3",
                "--seed",
                "7",
                "--json",
                "--snapshot",
                snapshot.to_str().unwrap(),
                "--resume",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    );

    let mut reconnects_total = 0u64;
    for agent in agents {
        let out = procs.wait(agent);
        assert!(out.status.success(), "chaos agent failed");
        // "agent: hosts LO..HI: ... N reconnect(s)" — the agent's own
        // count of healed failures.
        let err = String::from_utf8(out.stderr).unwrap();
        let count = err
            .lines()
            .filter_map(|l| l.split_whitespace().rev().nth(1)?.parse::<u64>().ok())
            .next_back()
            .unwrap_or(0);
        reconnects_total += count;
    }
    let out = procs.wait(collector);
    assert!(out.status.success(), "phase-2 collector failed");

    assert!(
        reconnects_total > 0,
        "chaos must have forced at least one reconnect, or it tested nothing"
    );
    assert_eq!(
        out.stdout,
        stream_reference(&mut procs, "3"),
        "chaos + failover must be invisible in the final tally"
    );
    std::fs::remove_dir_all(&dir).ok();
}
