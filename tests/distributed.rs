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

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn vigil_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vigil-sim"))
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

fn spawn_agent(addr: &str, hosts: &str, start_epoch: usize, epochs: usize) -> Child {
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
        .stderr(Stdio::null())
        .spawn()
        .unwrap()
}

fn reap_agents(agents: Vec<Child>) {
    for mut agent in agents {
        assert!(agent.wait().unwrap().success(), "agent process failed");
    }
}

fn stream_reference(epochs: &str) -> Vec<u8> {
    let out = vigil_sim()
        .args([
            "stream", "--json", "--trials", "1", "--epochs", epochs, "--seed", "7",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    out.stdout
}

#[test]
fn collect_binary_matches_stream_binary() {
    let dir = scratch("loopback");
    let addr_file = dir.join("addr");
    let metrics_file = dir.join("metrics-addr");
    let collector = vigil_sim()
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
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_for_addr(&addr_file);

    // The metrics endpoint is live before any agent is admitted; it
    // must already answer valid JSON (all-zero totals at this point).
    let metrics_addr = wait_for_addr(&metrics_file);
    let mut sock = TcpStream::connect(&metrics_addr).unwrap();
    sock.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = String::new();
    sock.read_to_string(&mut resp).unwrap();
    assert!(resp.contains("\"windows\""), "metrics response:\n{resp}");

    let agents = HOST_SPLITS
        .iter()
        .map(|hosts| spawn_agent(&addr, hosts, 0, 2))
        .collect();
    reap_agents(agents);
    let out = collector.wait_with_output().unwrap();
    assert!(out.status.success());

    assert_eq!(
        out.stdout,
        stream_reference("2"),
        "distributed report must be byte-identical to the in-process stream"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn collector_failover_resumes_to_identical_report() {
    let dir = scratch("failover");
    let snapshot = dir.join("snap.json");

    // Phase 1: serve two of three windows, snapshot each, then pause.
    let addr_file = dir.join("addr1");
    let collector = vigil_sim()
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
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_for_addr(&addr_file);
    let agents = HOST_SPLITS
        .iter()
        .map(|hosts| spawn_agent(&addr, hosts, 0, 2))
        .collect();
    reap_agents(agents);
    let paused = collector.wait_with_output().unwrap();
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
    let collector = vigil_sim()
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
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_for_addr(&addr_file);
    let agents = HOST_SPLITS
        .iter()
        .map(|hosts| spawn_agent(&addr, hosts, 2, 1))
        .collect();
    reap_agents(agents);
    let out = collector.wait_with_output().unwrap();
    assert!(out.status.success());

    assert_eq!(
        out.stdout,
        stream_reference("3"),
        "resumed report must match an uninterrupted three-epoch stream"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A resilient agent under seeded wire chaos, spawned once for the whole
/// run — it must survive injected faults *and* a collector swap.
fn spawn_chaos_agent(addr: &str, hosts: &str, epochs: usize, chaos: &str) -> Child {
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
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

#[test]
fn chaos_fleet_with_collector_failover_stays_byte_identical() {
    // The full robustness story over real processes: frame corruption,
    // duplication, injected connection resets escalating into short
    // partitions — plus a collector kill + `--resume` mid-chaos, over a
    // Unix socket whose path survives the swap. The self-healing
    // protocol (reconnect, resume-from-ack, replay, dedup) must make
    // all of it invisible in the final tally.
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
    let collector = vigil_sim()
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
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Unix socket: the path is known up front; resilient agents retry
    // until the collector answers, so no addr-file dance is needed.
    let agents: Vec<Child> = HOST_SPLITS
        .iter()
        .map(|hosts| spawn_chaos_agent(&addr, hosts, 3, chaos))
        .collect();
    let paused = collector.wait_with_output().unwrap();
    assert!(paused.status.success(), "phase-1 collector failed");
    assert!(snapshot.exists(), "snapshot must survive the kill");

    // Phase 2: a successor resumes on the SAME socket path. The agents
    // from phase 1 are still running — they reconnect, replay their
    // unacked epoch, and finish the run against the successor.
    let collector = vigil_sim()
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
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    let mut reconnects_total = 0u64;
    for agent in agents {
        let out = agent.wait_with_output().unwrap();
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
    let out = collector.wait_with_output().unwrap();
    assert!(out.status.success(), "phase-2 collector failed");

    assert!(
        reconnects_total > 0,
        "chaos must have forced at least one reconnect, or it tested nothing"
    );
    assert_eq!(
        out.stdout,
        stream_reference("3"),
        "chaos + failover must be invisible in the final tally"
    );
    std::fs::remove_dir_all(&dir).ok();
}
