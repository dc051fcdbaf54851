//! An idle collector does not poll. Parked at its start barrier with
//! nobody connected, the daemon must burn next to no CPU: its window
//! loop blocks on its input channel and its threads block on the socket.
//! The deterministic fleet simulation runs on a virtual clock and cannot
//! see this, so it is checked here, over a real socket, in a test binary
//! of its own — the process's CPU time then counts this test alone.

#![cfg(target_os = "linux")]

use std::time::Duration;
use vigil::prelude::*;
use vigil::{AgentSpec, CollectorConfig, CollectorOutcome};

/// utime + stime of this process in ms, from procfs (assumes the
/// universal 100 Hz `CLK_TCK`).
fn cpu_ms() -> u64 {
    let text = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // The command name may hold spaces; the fields after ')' are stable.
    let rest = text.rsplit_once(')').expect("stat format").1;
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse().expect("tick count"))
        .collect();
    (fields[0] + fields[1]) * 10
}

#[test]
fn an_idle_collector_burns_no_cpu_then_serves_its_agent() {
    let config = ExperimentConfig {
        name: "idle-collector".into(),
        params: ClosParams::tiny(),
        faults: FaultPlan::paper_default(1),
        epochs: 1,
        trials: 1,
        seed: 5,
        ..ExperimentConfig::default()
    };
    let listener = Endpoint::parse("127.0.0.1:0").bind().expect("bind");
    let addr = listener.local_addr();
    let ccfg = CollectorConfig {
        agents: 1,
        epochs: 1,
        ..CollectorConfig::default()
    };
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| run_collector(&config, &listener, &ccfg));
        // Let it come up, then measure 400 ms of waiting for an agent.
        std::thread::sleep(Duration::from_millis(200));
        let before = cpu_ms();
        std::thread::sleep(Duration::from_millis(400));
        let burned = cpu_ms() - before;
        assert!(
            burned < 250,
            "an idle collector must not poll: it burned {burned} ms of CPU in 400 ms"
        );
        let spec = AgentSpec {
            hosts: 0..config.params.num_hosts(),
            start_epoch: 0,
            epochs: 1,
            chunk_flows: 128,
        };
        let sink = Endpoint::parse(&addr).connect().expect("connect");
        let stats = run_agent(&config, &spec, sink).expect("agent run");
        assert_eq!(stats.epochs, 1);
        let outcome = collector.join().expect("collector thread");
        assert!(
            matches!(outcome, Ok(CollectorOutcome::Completed(..))),
            "{outcome:?}"
        );
    });
}
