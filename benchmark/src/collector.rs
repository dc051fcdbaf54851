//! Service mode from outside: record the agent fleet's byte stream once,
//! then replay it window by window over two Unix-socket connections into
//! `run_collector`, one outstanding window, one load-generating thread.
//!
//! The replayer says `Hello` with the resilient flag, so the collector
//! answers every window close with a `ResumeAt` ack — the only
//! outside-visible sign that a window closed. A window's time is the
//! wall time between consecutive acks.

use crate::alloc::{self, AllocCount};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vigil::{
    run_agent, run_collector, AgentSpec, CollectorConfig, CollectorOutcome, CollectorStats,
    Endpoint, ExperimentConfig, ExperimentReport,
};
use vigil_wire::{emit_frame, FrameReader, WireFrame, HELLO_RESILIENT, WIRE_VERSION};

/// The fleet: two agent processes' worth of hosts, split down the middle.
pub fn host_ranges(num_hosts: u32) -> [Range<u32>; 2] {
    [0..num_hosts / 2, num_hosts / 2..num_hosts]
}

/// A sink for `run_agent` that notes where each epoch ends. The agent
/// flushes exactly once per epoch, right after its `EpochDone` barrier,
/// so flush positions are epoch boundaries.
struct EpochSink {
    file: BufWriter<File>,
    written: u64,
    ends: Vec<u64>,
}

impl Write for EpochSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write_all(buf)?;
        self.written += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.ends.push(self.written);
        Ok(())
    }
}

/// One connection's recorded byte stream, on disk so the harness holds
/// O(1) memory per window, with the byte range of every epoch.
#[derive(Debug)]
pub struct Recording {
    path: PathBuf,
    file: File,
    /// The hosts this stream speaks for.
    pub hosts: Range<u32>,
    /// `starts[w]..starts[w + 1]` are epoch `w`'s frames, barrier
    /// included; the agent's own `Hello` sits before `starts[0]`.
    starts: Vec<u64>,
}

impl Recording {
    /// Runs `run_agent` for `hosts` over epochs `0..config.epochs` into
    /// `path`.
    pub fn record(config: &ExperimentConfig, hosts: Range<u32>, path: &Path) -> io::Result<Self> {
        let mut hello = Vec::new();
        emit_frame(
            &WireFrame::Hello {
                version: WIRE_VERSION,
                flags: 0,
                host_lo: hosts.start,
                host_hi: hosts.end,
            },
            &mut hello,
        );
        let mut sink = EpochSink {
            file: BufWriter::with_capacity(1 << 16, File::create(path)?),
            written: 0,
            ends: Vec::with_capacity(config.epochs),
        };
        let spec = AgentSpec {
            hosts: hosts.clone(),
            start_epoch: 0,
            epochs: config.epochs,
            chunk_flows: 256,
        };
        let stats = run_agent(config, &spec, &mut sink)?;
        sink.file.flush()?;
        if sink.ends.len() != config.epochs || stats.flushes != config.epochs as u64 {
            return Err(io::Error::other(format!(
                "agent flushed {} times over {} epochs; epoch boundaries unknown",
                sink.ends.len(),
                config.epochs
            )));
        }
        let mut starts = Vec::with_capacity(config.epochs + 1);
        starts.push(hello.len() as u64);
        starts.extend(sink.ends);
        Ok(Recording {
            path: path.to_path_buf(),
            file: File::open(path)?,
            hosts,
            starts,
        })
    }

    /// Epochs recorded.
    pub fn epochs(&self) -> usize {
        self.starts.len() - 1
    }

    /// Reads epoch `w`'s frames into `buf` (replacing its contents).
    pub fn read_epoch(&self, w: usize, buf: &mut Vec<u8>) -> io::Result<()> {
        let (lo, hi) = (self.starts[w], self.starts[w + 1]);
        buf.resize((hi - lo) as usize, 0);
        self.file.read_exact_at(buf, lo)
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Records both halves of the fleet, one after the other on this thread
/// (a recording thread of its own would leave its allocator arena behind
/// and show up, run to run, as 6 MiB more or less of peak RSS).
pub fn record_fleet(
    config: &ExperimentConfig,
    dir: &Path,
    tag: &str,
) -> io::Result<[Recording; 2]> {
    let [lo, hi] = host_ranges(config.params.num_hosts());
    let path = |r: &Range<u32>| dir.join(format!("{tag}-{}-{}.rec", r.start, r.end));
    let lo_path = path(&lo);
    let hi_path = path(&hi);
    Ok([
        Recording::record(config, lo, &lo_path)?,
        Recording::record(config, hi, &hi_path)?,
    ])
}

/// One replayer connection: the write half and a frame reader on the
/// read half for the collector's acks.
struct Conn {
    stream: UnixStream,
    acks: FrameReader<UnixStream>,
}

impl Conn {
    /// Connects, says a resilient `Hello` for `hosts`, and waits for the
    /// admission response.
    fn admit(socket: &Path, hosts: &Range<u32>) -> io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        // A collector that stops answering fails the run instead of
        // hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut hello = Vec::new();
        emit_frame(
            &WireFrame::Hello {
                version: WIRE_VERSION,
                flags: HELLO_RESILIENT,
                host_lo: hosts.start,
                host_hi: hosts.end,
            },
            &mut hello,
        );
        (&stream).write_all(&hello)?;
        let mut conn = Conn {
            acks: FrameReader::new(stream.try_clone()?),
            stream,
        };
        conn.await_resume(0)?;
        Ok(conn)
    }

    /// Blocks until the collector says `ResumeAt { epoch }`. Any other
    /// epoch is a replay request — the window arrived incomplete.
    fn await_resume(&mut self, epoch: u64) -> io::Result<()> {
        loop {
            match self.acks.next_frame()? {
                Some(WireFrame::ResumeAt { epoch: e }) if e == epoch => return Ok(()),
                Some(WireFrame::ResumeAt { epoch: e }) => {
                    return Err(io::Error::other(format!(
                        "collector asked to resume at {e}, expected {epoch}"
                    )))
                }
                Some(_) => {}
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "collector closed the connection",
                    ))
                }
            }
        }
    }
}

/// What one collector session produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Bind to the cold window's ack (ns): bind, spawn, admit the fleet,
    /// window 0.
    pub setup_ns: u64,
    /// Ack-to-ack wall time of each timed window (ns).
    pub window_ns: Vec<u64>,
    /// Allocation delta of the whole process over the timed windows.
    pub allocs: AllocCount,
    /// The collector's final report.
    pub report: Box<ExperimentReport>,
    /// The collector's loss and liveness counters.
    pub stats: CollectorStats,
}

/// Runs `run_collector` for `windows + 1` epochs of `config` and replays
/// `fleet` into it from one replayer thread: window 0 cold,
/// then `windows` timed windows back to back, each sent only after the
/// previous one was acked on both connections.
pub fn replay(
    config: &ExperimentConfig,
    fleet: &[Recording; 2],
    windows: usize,
    socket: &Path,
) -> io::Result<ReplayOutcome> {
    assert!(fleet.iter().all(|r| r.epochs() > windows));
    let ccfg = CollectorConfig {
        agents: fleet.len(),
        epochs: windows + 1,
        // A replayer that gave up mid-run must fail the collector soon.
        reconnect_grace: Duration::from_secs(1),
        ..CollectorConfig::default()
    };
    let config = ExperimentConfig {
        epochs: windows + 1,
        ..config.clone()
    };
    let started = Instant::now();
    let listener = Endpoint::Unix(socket.to_path_buf()).bind()?;
    // The collector — the program under test — keeps the calling thread,
    // so its ledger and 5 MiB hub come from the same allocator arena every
    // session; on a spawned thread they land in whichever arena that
    // thread drew, and peak RSS moves by a hub's worth from run to run.
    let result = std::thread::scope(|scope| {
        let replayer = scope.spawn(|| drive(fleet, windows, socket, started));
        let outcome = run_collector(&config, &listener, &ccfg);
        let driven = replayer.join().expect("replayer thread panicked");
        (driven, outcome)
    });
    let _ = std::fs::remove_file(socket);
    let ((setup_ns, window_ns, allocs), outcome) = (result.0?, result.1?);
    match outcome {
        CollectorOutcome::Completed(report, stats) => Ok(ReplayOutcome {
            setup_ns,
            window_ns,
            allocs,
            report,
            stats,
        }),
        CollectorOutcome::Paused(_) => Err(io::Error::other("collector paused unasked")),
    }
}

/// The replayer proper: admission, the cold window, the timed windows.
fn drive(
    fleet: &[Recording; 2],
    windows: usize,
    socket: &Path,
    started: Instant,
) -> io::Result<(u64, Vec<u64>, AllocCount)> {
    let mut conns = [
        Conn::admit(socket, &fleet[0].hosts)?,
        Conn::admit(socket, &fleet[1].hosts)?,
    ];
    let mut current = [Vec::new(), Vec::new()];
    let mut next = [Vec::new(), Vec::new()];
    for (buf, rec) in current.iter_mut().zip(fleet) {
        rec.read_epoch(0, buf)?;
    }
    let mut window_ns = Vec::with_capacity(windows);
    let mut setup_ns = 0;
    let mut allocs_before = AllocCount::default();
    let mut last_ack = started;
    for w in 0..=windows {
        for (conn, buf) in conns.iter_mut().zip(&current) {
            conn.stream.write_all(buf)?;
        }
        // Fetch the next window while the collector works on this one,
        // so the file read stays out of the ack-to-ack time.
        if w < windows {
            for (buf, rec) in next.iter_mut().zip(fleet) {
                rec.read_epoch(w + 1, buf)?;
            }
        }
        for conn in conns.iter_mut() {
            conn.await_resume(w as u64 + 1)?;
        }
        let acked = Instant::now();
        if w == 0 {
            setup_ns = (acked - started).as_nanos() as u64;
            allocs_before = alloc::snapshot();
        } else {
            window_ns.push((acked - last_ack).as_nanos() as u64);
        }
        last_ack = acked;
        std::mem::swap(&mut current, &mut next);
    }
    let allocs = alloc::snapshot().since(allocs_before);
    Ok((setup_ns, window_ns, allocs))
}
