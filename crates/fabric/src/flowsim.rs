//! Flow-level Monte-Carlo simulation of one epoch (the paper's §6
//! methodology).
//!
//! "Every 30 seconds of simulation time, we send up to 100 packets per flow
//! and drop them based on the rates above as they traverse links along the
//! path. The simulator records all flows with at least one drop and for
//! each such flow, the link with the most drops."
//!
//! Each packet traverses its flow's ECMP path and is dropped at link `i`
//! with the link's drop probability, conditioned on surviving links
//! `0..i`; a dropped packet is retransmitted (and can drop again). The
//! sampling is exact but takes a fast path — one RNG draw — for the
//! overwhelmingly common zero-drop flow.
//!
//! The per-epoch [`GroundTruth`] (which link dropped how many packets,
//! and the dominant drop link per flow) plays the role EverFlow plays in
//! §8.2: an omniscient validation oracle.

use crate::faults::LinkFaults;
use crate::traffic::{FlowSpec, TrafficSpec};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use vigil_packet::FiveTuple;
use vigil_topology::{
    ClosParams, ClosTopology, HostId, LinkId, LinkSet, Path, RouteDecision, RouteScratch,
    RouteTable, Routed, MAX_ROUTE_LINKS,
};

/// Dense flow index within one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowId(pub u32);

/// Simulation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Retransmission attempts per packet before the connection is
    /// declared broken (TCP gives up after several RTOs).
    pub max_attempts_per_packet: u32,
    /// SYN retransmission attempts before connection establishment fails
    /// (§4.2: "Path discovery is not triggered for such connections").
    pub syn_attempts: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            max_attempts_per_packet: 6,
            syn_attempts: 3,
        }
    }
}

/// Everything the simulator records about one flow in one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Flow index within the epoch.
    pub id: FlowId,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// The five-tuple (post-SLB).
    pub tuple: FiveTuple,
    /// Packets the flow attempted to deliver.
    pub packets: u32,
    /// Retransmissions observed by the sender (= packet drops, including
    /// drops of retransmitted copies).
    pub retransmissions: u32,
    /// The actual path taken (ground truth; in the DES this is what
    /// EverFlow would capture). Records whose flows took the same route
    /// usually share one `Arc` (serializes exactly like an owned `Path`).
    pub path: Arc<Path>,
    /// Ground truth: drops per link on this flow's path (parallel to
    /// nothing — sparse pairs).
    pub drops_per_link: Vec<(LinkId, u32)>,
    /// Whether connection establishment succeeded. SYN-failed flows never
    /// trigger path discovery.
    pub established: bool,
    /// Whether the flow delivered all its packets (false when some packet
    /// exhausted its attempts — the VM-reboot-causing outages).
    pub completed: bool,
}

impl FlowRecord {
    /// Ground truth: the link that dropped the most of this flow's
    /// packets, if any drop occurred (ties broken by lowest link id, as
    /// any deterministic convention).
    pub fn dominant_drop_link(&self) -> Option<LinkId> {
        self.drops_per_link
            .iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(l, _)| *l)
    }

    /// Total packets this flow lost (over all links).
    pub fn total_drops(&self) -> u32 {
        self.drops_per_link.iter().map(|(_, c)| c).sum()
    }
}

/// Per-epoch ground truth, the simulator-as-EverFlow oracle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Packets dropped by each link (dense, indexed by `LinkId`).
    pub drops_per_link: Vec<u64>,
    /// The injected failure set (from the fault table).
    pub failed_links: BTreeSet<LinkId>,
}

impl GroundTruth {
    /// True when the paper's noise definition applies to this link: it
    /// "only dropped a single packet" this epoch.
    pub fn is_noise_link(&self, link: LinkId) -> bool {
        self.drops_per_link[link.index()] == 1
    }
}

/// The complete outcome of simulating one epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochOutcome {
    /// The flow records. `simulate_*` returns every flow of the epoch,
    /// drop-free ones included; a scored run's outcome keeps only the
    /// rows scoring consults (retransmitting or reported flows), and its
    /// stream's `StreamStats::flows` counts the whole epoch.
    pub flows: Vec<FlowRecord>,
    /// The oracle.
    pub ground_truth: GroundTruth,
}

impl EpochOutcome {
    /// Flows that suffered at least one retransmission — the set 007's
    /// monitoring agent reacts to.
    pub fn flows_with_retransmissions(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows.iter().filter(|f| f.retransmissions > 0)
    }
}

/// Route-cache effectiveness counters, cumulative over an
/// [`EpochScratch`]'s lifetime and never reset — not by a parameter
/// change, not when the materialization memo is cleared (the benchmark's
/// `fabric.route_*` layer metrics subtract snapshots of them; see
/// `benchmark/README.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Epoch opens that reused an already-compiled [`RouteTable`].
    pub table_hits: u64,
    /// Epoch opens whose down-set matched no cached table.
    pub table_misses: u64,
    /// Tables compiled (one per miss; kept explicit for the artifact).
    pub compiles: u64,
    /// Materialized records whose owned [`Path`] was already in the
    /// materialization memo (an `Arc` clone). Flows that are simulated
    /// but never materialized touch no memo and count nowhere.
    pub path_hits: u64,
    /// Materialized records whose owned [`Path`] had to be built from
    /// the route decision.
    pub path_misses: u64,
}

/// Hasher for the packed [`RouteDecision`] memo keys: a single value is
/// hashed, so two splitmix rounds beat SipHash without giving up
/// distribution (the keys are dense host/choice packings).
#[derive(Debug, Clone, Copy, Default)]
struct DecisionKeyHasher(u64);

impl std::hash::Hasher for DecisionKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u128 keys, kept total).
        for &b in bytes {
            self.0 = vigil_topology::splitmix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u128(&mut self, v: u128) {
        let hi = vigil_topology::splitmix64((v >> 64) as u64);
        self.0 = vigil_topology::splitmix64((v as u64) ^ hi.rotate_left(32));
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct DecisionKeyHash;

impl std::hash::BuildHasher for DecisionKeyHash {
    type Hasher = DecisionKeyHasher;

    fn build_hasher(&self) -> DecisionKeyHasher {
        DecisionKeyHasher::default()
    }
}

/// Worker-lifetime route-cache state. Compiled tables are keyed by the
/// epoch's down-link set (fingerprint first, exact [`LinkSet`] compare
/// second) and kept in a small move-to-front list, so flap timelines
/// (whose down-set never changes) and maintenance timelines (which
/// alternate between two down-sets) hit the cache on repeated states —
/// across epochs and across trial switches of the same parameters.
/// ECMP seeds are read live at lookup time, so reseeds need no
/// invalidation; a parameter change clears everything (link ids are
/// only meaningful within one parameter set).
#[derive(Debug, Clone, Default)]
struct RouteCache {
    params: Option<ClosParams>,
    /// The current epoch's table is `tables[0]`.
    tables: Vec<RouteTable>,
    down: LinkSet,
    counters: RouteCacheStats,
}

/// Compiled tables kept per scratch: enough for a maintenance timeline's
/// alternating states plus a few trial-boundary stragglers.
const MAX_CACHED_TABLES: usize = 8;

/// Owned paths the materialization memo may carry into a new epoch; past
/// it the epoch open drops them all. Several times a dense cluster's
/// whole path space (where sharing pays), yet a few MiB at most — what
/// keeps a paper-size session's scratch from growing with its length.
const MAX_MEMO_PATHS: usize = 1 << 15;

/// Reusable per-epoch buffers for the simulator's hot path: the epoch's
/// generated flow specs, the compiled route cache, and the buffers and
/// memo record materialization goes through. One scratch serves a whole
/// trial — or, with the pool's worker-local reuse, many trials — and
/// every epoch's output is byte-identical to what a fresh scratch would
/// produce.
#[derive(Debug, Clone, Default)]
pub struct EpochScratch {
    /// The flow specs [`EpochStream::open`] generated for this epoch.
    specs: Vec<FlowSpec>,
    /// The columns [`EpochStream::next_chunk`] pulls into before
    /// materializing every row.
    batch: FlowBatch,
    cache: RouteCache,
    /// Where [`EpochStream::materialize`] emits a decision's node/link
    /// sequences before copying them into an owned [`Path`].
    route: RouteScratch,
    /// Owned [`Path`]s by route decision, fed only by
    /// [`EpochStream::materialize`]: records on the same route clone one
    /// `Arc` instead of re-allocating two `Vec`s each. Bounded by
    /// [`MAX_MEMO_PATHS`] at epoch open.
    memo: HashMap<u128, Arc<Path>, DecisionKeyHash>,
}

impl EpochScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Owned [`Path`]s this scratch has built so far — cumulative, so it
    /// keeps counting across memo clears and parameter changes. Only
    /// materialized records build one; the benchmark reads the growth per
    /// window as `fabric.interned_paths_per_window`, hence the name.
    pub fn interned_paths(&self) -> usize {
        self.cache.counters.path_misses as usize
    }

    /// Cumulative route-cache counters (table reuse per epoch open,
    /// materialization-memo hits per materialized record).
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        self.cache.counters
    }

    /// Epoch-open preparation: derives the down-set from `faults` and
    /// compiles or reuses the matching [`RouteTable`]. Invalidation is
    /// purely by value — a timeline that flaps rates without withdrawing
    /// links reuses one table for every epoch. A parameter change drops
    /// the tables and the memo (link ids are only meaningful within one
    /// parameter set); an over-full memo is dropped too.
    fn prepare_route_cache(&mut self, topo: &ClosTopology, faults: &LinkFaults) {
        let EpochScratch { cache, memo, .. } = self;
        if cache.params != Some(*topo.params()) {
            cache.tables.clear();
            cache.params = Some(*topo.params());
            memo.clear();
        }
        if memo.len() > MAX_MEMO_PATHS {
            memo.clear();
        }
        cache.down.clear();
        for i in 0..topo.num_links() as u32 {
            let l = LinkId(i);
            if faults.is_down(l) {
                cache.down.insert(l);
            }
        }
        let fp = RouteTable::fingerprint_of(&cache.down);
        let found = cache
            .tables
            .iter()
            .position(|t| t.fingerprint() == fp && *t.down_set() == cache.down);
        match found {
            Some(pos) => {
                cache.tables[..=pos].rotate_right(1);
                cache.counters.table_hits += 1;
            }
            None => {
                cache
                    .tables
                    .insert(0, RouteTable::compile(topo, &cache.down));
                cache.tables.truncate(MAX_CACHED_TABLES);
                cache.counters.table_misses += 1;
                cache.counters.compiles += 1;
            }
        }
    }
}

/// Simulates one epoch's full flow table: generate traffic, route, drop,
/// record. The caller owns the scratch — a trial loop reuses one
/// [`EpochScratch`] across its epochs so the per-flow hot path stops
/// allocating; reuse never changes the RNG stream or the output.
pub fn simulate_epoch<R: Rng + ?Sized>(
    topo: &ClosTopology,
    faults: &LinkFaults,
    traffic: &TrafficSpec,
    config: &SimConfig,
    rng: &mut R,
    scratch: &mut EpochScratch,
) -> EpochOutcome {
    EpochStream::open(topo, faults, traffic, config, rng, scratch).into_outcome()
}

/// Column-level outcome of simulating one spec: everything a
/// [`FlowRecord`] carries except the owned path (the 16-byte route
/// decision stands in for it) and the drop list (appended to a
/// caller-provided pair buffer). The struct-of-arrays [`FlowBatch`]
/// stores exactly these fields per flow; [`EpochStream::materialize`]
/// turns a row back into a [`FlowRecord`] on demand.
#[derive(Debug, Clone, Copy)]
struct RawFlow {
    path: RouteDecision,
    retransmissions: u32,
    established: bool,
    completed: bool,
}

/// A path's aggregate per-packet drop probability `q = 1 − Π(1 − r_i)`
/// and `ln(1 − q)` (−∞ when `q = 1`), from its per-link rates in path
/// order. The product is an in-order left fold from `1.0` — the float
/// ops of `rates.iter().map(|r| 1.0 - r).product()` — so every golden
/// byte downstream of the drop sampler depends on this exact form.
fn path_drop_params(rates: &[f64]) -> (f64, f64) {
    let mut survive = 1.0;
    for r in rates {
        survive *= 1.0 - r;
    }
    (1.0 - survive, survive.ln())
}

/// Simulates one spec end to end: route, sample drops — the one per-flow
/// step every pull shares, so chunk size can never change the RNG draw
/// order. Drop pairs are *appended* to `pairs_out` (the batch
/// accumulates them CSR-style).
///
/// The per-flow route is a lookup in the epoch's compiled table; its
/// links and their rates live on the stack, so nothing here touches the
/// heap or any per-path state. Routing consumes no RNG draws.
#[allow(clippy::too_many_arguments)]
fn simulate_row<R: Rng + ?Sized>(
    topo: &ClosTopology,
    table: &RouteTable,
    faults: &LinkFaults,
    config: &SimConfig,
    spec: &FlowSpec,
    rng: &mut R,
    pairs_out: &mut Vec<(LinkId, u32)>,
    drops_per_link: &mut [u64],
) -> RawFlow {
    let decision = match table.lookup(topo, &spec.tuple, spec.src, spec.dst) {
        Ok(d) => d,
        Err(_) => panic!(
            "traffic generator produced a same-host flow {:?} -> {:?}",
            spec.src, spec.dst
        ),
    };
    match decision.routed() {
        Routed::Complete => {
            let links = table.links(&decision);
            let links = links.as_slice();
            let mut rates = [0.0; MAX_ROUTE_LINKS];
            let rates = &mut rates[..links.len()];
            for (r, l) in rates.iter_mut().zip(links) {
                *r = faults.rate(*l);
            }
            simulate_one_flow(
                spec,
                decision,
                links,
                rates,
                config,
                rng,
                drops_per_link,
                pairs_out,
            )
        }
        // Administratively unreachable: SYN dies in the void. No link
        // "drops" it (the blackhole is a routing hole), the connection
        // simply fails to establish; `path` is the partial route.
        Routed::Blackholed => RawFlow {
            path: decision,
            retransmissions: config.syn_attempts,
            established: false,
            completed: false,
        },
    }
}

/// Struct-of-arrays view of a chunk of simulated flows: the hot fields
/// live in dense parallel columns, each path is the route decision that
/// determines it (no owned [`Path`] exists until a row is materialized),
/// and drop pairs are CSR-packed. Consumers that only need to *scan*
/// (did this flow retransmit? did it establish?) iterate columns without
/// materializing a single [`FlowRecord`]; rows that matter are
/// materialized on demand via [`EpochStream::materialize`].
#[derive(Debug, Clone, Default)]
pub struct FlowBatch {
    first_id: u32,
    src: Vec<HostId>,
    dst: Vec<HostId>,
    tuple: Vec<FiveTuple>,
    packets: Vec<u32>,
    retransmissions: Vec<u32>,
    established: Vec<bool>,
    completed: Vec<bool>,
    path: Vec<RouteDecision>,
    drop_starts: Vec<u32>,
    drop_pairs: Vec<(LinkId, u32)>,
}

impl FlowBatch {
    /// Fresh, empty batch (columns grow on first fill).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows in the batch.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Clears every column, keeping capacity.
    pub fn clear(&mut self) {
        self.first_id = 0;
        self.src.clear();
        self.dst.clear();
        self.tuple.clear();
        self.packets.clear();
        self.retransmissions.clear();
        self.established.clear();
        self.completed.clear();
        self.path.clear();
        self.drop_starts.clear();
        self.drop_pairs.clear();
    }

    /// The epoch-wide [`FlowId`] of row `i`.
    pub fn id(&self, i: usize) -> FlowId {
        FlowId(self.first_id + i as u32)
    }

    /// Source-host column.
    pub fn src(&self) -> &[HostId] {
        &self.src
    }

    /// Destination-host column.
    pub fn dst(&self) -> &[HostId] {
        &self.dst
    }

    /// Five-tuple column.
    pub fn tuples(&self) -> &[FiveTuple] {
        &self.tuple
    }

    /// Packets-attempted column.
    pub fn packets(&self) -> &[u32] {
        &self.packets
    }

    /// Retransmission-count column — the column the monitoring agent's
    /// `retransmissions > 0` scan reads.
    pub fn retransmissions(&self) -> &[u32] {
        &self.retransmissions
    }

    /// Connection-establishment column.
    pub fn established(&self) -> &[bool] {
        &self.established
    }

    /// Completion column.
    pub fn completed(&self) -> &[bool] {
        &self.completed
    }

    /// Ground-truth drop pairs of row `i` (CSR slice).
    pub fn drops(&self, i: usize) -> &[(LinkId, u32)] {
        let lo = self.drop_starts[i] as usize;
        let hi = self
            .drop_starts
            .get(i + 1)
            .map_or(self.drop_pairs.len(), |&e| e as usize);
        &self.drop_pairs[lo..hi]
    }
}

/// Pull-based streaming form of the epoch simulator: flow records are
/// produced in caller-sized chunks instead of one epoch-sized vector, so
/// a streaming consumer can process and *discard* records while the
/// epoch is still being generated — the constant-memory service mode's
/// fabric side.
///
/// The RNG draw order does not depend on how the epoch is pulled: all
/// traffic-generation draws happen in [`EpochStream::open`], then each
/// flow's drop draws happen in flow order. Chunk size is therefore
/// invisible in the output (asserted in tests; [`simulate_epoch`]
/// is the one-chunk pull) — only in the peak number of live
/// [`FlowRecord`]s.
#[derive(Debug)]
pub struct EpochStream<'a, R: Rng + ?Sized> {
    topo: &'a ClosTopology,
    faults: &'a LinkFaults,
    config: &'a SimConfig,
    rng: &'a mut R,
    scratch: &'a mut EpochScratch,
    cursor: usize,
    drops_per_link: Vec<u64>,
}

impl<'a, R: Rng + ?Sized> EpochStream<'a, R> {
    /// Opens the epoch: draws *all* traffic-generation randomness (the
    /// same draws, in the same order, as [`TrafficSpec::generate_into`]) into
    /// the scratch's spec buffer and positions the stream before the
    /// first flow. Flow specs are plain `(src, dst, tuple, packets)`
    /// quadruples — holding an epoch of them is cheap; the heavy
    /// [`FlowRecord`]s (paths, drop lists) are what streaming bounds.
    pub fn open(
        topo: &'a ClosTopology,
        faults: &'a LinkFaults,
        traffic: &TrafficSpec,
        config: &'a SimConfig,
        rng: &'a mut R,
        scratch: &'a mut EpochScratch,
    ) -> Self {
        traffic.generate_into(topo, rng, &mut scratch.specs);
        scratch.prepare_route_cache(topo, faults);
        Self {
            topo,
            faults,
            config,
            rng,
            scratch,
            cursor: 0,
            drops_per_link: vec![0; topo.num_links()],
        }
    }

    /// Total flows this epoch will produce.
    pub fn total_flows(&self) -> usize {
        self.scratch.specs.len()
    }

    /// Flows not yet pulled.
    pub fn remaining(&self) -> usize {
        self.total_flows() - self.cursor
    }

    /// Simulates up to `max_flows` further flows, appending their records
    /// to `out` (which the caller clears — or not — between pulls).
    /// Returns the number appended; `0` means the epoch is exhausted.
    /// This is [`next_batch`](Self::next_batch) with every row
    /// [`materialize`](Self::materialize)d — for consumers that want the
    /// whole flow table; scanning consumers pull batches directly.
    pub fn next_chunk(&mut self, max_flows: usize, out: &mut Vec<FlowRecord>) -> usize {
        let mut batch = std::mem::take(&mut self.scratch.batch);
        batch.clear();
        let produced = self.next_batch(max_flows, &mut batch);
        out.extend((0..produced).map(|i| self.materialize(&batch, i)));
        self.scratch.batch = batch;
        produced
    }

    /// Simulates up to `max_flows` further flows into dense columns:
    /// nothing per-flow is heap-allocated — no owned [`Path`], no
    /// per-record drop vector. Returns the number of rows appended; `0`
    /// means the epoch is exhausted. Materialize interesting rows with
    /// [`materialize`](Self::materialize).
    pub fn next_batch(&mut self, max_flows: usize, out: &mut FlowBatch) -> usize {
        let specs = &self.scratch.specs;
        let table = &self.scratch.cache.tables[0];
        let end = specs
            .len()
            .min(self.cursor.saturating_add(max_flows.max(1)));
        if out.is_empty() {
            out.first_id = self.cursor as u32;
        }
        for spec in &specs[self.cursor..end] {
            out.drop_starts.push(out.drop_pairs.len() as u32);
            let raw = simulate_row(
                self.topo,
                table,
                self.faults,
                self.config,
                spec,
                self.rng,
                &mut out.drop_pairs,
                &mut self.drops_per_link,
            );
            out.src.push(spec.src);
            out.dst.push(spec.dst);
            out.tuple.push(spec.tuple);
            out.packets.push(spec.packets);
            out.retransmissions.push(raw.retransmissions);
            out.established.push(raw.established);
            out.completed.push(raw.completed);
            out.path.push(raw.path);
        }
        let produced = end - self.cursor;
        self.cursor = end;
        produced
    }

    /// Materializes row `i` of a batch this stream produced into a full
    /// [`FlowRecord`]: the owned drop list plus the owned path, built
    /// from the row's route decision on first sight and shared through
    /// the scratch's memo afterwards.
    pub fn materialize(&mut self, batch: &FlowBatch, i: usize) -> FlowRecord {
        let EpochScratch {
            cache, route, memo, ..
        } = &mut *self.scratch;
        let decision = &batch.path[i];
        let path = match memo.entry(decision.cache_key()) {
            Entry::Occupied(e) => {
                cache.counters.path_hits += 1;
                Arc::clone(e.get())
            }
            Entry::Vacant(e) => {
                cache.counters.path_misses += 1;
                cache.tables[0].emit_into(decision, route);
                let path = Path::new(route.nodes.clone(), route.links.clone());
                Arc::clone(e.insert(Arc::new(path)))
            }
        };
        FlowRecord {
            id: batch.id(i),
            src: batch.src[i],
            dst: batch.dst[i],
            tuple: batch.tuple[i],
            packets: batch.packets[i],
            retransmissions: batch.retransmissions[i],
            path,
            drops_per_link: batch.drops(i).to_vec(),
            established: batch.established[i],
            completed: batch.completed[i],
        }
    }

    /// Pulls the whole epoch, every row materialized.
    fn into_outcome(mut self) -> EpochOutcome {
        let mut flows = Vec::with_capacity(self.total_flows());
        while self.next_chunk(usize::MAX, &mut flows) > 0 {}
        EpochOutcome {
            flows,
            ground_truth: self.finish(),
        }
    }

    /// Closes the epoch and returns its ground truth (per-link drop
    /// totals over every flow pulled so far, plus the injected failure
    /// set). Call after the stream is exhausted for the full epoch's
    /// oracle.
    pub fn finish(self) -> GroundTruth {
        GroundTruth {
            drops_per_link: self.drops_per_link,
            failed_links: self.faults.failed_set().clone(),
        }
    }
}

/// Exact per-flow drop simulation with a one-draw fast path. The outcome
/// is a [`RawFlow`] row carrying `path`; drop pairs are appended to
/// `pairs_out`. The common zero-drop flow touches no heap at all.
///
/// `links` and `rates` are the path's links and their per-packet drop
/// probabilities, in path order.
#[allow(clippy::too_many_arguments)]
fn simulate_one_flow<R: Rng + ?Sized>(
    spec: &FlowSpec,
    path: RouteDecision,
    links: &[LinkId],
    rates: &[f64],
    config: &SimConfig,
    rng: &mut R,
    global_drops: &mut [u64],
    pairs_out: &mut Vec<(LinkId, u32)>,
) -> RawFlow {
    let (q, ln_survive) = path_drop_params(rates);
    let mut record = RawFlow {
        path,
        retransmissions: 0,
        established: true,
        completed: true,
    };

    if q <= 0.0 {
        return record;
    }

    // Exact skip-sampling: each packet's *first* transmission drops with
    // probability q independently, so the gap between dropped packets is
    // geometric. One log-uniform draw jumps over every clean packet —
    // O(drops) per flow instead of O(packets) — with the exact
    // distribution (no conditioning bias).
    let geometric_gap = |rng: &mut R| -> u32 {
        if q >= 1.0 {
            return 0;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap = (u.ln() / ln_survive).floor();
        if gap >= f64::from(u32::MAX) {
            u32::MAX
        } else {
            gap as u32
        }
    };

    let mut pkt = geometric_gap(rng);
    if pkt >= spec.packets {
        // No first-transmission drop anywhere in the flow — the common
        // case.
        return record;
    }

    let mut local = [0u32; MAX_ROUTE_LINKS];
    let mut established = true;
    let mut completed = true;

    while pkt < spec.packets {
        // Packet `pkt`'s first attempt dropped: attribute it.
        local[attribute_drop(rates, q, rng)] += 1;
        record.retransmissions += 1;

        let budget = if pkt == 0 {
            config.syn_attempts
        } else {
            config.max_attempts_per_packet
        };
        let mut delivered = false;
        for _retry in 1..budget {
            match transmit(rates, q, rng) {
                None => {
                    delivered = true;
                    break;
                }
                Some(link_idx) => {
                    local[link_idx] += 1;
                    record.retransmissions += 1;
                }
            }
        }
        if !delivered {
            if pkt == 0 {
                // SYN never got through: establishment failure (§4.2 —
                // path discovery must not trigger).
                established = false;
            }
            completed = false;
            break;
        }
        pkt = pkt.saturating_add(1).saturating_add(geometric_gap(rng));
    }

    record.established = established;
    record.completed = completed;
    for (l, c) in links.iter().zip(local.iter()) {
        if *c > 0 {
            pairs_out.push((*l, *c));
            global_drops[l.index()] += u64::from(*c);
        }
    }
    record
}

/// Transmits one packet attempt along the path. Returns `None` when it
/// survives every link, or `Some(i)` with the index (position on the
/// path) of the dropping link, sampled from the exact sequential-thinning
/// distribution: link `i` drops with probability `r_i · Π_{j<i}(1 − r_j)`.
fn transmit<R: Rng + ?Sized>(rates: &[f64], q: f64, rng: &mut R) -> Option<usize> {
    debug_assert!(q > 0.0);
    let u: f64 = rng.gen();
    if u >= q {
        return None;
    }
    Some(locate_drop(rates, u))
}

/// Attributes a drop that is already known to have happened: samples the
/// dropping link from the sequential-thinning distribution conditioned on
/// a drop (`u` uniform on `[0, q)`).
fn attribute_drop<R: Rng + ?Sized>(rates: &[f64], q: f64, rng: &mut R) -> usize {
    debug_assert!(q > 0.0);
    let u: f64 = rng.gen::<f64>() * q;
    locate_drop(rates, u)
}

/// Maps a uniform variate `u ∈ [0, q)` onto the link whose drop-mass slice
/// contains it: link `i` owns mass `r_i · Π_{j<i}(1 − r_j)`.
fn locate_drop(rates: &[f64], u: f64) -> usize {
    let mut survive_prefix = 1.0;
    let mut cumulative = 0.0;
    for (i, &r) in rates.iter().enumerate() {
        cumulative += r * survive_prefix;
        if u < cumulative {
            return i;
        }
        survive_prefix *= 1.0 - r;
    }
    // Floating-point edge: u landed in [cumulative, q) due to rounding;
    // attribute to the last lossy link.
    rates
        .iter()
        .rposition(|r| *r > 0.0)
        .expect("a drop implies at least one lossy link")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, LinkFaults, RateRange};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vigil_topology::{ClosParams, ClosTopology};

    fn topo() -> ClosTopology {
        ClosTopology::new(ClosParams::tiny(), 21).unwrap()
    }

    fn traffic(conns: u32, pkts: u32) -> TrafficSpec {
        TrafficSpec {
            conns_per_host: crate::traffic::ConnCount::Fixed(conns),
            packets_per_flow: crate::traffic::PacketCount::Fixed(pkts),
            ..TrafficSpec::paper_default()
        }
    }

    #[test]
    fn clean_network_no_drops() {
        let topo = topo();
        let faults = LinkFaults::new(topo.num_links());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let out = simulate_epoch(
            &topo,
            &faults,
            &traffic(5, 50),
            &SimConfig::default(),
            &mut rng,
            &mut EpochScratch::new(),
        );
        assert!(out.flows.iter().all(|f| f.retransmissions == 0));
        assert!(out.flows.iter().all(|f| f.established && f.completed));
        assert_eq!(out.ground_truth.drops_per_link.iter().sum::<u64>(), 0);
        assert_eq!(out.flows_with_retransmissions().count(), 0);
    }

    #[test]
    fn blackhole_link_drops_flows_through_it() {
        let topo = topo();
        let mut faults = LinkFaults::new(topo.num_links());
        // Fail one ToR→T1 link hard (silent blackhole, still routed).
        let bad = topo
            .links()
            .iter()
            .find(|l| l.kind == vigil_topology::LinkKind::TorToT1)
            .unwrap()
            .id;
        faults.fail_link(bad, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let out = simulate_epoch(
            &topo,
            &faults,
            &traffic(20, 20),
            &SimConfig::default(),
            &mut rng,
            &mut EpochScratch::new(),
        );

        let through: Vec<_> = out
            .flows
            .iter()
            .filter(|f| f.path.contains_link(bad))
            .collect();
        assert!(!through.is_empty(), "some flow must cross the bad link");
        for f in &through {
            assert!(!f.established, "SYN cannot cross a 100% blackhole");
            assert_eq!(f.dominant_drop_link(), Some(bad));
        }
        // Every drop in the epoch should be on the blackhole (noise is 0).
        assert_eq!(
            out.ground_truth.drops_per_link[bad.index()],
            out.flows
                .iter()
                .map(|f| f.total_drops() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn lossy_link_produces_retransmissions_but_flows_complete() {
        let topo = topo();
        let mut faults = LinkFaults::new(topo.num_links());
        let bad = topo
            .links()
            .iter()
            .find(|l| l.kind == vigil_topology::LinkKind::T1ToTor)
            .unwrap()
            .id;
        faults.fail_link(bad, 0.05); // 5 %: drops happen, retries succeed
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let out = simulate_epoch(
            &topo,
            &faults,
            &traffic(20, 50),
            &SimConfig::default(),
            &mut rng,
            &mut EpochScratch::new(),
        );

        let affected: Vec<_> = out.flows.iter().filter(|f| f.retransmissions > 0).collect();
        assert!(!affected.is_empty());
        for f in &affected {
            assert!(f.path.contains_link(bad), "only the bad link drops here");
            assert!(f.established);
            assert_eq!(f.dominant_drop_link(), Some(bad));
        }
    }

    #[test]
    fn admin_down_diverts_instead_of_dropping() {
        let topo = topo();
        let mut faults = LinkFaults::new(topo.num_links());
        let dead = topo
            .links()
            .iter()
            .find(|l| l.kind == vigil_topology::LinkKind::TorToT1)
            .unwrap()
            .id;
        faults.set_admin_down(dead, true);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let out = simulate_epoch(
            &topo,
            &faults,
            &traffic(20, 20),
            &SimConfig::default(),
            &mut rng,
            &mut EpochScratch::new(),
        );
        assert!(out.flows.iter().all(|f| !f.path.contains_link(dead)));
        assert!(out.flows.iter().all(|f| f.retransmissions == 0));
    }

    #[test]
    fn host_uplink_blackhole_fails_establishment() {
        let topo = topo();
        let mut faults = LinkFaults::new(topo.num_links());
        // Withdraw host 0's only uplink: unroutable, SYN lost, no path.
        let host_up = topo
            .link_between(
                vigil_topology::Node::Host(vigil_topology::HostId(0)),
                vigil_topology::Node::Switch(topo.host_tor(vigil_topology::HostId(0))),
            )
            .unwrap();
        faults.set_admin_down(host_up, true);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let out = simulate_epoch(
            &topo,
            &faults,
            &traffic(3, 10),
            &SimConfig::default(),
            &mut rng,
            &mut EpochScratch::new(),
        );
        let from_h0: Vec<_> = out
            .flows
            .iter()
            .filter(|f| f.src == vigil_topology::HostId(0))
            .collect();
        assert_eq!(from_h0.len(), 3);
        for f in from_h0 {
            assert!(!f.established);
            assert!(!f.completed);
            assert_eq!(f.path.hop_count(), 0, "blackholed at the host itself");
        }
    }

    #[test]
    fn drop_counts_conserve() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let faults = FaultPlan {
            failure_rate: RateRange::fixed(0.02),
            ..FaultPlan::paper_default(3)
        }
        .build(&topo, &mut rng);
        let out = simulate_epoch(
            &topo,
            &faults,
            &traffic(10, 50),
            &SimConfig::default(),
            &mut rng,
            &mut EpochScratch::new(),
        );
        // Sum of per-flow drops equals sum of per-link global drops.
        let per_flow: u64 = out.flows.iter().map(|f| f.total_drops() as u64).sum();
        let per_link: u64 = out.ground_truth.drops_per_link.iter().sum();
        assert_eq!(per_flow, per_link);
        // And retransmissions equal drops for established flows (every
        // drop triggers exactly one retransmission).
        for f in &out.flows {
            assert_eq!(f.retransmissions, f.total_drops());
        }
    }

    #[test]
    fn noise_links_drop_rarely_and_singly() {
        let topo = topo();
        let mut faults = LinkFaults::new(topo.num_links());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        faults.set_noise(RateRange { lo: 1e-5, hi: 1e-4 }, &mut rng); // exaggerated noise
        let out = simulate_epoch(
            &topo,
            &faults,
            &traffic(30, 100),
            &SimConfig::default(),
            &mut rng,
            &mut EpochScratch::new(),
        );
        let noisy_flows = out.flows_with_retransmissions().count();
        assert!(noisy_flows > 0, "exaggerated noise should hit someone");
        // No link should have a large tally from noise alone.
        let max = out
            .ground_truth
            .drops_per_link
            .iter()
            .max()
            .copied()
            .unwrap();
        assert!(max <= 5, "noise produced a hot link ({max} drops)");
    }

    #[test]
    fn epoch_stream_chunking_is_invisible() {
        // The streaming pipeline's fabric contract: pulling the epoch in
        // chunks of any size consumes the exact RNG stream the whole-epoch
        // simulator consumes, so records and ground truth are identical
        // bit for bit — chunk size only changes peak memory. `next_chunk`
        // is `next_batch` + `materialize`, so this covers the columns too.
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let faults = FaultPlan {
            failure_rate: RateRange::fixed(0.02),
            ..FaultPlan::paper_default(2)
        }
        .build(&topo, &mut rng);
        let spec = traffic(12, 40);
        let cfg = SimConfig::default();

        let mut batch_rng = ChaCha8Rng::seed_from_u64(77);
        let batch = simulate_epoch(
            &topo,
            &faults,
            &spec,
            &cfg,
            &mut batch_rng,
            &mut EpochScratch::new(),
        );

        for chunk in [1usize, 7, 64, usize::MAX] {
            let mut rng = ChaCha8Rng::seed_from_u64(77);
            let mut scratch = EpochScratch::new();
            let mut stream = EpochStream::open(&topo, &faults, &spec, &cfg, &mut rng, &mut scratch);
            assert_eq!(stream.total_flows(), batch.flows.len());
            let mut flows = Vec::new();
            let mut buf = Vec::new();
            loop {
                buf.clear();
                if stream.next_chunk(chunk, &mut buf) == 0 {
                    break;
                }
                assert!(chunk == usize::MAX || buf.len() <= chunk);
                flows.append(&mut buf);
            }
            assert_eq!(stream.remaining(), 0);
            let truth = stream.finish();
            assert_eq!(flows, batch.flows, "chunk size {chunk} changed the flows");
            assert_eq!(truth.drops_per_link, batch.ground_truth.drops_per_link);
            assert_eq!(truth.failed_links, batch.ground_truth.failed_links);
            // And the RNG position matches: both streams draw next the
            // same value.
            assert_eq!(rng.gen::<u64>(), batch_rng.clone().gen::<u64>());
        }
    }

    /// Rates of every kind the fault tables hold: clean (0), blackhole
    /// (1), paper noise, paper failure, anything in between.
    fn rate_strategy() -> impl Strategy<Value = f64> {
        (0u8..6, 0.0f64..1.0).prop_map(|(kind, u)| match kind {
            0 => 0.0,
            1 => 1.0,
            2 => u * 1e-6,
            3 => 1e-4 + u * (1e-2 - 1e-4),
            _ => u,
        })
    }

    proptest! {
        /// The kernel's `(q, ln(1 − q))` is bit for bit what the
        /// per-path memo it replaced computed — an in-order product then
        /// one `ln` — at every path length, including `q == 0` and
        /// `q == 1` (`ln = −∞`).
        #[test]
        fn path_drop_params_match_the_product_form_bit_for_bit(
            rates in proptest::collection::vec(rate_strategy(), 0..=MAX_ROUTE_LINKS),
        ) {
            let survive_all: f64 = rates.iter().map(|r| 1.0 - r).product();
            let (q, ln_survive) = path_drop_params(&rates);
            prop_assert_eq!(q.to_bits(), (1.0 - survive_all).to_bits());
            prop_assert_eq!(ln_survive.to_bits(), survive_all.ln().to_bits());
            if rates.iter().all(|r| *r == 0.0) {
                prop_assert_eq!((q, ln_survive), (0.0, 0.0));
            }
            if rates.contains(&1.0) {
                prop_assert_eq!((q, ln_survive), (1.0, f64::NEG_INFINITY));
            }
        }
    }

    /// Capacity of every buffer an [`EpochScratch`] owns.
    fn scratch_capacities(s: &EpochScratch) -> Vec<usize> {
        let b = &s.batch;
        vec![
            s.specs.capacity(),
            b.src.capacity(),
            b.dst.capacity(),
            b.tuple.capacity(),
            b.packets.capacity(),
            b.retransmissions.capacity(),
            b.established.capacity(),
            b.completed.capacity(),
            b.path.capacity(),
            b.drop_starts.capacity(),
            b.drop_pairs.capacity(),
            s.cache.tables.capacity(),
            s.route.nodes.capacity(),
            s.route.links.capacity(),
            s.memo.capacity(),
        ]
    }

    #[test]
    fn reused_scratch_stops_growing_after_warm_up() {
        // Fixed-size epochs over a path space small enough to be seen
        // whole in the first epochs, the way the service drives the
        // stream (caller-owned batch, rows materialized from it): no
        // scratch buffer may be larger after epoch 30 than after epoch 3.
        let params = ClosParams {
            npod: 1,
            n0: 3,
            n1: 2,
            n2: 0,
            hosts_per_tor: 2,
        };
        let topo = ClosTopology::new(params, 5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let faults = FaultPlan {
            failure_rate: RateRange::fixed(0.05),
            location: crate::faults::FaultLocation::Level1,
            ..FaultPlan::paper_default(2)
        }
        .build(&topo, &mut rng);
        let spec = traffic(40, 30);
        let cfg = SimConfig::default();
        let mut scratch = EpochScratch::new();
        let mut batch = FlowBatch::new();
        let mut warm = Vec::new();
        for epoch in 1..=30 {
            let mut stream = EpochStream::open(&topo, &faults, &spec, &cfg, &mut rng, &mut scratch);
            loop {
                batch.clear();
                if stream.next_batch(64, &mut batch) == 0 {
                    break;
                }
                for i in 0..batch.len() {
                    stream.materialize(&batch, i);
                }
            }
            stream.finish();
            if epoch == 3 {
                warm = scratch_capacities(&scratch);
            }
        }
        assert!(scratch.route_cache_stats().path_hits > 0);
        assert_eq!(scratch_capacities(&scratch), warm);
    }

    #[test]
    fn memo_bound_clears_at_epoch_open_and_is_invisible() {
        // A paper-size epoch pulled whole builds more owned paths
        // than the memo may carry over, so the next open drops them —
        // without touching a record, and without the cumulative counters
        // ever stepping back.
        let topo = ClosTopology::new(ClosParams::paper_sim(), 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let faults = FaultPlan::paper_default(4).build(&topo, &mut rng);
        let spec = traffic(60, 20);
        let cfg = SimConfig::default();

        let mut shared = EpochScratch::new();
        let mut shared_rng = ChaCha8Rng::seed_from_u64(14);
        let first = simulate_epoch(&topo, &faults, &spec, &cfg, &mut shared_rng, &mut shared);
        assert!(
            shared.memo.len() > MAX_MEMO_PATHS,
            "epoch too small to test"
        );
        let built = shared.interned_paths();
        let stats = shared.route_cache_stats();
        assert_eq!(built, shared.memo.len());

        let stream = EpochStream::open(&topo, &faults, &spec, &cfg, &mut rng, &mut shared);
        drop(stream);
        assert_eq!(shared.memo.len(), 0, "over-full memo survives the open");
        assert_eq!(shared.interned_paths(), built);
        assert_eq!(shared.route_cache_stats().path_misses, stats.path_misses);
        assert_eq!(shared.route_cache_stats().path_hits, stats.path_hits);

        let second = simulate_epoch(&topo, &faults, &spec, &cfg, &mut shared_rng, &mut shared);
        assert!(shared.interned_paths() > built);
        let mut fresh_rng = ChaCha8Rng::seed_from_u64(14);
        for shared_epoch in [first, second] {
            let fresh = simulate_epoch(
                &topo,
                &faults,
                &spec,
                &cfg,
                &mut fresh_rng,
                &mut EpochScratch::new(),
            );
            assert_eq!(shared_epoch.flows, fresh.flows);
            assert_eq!(
                shared_epoch.ground_truth.drops_per_link,
                fresh.ground_truth.drops_per_link
            );
        }
    }

    #[test]
    fn determinism() {
        let topo = topo();
        let mut rng1 = ChaCha8Rng::seed_from_u64(8);
        let mut rng2 = ChaCha8Rng::seed_from_u64(8);
        let faults = FaultPlan::paper_default(2).build(&topo, &mut ChaCha8Rng::seed_from_u64(9));
        let a = simulate_epoch(
            &topo,
            &faults,
            &traffic(5, 20),
            &SimConfig::default(),
            &mut rng1,
            &mut EpochScratch::new(),
        );
        let b = simulate_epoch(
            &topo,
            &faults,
            &traffic(5, 20),
            &SimConfig::default(),
            &mut rng2,
            &mut EpochScratch::new(),
        );
        assert_eq!(a.flows, b.flows);
    }

    #[test]
    fn dominant_link_tiebreak_is_deterministic() {
        let rec = FlowRecord {
            id: FlowId(0),
            src: vigil_topology::HostId(0),
            dst: vigil_topology::HostId(1),
            tuple: vigil_packet::FiveTuple::tcp(
                "10.0.0.1".parse().unwrap(),
                1,
                "10.0.0.2".parse().unwrap(),
                2,
            ),
            packets: 10,
            retransmissions: 4,
            path: Arc::new(Path::new(
                vec![vigil_topology::Node::Host(vigil_topology::HostId(0))],
                vec![],
            )),
            drops_per_link: vec![(LinkId(7), 2), (LinkId(3), 2)],
            established: true,
            completed: true,
        };
        // Equal counts: lowest link id wins.
        assert_eq!(rec.dominant_drop_link(), Some(LinkId(3)));
    }

    #[test]
    fn skip_sampling_matches_binomial_incidence() {
        // P(flow sees ≥1 retransmission) must equal 1 − (1−q)^n exactly
        // (no conditioning bias) — this is the property the fast path
        // could silently break.
        let topo = topo();
        let mut faults = LinkFaults::new(topo.num_links());
        let bad = topo
            .links()
            .iter()
            .find(|l| l.kind == vigil_topology::LinkKind::TorToT1)
            .unwrap()
            .id;
        let rate = 0.01;
        faults.fail_link(bad, rate);

        // One fixed flow crossing the bad link, resimulated many times.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let src = vigil_topology::HostId(0);
        // Find a destination + port whose path uses `bad`.
        let spec = (0..500u16)
            .find_map(|port| {
                let dst = vigil_topology::HostId(topo.num_hosts() as u32 - 1);
                let tuple = vigil_packet::FiveTuple::tcp(
                    topo.host_ip(src),
                    40_000 + port,
                    topo.host_ip(dst),
                    443,
                );
                let path = topo.route(&tuple, src, dst).unwrap();
                path.contains_link(bad).then_some(crate::traffic::FlowSpec {
                    src,
                    dst,
                    tuple,
                    packets: 50,
                })
            })
            .expect("some port crosses the bad link");

        let mut scratch = EpochScratch::new();
        scratch.prepare_route_cache(&topo, &faults);
        let mut pairs = Vec::new();
        let mut drops = vec![0; topo.num_links()];
        let n = 20_000;
        let mut hit = 0u32;
        for _ in 0..n {
            let raw = simulate_row(
                &topo,
                &scratch.cache.tables[0],
                &faults,
                &SimConfig::default(),
                &spec,
                &mut rng,
                &mut pairs,
                &mut drops,
            );
            if raw.retransmissions > 0 {
                hit += 1;
            }
        }
        let expected = 1.0 - (1.0 - rate).powi(50);
        let emp = f64::from(hit) / f64::from(n);
        assert!(
            (emp - expected).abs() < 0.01,
            "incidence {emp:.4} vs expected {expected:.4}"
        );
    }

    #[test]
    fn transmit_distribution_matches_rates() {
        // Statistical check of the sequential-thinning sampler.
        let rates = vec![0.1, 0.2, 0.0, 0.3];
        let survive: f64 = rates.iter().map(|r| 1.0 - r).product();
        let q = 1.0 - survive;
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let trials = 200_000;
        let mut counts = vec![0u32; rates.len()];
        let mut delivered = 0u32;
        for _ in 0..trials {
            match transmit(&rates, q, &mut rng) {
                None => delivered += 1,
                Some(i) => counts[i] += 1,
            }
        }
        let expect = [0.1, 0.9 * 0.2, 0.0, 0.9 * 0.8 * 0.3];
        for i in 0..rates.len() {
            let emp = f64::from(counts[i]) / f64::from(trials);
            assert!(
                (emp - expect[i]).abs() < 0.005,
                "link {i}: got {emp:.4}, want {:.4}",
                expect[i]
            );
        }
        let emp_ok = f64::from(delivered) / f64::from(trials);
        assert!((emp_ok - survive).abs() < 0.005);
    }
}
