//! The data-plane bench harness: the ROADMAP's first recorded perf
//! trajectory.
//!
//! Four measurements, all deterministic in the sweep seed:
//!
//! * **lookup** — ns/lookup for the linear-scan reference vs the binary
//!   trie over the same ≥64-route table and address stream;
//! * **sweep** — end-to-end pipeline throughput (packets/sec) and
//!   per-packet p50/p99 latency across worker counts and batch sizes;
//! * **churn** — experiment E15's A/B arm: throughput under live route-flap
//!   churn (a wall-clock-paced updater thread flapping a route the traffic
//!   never hits), copy-on-write epoch publication vs the locked
//!   generation-clear baseline, at each target update rate;
//! * **update visibility** — how long after a route publication a reader
//!   first observes it, for both publication mechanisms.
//!
//! [`BenchReport::to_json`] renders the record `BENCH_router.json` at the
//! repo root is built from (`cargo run --release --example router_bench`),
//! so later PRs have a number to beat.

use crate::cowtrie::CowRouteTable;
use crate::lpm::{LinearTable, Routes as _, TrieTable};
use crate::router::{PortId, RouteMode, RouterConfig, ShardedRouter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use syscheck::shim::Mutex as ShimMutex;
use sysrepr::packet::PacketBuilder;

/// Number of next-hop ports the synthetic route set spreads over.
pub const PORTS: usize = 4;

/// Port names, indexed by [`PortId`].
pub const PORT_NAMES: [&str; PORTS] = ["core-a", "edge-b", "rack-c", "default-gw"];

/// Sweep sizing.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Packets per (workers × batch) configuration.
    pub packets: usize,
    /// Routes to install (plus the default route).
    pub routes: usize,
    /// UDP payload bytes per packet.
    pub payload_len: usize,
    /// Corrupt every Nth packet's checksum (0 = never).
    pub corrupt_every: usize,
    /// Worker counts to sweep.
    pub worker_counts: Vec<usize>,
    /// Batch sizes to sweep.
    pub batch_sizes: Vec<usize>,
    /// Bounded-queue depth (batches) per worker.
    pub queue_depth: usize,
    /// Total lookups for the linear-vs-trie microbench.
    pub lookups: usize,
    /// Seed for the synthetic stream.
    pub seed: u64,
    /// Distinct flows in the stream (Zipf-ish: 87.5 % of packets come from
    /// the hottest `flows / 8`). `0` keeps the legacy stream where every
    /// packet is its own flow — the worst case for any flow cache.
    pub flows: usize,
    /// Process-wide allocation counter (e.g. a counting `#[global_allocator]`
    /// in the bench binary). When set, the sweep reads it at the stream's
    /// midpoint and end to report steady-state allocations per packet —
    /// the measured form of the router's zero-alloc claim.
    pub alloc_counter: Option<fn() -> u64>,
    /// Timed trials per (workers × batch) configuration; the best trial is
    /// recorded. Wall-clock throughput on a shared host is at the mercy of
    /// the scheduler — best-of-N reports what the data plane can sustain,
    /// not which trial drew the short straw.
    pub trials: usize,
    /// Target route-update rates (updates/sec) for the churn sweep; each
    /// rate runs once per [`RouteMode`]. Empty skips the churn sweep.
    pub churn_rates: Vec<u64>,
    /// Publish → first-observation samples for the update-visibility
    /// microbench. `0` skips it.
    pub visibility_samples: usize,
}

impl SweepConfig {
    /// CI-sized sweep (fractions of a second).
    #[must_use]
    pub fn quick() -> Self {
        SweepConfig {
            packets: 20_000,
            routes: 64,
            payload_len: 64,
            corrupt_every: 500,
            worker_counts: vec![1, 2, 4],
            batch_sizes: vec![64],
            queue_depth: 8,
            lookups: 200_000,
            seed: 0x5EED_0E10,
            flows: 1024,
            alloc_counter: None,
            trials: 1,
            churn_rates: Vec::new(),
            visibility_samples: 0,
        }
    }

    /// Recorded-trajectory sweep (a few seconds).
    #[must_use]
    pub fn full() -> Self {
        SweepConfig {
            packets: 200_000,
            routes: 256,
            payload_len: 64,
            corrupt_every: 500,
            worker_counts: vec![1, 2, 4],
            batch_sizes: vec![16, 64, 256],
            queue_depth: 8,
            lookups: 2_000_000,
            seed: 0x5EED_0E10,
            flows: 4096,
            alloc_counter: None,
            trials: 3,
            churn_rates: vec![0, 100, 1_000, 10_000],
            visibility_samples: 512,
        }
    }
}

/// Linear-vs-trie lookup microbench result.
#[derive(Debug, Clone, Copy)]
pub struct LookupPoint {
    /// Routes actually installed (after canonical dedup).
    pub routes: usize,
    /// Lookups timed per table.
    pub lookups: usize,
    /// Mean ns/lookup for the linear scan.
    pub linear_ns: f64,
    /// Mean ns/lookup for the trie.
    pub trie_ns: f64,
}

impl LookupPoint {
    /// linear / trie: how many times faster the trie is.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.trie_ns <= 0.0 {
            0.0
        } else {
            self.linear_ns / self.trie_ns
        }
    }
}

/// One pipeline sweep configuration's measurement.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Worker threads.
    pub workers: usize,
    /// Frames per batch.
    pub batch_size: usize,
    /// Wall-clock packets/sec over the whole stream.
    pub pps: f64,
    /// Median per-packet latency (submit → batch completion), ns.
    pub p50_ns: u64,
    /// 99th-percentile per-packet latency, ns.
    pub p99_ns: u64,
    /// 99.9th-percentile per-packet latency, ns — the tail the overload
    /// experiments watch.
    pub p999_ns: u64,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped (all reasons).
    pub dropped: u64,
    /// Flow-cache hit rate across workers (0.0 with the cache disabled).
    pub cache_hit_rate: f64,
    /// Heap allocations per packet over the second half of the stream
    /// (pool warm by then); `None` when no [`SweepConfig::alloc_counter`]
    /// was supplied.
    pub steady_allocs_per_packet: Option<f64>,
}

/// One churn-sweep measurement: one [`RouteMode`] forwarding the full
/// stream while an updater thread flaps a route at a target rate.
#[derive(Debug, Clone, Copy)]
pub struct ChurnPoint {
    /// Route-publication mechanism under test.
    pub mode: RouteMode,
    /// Target update rate the churn thread paced itself to (updates/sec).
    pub target_updates_per_sec: u64,
    /// Updates actually applied during the run (wall-clock × rate).
    pub updates_applied: u64,
    /// Wall-clock packets/sec over the whole stream, churn included.
    pub pps: f64,
    /// Median per-packet latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile per-packet latency, ns.
    pub p99_ns: u64,
    /// Flow-cache hit rate under churn.
    pub cache_hit_rate: f64,
    /// Cache misses attributed to invalidation refills — the measured cost
    /// of each publication nuking the per-worker caches.
    pub invalidation_misses: u64,
    /// Steady-state allocations per packet (second half of the stream),
    /// churn thread included; `None` without an alloc counter.
    pub steady_allocs_per_packet: Option<f64>,
}

impl ChurnPoint {
    /// Short mode name for tables and JSON.
    #[must_use]
    pub fn mode_name(&self) -> &'static str {
        match self.mode {
            RouteMode::CowEpoch => "cow-epoch",
            RouteMode::LockedGenerationClear => "locked-gen-clear",
        }
    }
}

/// Publish → first-observation latency for both publication mechanisms.
#[derive(Debug, Clone, Copy)]
pub struct VisibilityPoint {
    /// Samples per mechanism.
    pub samples: usize,
    /// Median ns from COW publication to a fresh pin observing it.
    pub cow_p50_ns: u64,
    /// 99th-percentile ns for the COW path.
    pub cow_p99_ns: u64,
    /// Median ns from a locked-table update to a locking reader observing it.
    pub locked_p50_ns: u64,
    /// 99th-percentile ns for the locked path.
    pub locked_p99_ns: u64,
}

/// The full bench record.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Cores visible to the process (scaling context for the sweep).
    pub host_cores: usize,
    /// Packets per sweep configuration.
    pub packets: usize,
    /// Distinct flows in the stream (0 = every packet its own flow).
    pub flows: usize,
    /// The lookup microbench.
    pub lookup: LookupPoint,
    /// The pipeline sweep, in (workers, batch) order.
    pub sweep: Vec<SweepPoint>,
    /// The route-flap churn sweep, in (rate, mode) order; empty when
    /// [`SweepConfig::churn_rates`] is.
    pub churn: Vec<ChurnPoint>,
    /// The update-visibility microbench; `None` when
    /// [`SweepConfig::visibility_samples`] is 0.
    pub visibility: Option<VisibilityPoint>,
}

/// Deterministic route set: a default route plus `n` overlapping /8, /16,
/// and /24 prefixes under and around 10.0.0.0, spread over [`PORTS`] ports.
#[must_use]
pub fn route_set(n: usize) -> Vec<(u32, u8, PortId)> {
    let mut routes: Vec<(u32, u8, PortId)> = vec![(0, 0, 3)]; // default-gw
    for i in 0..n {
        let j = u32::try_from(i / 4).expect("route counts are small");
        let port = PortId::try_from(i % (PORTS - 1)).expect("fits");
        // Each arm is injective in j and the arms' keys are disjoint, so the
        // set holds exactly n routes; the /16s cover the low /24s and the
        // default route covers everything, giving real overlap.
        let (prefix, len) = match i % 4 {
            0 => ((10 << 24) | ((j % 16) << 16) | ((j / 16) << 8), 24),
            1 => ((10 << 24) | ((j % 200) << 16), 16),
            2 => ((10 << 24) | ((j % 16) << 16) | (((j / 16) + 100) << 8), 24),
            _ => ((20 + (j % 200)) << 24, 8),
        };
        routes.push((prefix, len, port));
    }
    routes
}

/// Builds both tables from the same route set; returns (trie, linear).
#[must_use]
pub fn build_tables(n: usize) -> (TrieTable<PortId>, LinearTable<PortId>) {
    let mut trie = TrieTable::new();
    let mut linear = LinearTable::new();
    for (prefix, len, port) in route_set(n) {
        trie.insert(prefix, len, port)
            .expect("generated routes are valid");
        linear
            .insert(prefix, len, port)
            .expect("generated routes are valid");
    }
    (trie, linear)
}

/// A deterministic destination-address stream: 80 % drawn inside installed
/// prefixes (host bits randomized), 20 % anywhere (default-route traffic).
#[must_use]
pub fn address_stream(n: usize, routes: usize, seed: u64) -> Vec<u32> {
    let set = route_set(routes);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_range(0u32..100) < 80 {
                let (prefix, len, _) = set[rng.gen_range(0..set.len())];
                let host_mask = !crate::lpm::mask(len);
                prefix | (rng.gen_range(0u32..=u32::MAX) & host_mask)
            } else {
                rng.gen_range(0u32..=u32::MAX)
            }
        })
        .collect()
}

/// Builds the synthetic frame stream the sweep routes.
///
/// With `cfg.flows == 0` every packet is a distinct `(src, dst)` pair (the
/// legacy stream, pathological for any flow cache). With `flows > 0` the
/// stream draws from a fixed flow population with a skewed (Zipf-ish)
/// distribution — 87.5 % of packets from the hottest eighth of flows —
/// which is what real traffic looks like and what the per-worker flow
/// cache exists to exploit. Destinations still follow the 80 %-in-prefix /
/// 20 %-anywhere rule, so drop and forward counters stay comparable.
#[must_use]
pub fn frame_stream(cfg: &SweepConfig) -> Vec<Vec<u8>> {
    let payload = vec![0xAA_u8; cfg.payload_len];
    let build = |i: usize, src: [u8; 4], dst: [u8; 4]| {
        let mut b = PacketBuilder::udp()
            .src_ip(src)
            .dst_ip(dst)
            .dst_port(4789)
            .payload(&payload);
        if cfg.corrupt_every != 0 && i.is_multiple_of(cfg.corrupt_every) {
            b = b.corrupt_checksum();
        }
        b.build()
    };
    if cfg.flows == 0 {
        let addrs = address_stream(cfg.packets, cfg.routes, cfg.seed);
        return addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                #[allow(clippy::cast_possible_truncation)]
                let src = [172, 16, (i % 8) as u8, (i % 251) as u8];
                build(i, src, addr.to_be_bytes())
            })
            .collect();
    }
    let dsts = address_stream(cfg.flows, cfg.routes, cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0F10_0F10);
    let flows: Vec<([u8; 4], [u8; 4])> = dsts
        .iter()
        .map(|d| {
            (
                rng.gen_range(0u32..=u32::MAX).to_be_bytes(),
                d.to_be_bytes(),
            )
        })
        .collect();
    let hot = (flows.len() / 8).max(1);
    (0..cfg.packets)
        .map(|i| {
            let f = if rng.gen_range(0u32..8) < 7 {
                rng.gen_range(0..hot)
            } else {
                rng.gen_range(0..flows.len())
            };
            let (src, dst) = flows[f];
            build(i, src, dst)
        })
        .collect()
}

/// Times `lookups` lookups against both tables over the same addresses.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn lookup_comparison(routes: usize, lookups: usize, seed: u64) -> LookupPoint {
    let (trie, linear) = build_tables(routes);
    let addrs = address_stream(lookups.clamp(1, 65_536), routes, seed ^ 0xF00D);
    let time_table = |lookup: &dyn Fn(u32) -> Option<PortId>| -> f64 {
        let mut acc = 0u64;
        let mut done = 0usize;
        let t0 = Instant::now();
        while done < lookups {
            for &a in &addrs {
                if let Some(hop) = lookup(a) {
                    acc = acc.wrapping_add(u64::from(hop));
                }
            }
            done += addrs.len();
        }
        std::hint::black_box(acc);
        t0.elapsed().as_nanos() as f64 / done as f64
    };
    LookupPoint {
        routes: trie.len(),
        lookups,
        linear_ns: time_table(&|a| linear.lookup(a)),
        trie_ns: time_table(&|a| trie.lookup(a)),
    }
}

/// Runs one timed trial of a single (workers × batch) configuration.
#[allow(clippy::cast_precision_loss)]
fn measure_point(
    cfg: &SweepConfig,
    frames: &[Vec<u8>],
    workers: usize,
    batch_size: usize,
) -> SweepPoint {
    let (trie, _) = build_tables(cfg.routes);
    let rc = RouterConfig {
        workers,
        batch_size,
        queue_depth: cfg.queue_depth,
        ..RouterConfig::default()
    };
    // The stream runs in two halves within one router lifetime: the
    // first half warms the buffer pool and flow caches, and the
    // allocation counter (when supplied) brackets the second half —
    // steady-state allocations per packet, measured not asserted.
    let half = frames.len() / 2;
    let t0 = Instant::now();
    let mut router = ShardedRouter::start(trie, PORTS, rc);
    for frame in &frames[..half] {
        router.submit(frame);
    }
    let allocs_mid = cfg.alloc_counter.map(|f| f());
    for frame in &frames[half..] {
        router.submit(frame);
    }
    // Read before finish(): report assembly allocates, the steady
    // state does not.
    let allocs_end = cfg.alloc_counter.map(|f| f());
    let report = router.finish();
    let elapsed = t0.elapsed();
    let secs = elapsed.as_secs_f64().max(1e-9);
    let steady_allocs_per_packet = match (allocs_mid, allocs_end) {
        (Some(a), Some(b)) if frames.len() > half => {
            Some((b.saturating_sub(a)) as f64 / (frames.len() - half) as f64)
        }
        _ => None,
    };
    SweepPoint {
        workers,
        batch_size,
        pps: report.packets() as f64 / secs,
        p50_ns: report.latency_ns(0.50),
        p99_ns: report.latency_ns(0.99),
        p999_ns: report.latency_ns(0.999),
        forwarded: report.stats.totals.forwarded,
        dropped: report.stats.totals.dropped_total(),
        cache_hit_rate: report.cache_hit_rate(),
        steady_allocs_per_packet,
    }
}

/// The churn target: a /30 outside [`route_set`]'s prefixes (the /16 arm
/// stops at 10.199), so flapping its next hop exercises publication and
/// cache invalidation without changing any measured packet's routing
/// decision — the A and B arms forward identical streams.
pub const FLAP_PREFIX: u32 = (10 << 24) | (200 << 16);
/// Prefix length of the churn target.
pub const FLAP_LEN: u8 = 30;
/// An address inside the churn target (visibility microbench probe).
const FLAP_ADDR: u32 = FLAP_PREFIX | 1;

/// Runs one timed churn trial: the full stream through `mode` while an
/// updater thread flaps [`FLAP_PREFIX`] at `rate` updates/sec.
#[allow(clippy::cast_precision_loss)]
fn churn_point(
    cfg: &SweepConfig,
    frames: &[Vec<u8>],
    workers: usize,
    batch_size: usize,
    mode: RouteMode,
    rate: u64,
) -> ChurnPoint {
    let (trie, _) = build_tables(cfg.routes);
    let rc = RouterConfig {
        workers,
        batch_size,
        queue_depth: cfg.queue_depth,
        route_mode: mode,
        ..RouterConfig::default()
    };
    let half = frames.len() / 2;
    let t0 = Instant::now();
    let mut router = ShardedRouter::start(trie, PORTS, rc);
    let stop = Arc::new(AtomicBool::new(false));
    let churn = (rate > 0).then(|| {
        let updater = router.updater();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Wall-clock pacing: apply however many updates the elapsed
            // time says are due, then yield. Update `k` is due at `k / rate`
            // s, so the first is due at the start of the trial and runs
            // even when the stream is over before the thread is scheduled.
            // Every insert changes the next hop, so every one is a real
            // publication.
            let start = Instant::now();
            let mut applied = 0u64;
            loop {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let due = (start.elapsed().as_secs_f64() * rate as f64) as u64 + 1;
                while applied < due {
                    let hop = PortId::try_from(applied as usize % PORTS).expect("fits");
                    let _ = updater.insert(FLAP_PREFIX, FLAP_LEN, hop);
                    applied += 1;
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::yield_now();
            }
            applied
        })
    });
    for frame in &frames[..half] {
        router.submit(frame);
    }
    let allocs_mid = cfg.alloc_counter.map(|f| f());
    for frame in &frames[half..] {
        router.submit(frame);
    }
    let allocs_end = cfg.alloc_counter.map(|f| f());
    stop.store(true, Ordering::Relaxed);
    let updates_applied = churn.map_or(0, |h| h.join().expect("churn thread panicked"));
    let report = router.finish();
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let steady_allocs_per_packet = match (allocs_mid, allocs_end) {
        (Some(a), Some(b)) if frames.len() > half => {
            Some((b.saturating_sub(a)) as f64 / (frames.len() - half) as f64)
        }
        _ => None,
    };
    ChurnPoint {
        mode,
        target_updates_per_sec: rate,
        updates_applied,
        pps: report.packets() as f64 / secs,
        p50_ns: report.latency_ns(0.50),
        p99_ns: report.latency_ns(0.99),
        cache_hit_rate: report.cache_hit_rate(),
        invalidation_misses: report.stats.totals.cache_invalidation_misses,
        steady_allocs_per_packet,
    }
}

/// Runs the churn sweep: each rate × each [`RouteMode`], best of
/// [`SweepConfig::trials`] trials, at the largest worker count.
#[must_use]
pub fn run_churn_sweep(cfg: &SweepConfig) -> Vec<ChurnPoint> {
    if cfg.churn_rates.is_empty() {
        return Vec::new();
    }
    let frames = frame_stream(cfg);
    let workers = cfg.worker_counts.iter().copied().max().unwrap_or(1);
    let batch_size = if cfg.batch_sizes.contains(&64) {
        64
    } else {
        cfg.batch_sizes.last().copied().unwrap_or(64)
    };
    let mut churn = Vec::new();
    for &rate in &cfg.churn_rates {
        for mode in [RouteMode::CowEpoch, RouteMode::LockedGenerationClear] {
            let best = (0..cfg.trials.max(1))
                .map(|_| churn_point(cfg, &frames, workers, batch_size, mode, rate))
                .max_by(|a, b| a.pps.total_cmp(&b.pps))
                .expect("at least one trial");
            churn.push(best);
        }
    }
    churn
}

/// Publish-to-observation protocol: the writer bumps `seq` (arming the
/// reader's spin), stamps the publish time, applies the update; the reader
/// spins on its read closure until the new hop appears and stamps that.
/// Sequential samples — no overlap between publications.
fn measure_visibility<W, R>(samples: usize, write: W, read: R) -> (u64, u64)
where
    W: Fn(PortId),
    R: Fn() -> Option<PortId> + Send + 'static,
{
    let origin = Instant::now();
    let seq = Arc::new(AtomicU64::new(0));
    let (tx, rx) = std::sync::mpsc::channel::<u64>();
    let reader = {
        let seq = Arc::clone(&seq);
        std::thread::spawn(move || {
            for i in 0..samples {
                let want = PortId::try_from(i % PORTS).expect("fits");
                while seq.load(Ordering::Acquire) <= i as u64 {
                    std::hint::spin_loop();
                }
                while read() != Some(want) {
                    std::hint::spin_loop();
                }
                #[allow(clippy::cast_possible_truncation)]
                tx.send(origin.elapsed().as_nanos() as u64)
                    .expect("visibility channel closed");
            }
        })
    };
    let mut lat = Vec::with_capacity(samples);
    for i in 0..samples {
        let hop = PortId::try_from(i % PORTS).expect("fits");
        seq.store(i as u64 + 1, Ordering::Release);
        #[allow(clippy::cast_possible_truncation)]
        let published = origin.elapsed().as_nanos() as u64;
        write(hop);
        let seen = rx.recv().expect("visibility reader died");
        lat.push(seen.saturating_sub(published));
    }
    reader.join().expect("visibility reader panicked");
    lat.sort_unstable();
    let q = |f: f64| {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = ((lat.len() - 1) as f64 * f) as usize;
        lat[idx]
    };
    (q(0.50), q(0.99))
}

/// Measures publish → first-observation latency for both publication
/// mechanisms: a fresh epoch pin against the COW table, and a lock
/// round-trip against the mutex-guarded trie (the per-batch cost a worker
/// pays in [`RouteMode::LockedGenerationClear`]).
#[must_use]
pub fn update_visibility(samples: usize) -> Option<VisibilityPoint> {
    if samples == 0 {
        return None;
    }
    // Pre-seed with the default-gw hop (3): the first sample's hop is 0,
    // and consecutive hops cycle 0..4, so every insert changes the value.
    let cow: Arc<CowRouteTable<PortId>> = Arc::new(CowRouteTable::new());
    cow.insert(FLAP_PREFIX, FLAP_LEN, 3).expect("valid route");
    let reader = cow.reader();
    let (cow_p50_ns, cow_p99_ns) = measure_visibility(
        samples,
        |hop| {
            let _ = cow.insert(FLAP_PREFIX, FLAP_LEN, hop);
        },
        move || reader.pin().lookup(FLAP_ADDR),
    );

    let locked = Arc::new(ShimMutex::new(TrieTable::<PortId>::new()));
    locked
        .lock()
        .expect("fresh mutex")
        .insert(FLAP_PREFIX, FLAP_LEN, 3)
        .expect("valid route");
    let table = Arc::clone(&locked);
    let (locked_p50_ns, locked_p99_ns) = measure_visibility(
        samples,
        |hop| {
            let _ = locked
                .lock()
                .expect("route table poisoned")
                .insert(FLAP_PREFIX, FLAP_LEN, hop);
        },
        move || {
            table
                .lock()
                .expect("route table poisoned")
                .lookup(FLAP_ADDR)
        },
    );
    Some(VisibilityPoint {
        samples,
        cow_p50_ns,
        cow_p99_ns,
        locked_p50_ns,
        locked_p99_ns,
    })
}

/// Runs the full sweep: lookup microbench plus the (workers × batch)
/// pipeline grid, best of [`SweepConfig::trials`] trials per point, plus
/// the churn sweep and visibility microbench when configured.
#[must_use]
pub fn run_sweep(cfg: &SweepConfig) -> BenchReport {
    let lookup = lookup_comparison(cfg.routes, cfg.lookups, cfg.seed);
    let frames = frame_stream(cfg);
    let mut sweep = Vec::new();
    for &workers in &cfg.worker_counts {
        for &batch_size in &cfg.batch_sizes {
            let best = (0..cfg.trials.max(1))
                .map(|_| measure_point(cfg, &frames, workers, batch_size))
                .max_by(|a, b| a.pps.total_cmp(&b.pps))
                .expect("at least one trial");
            sweep.push(best);
        }
    }
    BenchReport {
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        packets: cfg.packets,
        flows: cfg.flows,
        lookup,
        sweep,
        churn: run_churn_sweep(cfg),
        visibility: update_visibility(cfg.visibility_samples),
    }
}

impl BenchReport {
    /// Renders the report as the `BENCH_router.json` record (hand-rolled:
    /// the container has no serde, and the schema is flat).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"bench\": \"router\",");
        let _ = writeln!(s, "  \"schema\": 4,");
        let _ = writeln!(s, "  \"host_cores\": {},", self.host_cores);
        let _ = writeln!(s, "  \"packets_per_config\": {},", self.packets);
        let _ = writeln!(s, "  \"flows\": {},", self.flows);
        let _ = writeln!(s, "  \"lookup\": {{");
        let _ = writeln!(s, "    \"routes\": {},", self.lookup.routes);
        let _ = writeln!(s, "    \"lookups\": {},", self.lookup.lookups);
        let _ = writeln!(
            s,
            "    \"linear_ns_per_lookup\": {:.2},",
            self.lookup.linear_ns
        );
        let _ = writeln!(s, "    \"trie_ns_per_lookup\": {:.2},", self.lookup.trie_ns);
        let _ = writeln!(s, "    \"trie_speedup\": {:.2}", self.lookup.speedup());
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"sweep\": [");
        for (i, p) in self.sweep.iter().enumerate() {
            let comma = if i + 1 == self.sweep.len() { "" } else { "," };
            let allocs = p
                .steady_allocs_per_packet
                .map_or_else(|| "null".to_owned(), |a| format!("{a:.4}"));
            let _ = writeln!(
                s,
                "    {{\"workers\": {}, \"batch_size\": {}, \"pps\": {:.0}, \"p50_ns\": {}, \
                 \"p99_ns\": {}, \"p999_ns\": {}, \"forwarded\": {}, \"dropped\": {}, \
                 \"cache_hit_rate\": {:.4}, \"steady_allocs_per_packet\": {}}}{comma}",
                p.workers,
                p.batch_size,
                p.pps,
                p.p50_ns,
                p.p99_ns,
                p.p999_ns,
                p.forwarded,
                p.dropped,
                p.cache_hit_rate,
                allocs
            );
        }
        s.push_str("  ],\n");
        let _ = writeln!(s, "  \"churn\": [");
        for (i, p) in self.churn.iter().enumerate() {
            let comma = if i + 1 == self.churn.len() { "" } else { "," };
            let allocs = p
                .steady_allocs_per_packet
                .map_or_else(|| "null".to_owned(), |a| format!("{a:.4}"));
            let _ = writeln!(
                s,
                "    {{\"mode\": \"{}\", \"target_updates_per_sec\": {}, \
                 \"updates_applied\": {}, \"pps\": {:.0}, \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"cache_hit_rate\": {:.4}, \"invalidation_misses\": {}, \
                 \"steady_allocs_per_packet\": {}}}{comma}",
                p.mode_name(),
                p.target_updates_per_sec,
                p.updates_applied,
                p.pps,
                p.p50_ns,
                p.p99_ns,
                p.cache_hit_rate,
                p.invalidation_misses,
                allocs
            );
        }
        s.push_str("  ],\n");
        match &self.visibility {
            Some(v) => {
                let _ = writeln!(s, "  \"update_visibility\": {{");
                let _ = writeln!(s, "    \"samples\": {},", v.samples);
                let _ = writeln!(s, "    \"cow_p50_ns\": {},", v.cow_p50_ns);
                let _ = writeln!(s, "    \"cow_p99_ns\": {},", v.cow_p99_ns);
                let _ = writeln!(s, "    \"locked_p50_ns\": {},", v.locked_p50_ns);
                let _ = writeln!(s, "    \"locked_p99_ns\": {}", v.locked_p99_ns);
                let _ = writeln!(s, "  }}");
            }
            None => {
                let _ = writeln!(s, "  \"update_visibility\": null");
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_set_is_deterministic_and_overlapping() {
        let a = route_set(64);
        let b = route_set(64);
        assert_eq!(a, b);
        assert_eq!(a.len(), 65, "64 routes plus the default");
        assert!(a.iter().any(|&(_, len, _)| len == 8));
        assert!(a.iter().any(|&(_, len, _)| len == 16));
        assert!(a.iter().any(|&(_, len, _)| len == 24));
    }

    #[test]
    fn tables_built_from_the_set_agree_on_the_stream() {
        let (trie, linear) = build_tables(64);
        assert!(
            trie.len() >= 64,
            "≥64-route table after dedup, got {}",
            trie.len()
        );
        for addr in address_stream(2_000, 64, 42) {
            assert_eq!(trie.lookup(addr), linear.lookup(addr), "addr {addr:#010x}");
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = BenchReport {
            host_cores: 1,
            packets: 10,
            flows: 1024,
            lookup: LookupPoint {
                routes: 65,
                lookups: 100,
                linear_ns: 120.0,
                trie_ns: 30.0,
            },
            sweep: vec![
                SweepPoint {
                    workers: 1,
                    batch_size: 64,
                    pps: 1e6,
                    p50_ns: 500,
                    p99_ns: 900,
                    p999_ns: 1800,
                    forwarded: 9,
                    dropped: 1,
                    cache_hit_rate: 0.9321,
                    steady_allocs_per_packet: Some(0.0125),
                },
                SweepPoint {
                    workers: 2,
                    batch_size: 64,
                    pps: 1e6,
                    p50_ns: 500,
                    p99_ns: 900,
                    p999_ns: 1800,
                    forwarded: 9,
                    dropped: 1,
                    cache_hit_rate: 0.0,
                    steady_allocs_per_packet: None,
                },
            ],
            churn: vec![ChurnPoint {
                mode: RouteMode::CowEpoch,
                target_updates_per_sec: 10_000,
                updates_applied: 312,
                pps: 2e6,
                p50_ns: 600,
                p99_ns: 1200,
                cache_hit_rate: 0.8812,
                invalidation_misses: 42,
                steady_allocs_per_packet: Some(0.0031),
            }],
            visibility: Some(VisibilityPoint {
                samples: 64,
                cow_p50_ns: 180,
                cow_p99_ns: 950,
                locked_p50_ns: 210,
                locked_p99_ns: 1400,
            }),
        };
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"schema\": 4,"));
        assert!(json.contains("\"mode\": \"cow-epoch\""));
        assert!(json.contains("\"target_updates_per_sec\": 10000"));
        assert!(json.contains("\"invalidation_misses\": 42"));
        assert!(json.contains("\"cow_p50_ns\": 180"));
        assert!(json.contains("\"locked_p99_ns\": 1400"));
        assert!(json.contains("\"p999_ns\": 1800"));
        assert!(json.contains("\"trie_speedup\": 4.00"));
        assert!(json.contains("\"pps\": 1000000"));
        assert!(json.contains("\"cache_hit_rate\": 0.9321"));
        assert!(json.contains("\"steady_allocs_per_packet\": 0.0125"));
        assert!(json.contains("\"steady_allocs_per_packet\": null"));
    }

    #[test]
    fn quick_sweep_runs_end_to_end() {
        let mut cfg = SweepConfig::quick();
        cfg.packets = 2_000;
        cfg.lookups = 10_000;
        cfg.worker_counts = vec![1, 2];
        let report = run_sweep(&cfg);
        assert_eq!(report.sweep.len(), 2);
        for p in &report.sweep {
            assert_eq!(p.forwarded + p.dropped, 2_000);
            assert!(p.pps > 0.0);
            assert!(p.p99_ns >= p.p50_ns);
            assert!(p.p999_ns >= p.p99_ns);
            assert!(
                p.cache_hit_rate > 0.5,
                "skewed flow stream must hit the cache: {}",
                p.cache_hit_rate
            );
            assert!(p.steady_allocs_per_packet.is_none(), "no counter supplied");
        }
        assert!(report.lookup.linear_ns > 0.0 && report.lookup.trie_ns > 0.0);
        assert!(
            report.churn.is_empty(),
            "quick config skips the churn sweep"
        );
        assert!(report.visibility.is_none());
    }

    #[test]
    fn churn_sweep_runs_both_modes_at_every_rate() {
        let cfg = SweepConfig {
            packets: 4_000,
            worker_counts: vec![2],
            churn_rates: vec![0, 20_000],
            ..SweepConfig::quick()
        };
        let points = run_churn_sweep(&cfg);
        assert_eq!(points.len(), 4, "2 rates × 2 modes");
        for p in &points {
            assert!(p.pps > 0.0);
            assert!(p.p99_ns >= p.p50_ns);
            if p.target_updates_per_sec == 0 {
                assert_eq!(p.updates_applied, 0);
            } else {
                assert!(
                    p.updates_applied > 0,
                    "{}: churn thread applied no updates",
                    p.mode_name()
                );
            }
        }
    }

    #[test]
    fn update_visibility_measures_both_mechanisms() {
        let v = update_visibility(32).expect("samples > 0");
        assert_eq!(v.samples, 32);
        assert!(v.cow_p99_ns >= v.cow_p50_ns);
        assert!(v.locked_p99_ns >= v.locked_p50_ns);
        assert!(update_visibility(0).is_none());
    }

    #[test]
    fn flow_stream_is_deterministic_and_skewed() {
        let cfg = SweepConfig {
            packets: 4_000,
            ..SweepConfig::quick()
        };
        let a = frame_stream(&cfg);
        let b = frame_stream(&cfg);
        assert_eq!(a, b, "stream must be a pure function of the seed");
        // Count distinct (src, dst) flows; the skew means far fewer than
        // packet count, and the hot eighth dominates.
        let mut flows = std::collections::HashMap::new();
        for f in &a {
            *flows.entry(f[26..34].to_vec()).or_insert(0u32) += 1;
        }
        assert!(flows.len() <= cfg.flows);
        assert!(flows.len() > cfg.flows / 4, "most flows should appear");
        let mut counts: Vec<u32> = flows.values().copied().collect();
        counts.sort_unstable_by(|x, y| y.cmp(x));
        let hot: u32 = counts.iter().take(cfg.flows / 8).sum();
        let total: u32 = counts.iter().sum();
        assert!(
            f64::from(hot) / f64::from(total) > 0.8,
            "hot eighth must carry most packets: {hot}/{total}"
        );
    }
}
