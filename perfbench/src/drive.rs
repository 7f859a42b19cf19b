//! The threaded run: one generator thread (this one) submitting to a
//! `ShardedRouter` with one worker, in closed-loop and open-loop rounds.

use crate::host::{self, Sched};
use crate::latency::{LatencyHist, Reducer};
use crate::spans::{Name, Tracer};
use crate::traffic::{Traffic, CHURN_PREFIX, CHURN_UPDATES_PER_S, PORTS};
use std::time::{Duration, Instant};
use sysfault::FaultPlan;
use sysnet::router::{RouteUpdater, RouterConfig, RouterReport, RouterStats, ShardedRouter};

/// Frames submitted between clock reads in the closed loop.
const CHUNK: u64 = 64;
/// A drain that sees no completion for this long gives up: the missing
/// frames were lost, and the oracle counts them.
const DRAIN_PATIENCE: Duration = Duration::from_millis(500);

/// What the closed-loop rounds of a run add up to.
#[derive(Debug, Default, Clone)]
pub struct Closed {
    /// Packets per second of each round, submit start to last completion.
    pub round_pps: Vec<f64>,
    /// CPU time per packet of each round, ns: the generator's while it
    /// submits (the router's dispatch runs on it; the drain's polling is
    /// left out) plus the worker's over the whole round.
    pub round_cpu_ns: Vec<f64>,
    pub packets: u64,
    pub wall_ns: u64,
    /// Allocations while submitting (the drain polls, which allocate, are
    /// outside this window).
    pub allocs: u64,
    pub generator: Sched,
    pub worker: Sched,
    pub requeues: u64,
    pub batches: u64,
    pub occupancy: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub invalidation_misses: u64,
}

/// What the open-loop rounds add up to.
#[derive(Debug, Default, Clone)]
pub struct Open {
    /// Every round's samples pooled, for the tails.
    pub latency: LatencyHist,
    /// Each round's p50 and p90, ns. Their medians are the reported
    /// figures: a host stall that spoils a few rounds moves them little.
    pub round_p50: Vec<u64>,
    pub round_p90: Vec<u64>,
    /// Largest delay between a packet's due time and its submission.
    pub gen_late_max_ns: u64,
    /// Batches the worker ran, and the frames in them.
    pub batches: u64,
    pub occupancy: u64,
    round: LatencyHist,
}

/// The CPUs the two router threads run on. The generator stays on `home`;
/// the worker joins it there for closed-loop rounds and moves to `apart`
/// for open-loop rounds.
///
/// Left to the scheduler, the pair shares one CPU for minutes at a time
/// and then two, and the closed-loop cost per packet differs by a third
/// between the two; on two CPUs it also swings from round to round with
/// the cost of moving cache lines between them, which the host varies. On
/// one CPU it repeats within a few percent, so that is where the cost is
/// measured. Latency is measured on two CPUs, as the router is meant to
/// run: on one, a host slowdown that took the open-loop load from 40% to
/// 65% of capacity spread `fwd_small`'s p50 over 28–168 µs between runs.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    pub home: usize,
    pub apart: usize,
}

impl Placement {
    /// Binds the calling thread, and the threads it starts from now on, to
    /// the first CPU this process may use; `apart` is the second, or the
    /// same one on a single-CPU host. `None` if the binding failed.
    pub fn bind() -> Option<Placement> {
        let cpus = host::allowed_cpus();
        let home = *cpus.first()?;
        let apart = cpus.get(1).copied().unwrap_or(home);
        host::pin(0, home).then_some(Placement { home, apart })
    }
}

/// One router's life: set-up, rounds, and the counts the oracle needs.
pub struct Session<'t> {
    traffic: &'t Traffic,
    router: ShardedRouter,
    updater: RouteUpdater,
    worker_tid: Option<u32>,
    placement: Option<Placement>,
    /// Steady-pattern frames submitted so far (the cyclic cursor).
    cursor: u64,
    /// Every frame handed to `submit`, set-up included.
    offered: u64,
    /// Frames the router never completed (lost before a worker saw them).
    lost: u64,
    next_update: Instant,
    insert_next: bool,
    /// Duration of each route update, ns.
    pub update_ns: Vec<u64>,
}

impl<'t> Session<'t> {
    /// Starts the router and establishes the workload's resident flows.
    pub fn start(traffic: &'t Traffic, fault_plan: Option<FaultPlan>) -> Self {
        let config = RouterConfig {
            conntrack: traffic.conntrack,
            lb: traffic.lb.clone(),
            fault_plan,
            ..RouterConfig::default()
        };
        let router = ShardedRouter::start(traffic.trie(), PORTS, config);
        let updater = router.updater();
        let mut s = Session {
            traffic,
            router,
            updater,
            worker_tid: None,
            placement: None,
            cursor: 0,
            offered: 0,
            lost: 0,
            next_update: Instant::now(),
            insert_next: true,
            update_ns: Vec::new(),
        };
        for i in 0..traffic.setup.len() {
            s.router.submit(traffic.setup.frame(i));
        }
        s.offered += traffic.setup.len() as u64;
        s.drain(&mut crate::spans::Off);
        s
    }

    /// Finds the router worker's thread for the scheduler counters and for
    /// `placement` (rounds leave the worker where it started when `None`).
    /// Kept out of [`Session::start`] so the lookup's wait is not set-up
    /// time.
    pub fn find_worker(&mut self, placement: Option<Placement>) {
        self.worker_tid = worker_tid();
        self.placement = placement;
    }

    fn place_worker(&self, cpu: impl Fn(Placement) -> usize) {
        if let (Some(tid), Some(p)) = (self.worker_tid, self.placement) {
            host::pin(tid, cpu(p));
        }
    }

    fn worker_sched(&self) -> Sched {
        self.worker_tid.map(Sched::task).unwrap_or_default()
    }

    #[inline]
    fn submit_next(&mut self) {
        let len = self.traffic.steady.len() as u64;
        #[allow(clippy::cast_possible_truncation)]
        let i = (self.cursor % len) as usize;
        self.router.submit(self.traffic.steady.frame(i));
        self.cursor += 1;
        self.offered += 1;
    }

    /// Applies the next route update when one is due (`conn_churn` only):
    /// alternately inserts and removes a prefix no frame uses.
    #[inline]
    fn maybe_update<T: Tracer>(&mut self, now: Instant, tr: &mut T) {
        if !self.traffic.churns_routes() || now < self.next_update {
            return;
        }
        // Keep the rate, but do not burst to catch up after a gap between
        // rounds.
        let period = Duration::from_nanos(1_000_000_000 / CHURN_UPDATES_PER_S);
        self.next_update = (self.next_update + period).max(now);
        tr.begin(Name::RouteUpdate);
        let t0 = Instant::now();
        let (prefix, len) = CHURN_PREFIX;
        if self.insert_next {
            self.updater.insert(prefix, len, 1).expect("valid prefix");
        } else {
            self.updater.remove(prefix, len).expect("valid prefix");
        }
        self.update_ns
            .push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        tr.end();
        self.insert_next = !self.insert_next;
    }

    fn completed(&self) -> u64 {
        self.router.snapshot().totals.total_frames()
    }

    /// Flushes and waits until every offered frame has completed, or until
    /// completions stop (lost frames).
    fn drain<T: Tracer>(&mut self, tr: &mut T) {
        tr.begin(Name::Drain);
        self.router.flush();
        let mut last = (self.completed(), Instant::now());
        while last.0 < self.offered - self.lost {
            std::hint::spin_loop();
            let done = self.completed();
            if done != last.0 {
                last = (done, Instant::now());
            } else if last.1.elapsed() > DRAIN_PATIENCE {
                self.lost = self.offered - done;
                break;
            }
        }
        tr.end();
    }

    /// Submits as fast as pool backpressure allows for `dur`, then drains;
    /// the worker runs on the generator's CPU.
    pub fn closed_round<T: Tracer>(&mut self, dur: Duration, tr: &mut T, acc: &mut Closed) {
        tr.begin(Name::ClosedRound);
        self.place_worker(|p| p.home);
        let before = self.router.snapshot();
        let requeues0 = self.router.pool_stats().stalled_requeues;
        let (gen0, worker0, allocs0) = (Sched::current(), self.worker_sched(), host::allocations());
        let start = Instant::now();
        let deadline = start + dur;
        let mut n = 0u64;
        loop {
            tr.begin(Name::SubmitChunk);
            for _ in 0..CHUNK {
                self.submit_next();
            }
            tr.end();
            n += CHUNK;
            let now = Instant::now();
            self.maybe_update(now, tr);
            if now >= deadline {
                break;
            }
        }
        let allocs = host::allocations() - allocs0;
        let submitting = Sched::current().since(gen0);
        self.drain(tr);
        let wall = start.elapsed();
        let worker = self.worker_sched().since(worker0);
        acc.generator.add(Sched::current().since(gen0));
        acc.worker.add(worker);
        acc.allocs += allocs;
        #[allow(clippy::cast_precision_loss)]
        {
            acc.round_pps.push(n as f64 / wall.as_secs_f64());
            acc.round_cpu_ns
                .push((submitting.run_ns + worker.run_ns) as f64 / n as f64);
        }
        acc.packets += n;
        acc.wall_ns += u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        acc.requeues += self.router.pool_stats().stalled_requeues - requeues0;
        let after = self.router.snapshot();
        add_deltas(acc, &before, &after);
        tr.end();
    }

    /// Sends at `rate` packets per second for `dur`, the worker on a CPU of
    /// its own; each packet's latency runs from its due time to the poll
    /// that sees it completed.
    pub fn open_round<T: Tracer>(&mut self, dur: Duration, rate: f64, tr: &mut T, acc: &mut Open) {
        tr.begin(Name::OpenRound);
        self.place_worker(|p| p.apart);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let target = (rate * dur.as_secs_f64()) as u64;
        let before = self.router.snapshot();
        let base = before.totals.total_frames();
        let mut reducer = Reducer::new(rate);
        acc.round.clear();
        let start = Instant::now();
        let ns_since = |t: Instant| u64::try_from(t.duration_since(start).as_nanos()).unwrap_or(0);
        let mut sent = 0u64;
        while sent < target {
            let now = Instant::now();
            let due = reducer.due_ns(sent);
            let now_ns = ns_since(now);
            if now_ns >= due {
                self.submit_next();
                acc.gen_late_max_ns = acc.gen_late_max_ns.max(now_ns - due);
                sent += 1;
                continue;
            }
            self.maybe_update(now, tr);
            tr.begin(Name::SnapshotPoll);
            let done = self.completed() - base;
            tr.end();
            reducer.observe(done, ns_since(Instant::now()), &mut acc.round);
        }
        self.router.flush();
        let mut last = Instant::now();
        while reducer.observed() < target {
            let done = self.completed() - base;
            let now = Instant::now();
            if done > reducer.observed() {
                last = now;
            } else if now - last > DRAIN_PATIENCE {
                break;
            }
            reducer.observe(done, ns_since(now), &mut acc.round);
        }
        acc.round_p50.push(acc.round.quantile(0.5));
        acc.round_p90.push(acc.round.quantile(0.9));
        acc.latency.merge(&acc.round);
        let after = self.router.snapshot();
        acc.batches += after.totals.batches - before.totals.batches;
        acc.occupancy += after.totals.occupancy_sum - before.totals.occupancy_sum;
        tr.end();
    }

    /// Runs the steady pattern up to the end of its current cycle, so every
    /// connection the cycle opened has closed, then shuts the router down.
    /// Returns the router's report, the frames offered, and the steady
    /// cursor.
    pub fn finish(mut self) -> (RouterReport, u64, u64) {
        let len = self.traffic.steady.len() as u64;
        while !self.cursor.is_multiple_of(len) {
            self.submit_next();
        }
        self.drain(&mut crate::spans::Off);
        (self.router.finish(), self.offered, self.cursor)
    }
}

/// The router worker's thread id. The worker names itself as it starts,
/// so the name may take a moment to appear.
fn worker_tid() -> Option<u32> {
    let give_up = Instant::now() + Duration::from_secs(1);
    loop {
        let tid = host::thread_named("sysnet-worker-0");
        if tid.is_some() || Instant::now() > give_up {
            return tid;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn add_deltas(acc: &mut Closed, before: &RouterStats, after: &RouterStats) {
    let (b, a) = (&before.totals, &after.totals);
    acc.batches += a.batches - b.batches;
    acc.occupancy += a.occupancy_sum - b.occupancy_sum;
    acc.cache_hits += a.cache_hits - b.cache_hits;
    acc.cache_misses += a.cache_misses - b.cache_misses;
    acc.invalidation_misses += a.cache_invalidation_misses - b.cache_invalidation_misses;
}
