//! The data-plane benchmark.
//!
//! ```text
//! perfbench --workload <fwd_small|lb_established|conn_churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the real `ShardedRouter` (one worker, default settings, `sysobs`
//! sampled) from this thread with seeded traffic, with both threads bound
//! to CPUs as [`drive::Placement`] says, checks every outcome against the
//! benchmark's own oracle, and prints one `name value unit` line per
//! metric, then one JSON object as the last line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the traced threaded run
//! and the staged single-thread replay and reports the per-layer metrics.
//! Exits 1 when any outcome differs from the oracle, 2 on bad arguments.
//!
//! Which headline each layer's metrics should move (the closed-loop cost
//! `router.cpu_ns_per_pkt`, a per-layer metric for the reason given at
//! [`end_to_end`], or the end-to-end `lat_p50_us`), and on which workload
//! the layer does most (and least) work:
//!
//! | layer metrics | moves | most / least work |
//! |---|---|---|
//! | `router.*` (dispatch, channels, pool) | `router.cpu_ns_per_pkt`, `lat_p50_us` | `fwd_small`, `conn_churn` / — |
//! | `pipeline.*` (parse, TTL, whole frame) | `router.cpu_ns_per_pkt` | `fwd_small`, `lb_established` / — |
//! | `cache.*` | `router.cpu_ns_per_pkt` | `fwd_small` (hits), `conn_churn` (refills) / `lb_established` |
//! | `lpm.*`, `cowtrie.*` | `router.cpu_ns_per_pkt` | `conn_churn` / `lb_established` |
//! | `conntrack.*` | `router.cpu_ns_per_pkt`, `lat_p50_us` | `lb_established` (reads), `conn_churn` (writes) / `fwd_small` |
//! | `lb.select_ns`, `lb.assigned` | `router.cpu_ns_per_pkt` on `conn_churn` | `conn_churn` / `lb_established`, `fwd_small` |
//! | `packet.*nat_ns`, `lb.rewrites` | `router.cpu_ns_per_pkt` | `lb_established` / `fwd_small` |
//! | `ledger.*`, `obs.*`, `host.*` | — (conditions) | all |
//!
//! A layer that does no work on a workload reports 0 there.

mod drive;
mod host;
mod latency;
mod oracle;
mod spans;
mod staged;
mod traffic;

use drive::{Closed, Open, Placement, Session};
use oracle::Verdict;
use spans::{Name, Off, Spans};
use staged::{Ledger, Replay, Stage};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use sysfault::FaultPlan;
use traffic::{Traffic, Workload};

#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;

/// Full set-ups per run; `setup_s` is their median.
const SESSIONS: u32 = 5;
/// Length of one closed-loop or open-loop round. Short rounds keep most
/// rounds clear of the millisecond stalls a shared host inflicts, so the
/// medians over rounds report the router rather than its neighbours.
const ROUND: Duration = Duration::from_millis(20);
/// Share of a traced run given to the threaded part; the staged replay
/// gets the rest.
const TRACED_THREADED_SHARE: f64 = 0.6;
/// Spans kept verbatim in a traced run (all are totalled).
const SPAN_CAP: usize = 200_000;

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    closed: Closed,
    traced_pps: Vec<f64>,
    open: Open,
    ref_ns: Vec<f64>,
    verdict: Verdict,
    update_ns: Vec<u64>,
    sojourn_p50_ns: Vec<u64>,
    pending_reclaim: u64,
    advance_stalls: u64,
    live_entries: u64,
    lb_assigned: u64,
    lb_rewrites: u64,
    packets: u64,
    spans: Option<Spans>,
    replay: Option<Replay>,
    /// Share of the run's CPU time the hypervisor gave to other guests.
    steal_share: f64,
}

/// Runs `args.workload`: `SESSIONS` times set-up, rounds and oracle check,
/// then (traced runs) the staged replay.
fn run(
    args: &Args,
    started: Instant,
    fault_plan: Option<&FaultPlan>,
    placement: Option<Placement>,
) -> Run {
    let mut r = Run {
        spans: args.trace.then(|| Spans::new(SPAN_CAP)),
        ..Run::default()
    };
    let (stat0, _) = host::steal_share((0, 0));
    let threaded = args.seconds
        * if args.trace {
            TRACED_THREADED_SHARE
        } else {
            1.0
        };
    let per_session = Duration::from_secs_f64(threaded / f64::from(SESSIONS));
    let rate = args.workload.open_rate_pps();
    let mut untraced_open = Open::default();
    for k in 0..SESSIONS {
        let t0 = if k == 0 { started } else { Instant::now() };
        let traffic = Traffic::build(args.workload, args.seed);
        let mut session = Session::start(&traffic, fault_plan.cloned());
        r.setup_s.push(t0.elapsed().as_secs_f64());
        session.find_worker(placement);
        let end = Instant::now() + per_session;
        while Instant::now() < end {
            session.closed_round(ROUND, &mut Off, &mut r.closed);
            r.ref_ns.push(host::ref_kernel_ns(5_000));
            session.open_round(ROUND, rate, &mut Off, &mut untraced_open);
            if let Some(spans) = &mut r.spans {
                let mut traced = Closed::default();
                session.closed_round(ROUND, spans, &mut traced);
                r.traced_pps.extend(traced.round_pps);
                session.open_round(ROUND, rate, spans, &mut Open::default());
            }
        }
        r.update_ns.append(&mut session.update_ns);
        let (report, offered, cursor) = session.finish();
        let mut expected = traffic.setup.tally(traffic.setup.len() as u64);
        expected.add(&traffic.steady.tally(cursor));
        r.verdict
            .add(oracle::check(&traffic, &expected, offered, &report));
        r.packets += offered;
        r.sojourn_p50_ns.push(report.latency_ns(0.5));
        if let Some(cow) = &report.cow {
            r.pending_reclaim = r.pending_reclaim.max(cow.pending_reclaim);
            r.advance_stalls += cow.advance_stalls;
        }
        if let Some(ct) = &report.conntrack {
            r.live_entries = ct.flows_created - ct.removed_total();
        }
        if let Some(lb) = &report.lb {
            r.lb_assigned += lb.assigned;
            r.lb_rewrites += lb.rewrites_to_backend + lb.rewrites_to_client;
        }
    }
    r.open = untraced_open;
    if args.trace {
        let traffic = Traffic::build(args.workload, args.seed);
        let replay = staged::replay(
            &traffic,
            Duration::from_secs_f64(args.seconds * (1.0 - TRACED_THREADED_SHARE)),
        );
        if replay.mismatches > 0 {
            r.verdict.problems.push(format!(
                "staged replay disagreed with the whole-frame call on {} of {} packets",
                replay.mismatches, replay.packets
            ));
        }
        r.replay = Some(replay);
    }
    r.steal_share = host::steal_share(stat0).1;
    r
}

/// The `q` quantile of the finite values, interpolated between ranks (0
/// when there are none).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    if s.is_empty() {
        return 0.0;
    }
    s.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q * (s.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - pos.floor())
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `q1 median q3` of per-round values, for the human-readable lines.
fn quartiles(v: &[f64]) -> String {
    format!(
        "q1 {:.4} median {:.4} q3 {:.4} over {} rounds",
        quantile(v, 0.25),
        quantile(v, 0.5),
        quantile(v, 0.75),
        v.len()
    )
}

#[allow(clippy::cast_precision_loss)]
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[allow(clippy::cast_precision_loss)]
fn num(n: u64) -> f64 {
    n as f64
}

#[allow(clippy::cast_precision_loss)]
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Median over rounds of a per-round latency, µs.
fn round_median(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| us(n)).collect::<Vec<_>>())
}

type Metric = (&'static str, f64, &'static str);

/// The metrics a user sees, each steady within a few percent between runs
/// of the same code. The closed-loop throughput and cost per packet are
/// not among them: both follow the host's speed phases, during which the
/// reference kernel runs up to 25% slower and the router's cost per packet
/// rises by a third to 60%, for tens of minutes at a time. They are printed on every run
/// and the cost is `router.cpu_ns_per_pkt` among the per-layer metrics.
fn end_to_end(r: &Run) -> Vec<Metric> {
    vec![
        ("lat_p50_us", round_median(&r.open.round_p50), "us"),
        ("lat_p90_us", round_median(&r.open.round_p90), "us"),
        ("setup_s", median(&r.setup_s), "s"),
        ("rss_mb", host::peak_rss_mib(), "MiB"),
    ]
}

/// Median over ledger passes of `f`.
fn pass_median(replay: Option<&Replay>, f: impl Fn(&Ledger) -> f64) -> f64 {
    replay.map_or(0.0, |r| median(&r.passes.iter().map(f).collect::<Vec<_>>()))
}

fn per_layer(r: &Run) -> Vec<Metric> {
    let c = &r.closed;
    let pkts = c.packets;
    let rp = r.replay.as_ref();
    let stage = |s: Stage| pass_median(rp, |l| l.per_op(s));
    let blocked = c
        .wall_ns
        .saturating_sub(c.generator.run_ns + c.generator.wait_ns);
    let updates: Vec<f64> = r.update_ns.iter().map(|&n| us(n)).collect();
    let untraced = median(&r.closed.round_pps);
    let traced = median(&r.traced_pps);
    vec![
        (
            "router.cpu_ns_per_pkt",
            median(&r.closed.round_cpu_ns),
            "ns",
        ),
        (
            "router.dispatch_cpu_ns",
            ratio(c.generator.run_ns, pkts),
            "ns",
        ),
        ("router.worker_cpu_ns", ratio(c.worker.run_ns, pkts), "ns"),
        (
            "router.dispatch_busy",
            ratio(c.generator.run_ns, c.wall_ns),
            "share",
        ),
        (
            "router.worker_busy",
            ratio(c.worker.run_ns, c.wall_ns),
            "share",
        ),
        ("router.submit_wait_ns", ratio(blocked, pkts), "ns"),
        (
            "router.dispatch_runq_ns",
            ratio(c.generator.wait_ns, pkts),
            "ns",
        ),
        ("router.worker_runq_ns", ratio(c.worker.wait_ns, pkts), "ns"),
        ("router.batch_mean", ratio(c.occupancy, c.batches), "pkt"),
        (
            "router.open_batch_mean",
            ratio(r.open.occupancy, r.open.batches),
            "pkt",
        ),
        (
            "router.requeues",
            ratio(c.requeues * 1_000_000, pkts),
            "1/Mpkt",
        ),
        ("router.allocs_per_pkt", ratio(c.allocs, pkts), "1/pkt"),
        (
            "router.sojourn_p50_us",
            round_median(&r.sojourn_p50_ns),
            "us",
        ),
        ("router.lat_p99_us", us(r.open.latency.quantile(0.99)), "us"),
        (
            "router.lat_p999_us",
            us(r.open.latency.quantile(0.999)),
            "us",
        ),
        ("router.lat_samples", num(r.open.latency.count()), "count"),
        ("router.gen_late_max_us", us(r.open.gen_late_max_ns), "us"),
        ("pipeline.parse_ns", stage(Stage::Parse), "ns"),
        ("pipeline.ttl_ns", stage(Stage::Ttl), "ns"),
        (
            "pipeline.frame_ns",
            pass_median(rp, Ledger::frame_per_packet),
            "ns",
        ),
        ("cache.lookup_ns", stage(Stage::Cache), "ns"),
        (
            "cache.hit_rate",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "share",
        ),
        (
            "cache.invalidation_misses",
            ratio(c.invalidation_misses * 1_000_000, pkts),
            "1/Mpkt",
        ),
        ("lpm.lookup_ns", pass_median(rp, Ledger::lpm_per_op), "ns"),
        ("cowtrie.publish_us", median(&updates), "us"),
        ("cowtrie.pending_reclaim", num(r.pending_reclaim), "count"),
        ("cowtrie.advance_stalls", num(r.advance_stalls), "count"),
        ("conntrack.admit_ns", stage(Stage::Admit), "ns"),
        ("conntrack.insert_ns", stage(Stage::Insert), "ns"),
        ("conntrack.teardown_ns", stage(Stage::Teardown), "ns"),
        ("conntrack.live_flows", num(r.live_entries), "count"),
        ("lb.select_ns", stage(Stage::Select), "ns"),
        ("lb.assigned", ratio(r.lb_assigned, r.packets), "1/pkt"),
        ("packet.dnat_ns", stage(Stage::Dnat), "ns"),
        ("packet.snat_ns", stage(Stage::Snat), "ns"),
        ("lb.rewrites", ratio(r.lb_rewrites, r.packets), "1/pkt"),
        (
            "ledger.unattributed_ns",
            pass_median(rp, Ledger::unattributed_per_packet),
            "ns",
        ),
        (
            "obs.trace_overhead",
            if traced > 0.0 {
                untraced / traced - 1.0
            } else {
                0.0
            },
            "share",
        ),
        ("host.ref_ns", median(&r.ref_ns), "ns"),
        ("host.cores", num(host::cores() as u64), "count"),
        ("host.steal_share", r.steal_share, "share"),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn result_line(correct: bool, v: &Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.attempted.max(1),
        v.failed,
        body.join(", ")
    )
}

/// Writes the traced run's spans and the replay's ledger passes next to
/// the benchmark's sources, under `traces/`.
fn write_trace(args: &Args, r: &Run) -> std::io::Result<std::path::PathBuf> {
    use std::fmt::Write as _;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let mut text = r.spans.as_ref().map(Spans::render).unwrap_or_default();
    if let Some(replay) = &r.replay {
        text.push_str("# ledger pass\tpackets\tframe_ns\tstage_ns[parse,admit,teardown,select,insert,cache,dnat,snat,ttl]\tlpm_ns\n");
        for (i, l) in replay.passes.iter().enumerate() {
            let _ = writeln!(
                text,
                "# ledger {i}\t{}\t{}\t{:?}\t{}",
                l.packets, l.frame_ns, l.stage_ns, l.lpm_ns
            );
        }
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Pins glibc's mmap threshold at its default instead of letting it grow
/// with the largest block freed so far. The dynamic threshold makes where
/// large blocks land, and so the peak resident size, depend on the order
/// in which the two threads happened to free them; fixed, `rss_mb` repeats.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets an allocator parameter; it is called once,
    // before this process starts any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn main() -> ExitCode {
    let started = Instant::now();
    fix_mmap_threshold();
    host::cores();
    // Before any other thread starts, so the router's worker starts on the
    // generator's CPU.
    let placement = Placement::bind();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fwd_small|lb_established|conn_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    sysobs::set_mode(sysobs::Mode::Sampled);
    let r = run(&args, started, None, placement);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host cores {} cpus {} cpu \"{}\" ref_ns {:.2} steal_share {:.4}",
        host::cores(),
        placement.map_or_else(
            || "unpinned".to_owned(),
            |p| format!("{}+{}", p.home, p.apart)
        ),
        host::cpu_model(),
        median(&r.ref_ns),
        r.steal_share
    );
    let metrics = if args.trace {
        per_layer(&r)
    } else {
        end_to_end(&r)
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} {value:.4} {unit}");
    }
    println!(
        "fail_ratio {} ({} of {} {})",
        ratio(r.verdict.failed, r.verdict.attempted.max(1)),
        r.verdict.failed,
        r.verdict.attempted,
        if args.workload == Workload::ConnChurn {
            "connections"
        } else {
            "packets"
        }
    );
    // Printed on every run; see `end_to_end` for why neither is bounded.
    println!(
        "closed loop pps {:.4} Mpps cpu_ns_per_pkt {:.2} ns",
        median(&r.closed.round_pps) / 1e6,
        median(&r.closed.round_cpu_ns)
    );
    println!(
        "lat_p99_us {:.2} (unbounded)",
        us(r.open.latency.quantile(0.99))
    );
    let per_round = |ns: &[u64]| ns.iter().map(|&n| us(n)).collect::<Vec<_>>();
    let mpps: Vec<f64> = r.closed.round_pps.iter().map(|p| p / 1e6).collect();
    println!("rounds pps {}", quartiles(&mpps));
    println!(
        "rounds cpu_ns_per_pkt {}",
        quartiles(&r.closed.round_cpu_ns)
    );
    println!(
        "rounds lat_p50_us {}",
        quartiles(&per_round(&r.open.round_p50))
    );
    println!(
        "rounds lat_p90_us {}",
        quartiles(&per_round(&r.open.round_p90))
    );
    if args.workload == Workload::ConnChurn {
        // Every connection is 7 packets, so closed-loop connections per
        // second follow from the packet rate.
        println!("conn_per_s {:.0}", median(&r.closed.round_pps) / 7.0);
    }
    if let Some(spans) = &r.spans {
        for name in Name::ALL {
            let t = spans.totals(name);
            println!(
                "span {} count {} total_ms {:.1} self_ms {:.1}",
                name.label(),
                t.count,
                us(t.total_ns) / 1e3,
                us(t.self_ns) / 1e3
            );
        }
        match write_trace(&args, &r) {
            Ok(p) => println!("trace written to {}", p.display()),
            Err(e) => println!("trace not written: {e}"),
        }
    }
    for p in r.verdict.problems.iter().take(20) {
        println!("oracle mismatch: {p}");
    }
    let correct = r.verdict.correct();
    println!("{}", result_line(correct, &r.verdict, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysfault::Schedule;

    fn short(workload: Workload) -> Args {
        Args {
            workload,
            seed: 5,
            seconds: 0.3,
            trace: false,
        }
    }

    #[test]
    fn every_workload_passes_its_oracle() {
        for w in [
            Workload::FwdSmall,
            Workload::LbEstablished,
            Workload::ConnChurn,
        ] {
            let r = run(&short(w), Instant::now(), None, None);
            assert!(r.verdict.correct(), "{w}: {:?}", r.verdict.problems);
            assert!(r.verdict.attempted > 0);
        }
    }

    #[test]
    fn dropped_frames_fail_the_oracle() {
        let plan = FaultPlan::new(9).with_site(
            sysnet::router::SITE_NET_FRAME_DROP,
            Schedule::EveryNth(5000),
        );
        let r = run(
            &short(Workload::LbEstablished),
            Instant::now(),
            Some(&plan),
            None,
        );
        assert!(!r.verdict.correct());
        assert!(r.verdict.failed > 0);
        assert!(ratio(r.verdict.failed, r.verdict.attempted) > 0.0);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload conn_churn --seed 4 --seconds 2 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.trace),
            (Workload::ConnChurn, 4, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fwd_small --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
