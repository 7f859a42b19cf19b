//! The single-thread staged replay and its cost ledger.
//!
//! The workload's frames go, one batch at a time, through two replicas of a
//! router worker's state. One replica runs each stage as its own loop over
//! the batch, through the layers' public functions, timed per stage per
//! batch. The other runs the whole-frame call the router uses
//! (`route_frame_cached` or `route_frame_lb`), timed per batch. Both must
//! reach the same verdict and leave the same bytes in every frame; the
//! whole-frame cost minus the stage sum is what no stage owns.

use crate::traffic::{Traffic, CHURN_PREFIX, VIP, VPORT};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sysnet::cache::FlowCache;
use sysnet::conntrack::{Conntrack, FlowKey, FlowState, NatRewrite, TcpSummary};
use sysnet::cowtrie::{CowRouteTable, RouteReader};
use sysnet::lb::{route_frame_lb, BackendPool};
use sysnet::lpm::Routes;
use sysnet::pipeline::{route_frame_cached, DropReason};
use sysnet::router::PortId;
use sysrepr::packet::{EthernetView, EthernetViewMut, IPPROTO_TCP, IPPROTO_UDP};
use sysrepr::ReprError;

const BATCH: usize = 64;
/// Batches per ledger pass; the reported figures are medians over passes.
const PASS_BATCHES: usize = 256;
/// Virtual time per packet for conntrack's clock.
const NS_PER_PACKET: u64 = 100;
/// Batches between route updates in a churning replay: 4,096 packets, about
/// the threaded run's 1,000 updates per second at its packet rate.
const UPDATE_EVERY_BATCHES: u64 = 64;

/// The stages of the ledger, in data-path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `EthernetView::parse`, `ipv4`, `verify_checksum`, `tcp`/`udp`.
    Parse,
    /// `Conntrack::admit_tcp_nat` on every tracked segment but RST.
    Admit,
    /// `Conntrack::admit_tcp_nat` on RST segments, which free both twins.
    Teardown,
    /// `BackendPool::select` for a new VIP connection.
    Select,
    /// `Conntrack::insert_nat` for a new VIP connection.
    Insert,
    /// `FlowCache::lookup_or_route` over a pinned `RouteView`.
    Cache,
    /// `Ipv4ViewMut::dnat`.
    Dnat,
    /// `Ipv4ViewMut::snat`.
    Snat,
    /// `Ipv4ViewMut::decrement_ttl`.
    Ttl,
}

pub const STAGES: usize = 9;

/// Nanoseconds and operations per stage, plus the whole-frame cost, for
/// some number of packets.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    pub stage_ns: [u64; STAGES],
    pub stage_ops: [u64; STAGES],
    /// Bare `RouteView::lookup` on the routed pair: what a cache miss costs
    /// at most. Not a stage of the sum, since the cache stage includes it.
    pub lpm_ns: u64,
    pub lpm_ops: u64,
    pub frame_ns: u64,
    pub packets: u64,
}

fn per(ns: u64, n: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

impl Ledger {
    /// Mean ns per operation of one stage (0 when it never ran).
    pub fn per_op(&self, s: Stage) -> f64 {
        per(self.stage_ns[s as usize], self.stage_ops[s as usize])
    }

    pub fn lpm_per_op(&self) -> f64 {
        per(self.lpm_ns, self.lpm_ops)
    }

    /// Whole-frame ns per packet.
    pub fn frame_per_packet(&self) -> f64 {
        per(self.frame_ns, self.packets)
    }

    /// Sum of all stages, ns per packet.
    pub fn stages_per_packet(&self) -> f64 {
        per(self.stage_ns.iter().sum(), self.packets)
    }

    /// Whole-frame cost no stage accounts for, ns per packet (negative when
    /// the stages, run as separate loops, cost more than the fused call).
    pub fn unattributed_per_packet(&self) -> f64 {
        self.frame_per_packet() - self.stages_per_packet()
    }
}

/// One replica of a worker's data-plane state.
struct Plane {
    table: Arc<CowRouteTable<PortId>>,
    reader: RouteReader<PortId>,
    cache: FlowCache<PortId>,
    ct: Option<Conntrack>,
    pool: Option<BackendPool>,
}

impl Plane {
    fn new(traffic: &Traffic) -> Self {
        let table = Arc::new(CowRouteTable::from_trie(&traffic.trie()));
        Plane {
            reader: table.reader(),
            table,
            cache: FlowCache::new(sysnet::RouterConfig::default().cache_slots),
            ct: traffic.conntrack.map(Conntrack::new),
            pool: traffic.lb.clone().map(BackendPool::new),
        }
    }

    /// The router's whole-frame call on each frame, under one pinned view
    /// per batch as in the worker.
    fn route_batch(
        &mut self,
        frames: &mut [Vec<u8>],
        verdicts: &mut [Result<PortId, DropReason>],
        now: u64,
    ) {
        let view = self.reader.pin();
        for (f, v) in frames.iter_mut().zip(verdicts.iter_mut()) {
            *v = match (&mut self.ct, &mut self.pool) {
                (Some(ct), Some(pool)) => {
                    route_frame_lb(f, &view, Some(&mut self.cache), ct, pool, now)
                }
                _ => route_frame_cached(f, &view, &mut self.cache),
            };
        }
    }

    /// What the worker does between batches: the conntrack sweep and the
    /// backend probes.
    fn between_batches(&mut self, now: u64) {
        if let Some(ct) = &mut self.ct {
            if ct.due_sweep(now) {
                ct.sweep(now);
            }
        }
        if let Some(pool) = &mut self.pool {
            let _ = pool.maybe_probe(now);
        }
    }
}

/// A frame's progress through the staged path.
#[derive(Debug, Clone, Copy)]
enum Step {
    Done(Result<PortId, DropReason>),
    /// Parsed; `seg` is the TCP summary when the plane tracks TCP.
    Parsed {
        src: u32,
        dst: u32,
        sport: u16,
        dport: u16,
        proto: u8,
        seg: Option<TcpSummary>,
    },
    /// A VIP SYN with no flow: needs a backend.
    Assign {
        key: FlowKey,
        src: u32,
        sport: u16,
        dst: u32,
        dport: u16,
    },
    Selected {
        key: FlowKey,
        src: u32,
        sport: u16,
        dst: u32,
        dport: u16,
        backend: u16,
    },
    /// Ready to route on `(src, dst)`, with the rewrite to apply after.
    Route {
        src: u32,
        dst: u32,
        nat: Option<(NatRewrite, bool)>,
    },
    /// Routed to `hop` on destination `dst`; rewrite (`true` = toward the
    /// backend) still to do.
    Rewrite {
        hop: PortId,
        dst: u32,
        nat: Option<(NatRewrite, bool)>,
    },
}

fn parse(frame: &[u8], l4: bool) -> Result<Step, DropReason> {
    let eth = EthernetView::parse(frame).map_err(|_| DropReason::Malformed)?;
    let ip = eth.ipv4().map_err(|e| match e {
        ReprError::InvalidField {
            field: "ethertype", ..
        } => DropReason::NotIpv4,
        _ => DropReason::Malformed,
    })?;
    if ip.verify_checksum().is_err() {
        return Err(DropReason::BadChecksum);
    }
    if ip.ttl() == 0 {
        return Err(DropReason::TtlExpired);
    }
    let (src, dst, proto) = (u32::from_be_bytes(ip.src()), ip.dst_u32(), ip.protocol());
    let (sport, dport, seg) = match proto {
        IPPROTO_TCP if l4 => {
            let tcp = ip.tcp().map_err(|_| DropReason::Malformed)?;
            (
                tcp.src_port(),
                tcp.dst_port(),
                Some(TcpSummary::from_view(&tcp)),
            )
        }
        IPPROTO_UDP if l4 => {
            let udp = ip.udp().map_err(|_| DropReason::Malformed)?;
            (udp.src_port(), udp.dst_port(), None)
        }
        _ => (0, 0, None),
    };
    Ok(Step::Parsed {
        src,
        dst,
        sport,
        dport,
        proto,
        seg,
    })
}

/// The balancer's direction rule: replies first (a hairpin reply also
/// looks like a client dialing the backend), then VIP-bound requests;
/// anything else passes through unrewritten.
fn classify(nat: &NatRewrite, src: u32, sport: u16, dst: u32, dport: u16) -> Step {
    if src == nat.backend_ip
        && sport == nat.backend_port
        && dst == nat.client_ip
        && dport == nat.client_port
    {
        Step::Route {
            src: nat.vip,
            dst,
            nat: Some((*nat, false)),
        }
    } else if dst == nat.vip && dport == nat.vport {
        Step::Route {
            src,
            dst: nat.backend_ip,
            nat: Some((*nat, true)),
        }
    } else {
        Step::Route {
            src,
            dst,
            nat: None,
        }
    }
}

/// Times `f` as one span of `stage` when it did any work.
fn timed(ledger: &mut Ledger, stage: Stage, f: impl FnOnce() -> u64) {
    let t0 = Instant::now();
    let ops = f();
    if ops > 0 {
        ledger.stage_ns[stage as usize] += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(0);
        ledger.stage_ops[stage as usize] += ops;
    }
}

/// Runs one batch through the staged path, stage by stage.
fn staged_batch(
    plane: &mut Plane,
    frames: &mut [Vec<u8>],
    steps: &mut [Step],
    now: u64,
    l: &mut Ledger,
) {
    let tracked = plane.ct.is_some();
    timed(l, Stage::Parse, || {
        for (f, s) in frames.iter().zip(steps.iter_mut()) {
            *s = parse(f, tracked).unwrap_or_else(|e| Step::Done(Err(e)));
        }
        frames.len() as u64
    });
    if let (Some(ct), Some(pool)) = (&mut plane.ct, &mut plane.pool) {
        // Admission for every segment, RSTs last: a RST ends its connection,
        // so no later segment in the batch belongs to the same flow.
        for (stage, want_rst) in [(Stage::Admit, false), (Stage::Teardown, true)] {
            timed(l, stage, || {
                let mut ops = 0;
                for s in steps.iter_mut() {
                    let Step::Parsed {
                        src,
                        dst,
                        sport,
                        dport,
                        proto,
                        seg,
                    } = *s
                    else {
                        continue;
                    };
                    let Some(seg) = seg else {
                        if !want_rst {
                            *s = Step::Route {
                                src,
                                dst,
                                nat: None,
                            };
                        }
                        continue;
                    };
                    if seg.rst != want_rst {
                        continue;
                    }
                    ops += 1;
                    let vip = dst == VIP && dport == VPORT;
                    let key = FlowKey::canonical(src, dst, sport, dport, proto);
                    *s = match ct.admit_tcp_nat(&key, seg, now, !vip) {
                        Ok(Some(nat)) => classify(&nat, src, sport, dst, dport),
                        Ok(None) => Step::Route {
                            src,
                            dst,
                            nat: None,
                        },
                        Err(DropReason::NoFlow) if vip && seg.syn && !seg.ack => Step::Assign {
                            key,
                            src,
                            sport,
                            dst,
                            dport,
                        },
                        Err(e) => Step::Done(Err(e)),
                    };
                }
                ops
            });
        }
        timed(l, Stage::Select, || {
            let mut ops = 0;
            for s in steps.iter_mut() {
                if let Step::Assign {
                    key,
                    src,
                    sport,
                    dst,
                    dport,
                } = *s
                {
                    ops += 1;
                    *s = match pool.select(key.hash()) {
                        Some(backend) => Step::Selected {
                            key,
                            src,
                            sport,
                            dst,
                            dport,
                            backend,
                        },
                        None => Step::Done(Err(DropReason::NoBackend)),
                    };
                }
            }
            ops
        });
        timed(l, Stage::Insert, || {
            let mut ops = 0;
            for s in steps.iter_mut() {
                if let Step::Selected {
                    key,
                    src,
                    sport,
                    dst,
                    dport,
                    backend,
                } = *s
                {
                    ops += 1;
                    let b = pool.backend(backend);
                    let nat = NatRewrite {
                        client_ip: src,
                        client_port: sport,
                        vip: dst,
                        vport: dport,
                        backend_ip: b.ip,
                        backend_port: b.port,
                        backend,
                    };
                    let reply = FlowKey::canonical(src, b.ip, sport, b.port, IPPROTO_TCP);
                    *s = match ct.insert_nat(&key, &reply, nat, FlowState::SynSeen, now) {
                        Ok(()) => Step::Route {
                            src,
                            dst: b.ip,
                            nat: Some((nat, true)),
                        },
                        Err(e) => Step::Done(Err(e)),
                    };
                }
            }
            ops
        });
    } else {
        for s in steps.iter_mut() {
            if let Step::Parsed { src, dst, .. } = *s {
                *s = Step::Route {
                    src,
                    dst,
                    nat: None,
                };
            }
        }
    }
    let view = plane.reader.pin();
    let cache = &mut plane.cache;
    timed(l, Stage::Cache, || {
        let mut ops = 0;
        for s in steps.iter_mut() {
            if let Step::Route { src, dst, nat } = *s {
                ops += 1;
                *s = match cache.lookup_or_route(&view, src, dst) {
                    Some(hop) => Step::Rewrite { hop, dst, nat },
                    None => Step::Done(Err(DropReason::NoRoute)),
                };
            }
        }
        ops
    });
    let t0 = Instant::now();
    let mut lpm_ops = 0;
    for s in steps.iter() {
        if let Step::Rewrite { dst, .. } = *s {
            black_box(view.lookup(black_box(dst)));
            lpm_ops += 1;
        }
    }
    if lpm_ops > 0 {
        l.lpm_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(0);
        l.lpm_ops += lpm_ops;
    }
    drop(view);
    for (stage, to_backend) in [(Stage::Dnat, true), (Stage::Snat, false)] {
        timed(l, stage, || {
            let mut ops = 0;
            for (f, s) in frames.iter_mut().zip(steps.iter_mut()) {
                let Step::Rewrite {
                    hop,
                    dst,
                    nat: Some((nat, dir)),
                } = *s
                else {
                    continue;
                };
                if dir != to_backend {
                    continue;
                }
                ops += 1;
                let Ok(mut ip) = EthernetViewMut::parse(f).and_then(EthernetViewMut::ipv4_mut)
                else {
                    *s = Step::Done(Err(DropReason::Malformed));
                    continue;
                };
                if ip.ttl() <= 1 {
                    *s = Step::Done(Err(DropReason::TtlExpired));
                    continue;
                }
                let r = if dir {
                    ip.dnat(nat.backend_ip.to_be_bytes(), nat.backend_port)
                } else {
                    ip.snat(nat.vip.to_be_bytes(), nat.vport)
                };
                *s = match r {
                    Ok(()) => Step::Rewrite {
                        hop,
                        dst,
                        nat: None,
                    },
                    Err(_) => Step::Done(Err(DropReason::Malformed)),
                };
            }
            ops
        });
    }
    timed(l, Stage::Ttl, || {
        let mut ops = 0;
        for (f, s) in frames.iter_mut().zip(steps.iter_mut()) {
            let Step::Rewrite { hop, .. } = *s else {
                continue;
            };
            ops += 1;
            *s = Step::Done(
                match EthernetViewMut::parse(f).and_then(EthernetViewMut::ipv4_mut) {
                    Err(_) => Err(DropReason::Malformed),
                    Ok(ip) if ip.ttl() <= 1 => Err(DropReason::TtlExpired),
                    Ok(mut ip) => ip
                        .decrement_ttl()
                        .map(|_| hop)
                        .map_err(|_| DropReason::Malformed),
                },
            );
        }
        ops
    });
}

/// The replay's result: per-pass ledgers, and every disagreement between
/// the staged path and the whole-frame call.
#[derive(Debug, Default)]
pub struct Replay {
    pub passes: Vec<Ledger>,
    pub mismatches: u64,
    pub packets: u64,
}

/// Replays the workload for `dur` on this thread.
pub fn replay(traffic: &Traffic, dur: Duration) -> Replay {
    let mut staged = Plane::new(traffic);
    let mut whole = Plane::new(traffic);
    let mut out = Replay::default();
    let mut now = 0u64;
    let mut one = [Vec::new()];
    let mut verdict = [Ok(0)];
    for i in 0..traffic.setup.len() {
        for plane in [&mut staged, &mut whole] {
            one[0].clear();
            one[0].extend_from_slice(traffic.setup.frame(i));
            plane.route_batch(&mut one, &mut verdict, now);
        }
        now += NS_PER_PACKET;
    }
    let mut a: Vec<Vec<u8>> = vec![Vec::new(); BATCH];
    let mut b: Vec<Vec<u8>> = vec![Vec::new(); BATCH];
    let mut steps = [Step::Done(Ok(0)); BATCH];
    let mut verdicts = [Ok(0); BATCH];
    let len = traffic.steady.len();
    let (mut cursor, mut batch_no) = (0usize, 0u64);
    let (prefix, plen) = CHURN_PREFIX;
    let deadline = Instant::now() + dur;
    while Instant::now() < deadline {
        let mut ledger = Ledger::default();
        for _ in 0..PASS_BATCHES {
            for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                let f = traffic.steady.frame(cursor % len);
                x.clear();
                x.extend_from_slice(f);
                y.clear();
                y.extend_from_slice(f);
                cursor += 1;
            }
            // Alternate which path goes first, so neither always finds the
            // frames already in cache.
            let mut run_whole = |ledger: &mut Ledger| {
                let t0 = Instant::now();
                whole.route_batch(&mut b, &mut verdicts, now);
                ledger.frame_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(0);
            };
            if batch_no % 2 == 0 {
                staged_batch(&mut staged, &mut a, &mut steps, now, &mut ledger);
                run_whole(&mut ledger);
            } else {
                run_whole(&mut ledger);
                staged_batch(&mut staged, &mut a, &mut steps, now, &mut ledger);
            }
            ledger.packets += BATCH as u64;
            for i in 0..BATCH {
                let same = matches!(steps[i], Step::Done(v) if v == verdicts[i]) && a[i] == b[i];
                out.mismatches += u64::from(!same);
            }
            now += BATCH as u64 * NS_PER_PACKET;
            batch_no += 1;
            for plane in [&mut staged, &mut whole] {
                plane.between_batches(now);
                if traffic.churns_routes() && batch_no % UPDATE_EVERY_BATCHES == 0 {
                    if batch_no / UPDATE_EVERY_BATCHES % 2 == 1 {
                        plane.table.insert(prefix, plen, 1).expect("valid prefix");
                    } else {
                        plane.table.remove(prefix, plen).expect("valid prefix");
                    }
                }
            }
        }
        out.packets += ledger.packets;
        out.passes.push(ledger);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Workload;

    #[test]
    fn ledger_arithmetic() {
        let mut l = Ledger {
            packets: 100,
            frame_ns: 20_000,
            ..Ledger::default()
        };
        l.stage_ns[Stage::Parse as usize] = 6_000;
        l.stage_ops[Stage::Parse as usize] = 100;
        l.stage_ns[Stage::Insert as usize] = 3_000;
        l.stage_ops[Stage::Insert as usize] = 10;
        assert_eq!(l.per_op(Stage::Parse), 60.0);
        assert_eq!(l.per_op(Stage::Insert), 300.0);
        assert_eq!(l.per_op(Stage::Dnat), 0.0);
        assert_eq!(l.frame_per_packet(), 200.0);
        assert_eq!(l.stages_per_packet(), 90.0);
        assert_eq!(l.unattributed_per_packet(), 110.0);
    }

    #[test]
    fn staged_path_agrees_with_the_whole_frame_call() {
        for w in [
            Workload::FwdSmall,
            Workload::LbEstablished,
            Workload::ConnChurn,
        ] {
            let t = Traffic::build(w, 3);
            let r = replay(&t, Duration::from_millis(50));
            assert!(r.packets > 0);
            assert_eq!(r.mismatches, 0, "{w}");
        }
    }
}
