//! The benchmark's own seeded traffic: route tables, backends, frames and
//! the expected outcome of every frame.
//!
//! Nothing here comes from the data plane's own bench modules, so a change
//! to those cannot change the benchmark's inputs. Frames are built byte by
//! byte; `tests::traffic_is_pinned` fixes the digest of each workload's
//! traffic for one seed.

use std::fmt;
use sysnet::conntrack::{ConntrackConfig, FlowKey};
use sysnet::lb::{BackendConfig, BackendPool, LbConfig};
use sysnet::lpm::{LinearTable, TrieTable};
use sysnet::pipeline::{DropReason, DROP_REASONS};
use sysnet::router::PortId;

/// Egress ports of the route table; port 0 is the default route.
pub const PORTS: usize = 8;
/// Outcome bins: one per port, then one per drop reason.
pub const BINS: usize = PORTS + DROP_REASONS;
/// The prefix `conn_churn`'s route updates insert and remove. No frame's
/// destination falls inside it, so expected ports never change.
pub const CHURN_PREFIX: (u32, u8) = (0xF000_0000, 16);
/// Route updates per second in `conn_churn`.
pub const CHURN_UPDATES_PER_S: u64 = 1000;
/// The load-balanced virtual endpoint.
pub const VIP: u32 = 0x0AC8_0001;
/// The virtual port.
pub const VPORT: u16 = 80;

const IPPROTO_TCP: u8 = 6;
const IPPROTO_UDP: u8 = 17;
const TCP_SYN: u8 = 0x02;
const TCP_RST: u8 = 0x04;
const TCP_PSH: u8 = 0x08;
const TCP_ACK: u8 = 0x10;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Stateless UDP forwarding of minimum-size frames over a skewed flow set.
    FwdSmall,
    /// Steady two-way data on 50,000 load-balanced connections made in set-up.
    LbEstablished,
    /// Short load-balanced connections, 1,000 in flight, plus route churn.
    ConnChurn,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fwd_small" => Some(Workload::FwdSmall),
            "lb_established" => Some(Workload::LbEstablished),
            "conn_churn" => Some(Workload::ConnChurn),
            _ => None,
        }
    }

    /// The open-loop offered rate, packets per second: about 40% of the
    /// closed-loop saturation rate with both router threads on one CPU of a
    /// 2-vCPU Xeon KVM guest (about 30% for `lb_established`).
    pub fn open_rate_pps(self) -> f64 {
        match self {
            Workload::FwdSmall => 3.0e6,
            Workload::LbEstablished => 0.55e6,
            Workload::ConnChurn => 1.15e6,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::FwdSmall => "fwd_small",
            Workload::LbEstablished => "lb_established",
            Workload::ConnChurn => "conn_churn",
        })
    }
}

/// splitmix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            #[allow(clippy::cast_possible_truncation)]
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// What the router should do with one frame, and what the balancer should
/// count for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Outcome bin: the egress port, or `PORTS + drop reason`.
    pub bin: u8,
    /// 0 = no rewrite, 1 = rewrite toward the backend, 2 = back to the client.
    pub nat: u8,
    /// True for a connection-opening SYN (one backend assignment).
    pub syn: bool,
}

impl Expect {
    fn port(port: PortId) -> Self {
        Expect {
            bin: u8::try_from(port).expect("port fits a bin"),
            nat: 0,
            syn: false,
        }
    }

    fn drop(reason: DropReason) -> Self {
        Expect {
            bin: u8::try_from(PORTS + reason as usize).expect("bin fits u8"),
            nat: 0,
            syn: false,
        }
    }

    fn pack(self) -> u8 {
        self.bin | (self.nat << 5) | (u8::from(self.syn) << 7)
    }

    fn unpack(tag: u8) -> Self {
        Expect {
            bin: tag & 0x1F,
            nat: (tag >> 5) & 0x3,
            syn: tag >> 7 == 1,
        }
    }
}

/// Expected totals over some number of submitted frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub bins: [u64; BINS],
    pub to_backend: u64,
    pub to_client: u64,
    pub syns: u64,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            bins: [0; BINS],
            to_backend: 0,
            to_client: 0,
            syns: 0,
        }
    }
}

impl Tally {
    pub fn frames(&self) -> u64 {
        self.bins.iter().sum()
    }

    pub fn add(&mut self, other: &Tally) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.to_backend += other.to_backend;
        self.to_client += other.to_client;
        self.syns += other.syns;
    }
}

/// A sequence of frames stored back to back, with each frame's expectation.
/// The generator submits it cyclically.
#[derive(Debug, Default)]
pub struct Pattern {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    tags: Vec<u8>,
}

impl Pattern {
    fn push(&mut self, frame: &[u8], expect: Expect) {
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len());
        self.tags.push(expect.pack());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Expected totals after the first `n` frames of the endless cyclic
    /// stream (`n` may exceed the pattern length).
    pub fn tally(&self, n: u64) -> Tally {
        let mut counts = [0u64; 256];
        let len = self.len() as u64;
        if let (Some(full), Some(rest)) = (n.checked_div(len), n.checked_rem(len)) {
            for (i, &tag) in self.tags.iter().enumerate() {
                counts[usize::from(tag)] += full + u64::from((i as u64) < rest);
            }
        }
        let mut t = Tally::default();
        for (tag, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let e = Expect::unpack(u8::try_from(tag).expect("tag is a byte"));
            t.bins[usize::from(e.bin)] += c;
            match e.nat {
                1 => t.to_backend += c,
                2 => t.to_client += c,
                _ => {}
            }
            if e.syn {
                t.syns += c;
            }
        }
        t
    }

    /// FNV-1a over every frame and tag: the pin the traffic test checks.
    #[cfg(test)]
    fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in self.bytes.iter().chain(self.tags.iter()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }
}

/// One endpoint of a flow.
#[derive(Debug, Clone, Copy)]
struct Endpoint {
    ip: u32,
    port: u16,
}

/// Builds an Ethernet/IPv4/{UDP,TCP} frame with correct IPv4 and transport
/// checksums (the IPv4 one deliberately wrong when `bad_checksum`).
fn build_frame(
    proto: u8,
    src: Endpoint,
    dst: Endpoint,
    tcp_flags: u8,
    payload: &[u8],
    bad_checksum: bool,
) -> Vec<u8> {
    let l4_len = if proto == IPPROTO_UDP { 8 } else { 20 } + payload.len();
    let ip_len = 20 + l4_len;
    let mut f = Vec::with_capacity(14 + ip_len);
    f.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x02, 0x02, 0, 0, 0, 0, 0x01, 0x08, 0x00]);
    let ip_total = u16::try_from(ip_len).expect("frame fits IPv4");
    f.extend_from_slice(&[0x45, 0]);
    f.extend_from_slice(&ip_total.to_be_bytes());
    f.extend_from_slice(&[0, 0, 0x40, 0, 64, proto, 0, 0]);
    f.extend_from_slice(&src.ip.to_be_bytes());
    f.extend_from_slice(&dst.ip.to_be_bytes());
    let mut ck = checksum(&[&f[14..34]]);
    if bad_checksum {
        ck ^= 0x5A5A;
    }
    f[24..26].copy_from_slice(&ck.to_be_bytes());
    let l4 = f.len();
    f.extend_from_slice(&src.port.to_be_bytes());
    f.extend_from_slice(&dst.port.to_be_bytes());
    let l4_total = u16::try_from(l4_len).expect("segment fits");
    if proto == IPPROTO_UDP {
        f.extend_from_slice(&l4_total.to_be_bytes());
        f.extend_from_slice(&[0, 0]);
    } else {
        f.extend_from_slice(&[
            0, 0, 0, 1, 0, 0, 0, 0, 0x50, tcp_flags, 0xFF, 0xFF, 0, 0, 0, 0,
        ]);
    }
    f.extend_from_slice(payload);
    let mut pseudo = [0u8; 12];
    pseudo[..8].copy_from_slice(&f[26..34]);
    pseudo[9] = proto;
    pseudo[10..].copy_from_slice(&l4_total.to_be_bytes());
    let mut l4_ck = checksum(&[&pseudo, &f[l4..]]);
    if proto == IPPROTO_UDP && l4_ck == 0 {
        l4_ck = 0xFFFF;
    }
    let off = if proto == IPPROTO_UDP { 6 } else { 16 };
    f[l4 + off..l4 + off + 2].copy_from_slice(&l4_ck.to_be_bytes());
    f
}

/// The Internet checksum over the concatenation of `parts` (each part of
/// even length except possibly the last).
fn checksum(parts: &[&[u8]]) -> u16 {
    let mut sum = 0u32;
    for part in parts {
        let mut chunks = part.chunks_exact(2);
        for c in &mut chunks {
            sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !u16::try_from(sum).expect("folded")
}

/// Everything one workload needs: tables, router settings, the frames
/// submitted once during set-up, and the cyclic steady-state pattern.
pub struct Traffic {
    pub workload: Workload,
    /// `(prefix, len, port)` including the default route.
    pub routes: Vec<(u32, u8, PortId)>,
    pub conntrack: Option<ConntrackConfig>,
    pub lb: Option<LbConfig>,
    /// Frames that establish resident flows before timing starts.
    pub setup: Pattern,
    pub steady: Pattern,
    /// Conntrack entries live after set-up and after every whole cycle.
    pub resident_entries: u64,
    /// Packets per connection (`conn_churn`), else 0.
    pub packets_per_conn: u64,
}

impl Traffic {
    pub fn trie(&self) -> TrieTable<PortId> {
        let mut t = TrieTable::new();
        for &(p, l, port) in &self.routes {
            t.insert(p, l, port).expect("valid route");
        }
        t
    }

    /// True when the workload applies route updates while it runs.
    pub fn churns_routes(&self) -> bool {
        self.workload == Workload::ConnChurn
    }

    /// Builds the workload's traffic from `seed`. The same seed always
    /// yields byte-identical frames.
    pub fn build(workload: Workload, seed: u64) -> Traffic {
        let salt = match workload {
            Workload::FwdSmall => 0x0F3D_5A11,
            Workload::LbEstablished => 0x1B_E57A,
            Workload::ConnChurn => 0xC4_0C4E,
        };
        let mut rng = Rng::new(seed ^ (salt << 20));
        let routes = route_set(&mut rng);
        let mut reference = LinearTable::new();
        for &(p, l, port) in &routes {
            reference.insert(p, l, port).expect("valid route");
        }
        let port_of = |ip: u32| reference.lookup(ip).expect("default route covers all");
        match workload {
            Workload::FwdSmall => fwd_small(rng, routes.clone(), &port_of),
            Workload::LbEstablished | Workload::ConnChurn => {
                lb_traffic(workload, rng, routes.clone(), &port_of)
            }
        }
    }
}

/// 256 random prefixes of length 8..=24 on ports 1..PORTS, plus the
/// default route on port 0. None overlaps the churn prefix.
fn route_set(rng: &mut Rng) -> Vec<(u32, u8, PortId)> {
    let mut routes = Vec::with_capacity(257);
    while routes.len() < 256 {
        #[allow(clippy::cast_possible_truncation)]
        let len = 8 + rng.below(17) as u8;
        #[allow(clippy::cast_possible_truncation)]
        let prefix = (rng.next_u64() as u32) & sysnet::lpm::mask(len);
        if prefix >> 24 == CHURN_PREFIX.0 >> 24 {
            continue;
        }
        #[allow(clippy::cast_possible_truncation)]
        let port = 1 + rng.below(PORTS as u64 - 1) as PortId;
        routes.push((prefix, len, port));
    }
    routes.push((0, 0, 0));
    routes
}

/// A host address: inside a random route for most draws, anywhere (the
/// default route) otherwise; never inside the churn prefix or 0.0.0.0/8.
fn host(rng: &mut Rng, routes: &[(u32, u8, PortId)]) -> u32 {
    loop {
        #[allow(clippy::cast_possible_truncation)]
        let bits = rng.next_u64() as u32;
        let ip = if rng.below(8) == 0 {
            bits
        } else {
            #[allow(clippy::cast_possible_truncation)]
            let (p, l, _) = routes[rng.below(routes.len() as u64 - 1) as usize];
            p | (bits & !sysnet::lpm::mask(l))
        };
        if ip >> 24 != 0 && ip >> 24 != CHURN_PREFIX.0 >> 24 && ip != VIP {
            return ip;
        }
    }
}

/// 4,096 UDP flows, 7/8 of packets from the hottest 512; one frame in 500
/// carries a bad IPv4 checksum. 60-byte frames (minimum Ethernet size).
fn fwd_small(
    mut rng: Rng,
    routes: Vec<(u32, u8, PortId)>,
    port_of: &dyn Fn(u32) -> PortId,
) -> Traffic {
    const FLOWS: u64 = 4096;
    const HOT: u64 = FLOWS / 8;
    const FRAMES: usize = 1 << 16;
    let flows: Vec<(Endpoint, Endpoint)> = (0..FLOWS)
        .map(|i| {
            let src = Endpoint {
                ip: host(&mut rng, &routes),
                port: 1024 + u16::try_from(i).expect("flow index fits"),
            };
            #[allow(clippy::cast_possible_truncation)]
            let dst = Endpoint {
                ip: host(&mut rng, &routes),
                port: 1 + rng.below(65_535) as u16,
            };
            (src, dst)
        })
        .collect();
    let mut steady = Pattern::default();
    let payload = [0xA5u8; 18];
    for _ in 0..FRAMES {
        let f = if rng.below(8) < 7 {
            rng.below(HOT)
        } else {
            HOT + rng.below(FLOWS - HOT)
        };
        #[allow(clippy::cast_possible_truncation)]
        let (src, dst) = flows[f as usize];
        let bad = rng.below(500) == 0;
        let frame = build_frame(IPPROTO_UDP, src, dst, 0, &payload, bad);
        let expect = if bad {
            Expect::drop(DropReason::BadChecksum)
        } else {
            Expect::port(port_of(dst.ip))
        };
        steady.push(&frame, expect);
    }
    Traffic {
        workload: Workload::FwdSmall,
        routes,
        conntrack: None,
        lb: None,
        setup: Pattern::default(),
        steady,
        resident_entries: 0,
        packets_per_conn: 0,
    }
}

/// Eight backends, weights 1 and 2, at hosts spread over the route table.
fn backends(rng: &mut Rng, routes: &[(u32, u8, PortId)]) -> Vec<BackendConfig> {
    (0..8u32)
        .map(|i| BackendConfig {
            ip: host(rng, routes),
            port: 8080,
            weight: 1 + i % 3 / 2,
        })
        .collect()
}

/// The connection a client opens to the VIP, with the backend the reference
/// pool predicts for it.
struct Conn {
    client: Endpoint,
    backend: Endpoint,
    backend_port_id: PortId,
    client_port_id: PortId,
}

impl Conn {
    fn new(client: Endpoint, pool: &BackendPool, port_of: &dyn Fn(u32) -> PortId) -> Self {
        let key = FlowKey::canonical(client.ip, VIP, client.port, VPORT, IPPROTO_TCP);
        let b = pool.backend(pool.select(key.hash()).expect("every backend is up"));
        Conn {
            client,
            backend: Endpoint {
                ip: b.ip,
                port: b.port,
            },
            backend_port_id: port_of(b.ip),
            client_port_id: port_of(client.ip),
        }
    }

    /// A client → VIP segment, rewritten toward the backend.
    fn request(&self, flags: u8, payload: &[u8], out: &mut Pattern) {
        let vip = Endpoint {
            ip: VIP,
            port: VPORT,
        };
        let frame = build_frame(IPPROTO_TCP, self.client, vip, flags, payload, false);
        let mut e = Expect::port(self.backend_port_id);
        e.nat = 1;
        e.syn = flags == TCP_SYN;
        out.push(&frame, e);
    }

    /// A backend → client segment, rewritten back to the VIP.
    fn reply(&self, payload: &[u8], out: &mut Pattern) {
        let frame = build_frame(
            IPPROTO_TCP,
            self.backend,
            self.client,
            TCP_ACK | TCP_PSH,
            payload,
            false,
        );
        let mut e = Expect::port(self.client_port_id);
        e.nat = 2;
        out.push(&frame, e);
    }
}

fn lb_traffic(
    workload: Workload,
    mut rng: Rng,
    routes: Vec<(u32, u8, PortId)>,
    port_of: &dyn Fn(u32) -> PortId,
) -> Traffic {
    let lb = LbConfig {
        vip: VIP,
        vport: VPORT,
        backends: backends(&mut rng, &routes),
        ..LbConfig::default()
    };
    let reference = BackendPool::new(lb.clone());
    let conntrack = ConntrackConfig {
        max_flows: 1 << 17,
        ..ConntrackConfig::default()
    };
    let mut setup = Pattern::default();
    let mut steady = Pattern::default();
    let (resident_entries, packets_per_conn) = if workload == Workload::LbEstablished {
        const CONNS: usize = 50_000;
        let payload: Vec<u8> = (0..512).map(|i| (i * 7) as u8).collect();
        let conns: Vec<Conn> = (0..CONNS)
            .map(|i| {
                let client = Endpoint {
                    ip: host(&mut rng, &routes),
                    port: 1024 + u16::try_from(i).expect("client index fits"),
                };
                Conn::new(client, &reference, port_of)
            })
            .collect();
        for c in &conns {
            c.request(TCP_SYN, &[], &mut setup);
            c.request(TCP_ACK, &[], &mut setup);
        }
        // Every connection sends one request and one reply per cycle, in a
        // seeded order, so the working set is all 100,000 NAT entries.
        let mut order: Vec<(usize, bool)> =
            (0..CONNS).flat_map(|i| [(i, false), (i, true)]).collect();
        rng.shuffle(&mut order);
        for (i, is_reply) in order {
            if is_reply {
                conns[i].reply(&payload, &mut steady);
            } else {
                conns[i].request(TCP_ACK | TCP_PSH, &payload, &mut steady);
            }
        }
        (2 * CONNS as u64, 0)
    } else {
        // 1,000 connection slots, each always mid-connection: in every
        // round each slot sends one packet, in one seeded slot order, so a
        // connection's packets are always 1,000 apart and no batch holds
        // two of them. Slot `s` runs `s % 7` packets ahead, so every round
        // carries an even mix of SYNs, ACKs, data and RSTs. The 16
        // connections a slot makes per cycle use their own client ports;
        // the one that straddles the cycle's end is the cycle's first, so
        // the pattern repeats seamlessly, and set-up sends its opening
        // packets.
        const SLOTS: usize = 1000;
        const PER_SLOT: usize = 16;
        let payload: Vec<u8> = (0..64).map(|i| (i * 13) as u8).collect();
        let conns: Vec<Vec<Conn>> = (0..SLOTS)
            .map(|s| {
                let ip = host(&mut rng, &routes);
                (0..PER_SLOT)
                    .map(|c| {
                        let port = 1024 + u16::try_from(c * SLOTS + s).expect("port fits");
                        Conn::new(Endpoint { ip, port }, &reference, port_of)
                    })
                    .collect()
            })
            .collect();
        let mut order: Vec<usize> = (0..SLOTS).collect();
        rng.shuffle(&mut order);
        let send = |s: usize, step: usize, out: &mut Pattern| {
            let c = &conns[s][step / 7 % PER_SLOT];
            match step % 7 {
                0 => c.request(TCP_SYN, &[], out),
                1 => c.request(TCP_ACK, &[], out),
                2 | 4 => c.request(TCP_ACK | TCP_PSH, &payload, out),
                3 | 5 => c.reply(&payload, out),
                _ => c.request(TCP_RST | TCP_ACK, &[], out),
            }
        };
        for step in 0..6 {
            for &s in &order {
                if step < s % 7 {
                    send(s, step, &mut setup);
                }
            }
        }
        for round in 0..7 * PER_SLOT {
            for &s in &order {
                send(s, round + s % 7, &mut steady);
            }
        }
        let open = (0..SLOTS).filter(|s| s % 7 != 0).count() as u64;
        (2 * open, 7)
    };
    Traffic {
        workload,
        routes,
        conntrack: Some(conntrack),
        lb: Some(lb),
        setup,
        steady,
        resident_entries,
        packets_per_conn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_pinned() {
        // One seed, byte-identical traffic: a change to these digests is a
        // change to the benchmark's inputs.
        let digests: Vec<(u64, u64)> = [
            Workload::FwdSmall,
            Workload::LbEstablished,
            Workload::ConnChurn,
        ]
        .iter()
        .map(|&w| {
            let t = Traffic::build(w, 7);
            let again = Traffic::build(w, 7);
            assert_eq!(t.steady.digest(), again.steady.digest());
            (t.setup.digest(), t.steady.digest())
        })
        .collect();
        assert_eq!(digests, PINNED_DIGESTS);
        assert_ne!(
            Traffic::build(Workload::FwdSmall, 8).steady.digest(),
            digests[0].1
        );
    }

    const PINNED_DIGESTS: [(u64, u64); 3] = [
        (0xcbf2_9ce4_8422_2325, 0xdc9e_e6f8_c4a6_f5de),
        (0x1813_9ba8_abe6_a166, 0xb3ea_8d2f_d363_c52b),
        (0x2232_c7a3_c516_7894, 0xce4a_a975_5631_af48),
    ];

    #[test]
    fn tally_counts_whole_and_partial_cycles() {
        let mut p = Pattern::default();
        p.push(&[1], Expect::port(3));
        p.push(&[2], Expect::drop(DropReason::BadChecksum));
        let t = p.tally(5);
        assert_eq!(t.bins[3], 3);
        assert_eq!(t.bins[PORTS + DropReason::BadChecksum as usize], 2);
        assert_eq!(t.frames(), 5);
    }

    #[test]
    fn frames_parse_and_checksum_like_the_data_plane() {
        let t = Traffic::build(Workload::ConnChurn, 1);
        for i in 0..t.steady.len() {
            let f = t.steady.frame(i);
            let ip = sysrepr::packet::EthernetView::parse(f)
                .and_then(|e| e.ipv4())
                .expect("frame parses");
            assert!(ip.verify_checksum().is_ok());
            ip.tcp().expect("tcp parses");
        }
    }
}
