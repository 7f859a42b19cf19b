//! Open-loop latency: each packet is timed from the moment it was due to
//! be sent, so a stall delays every packet due during it, not only the one
//! the generator was holding.

/// Below this many nanoseconds every value has its own bucket: quantiles
/// are exact.
const EXACT_NS: u64 = 1 << 16;
/// Mantissa bits of the log buckets above [`EXACT_NS`] (relative error
/// under 1/1024).
const MANTISSA_BITS: u32 = 10;

/// A latency histogram: exact to the nanosecond below 65.5 µs, within
/// 0.1% above, in fixed memory whatever the run length.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    exact: Vec<u64>,
    log: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            exact: vec![0; EXACT_NS as usize],
            log: vec![0; (64 - 16) << MANTISSA_BITS],
            count: 0,
            max: 0,
        }
    }
}

impl LatencyHist {
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.max = self.max.max(ns);
        if ns < EXACT_NS {
            self.exact[ns as usize] += 1;
        } else {
            self.log[log_index(ns)] += 1;
        }
    }

    pub fn clear(&mut self) {
        self.exact.fill(0);
        self.log.fill(0);
        self.count = 0;
        self.max = 0;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.exact.iter_mut().zip(&other.exact) {
            *a += b;
        }
        for (a, b) in self.log.iter_mut().zip(&other.log) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// The nearest-rank quantile: the smallest recorded value with at least
    /// `ceil(q * count)` samples at or below it (0 when empty). Exact below
    /// 65.5 µs; above, the lower bound of its 0.1%-wide bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (ns, &c) in self.exact.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ns as u64;
            }
        }
        for (i, &c) in self.log.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return log_lower_bound(i).min(self.max);
            }
        }
        self.max
    }
}

fn log_index(ns: u64) -> usize {
    let e = 63 - ns.leading_zeros();
    let mantissa = (ns >> (e - MANTISSA_BITS)) & ((1 << MANTISSA_BITS) - 1);
    (((e - 16) as usize) << MANTISSA_BITS) | mantissa as usize
}

fn log_lower_bound(i: usize) -> u64 {
    let e = (i >> MANTISSA_BITS) as u32 + 16;
    let mantissa = (i & ((1 << MANTISSA_BITS) - 1)) as u64;
    (1 << e) | (mantissa << (e - MANTISSA_BITS))
}

/// Turns "the router has completed `n` packets, observed at `now`" into
/// per-packet latencies. Packet `k` was due at `k * period`; with one FIFO
/// worker the k-th completion is the k-th packet.
#[derive(Debug)]
pub struct Reducer {
    period_ns: f64,
    observed: u64,
}

impl Reducer {
    pub fn new(rate_pps: f64) -> Self {
        Reducer {
            period_ns: 1e9 / rate_pps,
            observed: 0,
        }
    }

    /// When packet `k` was due, in ns after the phase started.
    pub fn due_ns(&self, k: u64) -> u64 {
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let due = (k as f64 * self.period_ns) as u64;
        due
    }

    /// Records every completion from the last observation up to `completed`.
    pub fn observe(&mut self, completed: u64, now_ns: u64, hist: &mut LatencyHist) {
        while self.observed < completed {
            hist.record(now_ns.saturating_sub(self.due_ns(self.observed)));
            self.observed += 1;
        }
    }

    pub fn observed(&self) -> u64 {
        self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn reducer_gives_exact_quantiles_on_a_synthetic_trace() {
        // 1 Mpps: packet k is due at k µs. Completions arrive in bursts,
        // as batches finish; the observer polls at irregular times.
        let mut r = Reducer::new(1e6);
        let mut hist = LatencyHist::default();
        let mut truth = Vec::new();
        let mut completed = 0u64;
        let mut now = 0u64;
        let mut state = 12345u64;
        while completed < 20_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            now += 200 + (state >> 33) % 3000;
            // Never report a packet complete before it was due.
            let due_limit = now / 1000 + 1;
            let burst = (state >> 50) % 9;
            let next = (completed + burst).min(due_limit).max(completed);
            for k in completed..next {
                truth.push(now - r.due_ns(k));
            }
            r.observe(next, now, &mut hist);
            completed = next;
        }
        truth.sort_unstable();
        assert_eq!(hist.count(), truth.len() as u64);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(hist.quantile(q), nearest_rank(&truth, q), "q={q}");
        }
    }

    #[test]
    fn tail_buckets_stay_within_a_thousandth() {
        let mut hist = LatencyHist::default();
        for ns in [70_000u64, 1_000_000, 12_345_678, 3_000_000_000] {
            hist.record(ns);
            let got = hist.quantile(1.0);
            assert!(got <= ns && ns - got <= ns / 1024, "{ns} -> {got}");
        }
        assert_eq!(hist.count(), 4);
    }
}
