//! The outcome oracle: what the router reported against what the traffic
//! generator predicted, frame by frame in aggregate.

use crate::traffic::{Tally, Traffic, PORTS};
use sysnet::pipeline::DROP_LABELS;
use sysnet::router::RouterReport;

/// One session's verdict.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// Units offered: packets, or connections for a connection workload.
    pub attempted: u64,
    /// Units whose outcome differs from the oracle (an upper bound for
    /// connections: each wrong packet spoils at most one).
    pub failed: u64,
    /// Every mismatch, in words.
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Checks one finished session: per-port and per-drop-reason counts,
/// offered = forwarded + dropped, the balancer's rewrite and assignment
/// counts, conntrack's structural audit, and the live-entry count.
pub fn check(traffic: &Traffic, expected: &Tally, offered: u64, report: &RouterReport) -> Verdict {
    let t = &report.stats.totals;
    let mut problems = Vec::new();
    let mut bin_diff = 0u64;
    for (bin, &want) in expected.bins.iter().enumerate() {
        let got = if bin < PORTS {
            t.per_port.get(bin).copied().unwrap_or(0)
        } else {
            t.dropped[bin - PORTS]
        };
        if got != want {
            let label = if bin < PORTS {
                format!("port {bin}")
            } else {
                format!("drop {}", DROP_LABELS[bin - PORTS])
            };
            problems.push(format!("{label}: expected {want}, got {got}"));
            bin_diff += got.abs_diff(want);
        }
    }
    let seen = t.forwarded + t.dropped_total();
    if seen != offered || expected.frames() != offered {
        problems.push(format!(
            "offered {offered} frames, router accounted for {seen}, oracle for {}",
            expected.frames()
        ));
    }
    // A misrouted frame is off by one in two bins; a lost frame in one bin
    // and in the offered total.
    let mut failed = (bin_diff + seen.abs_diff(offered)).div_ceil(2);
    if let (Some(_), Some(lb)) = (&traffic.lb, &report.lb) {
        let pairs = [
            (
                "rewrites to backend",
                expected.to_backend,
                lb.rewrites_to_backend,
            ),
            (
                "rewrites to client",
                expected.to_client,
                lb.rewrites_to_client,
            ),
            ("backend assignments", expected.syns, lb.assigned),
        ];
        for (what, want, got) in pairs {
            if want != got {
                problems.push(format!("{what}: expected {want}, got {got}"));
                failed = failed.max(want.abs_diff(got));
            }
        }
    }
    if let Some(ct) = &report.conntrack {
        if ct.invariant_violations != 0 {
            problems.push(format!(
                "conntrack invariant violations: {}",
                ct.invariant_violations
            ));
            failed = failed.max(1);
        }
        let live = ct.flows_created - ct.removed_total();
        if live != traffic.resident_entries {
            problems.push(format!(
                "live conntrack entries: expected {}, got {live}",
                traffic.resident_entries
            ));
            failed = failed.max(live.abs_diff(traffic.resident_entries));
        }
    }
    let attempted = if traffic.packets_per_conn > 0 {
        failed = failed.min(expected.syns);
        expected.syns
    } else {
        offered
    };
    Verdict {
        attempted,
        failed,
        problems,
    }
}
