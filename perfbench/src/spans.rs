//! Spans around the benchmark's own calls into the router: name, start,
//! end and parent, kept in memory and written out when the run ends. The
//! untraced run uses [`Off`], which compiles to nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    ClosedRound,
    OpenRound,
    SubmitChunk,
    RouteUpdate,
    SnapshotPoll,
    Drain,
}

impl Name {
    pub const ALL: [Name; 6] = [
        Name::ClosedRound,
        Name::OpenRound,
        Name::SubmitChunk,
        Name::RouteUpdate,
        Name::SnapshotPoll,
        Name::Drain,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::ClosedRound => "closed_round",
            Name::OpenRound => "open_round",
            Name::SubmitChunk => "submit_chunk",
            Name::RouteUpdate => "route_update",
            Name::SnapshotPoll => "snapshot_poll",
            Name::Drain => "drain",
        }
    }
}

/// Spans the generator opens and closes in strict nesting.
pub trait Tracer {
    fn begin(&mut self, name: Name);
    fn end(&mut self);
}

/// Tracing off.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn begin(&mut self, _: Name) {}
    #[inline(always)]
    fn end(&mut self) {}
}

/// One recorded span; `parent` indexes the recorded spans (`u32::MAX` for
/// a root). Times are ns since the recorder was made.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    start: u64,
    end: u64,
}

/// Per-name totals, over every span whether or not it was kept.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// The in-memory recorder: keeps the first `cap` spans verbatim and totals
/// for all of them.
pub struct Spans {
    t0: Instant,
    cap: usize,
    kept: Vec<Span>,
    /// Open spans: name, start, time covered by children, kept index.
    stack: Vec<(Name, u64, u64, u32)>,
    totals: [Totals; Name::ALL.len()],
}

impl Spans {
    pub fn new(cap: usize) -> Self {
        Spans {
            t0: Instant::now(),
            cap,
            kept: Vec::with_capacity(cap),
            stack: Vec::with_capacity(8),
            totals: [Totals::default(); Name::ALL.len()],
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn totals(&self, name: Name) -> Totals {
        self.totals[name as usize]
    }

    /// Tab-separated spans, one a line, then the per-name totals.
    pub fn render(&self) -> String {
        let mut out = String::from("# id\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.kept.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name.label(),
                s.start,
                s.end
            );
        }
        for (name, t) in Name::ALL.iter().zip(&self.totals) {
            let _ = writeln!(
                out,
                "# total {} count={} total_ns={} self_ns={}",
                name.label(),
                t.count,
                t.total_ns,
                t.self_ns
            );
        }
        out
    }
}

impl Tracer for Spans {
    fn begin(&mut self, name: Name) {
        let start = self.now();
        let parent = self.stack.last().map_or(u32::MAX, |s| s.3);
        let id = if self.kept.len() < self.cap {
            self.kept.push(Span {
                name,
                parent,
                start,
                end: start,
            });
            u32::try_from(self.kept.len() - 1).expect("cap fits u32")
        } else {
            u32::MAX
        };
        self.stack.push((name, start, 0, id));
    }

    fn end(&mut self) {
        let end = self.now();
        let (name, start, children, id) = self.stack.pop().expect("end matches a begin");
        let dur = end - start;
        if let Some(s) = self.kept.get_mut(id as usize) {
            s.end = end;
        }
        let t = &mut self.totals[name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
        if let Some(parent) = self.stack.last_mut() {
            parent.2 += dur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_cap_keeps_totals() {
        let mut s = Spans::new(2);
        s.begin(Name::ClosedRound);
        for _ in 0..3 {
            s.begin(Name::SubmitChunk);
            std::thread::sleep(std::time::Duration::from_millis(2));
            s.end();
        }
        s.end();
        let round = s.totals(Name::ClosedRound);
        let chunks = s.totals(Name::SubmitChunk);
        assert_eq!((round.count, chunks.count), (1, 3));
        assert_eq!(round.self_ns, round.total_ns - chunks.total_ns);
        assert_eq!(
            s.render().lines().filter(|l| !l.starts_with('#')).count(),
            2
        );
    }
}
