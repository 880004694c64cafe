//! Trace recording and replay: a [`TraceRecorder`] probe captures the
//! access stream of an instrumented run so it can be inspected, filtered
//! or replayed against *different* machine configurations without
//! re-running the kernel — the workflow behind the M1-vs-M2 comparisons
//! (one mining run, two simulations).

use crate::probe::{CacheProbe, Probe};
use crate::Machine;

/// One recorded memory event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Independent read `(addr, len)`.
    Read(usize, u32),
    /// Dependent (pointer-chase) read.
    ReadDep(usize, u32),
    /// Write.
    Write(usize, u32),
    /// `n` computation instructions.
    Instr(u64),
    /// Software prefetch.
    Prefetch(usize),
}

/// A probe that appends every event to an in-memory trace.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    /// The recorded events, in program order.
    pub events: Vec<Event>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays the trace against a fresh simulator for `machine` and
    /// returns its report.
    pub fn replay(&self, machine: Machine, label: &str) -> crate::MemReport {
        let mut sim = CacheProbe::new(machine);
        for &e in &self.events {
            match e {
                Event::Read(a, l) => sim.read(a, l as usize),
                Event::ReadDep(a, l) => sim.read_dep(a, l as usize),
                Event::Write(a, l) => sim.write(a, l as usize),
                Event::Instr(n) => sim.instr(n),
                Event::Prefetch(a) => sim.prefetch(a),
            }
        }
        sim.report(label)
    }

    /// Summary counts per event kind: `(reads, dep_reads, writes,
    /// instructions, prefetches)`.
    pub fn summary(&self) -> (u64, u64, u64, u64, u64) {
        let (mut r, mut d, mut w, mut i, mut p) = (0, 0, 0, 0, 0);
        for e in &self.events {
            match e {
                Event::Read(..) => r += 1,
                Event::ReadDep(..) => d += 1,
                Event::Write(..) => w += 1,
                Event::Instr(n) => i += n,
                Event::Prefetch(..) => p += 1,
            }
        }
        (r, d, w, i, p)
    }
}

impl Probe for TraceRecorder {
    fn read(&mut self, addr: usize, len: usize) {
        self.events.push(Event::Read(addr, len as u32));
    }
    fn read_dep(&mut self, addr: usize, len: usize) {
        self.events.push(Event::ReadDep(addr, len as u32));
    }
    fn write(&mut self, addr: usize, len: usize) {
        self.events.push(Event::Write(addr, len as u32));
    }
    fn instr(&mut self, n: u64) {
        self.events.push(Event::Instr(n));
    }
    fn prefetch(&mut self, addr: usize) {
        self.events.push(Event::Prefetch(addr));
    }
}

/// A probe that forwards to two probes — e.g. record *and* simulate in
/// one run.
pub struct Tee<'a, A, B>(pub &'a mut A, pub &'a mut B);

impl<A: Probe, B: Probe> Probe for Tee<'_, A, B> {
    fn read(&mut self, addr: usize, len: usize) {
        self.0.read(addr, len);
        self.1.read(addr, len);
    }
    fn read_dep(&mut self, addr: usize, len: usize) {
        self.0.read_dep(addr, len);
        self.1.read_dep(addr, len);
    }
    fn write(&mut self, addr: usize, len: usize) {
        self.0.write(addr, len);
        self.1.write(addr, len);
    }
    fn instr(&mut self, n: u64) {
        self.0.instr(n);
        self.1.instr(n);
    }
    fn prefetch(&mut self, addr: usize) {
        self.0.prefetch(addr);
        self.1.prefetch(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::addr_of;

    fn sample_trace() -> TraceRecorder {
        let mut t = TraceRecorder::new();
        let data = vec![0u8; 1 << 16];
        for i in (0..data.len()).step_by(64) {
            t.read(addr_of(&data[i]), 8);
            t.instr(4);
        }
        t.read_dep(addr_of(&data[0]), 8);
        t.prefetch(addr_of(&data[128]));
        t.write(addr_of(&data[0]), 4);
        t
    }

    #[test]
    fn records_in_order() {
        let mut t = TraceRecorder::new();
        t.read(16, 4);
        t.instr(2);
        t.write(32, 8);
        assert_eq!(
            t.events,
            vec![Event::Read(16, 4), Event::Instr(2), Event::Write(32, 8)]
        );
        let (r, d, w, i, p) = t.summary();
        assert_eq!((r, d, w, i, p), (1, 0, 1, 2, 0));
    }

    #[test]
    fn replay_equals_direct_simulation() {
        let trace = sample_trace();
        let replayed = trace.replay(Machine::m1(), "replay");
        // run the identical stream directly
        let mut direct = CacheProbe::new(Machine::m1());
        for &e in &trace.events {
            match e {
                Event::Read(a, l) => direct.read(a, l as usize),
                Event::ReadDep(a, l) => direct.read_dep(a, l as usize),
                Event::Write(a, l) => direct.write(a, l as usize),
                Event::Instr(n) => direct.instr(n),
                Event::Prefetch(a) => direct.prefetch(a),
            }
        }
        let d = direct.report("replay");
        assert_eq!(replayed, d);
    }

    #[test]
    fn one_trace_two_machines() {
        let trace = sample_trace();
        let m1 = trace.replay(Machine::m1(), "m1");
        let m2 = trace.replay(Machine::m2(), "m2");
        assert_eq!(m1.instructions, m2.instructions);
        // M2's 64 KB L1 holds the whole 64 KiB stream; M1's 16 KB cannot
        assert!(m2.l1.misses <= m1.l1.misses);
    }

    #[test]
    fn tee_feeds_both() {
        let mut rec = TraceRecorder::new();
        let mut sim = CacheProbe::new(Machine::m1());
        {
            let mut tee = Tee(&mut rec, &mut sim);
            tee.read(64, 8);
            tee.instr(3);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(sim.report("tee").instructions, 4); // 1 for the read + 3
    }
}
