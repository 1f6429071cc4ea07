//! Write shortening and dense re-ranking (§II-C, last assumption).
//!
//! The paper assumes WLOG that a write finishes before any of its dictated
//! reads *finishes*: a write's commit point cannot lie after a dictated read
//! has already returned its value, so the tail of the write interval past
//! that point is inert. [`normalize`] enforces the assumption by moving each
//! offending write's finish to just below the minimum finish time of its
//! dictated reads, then re-ranks all `2n` endpoints onto the dense grid
//! `0..2n`.
//!
//! Both happen in one merge of the starts and the finishes, each sorted
//! once. Sweeping finishes in time order, the first dictated read of a
//! write to finish is the one with the minimum finish; if the write has
//! not finished by then, its finish is emitted right there, just below the
//! read's. The same sweep checks that the `2n` raw endpoints are distinct
//! and emits the start and finish orders and the write concurrency.
//!
//! Correctness of the repair relies on two facts:
//!
//! * the new finish stays above the write's start, because an anomaly-free
//!   read never finishes before its dictating write starts; and
//! * no two shortened finishes collide, because the minimum-finish read of a
//!   write is dictated by that write alone, so distinct writes shorten below
//!   distinct read finishes.

use crate::{OpId, Operation, Time};

/// The orders the normalising sweep emits, in re-ranked time.
pub(crate) struct Orders {
    /// Operation ids by start.
    pub sorted_by_start: Vec<OpId>,
    /// Operation ids by (shortened) finish.
    pub sorted_by_finish: Vec<OpId>,
    /// Write ids by (shortened) finish.
    pub writes_by_finish: Vec<OpId>,
    /// The most writes active at any instant.
    pub max_concurrent_writes: usize,
}

/// Applies write shortening, re-ranks all endpoints onto `0..2n` in
/// place, and returns the start and finish orders.
///
/// `dictating[i]` must give, for each read `i`, its dictating write
/// (`None` for writes); every interval must be proper, and no read may
/// precede its dictating write. [`crate::History::from_raw`] checks both
/// before calling this. Returns `None`, with `ops` as they came, when two
/// raw endpoints share a timestamp.
pub(crate) fn normalize(ops: &mut [Operation], dictating: &[Option<OpId>]) -> Option<Orders> {
    let n = ops.len();
    let mut starts: Vec<(Time, usize)> = ops.iter().map(|op| op.start).zip(0..).collect();
    let mut finishes: Vec<(Time, usize)> = ops.iter().map(|op| op.finish).zip(0..).collect();
    starts.sort_unstable_by_key(|&(time, _)| time);
    finishes.sort_unstable_by_key(|&(time, _)| time);

    let mut sweep = Sweep {
        ops,
        finished: vec![false; n],
        rank: 0,
        active_writes: 0,
        orders: Orders {
            sorted_by_start: Vec::with_capacity(n),
            sorted_by_finish: Vec::with_capacity(n),
            writes_by_finish: Vec::new(),
            max_concurrent_writes: 0,
        },
    };
    let mut last: Option<Time> = None;
    let (mut s, mut f) = (0, 0);
    while s < n || f < n {
        let from_starts = s < n && (f == n || starts[s].0 <= finishes[f].0);
        let (time, i) = if from_starts { starts[s] } else { finishes[f] };
        if last.is_some_and(|last| time <= last) {
            // Two endpoints share `time`: undo the re-ranking.
            for &(time, i) in &starts {
                sweep.ops[i].start = time;
            }
            for &(time, i) in &finishes {
                sweep.ops[i].finish = time;
            }
            return None;
        }
        last = Some(time);
        if from_starts {
            s += 1;
            sweep.start(i);
        } else {
            f += 1;
            if sweep.finished[i] {
                continue; // a write already shortened below a read's finish
            }
            if let Some(w) = dictating[i] {
                if !sweep.finished[w.index()] {
                    sweep.finish(w.index());
                }
            }
            sweep.finish(i);
        }
    }
    debug_assert!(sweep.ops.iter().all(|op| op.start < op.finish));
    Some(sweep.orders)
}

/// The state of the merge in [`normalize`].
struct Sweep<'a> {
    ops: &'a mut [Operation],
    finished: Vec<bool>,
    /// The next dense timestamp.
    rank: u64,
    active_writes: usize,
    orders: Orders,
}

impl Sweep<'_> {
    fn start(&mut self, i: usize) {
        self.ops[i].start = Time(self.rank);
        self.rank += 1;
        self.orders.sorted_by_start.push(OpId(i));
        if self.ops[i].is_write() {
            self.active_writes += 1;
            self.orders.max_concurrent_writes =
                self.orders.max_concurrent_writes.max(self.active_writes);
        }
    }

    fn finish(&mut self, i: usize) {
        self.ops[i].finish = Time(self.rank);
        self.rank += 1;
        self.finished[i] = true;
        self.orders.sorted_by_finish.push(OpId(i));
        if self.ops[i].is_write() {
            self.orders.writes_by_finish.push(OpId(i));
            self.active_writes -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RawHistory, Value};

    /// The normalised operations of an anomaly-free `raw`.
    fn normalized(raw: &RawHistory) -> Vec<Operation> {
        let dictating: Vec<Option<OpId>> = raw
            .ops
            .iter()
            .map(|op| {
                if op.is_read() {
                    raw.ops.iter().position(|w| w.is_write() && w.value == op.value).map(OpId)
                } else {
                    None
                }
            })
            .collect();
        let mut ops = raw.ops.clone();
        normalize(&mut ops, &dictating).expect("distinct endpoints");
        ops
    }

    #[test]
    fn already_normalized_history_keeps_order() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(10)).read(Value(1), Time(20), Time(30));
        let ops = normalized(&raw);
        assert!(ops[0].start < ops[0].finish);
        assert!(ops[0].finish < ops[1].start);
        assert!(ops[1].start < ops[1].finish);
        // Dense grid 0..4.
        let mut all: Vec<u64> = ops
            .iter()
            .flat_map(|o| [o.start.as_u64(), o.finish.as_u64()])
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn long_write_is_shortened_below_first_dictated_read_finish() {
        let mut raw = RawHistory::new();
        // Write spans the whole history; its dictated read finishes at 15.
        raw.write(Value(1), Time(0), Time(100)).read(Value(1), Time(5), Time(15));
        let ops = normalized(&raw);
        let (w, r) = (ops[0], ops[1]);
        assert!(w.finish < r.finish, "write must finish before its dictated read finishes");
        assert!(w.start < w.finish, "interval must stay proper");
        assert!(r.start < w.finish, "shortening must not push the write before the read start");
    }

    #[test]
    fn shortening_lands_immediately_below_the_read_finish() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(100)) // shortened below t=15
            .read(Value(1), Time(5), Time(15))
            .write(Value(2), Time(11), Time(13)); // unrelated write inside
        let ops = normalized(&raw);
        // Order of endpoints: w1.s=0, r.s=5, w2.s=11, w2.f=13, [w1.f], r.f=15
        assert_eq!(ops[0].start, Time(0));
        assert_eq!(ops[1].start, Time(1));
        assert_eq!(ops[2].start, Time(2));
        assert_eq!(ops[2].finish, Time(3));
        assert_eq!(ops[0].finish, Time(4), "shortened finish parks just below the read finish");
        assert_eq!(ops[1].finish, Time(5));
    }

    #[test]
    fn two_writes_shorten_below_distinct_reads_without_collision() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(50))
            .read(Value(1), Time(2), Time(10))
            .write(Value(2), Time(1), Time(60))
            .read(Value(2), Time(3), Time(12));
        let ops = normalized(&raw);
        let mut all: Vec<u64> = ops
            .iter()
            .flat_map(|o| [o.start.as_u64(), o.finish.as_u64()])
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8, "all endpoints stay distinct after shortening");
        assert!(ops[0].finish < ops[1].finish);
        assert!(ops[2].finish < ops[3].finish);
    }

    #[test]
    fn shared_endpoint_leaves_the_operations_untouched() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(100))
            .read(Value(1), Time(5), Time(15))
            .write(Value(2), Time(20), Time(30))
            .read(Value(2), Time(30), Time(40)); // starts where its write finishes
        let dictating = [None, Some(OpId(0)), None, Some(OpId(2))];
        let mut ops = raw.ops.clone();
        assert!(normalize(&mut ops, &dictating).is_none());
        assert_eq!(ops, raw.ops, "a rejected sweep restores the raw times");
    }
}
