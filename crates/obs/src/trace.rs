//! Structured trace events in a bounded ring buffer.
//!
//! Recording is **off** by default — a disabled [`record`] call is one
//! relaxed atomic load, and event construction is behind a closure so
//! disabled sites pay nothing for argument formatting. [`enable`] arms the
//! ring with a capacity and a sampling knob (`sample_every = n` keeps
//! every n-th event); when the ring is full the oldest event is evicted
//! and counted in `obs_trace_dropped_total`. Markers bypass sampling so
//! callers can bracket work (e.g. one marker per query) and attribute the
//! sampled events between two markers.

use crate::registry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One structured event. Fields are raw numbers — the consumer (exporter,
/// experiment script) attaches meaning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// One batch-execution phase span.
    BatchPhase {
        /// Which phase.
        phase: crate::Phase,
        /// Queries the phase covered.
        queries: u64,
        /// Span duration.
        nanos: u64,
    },
    /// One crack-kernel invocation (`refine`/`artificial`).
    Crack {
        /// Records in the cracked segment (the adaptive-indexing cost
        /// unit of the cracking literature).
        records: u64,
    },
    /// One seal sweep that walked the root list.
    SealSweep {
        /// Regions sealed by this sweep.
        seals: u64,
        /// Sweep duration (0 when metrics are disabled).
        nanos: u64,
    },
    /// One shard sub-batch dispatch.
    ShardRoute {
        /// Target shard.
        shard: u64,
        /// Queries routed there.
        queries: u64,
    },
    /// One `write_atomic` commit.
    FsxCommit {
        /// Commit duration (0 when metrics are disabled).
        nanos: u64,
        /// Whether the commit succeeded.
        ok: bool,
    },
    /// One transient store error absorbed by a retry.
    FsxRetry,
    /// One fault injected by a `FaultStore`.
    FsxFault {
        /// The 0-based operation index the fault hit.
        op: u64,
    },
    /// One degraded-mode query.
    DegradedQuery {
        /// Quarantined shards the query could not consult.
        missing: u64,
    },
    /// A caller-inserted boundary (bypasses sampling).
    Marker {
        /// Caller-chosen id (e.g. query index).
        id: u64,
    },
}

struct Ring {
    buf: VecDeque<(u64, TraceEvent)>,
    cap: usize,
    seq: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);
static SAMPLE_SEQ: AtomicU64 = AtomicU64::new(0);
static RING: Mutex<Ring> = Mutex::new(Ring {
    buf: VecDeque::new(),
    cap: 0,
    seq: 0,
});

/// Arms the ring: keep up to `capacity` events, recording every
/// `sample_every`-th eligible event (`0` is treated as `1`). Clears any
/// previously buffered events.
pub fn enable(capacity: usize, sample_every: u64) {
    let mut ring = RING.lock().expect("trace ring poisoned");
    ring.buf.clear();
    ring.cap = capacity.max(1);
    SAMPLE_EVERY.store(sample_every.max(1), Ordering::Relaxed);
    SAMPLE_SEQ.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disarms recording and clears the ring.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    RING.lock().expect("trace ring poisoned").buf.clear();
}

/// Whether recording is armed — the no-op static default is `false`, so
/// instrumented sites cost one relaxed load when tracing is off.
#[inline]
pub fn on() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn push(ev: TraceEvent) {
    let mut ring = RING.lock().expect("trace ring poisoned");
    if ring.cap == 0 {
        return;
    }
    if ring.buf.len() >= ring.cap {
        ring.buf.pop_front();
        registry::TRACE_DROPPED_TOTAL.inc();
    }
    let seq = ring.seq;
    ring.seq += 1;
    ring.buf.push_back((seq, ev));
    registry::TRACE_EVENTS_TOTAL.inc();
}

/// Records an event if tracing is armed and the sampler admits it. The
/// closure only runs for admitted events.
pub fn record(make: impl FnOnce() -> TraceEvent) {
    if !on() {
        return;
    }
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every > 1
        && !SAMPLE_SEQ
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
    {
        return;
    }
    push(make());
}

/// Records a [`TraceEvent::Marker`], bypassing the sampler, so markers
/// stay reliable batch/query boundaries under any sampling rate.
pub fn marker(id: u64) {
    if on() {
        push(TraceEvent::Marker { id });
    }
}

/// Drains every buffered event (sequence number, event), oldest first.
pub fn drain() -> Vec<(u64, TraceEvent)> {
    RING.lock()
        .expect("trace ring poisoned")
        .buf
        .drain(..)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let _g = registry::test_lock();
        enable(4, 1);
        let dropped_before = registry::TRACE_DROPPED_TOTAL.get();
        for i in 0..10 {
            record(|| TraceEvent::Marker { id: i });
        }
        let events = drain();
        assert_eq!(events.len(), 4);
        // Oldest evicted: the survivors are the last four, in order.
        let ids: Vec<u64> = events
            .iter()
            .map(|(_, e)| match e {
                TraceEvent::Marker { id } => *id,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(registry::TRACE_DROPPED_TOTAL.get() - dropped_before, 6);
        // Sequence numbers are monotone.
        assert!(events.windows(2).all(|w| w[0].0 < w[1].0));
        disable();
    }

    #[test]
    fn sampling_thins_events_but_markers_pass() {
        let _g = registry::test_lock();
        enable(1024, 4);
        for _ in 0..16 {
            record(|| TraceEvent::FsxRetry);
        }
        marker(99);
        let events = drain();
        let retries = events
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::FsxRetry))
            .count();
        assert_eq!(retries, 4, "1-in-4 sampling keeps 4 of 16");
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, TraceEvent::Marker { id: 99 })));
        disable();
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = registry::test_lock();
        disable();
        assert!(!on());
        record(|| panic!("closure must not run when disabled"));
        assert!(drain().is_empty());
    }
}
