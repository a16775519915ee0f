//! Bounded, zero-allocation event tracing for the invocation lifecycle.
//!
//! Each [`Event`] is a small `Copy` struct; the [`EventRing`] is a fixed
//! capacity overwrite-oldest buffer allocated once up front, so recording
//! in the simulator's hot loops never allocates. A ring constructed with
//! [`EventRing::disabled`] (capacity 0) makes [`EventRing::record`] an
//! early-return; building the crate with the `obs_disabled` feature
//! compiles recording out entirely.

/// The lifecycle stage an [`Event`] marks.
///
/// The `a`/`b` payload fields of the event are interpreted per kind; see
/// each variant's docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// An invocation was dispatched to a core. `a` = invocation index,
    /// `b` = 0.
    Dispatch = 0,
    /// The front-end stalled waiting on an instruction line. `dur` is the
    /// exposed stall in cycles, `a` = physical line number, `b` = hit
    /// level (0 = L1, 1 = L2, 2 = LLC, 3 = memory).
    FetchStall = 1,
    /// A prefetcher issued a batch of lines at dispatch. `a` = lines
    /// issued, `b` = redundant (already-cached) issues.
    PrefetchBatch = 2,
    /// The invocation retired. `a` = instructions retired, `b` = cycles.
    Retire = 4,
}

impl EventKind {
    /// Stable lowercase label (used by the Chrome-trace exporter).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Dispatch => "dispatch",
            EventKind::FetchStall => "fetch_stall",
            EventKind::PrefetchBatch => "prefetch_batch",
            EventKind::Retire => "retire",
        }
    }
}

/// One lifecycle event. `Copy` and fixed-size so the ring never allocates
/// while recording.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Timestamp in core cycles (or microseconds for server-level events).
    pub ts: u64,
    /// Duration in the same unit; 0 for instantaneous events.
    pub dur: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (meaning depends on `kind`).
    pub a: u64,
    /// Second payload word (meaning depends on `kind`).
    pub b: u64,
}

/// A bounded ring buffer of [`Event`]s that overwrites the oldest entry
/// once full. Capacity 0 (the default) disables recording entirely.
#[derive(Clone, Debug, Default)]
pub struct EventRing {
    buf: Vec<Event>,
    cap: usize,
    head: usize,
    total: u64,
}

impl EventRing {
    /// A ring that keeps the most recent `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventRing {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            total: 0,
        }
    }

    /// A ring that records nothing (capacity 0).
    pub fn disabled() -> Self {
        EventRing::default()
    }

    /// Whether this ring records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.cap > 0 && cfg!(not(feature = "obs_disabled"))
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Records an event (no-op when capacity is 0 or the crate is built
    /// with the `obs_disabled` feature).
    #[cfg(not(feature = "obs_disabled"))]
    #[inline]
    pub fn record(&mut self, event: Event) {
        if self.cap == 0 {
            return;
        }
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Compiled-out recording stub (`obs_disabled` build).
    #[cfg(feature = "obs_disabled")]
    #[inline(always)]
    pub fn record(&mut self, _event: Event) {}

    /// Discards all held events (capacity is retained).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.total = 0;
    }

    /// The held events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.cap && self.cap > 0 {
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        out
    }

    /// Drains the held events (oldest first), leaving the ring empty.
    pub fn take_events(&mut self) -> Vec<Event> {
        let out = self.events();
        self.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: EventKind) -> Event {
        Event {
            ts,
            dur: 0,
            kind,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut ring = EventRing::disabled();
        ring.record(ev(1, EventKind::Dispatch));
        assert!(ring.is_empty());
        assert!(!ring.is_enabled());
        assert_eq!(ring.total_recorded(), 0);
    }

    #[cfg(not(feature = "obs_disabled"))]
    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut ring = EventRing::with_capacity(3);
        for ts in 0..5 {
            ring.record(ev(ts, EventKind::FetchStall));
        }
        let held: Vec<u64> = ring.events().iter().map(|e| e.ts).collect();
        assert_eq!(held, vec![2, 3, 4]);
        assert_eq!(ring.total_recorded(), 5);
        assert_eq!(ring.len(), 3);
    }

    #[cfg(not(feature = "obs_disabled"))]
    #[test]
    fn events_come_back_oldest_first_before_wrap() {
        let mut ring = EventRing::with_capacity(8);
        ring.record(ev(10, EventKind::Dispatch));
        ring.record(ev(20, EventKind::Retire));
        let held = ring.take_events();
        assert_eq!(held.len(), 2);
        assert_eq!(held[0].ts, 10);
        assert_eq!(held[1].ts, 20);
        assert!(ring.is_empty());
    }

    #[cfg(feature = "obs_disabled")]
    #[test]
    fn obs_disabled_compiles_recording_out() {
        let mut ring = EventRing::with_capacity(8);
        ring.record(ev(1, EventKind::Dispatch));
        assert!(ring.is_empty());
        assert!(!ring.is_enabled());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EventKind::Dispatch.label(), "dispatch");
        assert_eq!(EventKind::FetchStall.label(), "fetch_stall");
        assert_eq!(EventKind::PrefetchBatch.label(), "prefetch_batch");
        assert_eq!(EventKind::Retire.label(), "retire");
    }
}
