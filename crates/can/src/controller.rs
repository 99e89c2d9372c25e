//! CAN controllers: acceptance filtering, TX queues and the standard
//! (non-virtualized) controller the paper's Fig. 2 calls the *protocol
//! layer*.
//!
//! Latency model: software enqueues a frame at time `t`; the frame becomes
//! eligible for bus arbitration at `t + tx_latency` (driver, register writes,
//! mailbox arbitration). A received frame completed on the bus at time `t`
//! becomes visible to software at `t + rx_latency` (interrupt + FIFO read).

use saav_sim::time::{Duration, Time};

use crate::frame::{CanFrame, FrameId};

/// A mask/match acceptance filter, as found in CAN controller hardware.
///
/// A frame matches when `(id & mask) == (code & mask)` and the
/// standard/extended flavour agrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptanceFilter {
    code: u32,
    mask: u32,
    extended: bool,
}

impl AcceptanceFilter {
    /// A filter accepting every standard frame.
    pub fn accept_all_standard() -> Self {
        AcceptanceFilter {
            code: 0,
            mask: 0,
            extended: false,
        }
    }

    /// A filter accepting every extended frame.
    pub fn accept_all_extended() -> Self {
        AcceptanceFilter {
            code: 0,
            mask: 0,
            extended: true,
        }
    }

    /// A filter accepting exactly one identifier.
    pub fn exact(id: FrameId) -> Self {
        AcceptanceFilter {
            code: id.raw(),
            mask: u32::MAX,
            extended: id.is_extended(),
        }
    }

    /// A code/mask filter for standard ids.
    pub fn standard(code: u16, mask: u16) -> Self {
        AcceptanceFilter {
            code: code as u32,
            mask: mask as u32,
            extended: false,
        }
    }

    /// A code/mask filter for extended ids.
    pub fn extended(code: u32, mask: u32) -> Self {
        AcceptanceFilter {
            code,
            mask,
            extended: true,
        }
    }

    /// Whether `id` passes the filter.
    pub fn matches(&self, id: FrameId) -> bool {
        id.is_extended() == self.extended && (id.raw() & self.mask) == (self.code & self.mask)
    }
}

/// A frame queued for transmission.
#[derive(Debug, Clone, Copy)]
pub struct QueuedFrame {
    /// The frame itself.
    pub frame: CanFrame,
    /// When it becomes eligible for bus arbitration.
    pub ready_at: Time,
    /// Enqueue order, for FIFO tie-breaking among equal priorities.
    pub seq: u64,
    /// Index of the virtual function that queued the frame on a
    /// virtualized controller; 0 on a standard one.
    pub(crate) owner: usize,
}

/// Priority-ordered TX queue with readiness times.
///
/// Short automotive TX queues are scanned linearly; correctness and
/// determinism matter more here than asymptotics (queues hold a handful of
/// frames).
#[derive(Debug, Clone, Default)]
pub struct TxQueue {
    frames: Vec<QueuedFrame>,
    next_seq: u64,
    capacity: Option<usize>,
}

impl TxQueue {
    /// Creates an unbounded queue.
    pub fn new() -> Self {
        TxQueue::default()
    }

    /// Creates a queue that rejects frames beyond `capacity`.
    pub fn bounded(capacity: usize) -> Self {
        TxQueue {
            capacity: Some(capacity),
            ..TxQueue::default()
        }
    }

    /// Enqueues a frame that becomes ready at `ready_at`, returning the
    /// frame's queue sequence number.
    ///
    /// Returns `None` (dropping the frame) when the queue is full.
    pub fn push(&mut self, frame: CanFrame, ready_at: Time) -> Option<u64> {
        self.push_owned(frame, ready_at, 0)
    }

    /// [`TxQueue::push`] on behalf of virtual function `owner`: the frame
    /// carries its owner through arbitration and completion.
    pub(crate) fn push_owned(
        &mut self,
        frame: CanFrame,
        ready_at: Time,
        owner: usize,
    ) -> Option<u64> {
        if let Some(cap) = self.capacity {
            if self.frames.len() >= cap {
                return None;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.frames.push(QueuedFrame {
            frame,
            ready_at,
            seq,
            owner,
        });
        Some(seq)
    }

    /// Earliest readiness time over all queued frames.
    pub fn earliest_ready(&self) -> Option<Time> {
        self.frames.iter().map(|f| f.ready_at).min()
    }

    /// Best (lowest) arbitration key among frames ready at `at`.
    pub fn best_ready_key(&self, at: Time) -> Option<u64> {
        self.frames
            .iter()
            .filter(|f| f.ready_at <= at)
            .map(|f| f.frame.arbitration_key())
            .min()
    }

    /// Removes and returns the highest-priority frame ready at `at`
    /// (FIFO among equal keys).
    pub fn pop_best_ready(&mut self, at: Time) -> Option<QueuedFrame> {
        let idx = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.ready_at <= at)
            .min_by_key(|(_, f)| (f.frame.arbitration_key(), f.seq))
            .map(|(i, _)| i)?;
        Some(self.frames.remove(idx))
    }

    /// Number of queued frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// A frame waiting in an RX FIFO until software may see it.
#[derive(Debug, Clone, Copy)]
struct RxEntry {
    frame: CanFrame,
    visible_at: Time,
}

/// Software-visible RX FIFO with a visibility latency per frame.
#[derive(Debug, Clone)]
pub struct RxFifo {
    entries: Vec<RxEntry>,
    capacity: usize,
    overruns: u64,
}

impl RxFifo {
    /// Creates a FIFO holding up to `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        RxFifo {
            entries: Vec::new(),
            capacity,
            overruns: 0,
        }
    }

    /// Pushes a received frame that becomes visible at `visible_at`.
    /// On overflow the *newest* frame is dropped and counted as an overrun,
    /// matching common CAN controller FIFO semantics.
    pub fn push(&mut self, frame: CanFrame, visible_at: Time) {
        if self.entries.len() >= self.capacity {
            self.overruns += 1;
            return;
        }
        self.entries.push(RxEntry { frame, visible_at });
    }

    /// Pops the oldest frame visible at `now`, if any.
    pub fn pop(&mut self, now: Time) -> Option<CanFrame> {
        let idx = self.entries.iter().position(|e| e.visible_at <= now)?;
        Some(self.entries.remove(idx).frame)
    }

    /// Frames currently buffered (visible or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Frames dropped due to FIFO overflow.
    pub fn overruns(&self) -> u64 {
        self.overruns
    }
}

/// Configuration of a standard controller.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Software-to-bus readiness latency.
    pub tx_latency: Duration,
    /// Bus-to-software visibility latency.
    pub rx_latency: Duration,
    /// TX queue depth (mailbox count).
    pub tx_capacity: usize,
    /// RX FIFO depth.
    pub rx_capacity: usize,
    /// Acceptance filters; a frame is received if *any* filter matches.
    pub filters: Vec<AcceptanceFilter>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            tx_latency: Duration::from_nanos(2_000),
            rx_latency: Duration::from_nanos(2_000),
            tx_capacity: 16,
            rx_capacity: 32,
            filters: vec![
                AcceptanceFilter::accept_all_standard(),
                AcceptanceFilter::accept_all_extended(),
            ],
        }
    }
}

/// Transmit/receive statistics of a controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Frames successfully transmitted on the bus.
    pub tx_frames: u64,
    /// Frames accepted by the filters and delivered to the FIFO.
    pub rx_frames: u64,
    /// Frames rejected by acceptance filtering.
    pub rx_filtered: u64,
    /// Frames dropped because the TX queue was full.
    pub tx_dropped: u64,
}

/// A standard (non-virtualized) CAN controller.
#[derive(Debug, Clone)]
pub struct CanController {
    config: ControllerConfig,
    tx: TxQueue,
    rx: RxFifo,
    stats: ControllerStats,
}

impl CanController {
    /// Creates a controller from its configuration.
    pub fn new(config: ControllerConfig) -> Self {
        let tx = TxQueue::bounded(config.tx_capacity);
        let rx = RxFifo::new(config.rx_capacity);
        CanController {
            config,
            tx,
            rx,
            stats: ControllerStats::default(),
        }
    }

    /// Queues a frame for transmission at time `now`.
    ///
    /// Returns `false` when the TX queue is full (frame dropped).
    pub fn send(&mut self, frame: CanFrame, now: Time) -> bool {
        let ok = self.tx.push(frame, now + self.config.tx_latency).is_some();
        if !ok {
            self.stats.tx_dropped += 1;
        }
        ok
    }

    /// Retrieves the oldest received frame visible at `now`.
    pub fn receive(&mut self, now: Time) -> Option<CanFrame> {
        self.rx.pop(now)
    }

    /// Controller statistics.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// RX FIFO overrun count.
    pub fn rx_overruns(&self) -> u64 {
        self.rx.overruns()
    }

    // ---- bus-side interface (used by `CanBus`) ----

    pub(crate) fn bus_earliest_ready(&self) -> Option<Time> {
        self.tx.earliest_ready()
    }

    pub(crate) fn bus_best_key(&self, at: Time) -> Option<u64> {
        self.tx.best_ready_key(at)
    }

    pub(crate) fn bus_take_frame(&mut self, at: Time) -> Option<QueuedFrame> {
        self.tx.pop_best_ready(at)
    }

    pub(crate) fn bus_tx_success(&mut self) {
        self.stats.tx_frames += 1;
    }

    pub(crate) fn bus_deliver(&mut self, frame: CanFrame, completed_at: Time) {
        if self.config.filters.iter().any(|f| f.matches(frame.id())) {
            self.rx.push(frame, completed_at + self.config.rx_latency);
            self.stats.rx_frames += 1;
        } else {
            self.stats.rx_filtered += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(id: u16) -> FrameId {
        FrameId::standard(id).unwrap()
    }

    fn frame(id: u16) -> CanFrame {
        CanFrame::data(sid(id), &[0]).unwrap()
    }

    #[test]
    fn filter_matching() {
        let f = AcceptanceFilter::standard(0x100, 0x700);
        assert!(f.matches(sid(0x123)));
        assert!(f.matches(sid(0x1FF)));
        assert!(!f.matches(sid(0x223)));
        assert!(!f.matches(FrameId::extended(0x100).unwrap()));
        let exact = AcceptanceFilter::exact(sid(0x42));
        assert!(exact.matches(sid(0x42)));
        assert!(!exact.matches(sid(0x43)));
    }

    #[test]
    fn tx_queue_orders_by_priority_then_fifo() {
        let mut q = TxQueue::new();
        let t = Time::ZERO;
        q.push(frame(0x300), t);
        q.push(frame(0x100), t);
        q.push(frame(0x100), t); // same id, later seq
        let a = q.pop_best_ready(t).unwrap();
        assert_eq!(a.frame.id(), sid(0x100));
        assert_eq!(a.seq, 1);
        let b = q.pop_best_ready(t).unwrap();
        assert_eq!(b.seq, 2);
        assert_eq!(q.pop_best_ready(t).unwrap().frame.id(), sid(0x300));
    }

    #[test]
    fn tx_queue_respects_readiness() {
        let mut q = TxQueue::new();
        q.push(frame(0x100), Time::from_micros(10));
        q.push(frame(0x200), Time::from_micros(1));
        // At t=5 only 0x200 is ready, despite 0x100's higher priority.
        assert_eq!(
            q.best_ready_key(Time::from_micros(5)),
            Some(frame(0x200).arbitration_key())
        );
        assert_eq!(
            q.pop_best_ready(Time::from_micros(5)).unwrap().frame.id(),
            sid(0x200)
        );
        assert_eq!(q.earliest_ready(), Some(Time::from_micros(10)));
    }

    #[test]
    fn bounded_queue_drops_when_full() {
        let mut c = CanController::new(ControllerConfig {
            tx_capacity: 1,
            ..ControllerConfig::default()
        });
        assert!(c.send(frame(1), Time::ZERO));
        assert!(!c.send(frame(2), Time::ZERO));
        assert_eq!(c.stats().tx_dropped, 1);
    }

    #[test]
    fn rx_visibility_latency() {
        let mut c = CanController::new(ControllerConfig::default());
        c.bus_deliver(frame(0x10), Time::from_micros(100));
        assert_eq!(c.receive(Time::from_micros(100)), None);
        assert_eq!(c.receive(Time::from_micros(102)), Some(frame(0x10)));
    }

    #[test]
    fn filtered_frames_are_counted_not_delivered() {
        let mut c = CanController::new(ControllerConfig {
            filters: vec![AcceptanceFilter::exact(sid(0x42))],
            ..ControllerConfig::default()
        });
        c.bus_deliver(frame(0x42), Time::ZERO);
        c.bus_deliver(frame(0x43), Time::ZERO);
        assert_eq!(c.stats().rx_frames, 1);
        assert_eq!(c.stats().rx_filtered, 1);
    }

    #[test]
    fn rx_fifo_overrun_drops_newest() {
        let mut fifo = RxFifo::new(2);
        fifo.push(frame(1), Time::ZERO);
        fifo.push(frame(2), Time::ZERO);
        fifo.push(frame(3), Time::ZERO);
        assert_eq!(fifo.overruns(), 1);
        assert_eq!(fifo.pop(Time::ZERO), Some(frame(1)));
        assert_eq!(fifo.pop(Time::ZERO), Some(frame(2)));
        assert_eq!(fifo.pop(Time::ZERO), None);
    }
}
