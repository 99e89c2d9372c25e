//! The bus's original transmit path, its logic unchanged, kept as the
//! oracle for [`TxQueue`](crate::controller::TxQueue) and
//! [`CanBus`](crate::bus::CanBus).
//!
//! [`ScanQueue`] selects a frame with three scans that each re-derive
//! every queued frame's arbitration key: the earliest readiness, the best
//! ready key, then the pop that finds that frame again. [`ReferenceBus`]
//! arbitrates over those queues and times each frame by the bit-serial
//! `stuff(stuffable_bits(..))` length. Both are slow and obviously
//! correct, which is all an oracle needs.

use saav_sim::time::{Duration, Time};

use crate::bitstream::{stuff, stuffable_bits, IFS_BITS, TAIL_BITS};
use crate::controller::ControllerConfig;
use crate::frame::CanFrame;

/// A queued frame: the frame, its readiness and its enqueue order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    frame: CanFrame,
    ready_at: Time,
    seq: u64,
}

/// The three-scan TX queue; same contract as
/// [`TxQueue`](crate::controller::TxQueue).
#[derive(Debug)]
pub(crate) struct ScanQueue {
    frames: Vec<Entry>,
    next_seq: u64,
    capacity: usize,
}

impl ScanQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        ScanQueue {
            frames: Vec::new(),
            next_seq: 0,
            capacity,
        }
    }

    /// Enqueues a frame, returning its sequence number, or `None` when full.
    pub(crate) fn push(&mut self, frame: CanFrame, ready_at: Time) -> Option<u64> {
        if self.frames.len() >= self.capacity {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.frames.push(Entry {
            frame,
            ready_at,
            seq,
        });
        Some(seq)
    }

    pub(crate) fn earliest_ready(&self) -> Option<Time> {
        self.frames.iter().map(|f| f.ready_at).min()
    }

    pub(crate) fn best_ready_key(&self, at: Time) -> Option<u64> {
        self.frames
            .iter()
            .filter(|f| f.ready_at <= at)
            .map(|f| f.frame.arbitration_key())
            .min()
    }

    /// Removes the best frame ready at `at`, returning it, its readiness
    /// and its sequence number.
    pub(crate) fn pop_best_ready(&mut self, at: Time) -> Option<(CanFrame, Time, u64)> {
        let idx = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.ready_at <= at)
            .min_by_key(|(_, f)| (f.frame.arbitration_key(), f.seq))
            .map(|(i, _)| i)?;
        let f = self.frames.remove(idx);
        Some((f.frame, f.ready_at, f.seq))
    }
}

/// One node of the reference bus: its queue, its latencies and every frame
/// it has received with the instant its software may see it.
#[derive(Debug)]
pub(crate) struct ReferenceNode {
    tx: ScanQueue,
    tx_overhead: Duration,
    tx_latency: Duration,
    rx_latency: Duration,
    rx_overhead: Duration,
    pub(crate) received: Vec<(CanFrame, Time)>,
}

/// The original bus loop over [`ScanQueue`]s; same arbitration and timing
/// contract as [`CanBus`](crate::bus::CanBus).
#[derive(Debug)]
pub(crate) struct ReferenceBus {
    bit_time: Duration,
    now: Time,
    in_flight: Option<(usize, CanFrame, Time)>,
    pub(crate) nodes: Vec<ReferenceNode>,
}

impl ReferenceBus {
    pub(crate) fn new(bitrate_bps: u32) -> Self {
        ReferenceBus {
            bit_time: Duration::from_nanos(1_000_000_000 / bitrate_bps as u64),
            now: Time::ZERO,
            in_flight: None,
            nodes: Vec::new(),
        }
    }

    pub(crate) fn attach(&mut self, c: &ControllerConfig) {
        let extra = c.num_vfs as u64 - 1;
        self.nodes.push(ReferenceNode {
            tx: ScanQueue::new(c.tx_capacity * c.num_vfs),
            tx_overhead: c.doorbell_latency + c.wrapper_tx_base + c.wrapper_tx_per_vf * extra,
            tx_latency: c.tx_latency,
            rx_latency: c.rx_latency,
            rx_overhead: c.wrapper_rx_base + c.wrapper_rx_per_vf * extra + c.virq_latency,
            received: Vec::new(),
        });
    }

    /// Queues `frame` on `node` at `now`; `false` when its queue is full.
    pub(crate) fn send(&mut self, node: usize, frame: CanFrame, now: Time) -> bool {
        let n = &mut self.nodes[node];
        let ready = now + n.tx_overhead + n.tx_latency;
        n.tx.push(frame, ready).is_some()
    }

    pub(crate) fn advance(&mut self, to: Time) {
        loop {
            if let Some((sender, frame, frame_end)) = self.in_flight {
                if frame_end > to {
                    return;
                }
                self.in_flight = None;
                for (i, n) in self.nodes.iter_mut().enumerate() {
                    if i != sender {
                        let visible = frame_end + n.rx_latency + n.rx_overhead;
                        n.received.push((frame, visible));
                    }
                }
                self.now = frame_end + self.bit_time * IFS_BITS as u64;
                continue;
            }
            let Some(t_ready) = self
                .nodes
                .iter()
                .filter_map(|n| n.tx.earliest_ready())
                .min()
            else {
                return;
            };
            let start = t_ready.max(self.now);
            if start > to {
                return;
            }
            let winner = self
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(i, n)| n.tx.best_ready_key(start).map(|k| (k, i)))
                .min();
            let Some((_, sender)) = winner else {
                return;
            };
            let (frame, _, _) = self.nodes[sender]
                .tx
                .pop_best_ready(start)
                .expect("winner must have a ready frame");
            let bits = stuff(&stuffable_bits(&frame)).len() as u64 + TAIL_BITS as u64;
            self.now = start;
            self.in_flight = Some((sender, frame, start + self.bit_time * bits));
        }
    }
}
