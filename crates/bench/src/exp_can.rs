//! E1/E2: the virtualized CAN controller experiments (Sec. III, Fig. 2).
//!
//! E1 measures round-trip latency through a native vs. a virtualized
//! controller (request frame out, echo frame back) across VF counts and
//! payload sizes; the paper reports *"near-native transmit and receive
//! performance … with an added latency around 7-11 µs for a round-trip"*.
//!
//! E2 evaluates the FPGA resource model: the virtualized controller
//! *"breaks even with multiple stand-alone controllers at four VMs"*.

use saav_can::bus::CanBus;
use saav_can::controller::ControllerConfig;
use saav_can::frame::{CanFrame, FrameId};
use saav_can::resources;
use saav_can::virt::VfId;
use saav_sim::report::{fmt_f64, Table};
use saav_sim::time::{Duration, Time};

/// Round-trip from VF0 of controller A, configured as `sender`, to a
/// native controller B, which echoes the frame back.
fn round_trip(payload: &[u8], sender: ControllerConfig) -> Duration {
    let mut bus = CanBus::automotive_500k();
    let (a, _) = bus.attach(sender);
    let (b, _) = bus.attach(ControllerConfig::default());
    let request = CanFrame::data(FrameId::Standard(0x100), payload).expect("valid");
    let reply = CanFrame::data(FrameId::Standard(0x200), payload).expect("valid");
    let t0 = Time::from_millis(1);
    bus.node_mut(a)
        .vf_send(VfId(0), request, t0)
        .expect("vf send");
    // Walk time forward in 1 µs steps until the echo is back.
    let mut now = t0;
    let mut echoed = false;
    loop {
        now += Duration::from_micros(1);
        bus.advance(now);
        if !echoed && matches!(bus.node_mut(b).vf_receive(VfId(0), now), Ok(Some(_))) {
            bus.node_mut(b)
                .vf_send(VfId(0), reply, now)
                .expect("echo send");
            echoed = true;
        }
        if echoed && matches!(bus.node_mut(a).vf_receive(VfId(0), now), Ok(Some(_))) {
            return now - t0;
        }
        assert!(
            now < t0 + Duration::from_millis(100),
            "round trip never completed"
        );
    }
}

/// E1 data point.
#[derive(Debug, Clone, Copy)]
pub struct RoundTripPoint {
    /// Provisioned VFs on the virtualized side.
    pub vfs: usize,
    /// Payload bytes.
    pub payload: usize,
    /// Native round-trip time.
    pub native: Duration,
    /// Virtualized round-trip time.
    pub virtualized: Duration,
}

impl RoundTripPoint {
    /// Added latency of the virtualization layer.
    pub fn added(&self) -> Duration {
        self.virtualized.saturating_sub(self.native)
    }
}

/// Runs E1 over VF counts and payload sizes.
pub fn e1_points() -> Vec<RoundTripPoint> {
    let mut points = Vec::new();
    for &vfs in &[1usize, 2, 4, 8] {
        for &payload in &[0usize, 4, 8] {
            let data = vec![0xA5u8; payload];
            points.push(RoundTripPoint {
                vfs,
                payload,
                native: round_trip(&data, ControllerConfig::default()),
                virtualized: round_trip(&data, ControllerConfig::virtualized(vfs)),
            });
        }
    }
    points
}

/// E1 as a printable table.
pub fn e1_table() -> Table {
    let mut t = Table::new(["VFs", "payload(B)", "native RT", "virt RT", "added"])
        .with_title("E1: CAN round-trip latency, native vs virtualized (paper: +7-11 us)");
    for p in e1_points() {
        t.row([
            p.vfs.to_string(),
            p.payload.to_string(),
            format!("{:.1} us", p.native.as_micros_f64()),
            format!("{:.1} us", p.virtualized.as_micros_f64()),
            format!("+{:.1} us", p.added().as_micros_f64()),
        ]);
    }
    t
}

/// E2 as a printable table.
pub fn e2_table() -> Table {
    let mut t = Table::new(["VMs", "standalone LUT/FF", "virtualized LUT/FF", "cheaper"])
        .with_title("E2: FPGA resources, n standalone controllers vs one virtualized (paper: break-even at 4 VMs)");
    for n in 1..=8u32 {
        let s = resources::standalone_array(n);
        let v = resources::virtualized_controller(n);
        t.row([
            n.to_string(),
            format!("{}/{}", s.luts, s.ffs),
            format!("{}/{}", v.luts, v.ffs),
            if v.fits_within(s) {
                "virtualized"
            } else {
                "standalone"
            }
            .to_string(),
        ]);
    }
    t
}

/// Summary figures for EXPERIMENTS.md assertions.
pub fn e1_added_range_us() -> (f64, f64) {
    let pts = e1_points();
    let added: Vec<f64> = pts.iter().map(|p| p.added().as_micros_f64()).collect();
    (
        added.iter().cloned().fold(f64::INFINITY, f64::min),
        added.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    )
}

/// Frames queued at t = 0 for the saturated second of E1b.
const SATURATING_FRAMES: u64 = 4_000;

/// The E1b frame: id 0x123 and eight zero bytes, 122 bits on the wire.
fn saturating_frame() -> CanFrame {
    CanFrame::data(FrameId::Standard(0x123), &[0u8; 8]).expect("valid")
}

/// Frames a native receiver sees within the first second after a sender
/// configured as `sender` queues [`SATURATING_FRAMES`] at t = 0.
fn saturated_second_frames(sender: ControllerConfig) -> u64 {
    let deep = |config| ControllerConfig {
        tx_capacity: 4_096,
        rx_capacity: 8_192,
        ..config
    };
    let mut bus = CanBus::automotive_500k();
    let (a, _) = bus.attach(deep(sender));
    let (b, _) = bus.attach(deep(ControllerConfig::default()));
    // Saturate: each frame is 122 bits plus the 3-bit interframe space,
    // 250 us at 500 kbit/s, so the 4000 queued frames fill the second
    // exactly and any added latency pushes the last one past it.
    let frame = saturating_frame();
    for _ in 0..SATURATING_FRAMES {
        let _ = bus.node_mut(a).vf_send(VfId(0), frame, Time::ZERO);
    }
    bus.advance(Time::from_secs(1));
    let mut count = 0;
    while let Ok(Some(_)) = bus.node_mut(b).vf_receive(VfId(0), Time::from_secs(1)) {
        count += 1;
    }
    count
}

/// Throughput check backing the "near-native performance" claim: frames
/// delivered over a busy second, native vs virtualized sender.
pub fn e1_throughput_table() -> Table {
    let native = saturated_second_frames(ControllerConfig::default());
    let virt = saturated_second_frames(ControllerConfig::virtualized(2));
    let mut t = Table::new(["path", "frames/s", "relative"])
        .with_title("E1b: saturated throughput (paper: near-native)");
    t.row(["native", &native.to_string(), "1.000"]);
    t.row([
        "virtualized",
        &virt.to_string(),
        &fmt_f64(virt as f64 / native as f64, 3),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn added_latency_reproduces_paper_range() {
        let (lo, hi) = e1_added_range_us();
        assert!(lo >= 6.0, "min added {lo} us");
        assert!(hi <= 11.5, "max added {hi} us");
    }

    #[test]
    fn added_latency_grows_with_vfs() {
        let pts = e1_points();
        let added_1 = pts
            .iter()
            .find(|p| p.vfs == 1 && p.payload == 8)
            .unwrap()
            .added();
        let added_8 = pts
            .iter()
            .find(|p| p.vfs == 8 && p.payload == 8)
            .unwrap()
            .added();
        assert!(added_8 > added_1);
    }

    #[test]
    fn throughput_is_near_native() {
        use saav_can::bitstream::{frame_bits_exact, IFS_BITS};
        assert_eq!(frame_bits_exact(&saturating_frame()) + IFS_BITS, 125);
        let native = saturated_second_frames(ControllerConfig::default());
        let virt = saturated_second_frames(ControllerConfig::virtualized(2));
        assert_eq!(native, SATURATING_FRAMES, "native sender fills the second");
        assert!(
            virt as f64 / native as f64 >= 0.999,
            "virtualized {virt} vs native {native}"
        );
    }

    #[test]
    fn break_even_table_flips_at_four() {
        let rendered = e2_table().render();
        let lines: Vec<&str> = rendered.lines().collect();
        // Row for n=3 says standalone, n=4 says virtualized.
        let row3 = lines.iter().find(|l| l.starts_with("3 ")).unwrap();
        let row4 = lines.iter().find(|l| l.starts_with("4 ")).unwrap();
        assert!(row3.contains("standalone"));
        assert!(row4.contains("virtualized"));
    }
}
