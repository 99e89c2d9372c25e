//! Cross-crate soundness check: the timing analysis (`saav-timing`) must
//! upper-bound what the executable scheduler (`saav-rte`) and the CAN bus
//! simulation (`saav-can`) actually produce.
//!
//! This is the load-bearing property behind the MCC's acceptance tests: an
//! update admitted because "analysis says schedulable" must in fact meet
//! its deadlines in the execution domain.

use saav::can::bus::CanBus;
use saav::can::controller::ControllerConfig;
use saav::can::frame::{CanFrame, FrameId};
use saav::can::virt::VfId;
use saav::rte::component::ComponentId;
use saav::rte::sched::{Priority as RtePriority, Scheduler, TaskSpec};
use saav::sim::time::{Duration, Time};
use saav::timing::event_model::EventModel;
use saav::timing::task::{Priority, Task};
use saav::timing::{CanAnalysis, CpuAnalysis};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// Task sets at various utilizations: analysis bound >= simulated max
/// response, job for job.
#[test]
fn cpu_analysis_bounds_simulated_responses() {
    let sets: Vec<Vec<(&str, u64, u64, u32)>> = vec![
        vec![("a", 1, 4, 0), ("b", 2, 6, 1), ("c", 3, 12, 2)],
        vec![("x", 2, 10, 0), ("y", 5, 25, 1), ("z", 9, 50, 2)],
        vec![
            ("p", 1, 5, 0),
            ("q", 1, 7, 1),
            ("r", 2, 11, 2),
            ("s", 3, 23, 3),
        ],
    ];
    for set in sets {
        let mut analysis = CpuAnalysis::new();
        let mut sched = Scheduler::new(99);
        let mut refs = Vec::new();
        for &(name, c, p, prio) in &set {
            analysis.add_task(Task::new(
                name,
                ms(c),
                Priority(prio),
                EventModel::periodic(ms(p)),
                ms(p),
            ));
            refs.push((
                name,
                sched.add_task(
                    TaskSpec::periodic(name, ComponentId(0), ms(p), ms(c), RtePriority(prio))
                        // Execute at full WCET: the worst case the analysis bounds.
                        .with_exec_fraction(1.0, 1.0),
                ),
            ));
        }
        let result = analysis.analyze().expect("schedulable set");
        sched.advance(Time::from_secs(10), 1.0);
        let mut max_response: std::collections::HashMap<saav_sim::name::Name, Duration> =
            std::collections::HashMap::new();
        for rec in sched.take_records() {
            let e = max_response
                .entry(sched.task_name(rec.task).clone())
                .or_insert(Duration::ZERO);
            *e = (*e).max(rec.response);
        }
        for &(name, ..) in &set {
            let bound = result.response(name).expect("analysed").wcrt;
            let observed = max_response[name];
            assert!(
                observed <= bound,
                "{name}: observed {observed} exceeds analytic bound {bound}"
            );
        }
    }
}

/// The analysis bound is tight at the critical instant (synchronous
/// release at t=0 with full WCET): the first job attains it exactly.
#[test]
fn cpu_analysis_is_tight_at_critical_instant() {
    let mut analysis = CpuAnalysis::new();
    let mut sched = Scheduler::new(1);
    for &(name, c, p, prio) in &[("a", 1u64, 4u64, 0u32), ("b", 2, 6, 1), ("c", 3, 12, 2)] {
        analysis.add_task(Task::new(
            name,
            ms(c),
            Priority(prio),
            EventModel::periodic(ms(p)),
            ms(p),
        ));
        sched.add_task(
            TaskSpec::periodic(name, ComponentId(0), ms(p), ms(c), RtePriority(prio))
                .with_exec_fraction(1.0, 1.0),
        );
    }
    let result = analysis.analyze().unwrap();
    sched.advance(Time::from_millis(12), 1.0);
    for rec in sched.take_records() {
        if rec.release == Time::ZERO {
            let name = sched.task_name(rec.task);
            let bound = result.response(name).unwrap().wcrt;
            assert_eq!(rec.response, bound, "{name}");
        }
    }
}

/// CAN: the non-preemptive analysis bounds simulated frame latencies under
/// synchronous worst-case release.
#[test]
fn can_analysis_bounds_simulated_latency() {
    // Frame streams: id (priority), period ms, payload 8 bytes.
    let streams: Vec<(u16, u64)> = vec![(0x100, 10), (0x200, 20), (0x300, 40)];
    // Worst-case transmission time of one 8-byte standard frame at 500 kb/s:
    // 135 bits (with stuffing and IFS) × 2 µs = 270 µs.
    let c_frame = Duration::from_micros(270);

    let mut analysis = CanAnalysis::with_bitrate(500_000);
    for &(id, period) in &streams {
        analysis.add_frame(Task::new(
            format!("f{id:x}"),
            c_frame,
            Priority(id as u32),
            EventModel::periodic(ms(period)),
            ms(period),
        ));
    }
    let bounds = analysis.analyze().expect("schedulable");

    let mut bus = CanBus::automotive_500k();
    let (tx, _) = bus.attach(ControllerConfig {
        tx_capacity: 256,
        tx_latency: Duration::ZERO,
        ..ControllerConfig::default()
    });
    let (rx, _) = bus.attach(ControllerConfig {
        rx_capacity: 4_096,
        rx_latency: Duration::ZERO,
        ..ControllerConfig::default()
    });
    // Synchronous release of all streams over one hyperperiod (40 ms).
    let mut sent: Vec<(Time, CanFrame)> = Vec::new();
    for &(id, period) in &streams {
        let mut t = Time::ZERO;
        while t < Time::from_millis(40) {
            let frame = CanFrame::data(FrameId::standard(id).unwrap(), &[0xFF; 8]).unwrap();
            sent.push((t, frame));
            t += ms(period);
        }
    }
    sent.sort_by_key(|&(t, _)| t);
    for &(t, frame) in &sent {
        bus.advance(t);
        assert!(bus.node_mut(tx).vf_send(VfId(0), frame, t).is_ok());
    }
    bus.advance(Time::from_millis(100));
    // Drain in delivery order; measure per-stream worst latency by walking
    // visible times forward.
    let mut deliveries: Vec<(u32, Time)> = Vec::new();
    let mut now = Time::ZERO;
    while now <= Time::from_millis(100) {
        now += Duration::from_micros(10);
        while let Some(f) = bus.node_mut(rx).vf_receive(VfId(0), now).unwrap() {
            deliveries.push((f.id().raw(), now));
        }
    }
    // Match deliveries to sends FIFO per stream.
    for &(id, _) in &streams {
        let sends: Vec<Time> = sent
            .iter()
            .filter(|(_, f)| f.id().raw() == id as u32)
            .map(|&(t, _)| t)
            .collect();
        let recvs: Vec<Time> = deliveries
            .iter()
            .filter(|&&(i, _)| i == id as u32)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(sends.len(), recvs.len(), "stream {id:x} lost frames");
        let bound = bounds.response(&format!("f{id:x}")).unwrap().wcrt + Duration::from_micros(10); // receive-poll quantization
        for (s, r) in sends.iter().zip(&recvs) {
            let latency = r.saturating_since(*s);
            assert!(
                latency <= bound,
                "stream {id:x}: latency {latency} exceeds bound {bound}"
            );
        }
    }
}
