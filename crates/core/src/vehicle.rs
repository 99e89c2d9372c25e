//! The self-aware vehicle: all layers assembled into one machine.
//!
//! This is the integration the paper argues for in Sec. V: platform
//! ([`saav_hw`]), communication ([`saav_can`]), execution domain
//! ([`saav_rte`]) with monitors ([`saav_monitor`]), the functional level
//! ([`saav_skills`] over [`saav_vehicle`]) and the model domain
//! (`saav_mcc`), coordinated by the cross-layer [`Coordinator`].
//!
//! The vehicle owns construction and the *per-layer containment logic*;
//! it does not script disturbances or drive time. The script lives in
//! [`ScenarioState`] (owned by the [`crate::runner`]): the vehicle applies
//! its events and ramps, and its layers read the attack's ground truth
//! there. Everything containment changes lives in the layer it changes —
//! e.g. the communication pump stops flooding once the RTE holds the rear
//! brake quarantined.

use saav_can::bus::{CanBus, NodeId};
use saav_can::controller::ControllerConfig;
use saav_can::frame::{CanFrame, FrameId};
use saav_can::virt::{PfToken, VfId};
use saav_hw::pe::PeId;
use saav_hw::platform::Platform;
use saav_learn::{OnlineScorer, SelfAwarenessModel};
use saav_mcc::renegotiator::{NegotiationOutcome, Pressure, PressureKind};
use saav_mcc::Renegotiator;
use saav_monitor::access_mon::{AccessMonitor, AccessObservation, ChannelSlot};
use saav_monitor::anomaly::{Anomaly, AnomalyKind};
use saav_monitor::exec::{ExecutionMonitor, JobTiming, TaskSlot};
use saav_monitor::signal::{HeartbeatMonitor, QualityMonitor};
use saav_rte::access::AccessEvent;
use saav_rte::component::{ComponentSpec, ComponentState, ServiceName, VmId};
use saav_rte::rte::Rte;
use saav_rte::sched::{JobRecord, Priority, TaskRef, TaskSpec};
use saav_sim::name::Name;
use saav_sim::time::{Duration, Time};
use saav_skills::ability::{AbilityGraph, AggregateOp, Thresholds};
use saav_skills::acc::{build_acc_graph, AccNodes};
use saav_skills::decision::ModePolicy;
use saav_vehicle::sensors::{SensorFault, Weather};
use saav_vehicle::world::VehicleWorld;

use crate::contracts;
use crate::coordinator::{Coordinator, EscalationPolicy};
use crate::layer::{Containment, Directive, DirectiveBoard, Layer, Posting, ProblemKind};
use crate::scenario::{ReconfigSpec, ResponseStrategy, Scenario, ScenarioEvent, ScenarioState};
use crate::telemetry::SwitchOutcome;

/// The control/simulation step of the assembled vehicle.
pub const CONTROL_PERIOD: Duration = Duration::from_millis(10);

/// Exec-monitor slot of each RTE task, indexed by [`TaskRef`].
#[derive(Default)]
struct TaskSlots(Vec<Option<TaskSlot>>);

impl TaskSlots {
    fn bind(&mut self, task: TaskRef, slot: TaskSlot) {
        if self.0.len() <= task.0 {
            self.0.resize(task.0 + 1, None);
        }
        self.0[task.0] = Some(slot);
    }

    fn get(&self, task: TaskRef) -> Option<TaskSlot> {
        self.0.get(task.0).copied().flatten()
    }
}

/// The assembled self-aware vehicle.
pub struct SelfAwareVehicle {
    pub(crate) platform: Platform,
    pub(crate) rte: Rte,
    bus: CanBus,
    virt_node: NodeId,
    pf: PfToken,
    pub(crate) world: VehicleWorld,
    pub(crate) abilities: AbilityGraph,
    pub(crate) nodes: AccNodes,
    pub(crate) mode: ModePolicy,
    exec_mon: ExecutionMonitor,
    access_mon: AccessMonitor,
    pub(crate) radar_quality: QualityMonitor,
    radar_heartbeat: HeartbeatMonitor,
    pub(crate) learned: Option<OnlineScorer>,
    pub(crate) coordinator: Coordinator,
    pub(crate) board: DirectiveBoard,
    strategy: ResponseStrategy,
    // live contract renegotiation (the MCC mounted per vehicle)
    reconfig: ReconfigSpec,
    renegotiator: Renegotiator,
    lowrate_tasks: Option<(TaskRef, TaskRef)>,
    // whether the ability layer has the low-rate tasks swapped in
    acc_reconfigured: bool,
    // switch outcomes since the runner last drained them; empty on the
    // nominal tick, so the hot path never allocates
    pub(crate) switch_events: Vec<SwitchOutcome>,
    // component/task handles
    acc_task: TaskRef,
    perception_task: TaskRef,
    brake_rear_comp: saav_rte::component::ComponentId,
    // monitor slots resolved outside the tick + drain buffers reused by
    // the per-tick monitor pump, keeping the nominal tick allocation-free
    // and free of name hashing
    brake_rear_can_tx: ChannelSlot,
    task_slots: TaskSlots,
    job_records_buf: Vec<JobRecord>,
    access_log_buf: Vec<AccessEvent>,
    // the compromised component's capability probe, built once so an
    // intrusion storm's tick stays allocation-free too
    radar_service: ServiceName,
    // `comp{N}` subjects of denied accesses, indexed by component id and
    // formatted on a component's first denial
    component_names: Vec<Name>,
    // cooperative (platoon) state, set by the co-simulation engine
    pub(crate) member_id: Option<usize>,
    pub(crate) platoon_active: bool,
    pub(crate) now: Time,
}

impl SelfAwareVehicle {
    /// Builds the vehicle from a borrowed scenario with per-member
    /// overrides (seed, initial speed, lead profile) — the multi-vehicle
    /// engines use this so N members never clone the scenario N times.
    pub(crate) fn with_overrides(
        scenario: &Scenario,
        seed: u64,
        ego_speed_mps: f64,
        lead: saav_vehicle::traffic::LeadVehicle,
    ) -> Self {
        let platform = Platform::with_embedded_pes(1);
        // --- execution domain -------------------------------------------
        let mut rte = Rte::new(seed, 8_192);
        let control_vm = rte.add_vm(4_096);
        let radar_comp = rte
            .install(ComponentSpec::new("radar_driver", VmId(0)).provides("sensor.radar"))
            .expect("fresh RTE");
        let acc_comp = rte
            .install(
                ComponentSpec::new("acc_controller", control_vm)
                    .provides("control.acc")
                    .requires("sensor.radar")
                    .requires("actuator.powertrain")
                    .requires("actuator.brake.front")
                    .requires("actuator.brake.rear"),
            )
            .expect("fresh RTE");
        let brake_front_comp = rte
            .install(ComponentSpec::new("brake_front", control_vm).provides("actuator.brake.front"))
            .expect("fresh RTE");
        let brake_rear_comp = rte
            .install(ComponentSpec::new("brake_rear", control_vm).provides("actuator.brake.rear"))
            .expect("fresh RTE");
        let _pwr = rte
            .install(
                ComponentSpec::new("powertrain_ctl", control_vm).provides("actuator.powertrain"),
            )
            .expect("fresh RTE");
        rte.grant(acc_comp, "sensor.radar");
        rte.grant(acc_comp, "actuator.powertrain");
        rte.grant(acc_comp, "actuator.brake.front");
        rte.grant(acc_comp, "actuator.brake.rear");

        // Timing parameters come from the canonical nominal configuration
        // ([`crate::contracts::nominal_config`]) — the same CandidateConfig
        // the MCC admits updates against, so the executed task set and the
        // contract model can never drift apart.
        let nominal = contracts::nominal_config();
        let radar_ct = contracts::task_contract(&nominal, "radar_driver", "radar_drv");
        let radar_task = rte
            .add_task(
                TaskSpec::periodic(
                    "radar_drv",
                    radar_comp,
                    radar_ct.period,
                    radar_ct.wcet,
                    Priority(radar_ct.priority),
                )
                .with_exec_fraction(0.7, 0.95),
            )
            .expect("valid task");
        let perception_ct = contracts::task_contract(&nominal, "acc_controller", "perception");
        let perception_task = rte
            .add_task(
                TaskSpec::periodic(
                    "perception",
                    acc_comp,
                    perception_ct.period,
                    perception_ct.wcet,
                    Priority(perception_ct.priority),
                )
                .with_exec_fraction(0.75, 0.95),
            )
            .expect("valid task");
        let acc_ct = contracts::task_contract(&nominal, "acc_controller", "acc_ctl");
        let acc_task = rte
            .add_task(
                TaskSpec::periodic(
                    "acc_ctl",
                    acc_comp,
                    acc_ct.period,
                    acc_ct.wcet,
                    Priority(acc_ct.priority),
                )
                .with_exec_fraction(0.7, 0.95)
                .with_budget(Duration::from_millis(4)),
            )
            .expect("valid task");
        let mut tasks = vec![
            (radar_task, "radar_drv"),
            (perception_task, "perception"),
            (acc_task, "acc_ctl"),
        ];
        for (name, contract_comp, comp) in [
            ("brake_front_ctl", "brake_front", brake_front_comp),
            ("brake_rear_ctl", "brake_rear", brake_rear_comp),
        ] {
            let ct = contracts::task_contract(&nominal, contract_comp, name);
            let task = rte
                .add_task(
                    TaskSpec::periodic(name, comp, ct.period, ct.wcet, Priority(ct.priority))
                        .with_exec_fraction(0.8, 0.9),
                )
                .expect("valid task");
            tasks.push((task, name));
        }

        // --- communication ------------------------------------------------
        // The virtualized controller is the bus's only node: it sends every
        // frame, and no node reads them.
        let mut bus = CanBus::automotive_500k();
        let (virt_node, pf) = bus.attach(ControllerConfig::virtualized(2));

        // --- functional level ---------------------------------------------
        let world = VehicleWorld::new(seed, ego_speed_mps, lead);
        let (graph, nodes) = build_acc_graph().expect("paper graph is valid");
        let abilities = AbilityGraph::instantiate(graph, AggregateOp::Min, Thresholds::default())
            .expect("valid ability graph");

        // --- monitors -------------------------------------------------------
        // The monitored-contract table is derived from the same nominal
        // configuration instead of a second hand-written duration list.
        let mut exec_mon = ExecutionMonitor::new();
        for (task, wcet) in contracts::monitored_contracts(&nominal) {
            exec_mon.set_contract(task, wcet);
        }
        let mut task_slots = TaskSlots::default();
        for (task, name) in tasks {
            task_slots.bind(task, exec_mon.slot(name));
        }
        let mut access_mon = AccessMonitor::with_defaults();
        access_mon.set_nominal_rate("brake_rear", "can.tx", 100.0);
        access_mon.set_nominal_rate("brake_front", "can.tx", 100.0);
        let brake_rear_can_tx = access_mon.channel("brake_rear", "can.tx");

        SelfAwareVehicle {
            platform,
            rte,
            bus,
            virt_node,
            pf,
            world,
            abilities,
            nodes,
            mode: ModePolicy::with_defaults(),
            exec_mon,
            access_mon,
            radar_quality: QualityMonitor::new("radar", 0.5, 5.0, 0.7),
            radar_heartbeat: HeartbeatMonitor::new("radar", Duration::from_millis(10), 5.0),
            learned: None,
            coordinator: Coordinator::new(EscalationPolicy::LocalFirst),
            board: DirectiveBoard::new(),
            strategy: scenario.strategy,
            reconfig: scenario.reconfig,
            renegotiator: contracts::vehicle_renegotiator(scenario.reconfig.prefer_fast),
            lowrate_tasks: None,
            acc_reconfigured: false,
            switch_events: Vec::new(),
            acc_task,
            perception_task,
            brake_rear_comp,
            brake_rear_can_tx,
            task_slots,
            job_records_buf: Vec::new(),
            access_log_buf: Vec::new(),
            radar_service: ServiceName::new("sensor.radar"),
            component_names: Vec::new(),
            member_id: None,
            platoon_active: false,
            now: Time::ZERO,
        }
    }

    /// Enrolls this vehicle as platoon member `member` — the co-simulation
    /// engine calls this so peer-misbehavior containment can tell "a peer
    /// misbehaves" (eject it, keep cooperating) from "I was ejected" (leave
    /// the platoon, fall back to standalone ACC).
    pub(crate) fn join_platoon(&mut self, member: usize) {
        self.member_id = Some(member);
        self.platoon_active = true;
    }

    /// Whether the vehicle currently follows the platoon agreement.
    pub fn platoon_active(&self) -> bool {
        self.platoon_active
    }

    /// Mounts a learned self-awareness monitor beside the hand-written
    /// ones: each 1 Hz sampling instant the runner feeds the live signal
    /// vector to the model's online scorer, and threshold crossings raise
    /// [`AnomalyKind::ModelDeviation`] into the same coordinator
    /// escalation path the contract monitors use.
    pub fn mount_learned_monitor(&mut self, model: &SelfAwarenessModel) {
        self.learned = Some(model.scorer());
    }

    /// Applies one scripted disturbance to the affected layer, recording
    /// ramp starts in the scenario state.
    pub(crate) fn apply_event(&mut self, state: &mut ScenarioState, event: ScenarioEvent) {
        match event {
            ScenarioEvent::CompromiseRearBrake => {
                state.compromised = true;
            }
            ScenarioEvent::FogRamp { to, over } => {
                state.begin_fog_ramp(self.now, self.world.weather.fog, to, over);
            }
            ScenarioEvent::AmbientRamp { to_c, over } => {
                state.begin_ambient_ramp(self.now, self.platform.ambient_c(), to_c, over);
            }
            ScenarioEvent::RadarFault(fault) => {
                self.world.radar.set_fault(fault);
            }
        }
    }

    /// Applies the active environmental ramps for the current instant.
    pub(crate) fn update_ramps(&mut self, state: &ScenarioState) {
        if let Some(fog) = state.fog_at(self.now) {
            self.world.weather = Weather {
                fog,
                ..self.world.weather
            };
        }
        if let Some(ambient_c) = state.ambient_at(self.now) {
            self.platform.set_ambient_c(ambient_c);
        }
    }

    /// CAN traffic of one control cycle: radar status from VF0, brake
    /// command from VF1 (floods when compromised).
    pub(crate) fn pump_can_traffic(&mut self, state: &ScenarioState) {
        let radar_frame = {
            let range_cm = self
                .world
                .last_radar()
                .map(|r| (r.range_m * 100.0).clamp(0.0, 65_535.0) as u16)
                .unwrap_or(u16::MAX);
            CanFrame::data(FrameId::Standard(0x120), &range_cm.to_be_bytes()).expect("valid frame")
        };
        let virt = self.bus.node_mut(self.virt_node);
        let _ = virt.vf_send(VfId(0), radar_frame, self.now);
        // Brake command frame from the control VM.
        let brake_frame = CanFrame::data(FrameId::Standard(0x110), &[0, 0]).expect("valid frame");
        let _ = virt.vf_send(VfId(1), brake_frame, self.now);
        // The compromised rear-brake component floods spurious brake frames
        // and hammers services it has no capability for.
        if state.compromised && self.rte.state(self.brake_rear_comp) == ComponentState::Running {
            for i in 0..20u16 {
                let f = CanFrame::data(
                    FrameId::Standard(0x10F), // higher priority than legit traffic
                    &i.to_be_bytes(),
                )
                .expect("valid frame");
                let _ = self
                    .bus
                    .node_mut(self.virt_node)
                    .vf_send(VfId(1), f, self.now);
                // Known gap: the flood's rate anomaly is discarded, so it
                // never reaches the coordinator and detection rests on the
                // denied probe below. Routing it would change the pinned
                // outcomes.
                let _ = self
                    .access_mon
                    .observe_slot(self.brake_rear_can_tx, self.now);
            }
            // Capability probing (denied attempts show in the RTE log).
            let _ =
                self.rte
                    .open_session(self.brake_rear_comp, self.radar_service.clone(), self.now);
        } else {
            // Discarded like the flood's above (at the nominal 100/s this
            // channel never flags).
            let _ = self
                .access_mon
                .observe_slot(self.brake_rear_can_tx, self.now);
        }
        self.bus.advance(self.now);
    }

    /// Drains all monitors for this cycle, appending their anomalies to
    /// `anomalies` (a buffer the runner reuses across ticks).
    pub(crate) fn collect_anomalies(&mut self, anomalies: &mut Vec<Anomaly>) {
        // Execution monitoring from RTE job records, drained into a reused
        // buffer (the per-tick record traffic must not allocate).
        self.rte.drain_records_into(&mut self.job_records_buf);
        for rec in &self.job_records_buf {
            let slot = match self.task_slots.get(rec.task) {
                Some(slot) => slot,
                // A task renegotiation added mid-run, resolved once on its
                // first job.
                None => {
                    let slot = self.exec_mon.slot(self.rte.scheduler().task_name(rec.task));
                    self.task_slots.bind(rec.task, slot);
                    slot
                }
            };
            let job = JobTiming {
                at: rec.finish,
                exec_nominal: rec.exec_nominal,
                response: rec.response,
                deadline_met: rec.deadline_met,
            };
            self.exec_mon.observe_slot(slot, job, anomalies);
        }
        // Access monitoring from the RTE log, drained into a reused buffer.
        self.rte.drain_access_log_into(&mut self.access_log_buf);
        for ev in self.access_log_buf.iter().filter(|ev| !ev.allowed) {
            let names = &mut self.component_names;
            names.extend((names.len()..=ev.client.0).map(|id| Name::from(format!("comp{id}"))));
            anomalies.extend(self.access_mon.observe(&AccessObservation {
                at: ev.at,
                client: names[ev.client.0].clone(),
                service: ev.service.as_name().clone(),
                allowed: false,
            }));
        }
        // Radar quality from the functional level. A target beyond the
        // radar's clear-weather range yields no evidence either way ("no
        // target" is a valid answer); only missing detections of a target
        // that *should* be visible count as dropouts. The heartbeat models
        // the radar's status frames: present unless the sensor is dead.
        let expected_visible = self.world.gap_m() <= self.world.radar.max_range_m() * 0.9;
        if self.world.radar.fault() != SensorFault::Dead {
            self.radar_heartbeat.beat(self.now);
        }
        if let Some(reading) = self.world.last_radar() {
            let residual = reading.range_m - self.world.gap_m();
            if let Some(a) = self.radar_quality.observe(self.now, true, residual) {
                anomalies.push(a);
            }
        } else if expected_visible {
            if let Some(a) = self.radar_quality.observe(self.now, false, 0.0) {
                anomalies.push(a);
            }
        }
        if let Some(a) = self.radar_heartbeat.check(self.now) {
            anomalies.push(a);
        }
    }

    /// Maps a monitor anomaly to the layer whose self-awareness detected it
    /// and the problem class it represents.
    pub(crate) fn anomaly_to_problem(
        &self,
        state: &ScenarioState,
        anomaly: &Anomaly,
    ) -> (Layer, ProblemKind) {
        match anomaly.kind {
            AnomalyKind::ExecutionOverrun | AnomalyKind::DeadlineMiss => {
                // Thermal stress shows up as timing violations on a hot PE.
                if self.platform.pe(PeId(0)).temperature_c() > 80.0 {
                    (Layer::Platform, ProblemKind::ThermalStress)
                } else if state.compromised && anomaly.subject.contains("brake_rear") {
                    (Layer::Safety, ProblemKind::SecurityBreach)
                } else {
                    (Layer::Platform, ProblemKind::TimingViolation)
                }
            }
            AnomalyKind::AccessViolation | AnomalyKind::RateAnomaly => {
                (Layer::Communication, ProblemKind::SecurityBreach)
            }
            AnomalyKind::HeartbeatLoss => (Layer::Safety, ProblemKind::ComponentFailure),
            AnomalyKind::QualityDegraded | AnomalyKind::OutOfRange => {
                (Layer::Ability, ProblemKind::SensorDegradation)
            }
            // The learned monitor watches functional-level behaviour, so
            // its deviations surface at the ability layer (speed cap /
            // degraded-mode responses) and escalate from there.
            AnomalyKind::ModelDeviation => (Layer::Ability, ProblemKind::BehaviorDeviation),
            // Peer misbehavior is detected by the cooperation substrate
            // (trust collapse in the platoon negotiation) and contained at
            // the ability layer: eject the peer or leave the platoon.
            AnomalyKind::PeerMisbehavior => (Layer::Ability, ProblemKind::PeerMisbehavior),
        }
    }

    /// One containment attempt by `layer` — the concrete countermeasures of
    /// each layer, honoring the response strategy.
    pub(crate) fn contain(
        &mut self,
        state: &ScenarioState,
        layer: Layer,
        kind: ProblemKind,
        subject: &str,
    ) -> Containment {
        // Single-layer strategy: the origin layer always claims success.
        let single = self.strategy == ResponseStrategy::SingleLayer;
        match (layer, kind) {
            (Layer::Platform, ProblemKind::ThermalStress) => {
                // The throttle governor is already acting; that protects the
                // silicon but not the deadlines.
                if single {
                    Containment::Resolved {
                        action: "dvfs throttling".into(),
                    }
                } else {
                    Containment::Mitigated {
                        action: "dvfs throttling".into(),
                    }
                }
            }
            (Layer::Platform, ProblemKind::TimingViolation) => {
                if single {
                    Containment::Resolved {
                        action: "logged".into(),
                    }
                } else {
                    Containment::CannotHandle
                }
            }
            (Layer::Communication, ProblemKind::SecurityBreach) => {
                // Throttle the offending VF at the virtualization layer.
                let _ = self.bus.node_mut(self.virt_node).pf_set_vf_quota(
                    &self.pf,
                    VfId(1),
                    120.0,
                    10.0,
                );
                if single {
                    Containment::Resolved {
                        action: "vf quota".into(),
                    }
                } else {
                    Containment::Mitigated {
                        action: "vf quota".into(),
                    }
                }
            }
            (Layer::Safety, ProblemKind::SecurityBreach | ProblemKind::ComponentFailure) => {
                if subject.contains("brake_rear") || state.compromised {
                    self.post_standing(Layer::Safety, "brake_rear", Directive::Shutdown);
                    self.rte.quarantine(self.brake_rear_comp);
                    self.world.brakes.rear.set_enabled(false);
                    self.abilities.set_measured(self.nodes.brakes, 0.55);
                    if single {
                        Containment::Resolved {
                            action: "quarantine rear brake".into(),
                        }
                    } else {
                        // Rear braking capability is lost: the residual
                        // must be reassessed at the ability layer.
                        Containment::Mitigated {
                            action: "quarantine rear brake".into(),
                        }
                    }
                } else {
                    Containment::CannotHandle
                }
            }
            (Layer::Ability, ProblemKind::PeerMisbehavior) => {
                // Cooperative containment, reusing the one escalation
                // mechanism: under ObjectiveStop any distrusted peer aborts
                // the cooperative mission; otherwise the ability layer
                // either ejects the peer (platoon continues without it) or
                // — when the distrusted member is this vehicle — leaves the
                // platoon and falls back to standalone ACC.
                if self.strategy == ResponseStrategy::ObjectiveStop {
                    return Containment::CannotHandle;
                }
                let own = self
                    .member_id
                    .is_some_and(|m| crate::cosim::is_member_subject(subject, m));
                if own {
                    self.platoon_active = false;
                    Containment::Resolved {
                        action: "leave platoon, standalone ACC".into(),
                    }
                } else {
                    Containment::Resolved {
                        action: format!("eject {subject} from platoon").into(),
                    }
                }
            }
            (Layer::Ability, _) => {
                if self.strategy == ResponseStrategy::ObjectiveStop {
                    return Containment::CannotHandle;
                }
                self.abilities.propagate();
                let root = self.abilities.root_level();
                if root >= 0.3 {
                    if let Posting::Rejected { .. } =
                        self.post_standing(Layer::Ability, "vehicle", Directive::SpeedCap(15.0))
                    {
                        return Containment::CannotHandle;
                    }
                    self.world.allocator.set_speed_cap(Some(15.0));
                    self.world.allocator.prefer_regen = true;
                    // Relax the perception and control rates so the
                    // throttled PE can hold its deadlines again — at the
                    // capped speed the halved control rate is sufficient.
                    // The swap is proposed to the mounted MCC and applied
                    // only when the full viewpoint battery admits it.
                    let halved = kind == ProblemKind::ThermalStress
                        && !self.acc_reconfigured
                        && self.reconfig.live
                        && self.renegotiate_thermal();
                    let action = if halved {
                        "speed cap 15 m/s + regen braking + control rate halved"
                    } else {
                        "speed cap 15 m/s + regen braking"
                    };
                    Containment::Resolved {
                        action: action.into(),
                    }
                } else {
                    Containment::CannotHandle
                }
            }
            (Layer::Objective, _) => {
                self.post_standing(Layer::Objective, "vehicle", Directive::SafeStop);
                self.world.command_safe_stop();
                self.mode.commit_safe_stop();
                Containment::Resolved {
                    action: "safe stop".into(),
                }
            }
            _ => Containment::CannotHandle,
        }
    }

    /// Posts a directive that stays in force once accepted. Escalation
    /// storms repeat the same containment many times a second; when
    /// `layer` already holds `directive` for `subject`, re-posting would
    /// only append a duplicate (the vehicle never posts the `KeepAlive`
    /// that could conflict with it), so the post is skipped.
    fn post_standing(&mut self, layer: Layer, subject: &str, directive: Directive) -> Posting {
        if self.board.holds(layer, subject, &directive) {
            return Posting::Accepted;
        }
        self.board.post(layer, subject, directive)
    }

    /// One thermal renegotiation attempt through the mounted MCC. Returns
    /// whether a lowrate configuration was admitted and applied; switch
    /// outcomes (including viewpoint rejections) accumulate in
    /// `switch_events` for the runner to record as telemetry.
    fn renegotiate_thermal(&mut self) -> bool {
        let pe0 = self.platform.pe(PeId(0));
        let pressure = Pressure {
            kind: PressureKind::Thermal,
            temperature_c: pe0.temperature_c(),
            deadline_miss_ratio: self.exec_mon.miss_ratio("acc_ctl"),
            throttle_events: pe0.throttle_events(),
        };
        let outcome = self
            .renegotiator
            .respond(&pressure)
            .expect("registered plans are well-formed against the baseline");
        match outcome {
            NegotiationOutcome::Accepted { .. } => {
                self.apply_admitted_swap();
                true
            }
            NegotiationOutcome::FallbackAccepted { .. } => {
                self.switch_events.push(SwitchOutcome::Rejected);
                self.apply_admitted_swap();
                true
            }
            NegotiationOutcome::Rejected { .. } => {
                self.switch_events.push(SwitchOutcome::Rejected);
                false
            }
            NegotiationOutcome::NoPlan => false,
        }
    }

    /// Applies the admitted lowrate candidate to the execution domain: the
    /// full-rate tasks park, the half-rate tasks run (re-activated when a
    /// previous switch already installed them), and the exec-monitor
    /// contract table is re-derived from the MCC's current configuration —
    /// the one source of truth for every duration.
    fn apply_admitted_swap(&mut self) {
        self.rte.scheduler_mut().set_active(self.acc_task, false);
        self.rte
            .scheduler_mut()
            .set_active(self.perception_task, false);
        if let Some((perception, acc)) = self.lowrate_tasks {
            self.rte.scheduler_mut().set_active(perception, true);
            self.rte.scheduler_mut().set_active(acc, true);
        } else {
            let current = self.renegotiator.mcc().current();
            let perception_ct =
                contracts::task_contract(current, "acc_controller_lowrate", "perception_lowrate")
                    .clone();
            let acc_ct =
                contracts::task_contract(current, "acc_controller_lowrate", "acc_ctl_lowrate")
                    .clone();
            let comp = self
                .rte
                .component_by_name("acc_controller")
                .expect("installed");
            let perception = self
                .rte
                .add_task(
                    TaskSpec::periodic(
                        "perception_lowrate",
                        comp,
                        perception_ct.period,
                        perception_ct.wcet,
                        Priority(perception_ct.priority),
                    )
                    .with_exec_fraction(0.75, 0.95),
                )
                .expect("valid task");
            let acc = self
                .rte
                .add_task(
                    TaskSpec::periodic(
                        "acc_ctl_lowrate",
                        comp,
                        acc_ct.period,
                        acc_ct.wcet,
                        Priority(acc_ct.priority),
                    )
                    .with_exec_fraction(0.7, 0.95),
                )
                .expect("valid task");
            self.lowrate_tasks = Some((perception, acc));
        }
        for (task, wcet) in contracts::monitored_contracts(self.renegotiator.mcc().current()) {
            self.exec_mon.set_contract(task, wcet);
        }
        self.acc_reconfigured = true;
        self.switch_events.push(SwitchOutcome::Accepted);
    }

    /// The 1 Hz rollback hook: once the die has cooled below the
    /// scenario's rollback threshold *and* the throttle governor has
    /// stepped back to the nominal OPP, the admitted switch is revoked
    /// through the MCC, the full-rate tasks resume, the monitor table is
    /// re-derived from the restored configuration and the mitigation
    /// (speed cap, regen preference) is lifted. Returns whether a rollback
    /// happened.
    ///
    /// Waiting for the governor matters: the die cools below the threshold
    /// well before the OPP ladder recovers, and full-rate contracts on a
    /// still-throttled PE are exactly the infeasible configuration the
    /// switch was admitted to escape.
    pub(crate) fn maybe_rollback(&mut self) -> bool {
        let Some(threshold_c) = self.reconfig.rollback_below_c else {
            return false;
        };
        if !self.acc_reconfigured
            || self.platform.pe(PeId(0)).temperature_c() >= threshold_c
            || self.platform.pe(PeId(0)).speed_factor() > 1.0
        {
            return false;
        }
        self.renegotiator
            .rollback()
            .expect("a committed switch precedes acc_reconfigured");
        if let Some((perception, acc)) = self.lowrate_tasks {
            self.rte.scheduler_mut().set_active(perception, false);
            self.rte.scheduler_mut().set_active(acc, false);
        }
        self.rte.scheduler_mut().set_active(self.acc_task, true);
        self.rte
            .scheduler_mut()
            .set_active(self.perception_task, true);
        for (task, wcet) in contracts::monitored_contracts(self.renegotiator.mcc().current()) {
            self.exec_mon.set_contract(task, wcet);
        }
        self.world.allocator.set_speed_cap(None);
        self.world.allocator.prefer_regen = false;
        self.acc_reconfigured = false;
        self.switch_events.push(SwitchOutcome::RolledBack);
        true
    }
}
