//! # saav-bench — the experiment harness
//!
//! Regenerates every table/figure-level claim of Schlatow et al. (DATE
//! 2017), plus the experiments that pin the engine grown around it:
//!
//! | id | module | claim |
//! |----|--------|-------|
//! | E1 | [`exp_can`] | virtualized CAN adds ≈7–11 µs round trip, near-native throughput |
//! | E2 | [`exp_can`] | FPGA break-even with stand-alone controllers at 4 VMs |
//! | E3 | [`exp_monitor`] | monitoring adds little interference, detects overruns |
//! | E4 | [`exp_mcc`] | MCC viewpoints accept/reject the right updates |
//! | E5 | [`exp_skills`] | ability graph outdetects SAFER/RACE baselines |
//! | E6 | [`exp_scenarios`] | intrusion response strategies trade availability vs risk |
//! | E7 | [`exp_scenarios`] | thermal chain; cross-layer handling restores deadlines |
//! | E8/E9 | [`exp_platoon`] | Byzantine platoon agreement; risk-aware routing |
//! | E10 | [`exp_propagation`] | propagation terminates; layer distribution |
//! | E11 | [`exp_fleet`] | fleet sweep: scenario library x strategies, fleet statistics |
//! | E12 | [`exp_learn`] | learned self-awareness: train on nominal fleet runs, score online, compare to contracts |
//! | E13 | [`exp_cosim`] | platoon co-simulation: V2V negotiation, trust-based ejection, cooperative containment |
//! | E14 | [`exp_city`] | city-scale tiered fidelity: focal detection latency invariant as background density grows 0 → 1,000 |
//! | E15 | [`exp_fleet`] | memoized fleet engine: a warm sweep is pure cache traffic with identical statistics; columnar group-by queries |
//! | E16 | [`exp_obs`] | engine telemetry: virtual-time escalation traces per subsystem, bit-identical across reruns and thread counts |
//! | E17 | [`exp_dynamic`] | live contract renegotiation: MCC-admitted switch, viewpoint rejection with fallback, rollback; fleet-level budget renegotiation |
//! | A1–A3 | various | ablations (aggregation op, policy, sampling period) |
//!
//! Run `cargo run -p saav-bench --bin repro -- all` to print everything.
//! `--threads N` (or the `SAAV_THREADS` env var) pins the fleet worker
//! count for the sweep experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp_can;
pub mod exp_city;
pub mod exp_cosim;
pub mod exp_dynamic;
pub mod exp_fleet;
pub mod exp_learn;
pub mod exp_mcc;
pub mod exp_monitor;
pub mod exp_obs;
pub mod exp_platoon;
pub mod exp_propagation;
pub mod exp_scenarios;
pub mod exp_skills;
