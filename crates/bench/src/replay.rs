//! Deterministic virtual-time schedule replay, shared by the bench
//! emitters.
//!
//! On a single-core CI host, wall time cannot distinguish schedulers or
//! thread counts — every width degenerates to the sequential wall. The
//! bench gates therefore follow a calibrate-then-replay methodology:
//! per-unit costs are measured once single-threaded (where they are
//! exact), then the parallel schedule is replayed over those costs in
//! virtual time, mirroring the runtime's actual policy. The replayed
//! makespans are deterministic and host-independent; measured walls ride
//! along as informational fields.
//!
//! [`simulate_schedule`] replays the shard executor's policy (balanced
//! contiguous shards, drain in order, steal from the richest) for
//! `fleet_bench`'s scheduling gate.

/// Replays a schedule over calibrated per-job costs in virtual time,
/// mirroring the shard executor's policy exactly: each worker owns the
/// balanced contiguous shard `[w*n/W, (w+1)*n/W)`, drains it in order,
/// and — when stealing — continues with the front job of whichever shard
/// has the most jobs remaining. Returns the makespan (the latest worker
/// finish time).
pub fn simulate_schedule(costs_s: &[f64], workers: usize, steal: bool) -> f64 {
    let n = costs_s.len();
    let workers = workers.clamp(1, n.max(1));
    let mut cursor: Vec<usize> = (0..workers).map(|w| w * n / workers).collect();
    let end: Vec<usize> = (0..workers).map(|w| (w + 1) * n / workers).collect();
    let mut clock = vec![0.0f64; workers];
    let mut done = vec![false; workers];
    // The idle worker that frees up first acts next.
    while let Some(w) = (0..workers)
        .filter(|&w| !done[w])
        .min_by(|&a, &b| clock[a].total_cmp(&clock[b]))
    {
        let shard = if cursor[w] < end[w] {
            Some(w)
        } else if steal {
            (0..workers)
                .filter(|&v| cursor[v] < end[v])
                .max_by_key(|&v| end[v] - cursor[v])
        } else {
            None
        };
        match shard {
            Some(v) => {
                clock[w] += costs_s[cursor[v]];
                cursor[v] += 1;
            }
            None => done[w] = true,
        }
    }
    clock.iter().cloned().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_makespan_is_the_sum() {
        let costs = [3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(simulate_schedule(&costs, 1, false), 14.0);
        assert_eq!(simulate_schedule(&costs, 1, true), 14.0);
    }

    #[test]
    fn stealing_beats_static_on_a_skewed_mix() {
        // One heavy job leading seven light ones: static chunking strands
        // the heavy worker's blockmates behind it.
        let costs = [8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let static_ms = simulate_schedule(&costs, 4, false);
        let steal_ms = simulate_schedule(&costs, 4, true);
        assert!(steal_ms < static_ms, "{steal_ms} !< {static_ms}");
        // The heavy job bounds the makespan either way.
        assert!(steal_ms >= 8.0);
    }
}
