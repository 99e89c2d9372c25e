//! The fleet's shard executor: scoped worker threads over a fixed job
//! list, with work stealing.
//!
//! The executor preserves the determinism contract the fleet proptests
//! pin: results land in fixed per-job slots, so the output vector is in
//! job order and bit-identical regardless of worker count or which worker
//! happened to execute which job. Scheduling only decides *who* runs a
//! job, never *what* the job computes — every job is seeded before
//! execution starts.
//!
//! The job range is partitioned into one contiguous shard per worker,
//! each with an atomic cursor. A worker drains its own shard, then
//! repeatedly steals from the shard with the most work remaining — so a
//! skewed mix (one 60 s city run amid 10 s solo runs) does not leave the
//! other workers idle behind the long job's shard.
//!
//! With one worker (e.g. `SAAV_THREADS=1`) no thread is spawned at all:
//! the jobs run as a plain inline loop on the calling thread.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One worker's contiguous shard of a job range (balanced split): jobs
/// `w * jobs / workers .. (w + 1) * jobs / workers`.
fn shard_range(jobs: usize, workers: usize, w: usize) -> (usize, usize) {
    (w * jobs / workers, (w + 1) * jobs / workers)
}

/// One contiguous shard of the job range with an atomic claim cursor.
/// Owned by one worker, stolen from by the rest once their own shards
/// drain.
struct Shard {
    cursor: AtomicUsize,
    end: usize,
}

impl Shard {
    /// A shard over `start..end`.
    fn new(start: usize, end: usize) -> Self {
        Shard {
            cursor: AtomicUsize::new(start),
            end,
        }
    }

    /// Claims the next job index, or `None` once the shard is drained.
    /// The cursor may overshoot `end` under contention; overshoot never
    /// yields a job.
    fn claim(&self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.end).then_some(i)
    }

    /// Jobs not yet claimed (racy by nature — a scheduling hint only).
    fn remaining(&self) -> usize {
        self.end.saturating_sub(self.cursor.load(Ordering::Relaxed))
    }
}

/// The shard with the most jobs remaining, if any shard has work left.
fn richest(shards: &[Shard]) -> Option<usize> {
    let mut best = None;
    let mut best_left = 0;
    for (i, s) in shards.iter().enumerate() {
        let left = s.remaining();
        if left > best_left {
            best_left = left;
            best = Some(i);
        }
    }
    best
}

/// Drains shards from the perspective of worker `home`: claim from the
/// home shard until empty, then repeatedly steal from the richest
/// remaining shard. `job` receives `(job_index, was_stolen)` — stolen
/// means claimed from a shard other than `home`.
fn drain(shards: &[Shard], home: usize, mut job: impl FnMut(usize, bool)) {
    let mut shard = home;
    loop {
        match shards[shard].claim() {
            Some(i) => job(i, shard != home),
            // Shard drained (or a race took its last job): move to the
            // fullest remaining shard.
            None => match richest(shards) {
                Some(victim) => shard = victim,
                None => break,
            },
        }
    }
}

/// Executes `jobs` indexed jobs on `workers` threads, returning the
/// results in job order. The closure receives `(job_index,
/// worker_index)`; the worker index exists so callers can observe the
/// actual job→worker assignment.
///
/// `workers` is clamped to `1..=jobs`; with one worker everything runs
/// inline on the calling thread with no spawn and no slot locking.
///
/// When `steals` is provided, every job a worker executes from a shard
/// other than its own adds one to the counter (each worker accumulates
/// locally and flushes once at exit, so the hot loop touches no shared
/// cache line). Steal counts are genuine scheduling noise — they vary
/// run to run — which is why they surface only through this counter and
/// never through the deterministic results. With one worker nothing can
/// be stolen and the counter is never incremented.
pub fn run<T, F>(jobs: usize, workers: usize, steals: Option<&AtomicU64>, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, jobs);
    if workers == 1 {
        return (0..jobs).map(|i| job(i, 0)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let store = |i: usize, w: usize| {
        *slots[i].lock().expect("worker never panics holding a slot") = Some(job(i, w));
    };
    let shards: Vec<Shard> = (0..workers)
        .map(|w| {
            let (start, end) = shard_range(jobs, workers, w);
            Shard::new(start, end)
        })
        .collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let store = &store;
            let shards = &shards;
            scope.spawn(move || {
                let mut stolen: u64 = 0;
                drain(shards, w, |i, stole| {
                    if stole {
                        stolen += 1;
                    }
                    store(i, w);
                });
                if stolen > 0 {
                    if let Some(counter) = steals {
                        counter.fetch_add(stolen, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock not poisoned")
                .expect("every job slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn empty_job_list_yields_empty_results() {
        let out: Vec<u32> = run(0, 4, None, |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let out = run(5, 1, None, |i, w| {
            assert_eq!(std::thread::current().id(), caller, "job {i} not inline");
            (i, w)
        });
        assert_eq!(out, vec![(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]);
    }

    #[test]
    fn results_are_in_job_order_at_any_worker_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = run(37, workers, None, |i, w| {
                assert!(w < workers.min(37), "worker index {w} out of range");
                i * i
            });
            assert_eq!(out, expected, "{workers} workers");
        }
    }

    #[test]
    fn shard_ranges_partition_the_job_range() {
        for jobs in [1usize, 7, 16, 27, 100] {
            for workers in 1..=8 {
                let mut covered = 0;
                for w in 0..workers {
                    let (start, end) = shard_range(jobs, workers, w);
                    assert_eq!(start, covered, "gap before shard {w}");
                    covered = end;
                }
                assert_eq!(covered, jobs);
            }
        }
    }

    #[test]
    fn drain_visits_every_job_exactly_once() {
        let shards: Vec<Shard> = (0..4)
            .map(|w| {
                let (s, e) = shard_range(37, 4, w);
                Shard::new(s, e)
            })
            .collect();
        let mut seen = vec![0u32; 37];
        let mut steals = 0;
        drain(&shards, 2, |i, stolen| {
            seen[i] += 1;
            if stolen {
                steals += 1;
            }
        });
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        // A lone drainer steals everything outside its home shard.
        let (home_start, home_end) = shard_range(37, 4, 2);
        assert_eq!(steals, 37 - (home_end - home_start));
    }

    #[test]
    fn idle_workers_steal_from_a_slow_shard() {
        // Worker 0's shard (jobs 0..8) is slow; worker 1's (8..16) is
        // instant. Worker 1 must finish its own shard and steal — so at
        // least one slow job is executed by a worker other than 0.
        let executed_by = run(16, 2, None, |i, w| {
            if i < 8 {
                std::thread::sleep(Duration::from_millis(20));
            }
            w
        });
        assert!(
            executed_by[..8].iter().any(|&w| w != 0),
            "no slow job was stolen: {executed_by:?}"
        );
    }

    #[test]
    fn steal_counter_counts_cross_shard_jobs_only() {
        // A slow front shard forces the fast worker to steal.
        let steals = AtomicU64::new(0);
        let executed_by = run(16, 2, Some(&steals), |i, w| {
            if i < 8 {
                std::thread::sleep(Duration::from_millis(20));
            }
            w
        });
        let cross_shard = executed_by[..8].iter().filter(|&&w| w != 0).count()
            + executed_by[8..].iter().filter(|&&w| w != 1).count();
        assert_eq!(steals.load(Ordering::Relaxed), cross_shard as u64);
        assert!(cross_shard > 0, "no steal happened: {executed_by:?}");
    }

    #[test]
    fn single_worker_never_steals() {
        let steals = AtomicU64::new(0);
        run(16, 1, Some(&steals), |_, _| ());
        assert_eq!(steals.load(Ordering::Relaxed), 0, "inline loop stole");
    }
}
