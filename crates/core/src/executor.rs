//! The fleet's job queue: scoped worker threads over a fixed job list,
//! sharing one claim cursor.
//!
//! The executor preserves the determinism contract the fleet proptests
//! pin: results land in fixed per-job slots, so the output vector is in
//! job order and bit-identical regardless of worker count or which worker
//! happened to execute which job. Scheduling only decides *who* runs a
//! job, never *what* the job computes — every job is seeded before
//! execution starts.
//!
//! Every worker claims the next unclaimed job index from one atomic
//! cursor until it passes the job count, so a long job holds up only the
//! worker running it: the others keep claiming the jobs behind it.
//!
//! With one worker (e.g. `SAAV_THREADS=1`) no thread is spawned at all:
//! the jobs run as a plain inline loop on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Executes `jobs` indexed jobs on `workers` threads, returning the
/// results in job order. The closure receives the job index.
///
/// `workers` is clamped to `1..=jobs`; with one worker everything runs
/// inline on the calling thread with no spawn and no slot locking.
pub fn run<T: Send>(jobs: usize, workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.min(jobs);
    if workers <= 1 {
        return (0..jobs).map(job).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Relaxed: the cursor publishes no data, it only hands each
                // index out once. Results travel through the slot locks
                // and the scope's join.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let result = job(i);
                *slots[i].lock().expect("worker never panics holding a slot") = Some(result);
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
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn empty_job_list_yields_empty_results() {
        let out: Vec<u32> = run(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let out = run(5, 1, |i| {
            assert_eq!(std::thread::current().id(), caller, "job {i} not inline");
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn results_are_in_job_order_at_any_worker_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(run(37, workers, |i| i * i), expected, "{workers} workers");
        }
    }

    #[test]
    fn a_blocked_job_does_not_hold_back_the_jobs_behind_it() {
        // Job 0 blocks until each of the 15 jobs behind it has run, so the
        // batch finishes only if the other worker claims all of them.
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let out = run(16, 2, |i| {
            if i > 0 {
                return tx.send(()).is_ok();
            }
            let rx = rx.lock().expect("one receiver");
            (1..16).all(|_| rx.recv_timeout(Duration::from_secs(60)).is_ok())
        });
        assert!(out.iter().all(|&ok| ok), "a job behind job 0 never ran");
    }
}
