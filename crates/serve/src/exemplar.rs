//! Tail-based exemplar retention: a bounded ring keeping the complete
//! span trees and task events of the N slowest requests plus every
//! error request, dumpable live through the `exemplars` protocol verb.
//!
//! Tail sampling decides *after* a request finishes whether it is worth
//! keeping — the interesting tail (slow and failed requests) is
//! retained in full while the fast bulk is dropped, so memory stays
//! bounded no matter the traffic. Slow exemplars use min-replacement:
//! a finished request only displaces the current fastest "slow"
//! exemplar when it is slower, so under steady load the ring converges
//! to the true slowest-N. Error exemplars keep a separate FIFO bound so
//! a burst of failures cannot evict the latency tail (and vice versa).

use std::collections::VecDeque;
use std::sync::Mutex;

use scorpio_obs::{TaskEvent, TraceEvent};

/// Everything retained about one request: identity, outcome, and the
/// captured span tree / task events.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The request's trace id (always nonzero for served requests).
    pub trace_id: u64,
    /// Kernel catalogue name (`"-"` for requests that never resolved
    /// one, e.g. malformed analyze lines).
    pub kernel: &'static str,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Whether the compiled trace came from the tape cache.
    pub cached: bool,
    /// Service latency in nanoseconds (the retention key).
    pub latency_ns: u64,
    /// Completion time, nanoseconds since server start.
    pub end_t_ns: u64,
    /// The request's captured spans (parse → cache lookup → analyze →
    /// classify → serialize), in completion order.
    pub spans: Vec<TraceEvent>,
    /// The request's captured events (its `taskwait` summary row).
    pub events: Vec<TaskEvent>,
}

/// The bounded tail-exemplar ring; see the [module](self) docs.
#[derive(Debug)]
pub struct ExemplarRing {
    slow_cap: usize,
    error_cap: usize,
    inner: Mutex<Rings>,
}

#[derive(Debug, Default)]
struct Rings {
    /// Slowest successful requests (unordered; min-replaced).
    slow: Vec<Exemplar>,
    /// Most recent failed requests (FIFO).
    errors: VecDeque<Exemplar>,
    /// Successful exemplars offered but not retained (faster than the
    /// current slowest-N).
    passed: u64,
}

impl ExemplarRing {
    /// A ring retaining at most `slow_cap` slow and `error_cap` error
    /// exemplars.
    pub fn new(slow_cap: usize, error_cap: usize) -> ExemplarRing {
        ExemplarRing {
            slow_cap: slow_cap.max(1),
            error_cap: error_cap.max(1),
            inner: Mutex::new(Rings::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Rings> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Offers a finished request. Errors are always retained (oldest
    /// error evicted past the bound); successes are retained while the
    /// slow ring has room, then only when slower than its current
    /// fastest member.
    pub fn offer(&self, exemplar: Exemplar) {
        let mut rings = self.lock();
        if !exemplar.ok {
            rings.errors.push_back(exemplar);
            if rings.errors.len() > self.error_cap {
                rings.errors.pop_front();
            }
            return;
        }
        if rings.slow.len() < self.slow_cap {
            rings.slow.push(exemplar);
            return;
        }
        let (min_i, min_ns) = rings
            .slow
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.latency_ns))
            .min_by_key(|&(_, ns)| ns)
            .expect("slow ring non-empty at capacity");
        if exemplar.latency_ns > min_ns {
            rings.slow[min_i] = exemplar;
        } else {
            rings.passed += 1;
        }
    }

    /// Clones out every retained exemplar: errors newest-first, then
    /// slow successes sorted slowest-first.
    pub fn snapshot(&self) -> Vec<Exemplar> {
        let rings = self.lock();
        let mut out: Vec<Exemplar> = rings.errors.iter().rev().cloned().collect();
        let mut slow: Vec<Exemplar> = rings.slow.clone();
        slow.sort_by_key(|e| std::cmp::Reverse(e.latency_ns));
        out.extend(slow);
        out
    }

    /// Successful requests offered but not retained.
    pub fn passed(&self) -> u64 {
        self.lock().passed
    }

    /// `(slow, errors)` currently retained.
    pub fn len(&self) -> (usize, usize) {
        let rings = self.lock();
        (rings.slow.len(), rings.errors.len())
    }

    /// `true` when nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        let (s, e) = self.len();
        s == 0 && e == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(trace_id: u64, ok: bool, latency_ns: u64) -> Exemplar {
        Exemplar {
            trace_id,
            kernel: "maclaurin",
            ok,
            cached: false,
            latency_ns,
            end_t_ns: latency_ns,
            spans: Vec::new(),
            events: Vec::new(),
        }
    }

    #[test]
    fn slow_ring_converges_to_slowest_n() {
        let ring = ExemplarRing::new(3, 2);
        for (id, ns) in [(1, 50), (2, 10), (3, 40), (4, 90), (5, 20), (6, 70)] {
            ring.offer(ex(id, true, ns));
        }
        let ids: Vec<u64> = ring.snapshot().iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![4, 6, 1], "slowest three, slowest first");
        assert_eq!(ring.passed(), 1, "only the 20ns offer passed outright");
    }

    #[test]
    fn errors_keep_their_own_fifo_bound() {
        let ring = ExemplarRing::new(1, 2);
        ring.offer(ex(1, true, 5));
        for id in 10..14 {
            ring.offer(ex(id, false, 1));
        }
        let snap = ring.snapshot();
        let errors: Vec<u64> = snap
            .iter()
            .filter(|e| !e.ok)
            .map(|e| e.trace_id)
            .collect();
        assert_eq!(errors, vec![13, 12], "two newest errors, newest first");
        assert!(
            snap.iter().any(|e| e.ok && e.trace_id == 1),
            "error burst must not evict the latency tail"
        );
    }
}
