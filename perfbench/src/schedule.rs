//! The open-loop arrival schedule.
//!
//! Requests arrive at a fixed offered rate regardless of how fast
//! replies come back, so queueing shows up as latency instead of
//! silently slowing the generator down (the coordinated-omission trap
//! of closed-loop clients). Arrivals are evenly spaced and dealt to the
//! connections round robin; latency is timed from each request's due
//! time, not from when the client got round to sending it.

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Due time, nanoseconds after the phase starts.
    pub due_ns: u64,
    /// Index of the connection that sends it.
    pub conn: usize,
}

/// `floor(rate · seconds)` arrivals at `rate_per_s`, evenly spaced from
/// `t = 0`, dealt round robin over `connections`.
pub fn open_loop(rate_per_s: f64, seconds: f64, connections: usize) -> Vec<Slot> {
    assert!(
        rate_per_s > 0.0 && seconds > 0.0,
        "schedule: rate and duration must be positive"
    );
    assert!(connections > 0, "schedule: need at least one connection");
    let count = (rate_per_s * seconds).floor() as usize;
    let gap_ns = 1e9 / rate_per_s;
    (0..count)
        .map(|i| Slot {
            due_ns: (i as f64 * gap_ns).round() as u64,
            conn: i % connections,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_spacing_follow_the_rate() {
        let s = open_loop(100.0, 2.5, 2);
        assert_eq!(s.len(), 250);
        assert_eq!(s[0].due_ns, 0);
        assert_eq!(s[1].due_ns, 10_000_000);
        assert_eq!(s[249].due_ns, 2_490_000_000);
        assert!(s.windows(2).all(|w| w[1].due_ns > w[0].due_ns));
    }

    #[test]
    fn connections_alternate() {
        let s = open_loop(300.0, 1.0, 3);
        assert!(s.iter().enumerate().all(|(i, slot)| slot.conn == i % 3));
        let per_conn: Vec<usize> = (0..3)
            .map(|c| s.iter().filter(|slot| slot.conn == c).count())
            .collect();
        assert_eq!(per_conn, vec![100, 100, 100]);
    }

    #[test]
    fn fractional_rates_do_not_drift() {
        // 3 arrivals per second: the 30th lands at 10 s, not 9.99 s.
        let s = open_loop(3.0, 10.5, 1);
        assert_eq!(s.len(), 31);
        assert_eq!(s[30].due_ns, 10_000_000_000);
    }
}
