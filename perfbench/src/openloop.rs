//! Open-loop arithmetic: which requests are due, and latency timed from
//! when a request was *due*, so a stalled generator's lateness lands on
//! the requests it delayed.

use std::time::Duration;

/// One scheduled request: due `due` after the schedule's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    pub due: Duration,
    pub action: u32,
    pub key: u64,
}

/// End of the batch of requests due at `now`: every request from `next`
/// on whose due time has passed, at most `max` of them.
pub fn due_batch(schedule: &[Due], next: usize, now: Duration, max: usize) -> usize {
    let limit = schedule.len().min(next + max);
    let mut end = next;
    while end < limit && schedule[end].due <= now {
        end += 1;
    }
    end
}

/// How late the generator sent a request: `sent − due`.
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

/// Latency of a request as its user sees it: from when it was due until
/// the client saw its completion, so time the generator spent stalled
/// counts against every request it held back.
pub fn latency_from_due(due: Duration, seen: Duration) -> Duration {
    seen.saturating_sub(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn due_batch_takes_only_due_requests_up_to_the_burst_size() {
        let s: Vec<Due> = (0..10)
            .map(|i| Due {
                due: ms(i),
                action: 0,
                key: i,
            })
            .collect();
        assert_eq!(due_batch(&s, 0, ms(3), 64), 4);
        assert_eq!(due_batch(&s, 4, ms(3), 64), 4);
        assert_eq!(due_batch(&s, 0, ms(100), 4), 4);
        assert_eq!(due_batch(&s, 8, ms(100), 64), 10);
    }

    #[test]
    fn stalled_generator_charges_its_lateness_to_the_held_requests() {
        // Requests due at 0, 1, 2, 3 ms; the generator stalls until
        // 5 ms and then sends all four in one burst; each is served
        // 1 ms after it is sent.
        let s: Vec<Due> = (0..4)
            .map(|i| Due {
                due: ms(i),
                action: 0,
                key: i,
            })
            .collect();
        let sent = ms(5);
        let end = due_batch(&s, 0, sent, 64);
        assert_eq!(end, 4);
        let seen = sent + ms(1);
        let late: Vec<_> = s.iter().map(|r| lateness(r.due, sent)).collect();
        let lat: Vec<_> = s.iter().map(|r| latency_from_due(r.due, seen)).collect();
        assert_eq!(late, vec![ms(5), ms(4), ms(3), ms(2)]);
        assert_eq!(lat, vec![ms(6), ms(5), ms(4), ms(3)]);
        // Timed from sending, every request would read 1 ms and the
        // stall would vanish from the latency.
        assert!(lat.iter().all(|&l| l > seen - sent));
        // A request sent early (clock skew) is not negatively late.
        assert_eq!(lateness(ms(7), ms(5)), Duration::ZERO);
    }
}
