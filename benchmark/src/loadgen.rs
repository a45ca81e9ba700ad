//! The load generator: one thread per connection, at most two.
//!
//! Callers that wait for their reply are a **closed loop**: a connection
//! sends its next request when the previous reply arrived, so a slow
//! server receives less load. Independent arrivals are an **open loop**:
//! request `k` is due `k / rate` after the start whatever the server does,
//! and its latency is charged from that due time, which counts the wait a
//! stall imposes on the requests behind it. How late the generator itself
//! ran is reported beside it.

use std::time::{Duration, Instant};

/// One request as the generator saw it.
pub struct Done {
    pub index: usize,
    /// When the request should have been sent (equals `sent` in a closed loop).
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub reply: Result<Vec<u8>, String>,
}

impl Done {
    /// Latency from the due time, in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e6
    }

    /// How late the generator sent it, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Sends requests `first..first + count`, request `first + k` on
/// connection `k % conns.len()`. A connection is a closure that sends
/// request `index` and returns the reply body, or why the request failed
/// (transport error, status other than 200). With a `rate` (requests per second over
/// all connections) the loop is open, without one it is closed. Returns
/// the requests in index order and the wall time of the phase.
pub fn drive<C: FnMut(usize) -> Result<Vec<u8>, String> + Send>(
    conns: &mut [C],
    first: usize,
    count: usize,
    rate: Option<f64>,
) -> (Vec<Done>, f64) {
    let n = conns.len();
    let start = Instant::now();
    let mut all: Vec<Done> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(count / n + 1);
                    for k in (c..count).step_by(n) {
                        let due = match rate {
                            Some(r) => {
                                let due = start + Duration::from_secs_f64(k as f64 / r);
                                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                                due
                            }
                            None => Instant::now(),
                        };
                        let sent = if rate.is_some() { Instant::now() } else { due };
                        let reply = conn(first + k);
                        out.push(Done {
                            index: first + k,
                            due,
                            sent,
                            done: Instant::now(),
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a load-generator thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    all.sort_by_key(|d| d.index);
    (all, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stub server that answers in 1 ms, except request 0, which stalls.
    fn stalling(stall: Duration) -> impl FnMut(usize) -> Result<Vec<u8>, String> + Send {
        move |i| {
            std::thread::sleep(if i == 0 {
                stall
            } else {
                Duration::from_millis(1)
            });
            Ok(vec![i as u8])
        }
    }

    #[test]
    fn open_loop_charges_latency_from_the_due_time() {
        // 100 req/s on one connection: request 1 is due at 10 ms but the
        // connection is stuck behind request 0 until 40 ms.
        let mut conns = [stalling(Duration::from_millis(40))];
        let (done, wall) = drive(&mut conns, 0, 6, Some(100.0));
        assert_eq!(
            done.iter().map(|d| d.index).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4, 5]
        );
        assert!(done[1].latency_us() >= 30_000.0, "{}", done[1].latency_us());
        assert!(done[1].late_ms() >= 29.0, "{}", done[1].late_ms());
        let service_us = done[1].done.duration_since(done[1].sent).as_secs_f64() * 1e6;
        assert!(
            service_us < 20_000.0,
            "the stall is queueing, not service: {service_us}"
        );
        let late_max = done.iter().map(Done::late_ms).fold(0.0, f64::max);
        assert!(late_max >= 29.0);
        // The backlog drains: the last request is sent on time again.
        assert!(done[5].late_ms() < 5.0, "{}", done[5].late_ms());
        assert!(wall >= 0.05);
        assert_eq!(done[3].reply, Ok(vec![3]));
    }

    #[test]
    fn closed_loop_has_no_due_time_and_keeps_failures() {
        let mut conns = [
            stalling(Duration::from_millis(20)),
            stalling(Duration::ZERO),
        ];
        let (done, _) = drive(&mut conns, 10, 8, None);
        assert_eq!(done.len(), 8);
        assert_eq!(done[0].index, 10);
        // No due time in a closed loop: latency is service time alone.
        assert!(done.iter().all(|d| d.late_ms() == 0.0));
        assert!(done.iter().all(|d| d.latency_us() < 15_000.0));
        let failing = |_: usize| -> Result<Vec<u8>, String> { Err("status 503".into()) };
        let (failed, _) = drive(&mut [failing], 0, 2, None);
        assert!(failed.iter().all(|d| d.reply.is_err()));
    }
}
