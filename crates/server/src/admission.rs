//! Admission: the bounded queue a request that needs the writer joins,
//! and the leader hand-off over it (see "Who writes" and "When a group
//! closes" in the crate docs).

use crate::ServeConfig;
use quasii_common::geom::Aabb;
use quasii_obs as obs;
use quasii_obs::registry::server_stage;
use quasii_obs::Stage;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The query count at which a leader stops taking slots into its group. A
/// slot is taken whole, so a group that ends with a large client batch
/// holds more.
const MAX_GROUP: usize = 64;

/// What one request gets back: its per-query canonical id vectors, or the
/// message of the 503 that answers it.
pub(crate) type Reply = Result<Vec<Vec<u64>>, String>;

/// What running a group returns: one [`Reply`] payload per slot in group
/// order, or the one 503 message every slot of it gets.
pub(crate) type GroupReply = Result<Vec<Vec<Vec<u64>>>, String>;

/// How a leader runs a closed group: the engine call in the server, a
/// recording or panicking stand-in in the unit tests.
pub(crate) type Exec<'a> = &'a dyn Fn(&[&[Aabb<3>]]) -> GroupReply;

/// Why a submission was refused at the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded submission queue is full (backpressure → 503).
    Overloaded,
    /// The server is shutting down and admits no new work (→ 503).
    ShuttingDown,
}

/// What a waiting slot is woken with, once.
enum Wake {
    /// Its group was executed: its share of the outcome.
    Answer(Reply),
    /// The previous leader passed leadership on: lead the next group.
    Lead,
}

/// One accepted unit of work: the queries of one request, and the place
/// its connection thread waits for its [`Wake`].
pub(crate) struct Slot {
    queries: Vec<Aabb<3>>,
    /// When the slot was pushed (starts the `queue` stage clock).
    pushed: Option<Instant>,
    wake: Mutex<Option<Wake>>,
    woken: Condvar,
}

impl Slot {
    fn wake(&self, wake: Wake) {
        *relock(self.wake.lock()) = Some(wake);
        self.woken.notify_one();
    }

    fn wait(&self) -> Wake {
        let mut wake = relock(self.wake.lock());
        loop {
            if let Some(wake) = wake.take() {
                return wake;
            }
            wake = relock(self.woken.wait(wake));
        }
    }
}

/// The queue and slot mutexes guard single pushes, pops and stores, valid
/// at every step, and an unwinding leader's [`Term`] must still get
/// through them: their poison flag is dropped.
pub(crate) fn relock<T>(locked: Result<T, PoisonError<T>>) -> T {
    locked.unwrap_or_else(PoisonError::into_inner)
}

/// What the queue mutex guards.
pub(crate) struct Queue {
    /// Accepted slots not yet taken into a group, in arrival order. While
    /// a leader has not closed its group, the head is its own slot.
    pub(crate) slots: VecDeque<Arc<Slot>>,
    /// Whether some connection thread currently leads.
    pub(crate) leader: bool,
}

/// The admission queue and the leader hand-off over it, free of sockets
/// and engine so that both are unit-testable.
pub(crate) struct Admission {
    pub(crate) cfg: ServeConfig,
    queue: Mutex<Queue>,
    /// Leadership was cleared during shutdown.
    idle: Condvar,
    pub(crate) shutdown: AtomicBool,
}

impl Admission {
    pub(crate) fn new(cfg: ServeConfig) -> Self {
        Self {
            queue: Mutex::new(Queue {
                slots: VecDeque::new(),
                leader: false,
            }),
            cfg,
            idle: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Queue> {
        relock(self.queue.lock())
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Pushes `queries` as one slot; the flag says whether the caller
    /// found no leader and is now it. Never blocks: a full queue is
    /// [`Rejection::Overloaded`], which the caller maps to 503.
    pub(crate) fn enqueue(&self, queries: Vec<Aabb<3>>) -> Result<(Arc<Slot>, bool), Rejection> {
        let slot = Arc::new(Slot {
            queries,
            pushed: obs::start(),
            wake: Mutex::new(None),
            woken: Condvar::new(),
        });
        let mut q = self.lock();
        // Under the lock: `drain` relies on no slot entering behind it.
        if self.shutting_down() {
            return Err(Rejection::ShuttingDown);
        }
        if q.slots.len() >= self.cfg.queue_cap.max(1) {
            return Err(Rejection::Overloaded);
        }
        q.slots.push_back(Arc::clone(&slot));
        if obs::enabled() {
            obs::registry::SERVER_QUEUE_DEPTH.set(q.slots.len() as f64);
        }
        let lead = !std::mem::replace(&mut q.leader, true);
        Ok((slot, lead))
    }

    /// The blocking half of a submission: waits for the slot's answer, or
    /// leads a group (at once when `lead`, else when leadership is passed
    /// to it) and returns its own share of that group's outcome.
    pub(crate) fn finish(&self, slot: &Slot, lead: bool, exec: Exec) -> Reply {
        if !lead {
            if let Wake::Answer(reply) = slot.wait() {
                return reply;
            }
        }
        let (group, n_queries) = self.close_group();
        let mut term = Term {
            admission: self,
            group,
            outcome: Err("the thread that ran this request's group panicked".to_string()),
        };
        if obs::enabled() {
            for slot in &term.group {
                server_stage(Stage::Queue).observe_since(slot.pushed);
            }
            obs::registry::SERVER_BATCHES_TOTAL.inc();
            obs::registry::SERVER_BATCH_SIZE.observe(n_queries as u64);
            obs::registry::SERVER_QUERIES_TOTAL.add(n_queries as u64);
            if n_queries >= 2 {
                obs::registry::SERVER_BATCHED_QUERIES_TOTAL.add(n_queries as u64);
            }
        }
        let t = obs::start();
        let groups: Vec<&[Aabb<3>]> = term.group.iter().map(|s| s.queries.as_slice()).collect();
        term.outcome = exec(&groups);
        if obs::enabled() {
            let engine_ns = obs::elapsed_nanos(t);
            for _ in &term.group {
                server_stage(Stage::Engine).observe(engine_ns);
            }
        }
        // The rest of the outcome goes to the group's waiters as `term`
        // drops, after leadership.
        match &mut term.outcome {
            Ok(answers) => Ok(std::mem::take(&mut answers[0])),
            Err(msg) => Err(msg.clone()),
        }
    }

    /// Takes the head of the queue (the leader's own slot), then the
    /// slots queued behind it, whole, until the group holds [`MAX_GROUP`]
    /// queries. Never waits for a follow-up. Returns the group and its
    /// query count.
    fn close_group(&self) -> (Vec<Arc<Slot>>, usize) {
        let (mut group, mut n_queries) = (Vec::new(), 0);
        let mut q = self.lock();
        while n_queries < MAX_GROUP {
            let Some(slot) = q.slots.pop_front() else {
                break;
            };
            n_queries += slot.queries.len();
            group.push(slot);
        }
        if obs::enabled() {
            obs::registry::SERVER_QUEUE_DEPTH.set(q.slots.len() as f64);
        }
        (group, n_queries)
    }

    /// Blocks until no leader is active and the queue is empty; with the
    /// shutdown flag set nothing new enters, so every accepted slot has
    /// been answered on return.
    pub(crate) fn drain(&self) {
        let mut q = self.lock();
        while q.leader || !q.slots.is_empty() {
            q = relock(self.idle.wait(q));
        }
    }
}

/// One leader's term over its closed `group` (own slot first). Dropping
/// it is how a leader lets go, so that it also happens when the leader
/// unwinds (an `engine lock poisoned` `expect`) and a panicking request
/// fails alone: leadership goes to the next queued slot or is cleared,
/// *then* each waiter of the group gets its share of `outcome` — the
/// next group executes while this one's waiters wake, encode and write.
struct Term<'a> {
    admission: &'a Admission,
    group: Vec<Arc<Slot>>,
    /// What the group's waiters get: a 503 until the engine call returns.
    outcome: GroupReply,
}

impl Drop for Term<'_> {
    fn drop(&mut self) {
        let next = {
            let mut q = self.admission.lock();
            let next = q.slots.front().cloned();
            if next.is_none() {
                q.leader = false;
                if self.admission.shutting_down() {
                    self.admission.idle.notify_all();
                }
            }
            next
        };
        // Woken with the queue lock released: the first thing a leader
        // does is take it.
        if let Some(next) = next {
            next.wake(Wake::Lead);
        }
        for (i, slot) in self.group.iter().enumerate().skip(1) {
            slot.wake(Wake::Answer(match &mut self.outcome {
                Ok(answers) => Ok(answers.get_mut(i).map(std::mem::take).unwrap_or_default()),
                Err(msg) => Err(msg.clone()),
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::serial;

    /// A request of `size` queries whose boxes all carry the mark `k`.
    fn marked(k: usize, size: usize) -> Vec<Aabb<3>> {
        vec![Aabb::new([k as f64; 3], [k as f64 + 1.0; 3]); size]
    }

    /// The marks of a closed group, in group order.
    fn marks(groups: &[&[Aabb<3>]]) -> Vec<usize> {
        groups.iter().map(|g| g[0].lo[0] as usize).collect()
    }

    /// A stand-in engine: every query is answered with its own mark.
    fn echo(groups: &[&[Aabb<3>]]) -> GroupReply {
        Ok(groups
            .iter()
            .map(|g| g.iter().map(|q| vec![q.lo[0] as u64]).collect())
            .collect())
    }

    /// Enqueues requests `0..n` of `size` queries each on one thread;
    /// only the first finds no leader.
    fn enqueue_marked(a: &Admission, n: usize, size: usize) -> Vec<Arc<Slot>> {
        (0..n)
            .map(|k| {
                let (slot, lead) = a.enqueue(marked(k, size)).expect("below the cap");
                assert_eq!(lead, k == 0, "slot {k}");
                slot
            })
            .collect()
    }

    fn is_next_leader(slot: &Slot) -> bool {
        matches!(*relock(slot.wake.lock()), Some(Wake::Lead))
    }

    #[test]
    fn queue_backpressure_is_bounded_not_buffered() {
        let _serial = serial();
        // Nobody leads: the queue fills and the next submission is refused.
        let a = Admission::new(ServeConfig::default().with_queue_cap(2));
        enqueue_marked(&a, 2, 1);
        assert_eq!(a.enqueue(marked(2, 1)).err(), Some(Rejection::Overloaded));
        assert_eq!(a.lock().slots.len(), 2);
        // Shutdown refuses before even touching the queue.
        a.shutdown.store(true, Ordering::SeqCst);
        assert_eq!(a.enqueue(marked(3, 1)).err(), Some(Rejection::ShuttingDown));
        assert_eq!(a.lock().slots.len(), 2);
    }

    #[test]
    fn hand_off_is_fifo_and_a_group_starts_with_its_leader() {
        let _serial = serial();
        // (queries per request, requests, the groups in the order they
        // must run: leader first). Everything is queued before the first
        // leader runs, so each group stops only at the cap.
        for (size, n, expect) in [
            (MAX_GROUP, 4, vec![vec![0], vec![1], vec![2], vec![3]]),
            (MAX_GROUP / 2, 5, vec![vec![0, 1], vec![2, 3], vec![4]]),
        ] {
            let a = Admission::new(ServeConfig::default());
            let slots = enqueue_marked(&a, n, size);
            let ran = Mutex::new(Vec::new());
            for (k, slot) in slots.iter().enumerate() {
                let leads = expect.iter().any(|g| g[0] == k);
                if k > 0 {
                    // Leadership or the answer is already there: nothing
                    // below blocks, and a wrong hand-off order fails here.
                    assert_eq!(is_next_leader(slot), leads, "slot {k}");
                }
                let reply = a.finish(slot, k == 0, &|groups| {
                    ran.lock().unwrap().push((k, marks(groups)));
                    echo(groups)
                });
                assert_eq!(reply, Ok(vec![vec![k as u64]; size]), "slot {k}");
            }
            // Groups in arrival order, each run by its first slot.
            let expect: Vec<_> = expect.into_iter().map(|g| (g[0], g)).collect();
            assert_eq!(ran.into_inner().unwrap(), expect, "size {size}");
            let q = a.lock();
            assert!(!q.leader && q.slots.is_empty());
        }
    }

    #[test]
    fn a_leader_that_unwinds_fails_alone() {
        let _serial = serial();
        const HALF: usize = MAX_GROUP / 2;
        let a = Admission::new(ServeConfig::default());
        let slots = enqueue_marked(&a, 3, HALF);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.finish(&slots[0], true, &|_| panic!("engine lock poisoned"))
        }));
        assert!(unwound.is_err());
        // Its group's waiter is answered 503 instead of waiting for ever …
        let reply = a.finish(&slots[1], false, &echo);
        assert!(reply.unwrap_err().contains("panicked"));
        // … and the slot behind the group leads the next one.
        assert!(is_next_leader(&slots[2]));
        assert_eq!(a.finish(&slots[2], false, &echo), Ok(vec![vec![2]; HALF]));
        // With nobody queued behind it, an unwinding leader clears
        // leadership: the next request finds no leader and runs.
        let (slot, lead) = a.enqueue(marked(3, HALF)).unwrap();
        assert!(lead);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.finish(&slot, true, &|_| panic!("engine lock poisoned"))
        }));
        assert!(unwound.is_err());
        let (slot, lead) = a.enqueue(marked(4, HALF)).unwrap();
        assert!(lead);
        assert_eq!(a.finish(&slot, lead, &echo), Ok(vec![vec![4]; HALF]));
        let q = a.lock();
        assert!(!q.leader && q.slots.is_empty());
    }
}
