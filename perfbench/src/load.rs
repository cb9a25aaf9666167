//! The closed-loop load generator: a fixed number of clients, each issuing its
//! next request only after the previous one returned.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One completed request.
#[derive(Debug)]
pub struct Served<T> {
    /// Position of the request in the stream.
    pub index: usize,
    /// Wall time the serve call took.
    pub latency: Duration,
    /// When the serve call returned, measured from the start of the phase.
    pub done_at: Duration,
    /// What the serve call returned.
    pub outcome: T,
}

/// Everything one closed-loop phase served, in stream order.
#[derive(Debug)]
pub struct Phase<T> {
    /// Completed requests, sorted by stream index.
    pub served: Vec<Served<T>>,
    /// Wall time from the start of the phase until the last client finished.
    pub wall: Duration,
}

impl<T> Phase<T> {
    pub fn empty() -> Self {
        Self {
            served: Vec::new(),
            wall: Duration::ZERO,
        }
    }

    /// Appends a phase that served later stream positions, as if it had
    /// started when this one ended.
    pub fn append(&mut self, mut later: Phase<T>) {
        for s in &mut later.served {
            s.done_at += self.wall;
        }
        self.served.append(&mut later.served);
        self.wall += later.wall;
    }
}

/// One client's behaviour. `serve` is what a request's latency measures;
/// `record` turns its output into what the phase keeps, off the clock.
/// Every method runs on the client's own thread, so a client may keep
/// per-thread state (the tracer does).
pub trait Client: Sync {
    type Raw;
    type Out: Send;

    fn start(&self, _client: usize) {}
    fn serve(&self, index: usize) -> Self::Raw;
    fn record(&self, index: usize, raw: Self::Raw) -> Self::Out;
    fn finish(&self, _client: usize) {}
}

/// Serves stream positions `indices` from `clients` threads until they run
/// out or `budget` has elapsed; a request started before the deadline runs to
/// completion. Each position is claimed by exactly one client, in stream
/// order.
pub fn closed_loop<C: Client>(
    clients: usize,
    indices: std::ops::Range<usize>,
    budget: Duration,
    client: &C,
) -> Phase<C::Out> {
    let (next, len) = (AtomicUsize::new(indices.start), indices.end);
    let start = Instant::now();
    let deadline = start + budget;
    let per_client: Vec<Vec<Served<C::Out>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|id| {
                let next = &next;
                scope.spawn(move || {
                    client.start(id);
                    let mut done = Vec::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= len {
                            break;
                        }
                        let t0 = Instant::now();
                        let raw = client.serve(index);
                        let latency = t0.elapsed();
                        done.push(Served {
                            index,
                            latency,
                            done_at: t0 + latency - start,
                            outcome: client.record(index, raw),
                        });
                    }
                    client.finish(id);
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark client panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut served: Vec<Served<C::Out>> = per_client.into_iter().flatten().collect();
    served.sort_by_key(|s| s.index);
    Phase { served, wall }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Records which client served each index; the first request of each
    /// client waits for the other's, so both provably serve concurrently.
    struct Tagging {
        barrier: Barrier,
        first: [AtomicUsize; 2],
        calls: AtomicUsize,
    }

    thread_local! {
        static CLIENT_ID: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }

    impl Client for Tagging {
        type Raw = usize;
        type Out = (usize, usize);

        fn start(&self, client: usize) {
            CLIENT_ID.with(|c| c.set(client));
        }

        fn serve(&self, index: usize) -> usize {
            let client = CLIENT_ID.with(|c| c.get());
            if self.first[client].fetch_add(1, Ordering::Relaxed) == 0 {
                self.barrier.wait();
            }
            self.calls.fetch_add(1, Ordering::Relaxed);
            index
        }

        fn record(&self, index: usize, raw: usize) -> (usize, usize) {
            assert_eq!(index, raw);
            (CLIENT_ID.with(|c| c.get()), index)
        }
    }

    fn tagging() -> Tagging {
        Tagging {
            barrier: Barrier::new(2),
            first: [AtomicUsize::new(0), AtomicUsize::new(0)],
            calls: AtomicUsize::new(0),
        }
    }

    #[test]
    fn two_clients_serve_every_index_exactly_once() {
        let n = 5000;
        let client = tagging();
        let phase = closed_loop(2, 0..n, Duration::from_secs(600), &client);
        let indices: Vec<usize> = phase.served.iter().map(|s| s.index).collect();
        assert_eq!(indices, (0..n).collect::<Vec<_>>());
        assert!(phase.served.iter().all(|s| s.outcome.1 == s.index));
        for id in 0..2 {
            assert!(phase.served.iter().any(|s| s.outcome.0 == id));
        }
        assert_eq!(client.calls.load(Ordering::Relaxed), n);
    }

    #[test]
    fn a_phase_resumes_where_the_previous_one_stopped() {
        let client = tagging();
        let mut phase = closed_loop(2, 0..300, Duration::from_secs(600), &client);
        let later = closed_loop(2, 300..1000, Duration::from_secs(600), &client);
        let (first_wall, later_wall) = (phase.wall, later.wall);
        let later_done: Vec<Duration> = later.served.iter().map(|s| s.done_at).collect();
        phase.append(later);
        let indices: Vec<usize> = phase.served.iter().map(|s| s.index).collect();
        assert_eq!(indices, (0..1000).collect::<Vec<_>>());
        assert_eq!(phase.wall, first_wall + later_wall);
        for (s, done) in phase.served[300..].iter().zip(later_done) {
            assert_eq!(s.done_at, done + first_wall);
        }
    }

    #[test]
    fn an_elapsed_budget_serves_nothing() {
        let phase = closed_loop(2, 0..100, Duration::ZERO, &tagging());
        assert!(phase.served.is_empty());
    }

    #[test]
    fn an_empty_stream_serves_nothing() {
        let phase = closed_loop(2, 0..0, Duration::from_secs(60), &tagging());
        assert!(phase.served.is_empty());
    }
}
