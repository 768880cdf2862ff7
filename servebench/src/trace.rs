//! Spans recorded from outside the program: a [`ServeBackend`] wrapper
//! around `plsh::Index` that times every backend call the server makes.
//!
//! The wrapper is only installed for the traced run; the untraced run
//! serves the `Index` directly, so the end-to-end figures never include
//! it. Spans stay in memory and are read after the measured phase.

use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use plsh::core::engine::{EngineStats, EpochInfo};
use plsh::server::ServeBackend;
use plsh::{HealthReport, Index, SearchRequest, SearchResponse, ShutdownReport, SparseVector};

use crate::stats::Interval;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Search,
    Ingest,
}

/// One backend call as the server made it.
#[derive(Debug, Clone)]
pub struct Span {
    pub call: Call,
    /// The handler thread: one keep-alive connection maps to one handler
    /// thread, so a thread's spans are that connection's requests in order.
    pub thread: ThreadId,
    pub time: Interval,
    /// Fingerprint of the request's first vector, to pair a thread's
    /// spans with the connection that sent them.
    pub key: u64,
    /// Vectors in the request.
    pub items: usize,
    /// Sealed delta generations of the epoch the search ran against (read
    /// after the span closes).
    pub sealed_generations: usize,
}

/// FNV-1a over a vector's dimensions and weight bits.
pub fn fingerprint(v: &SparseVector) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (d, w) in v.indices().iter().zip(v.values()) {
        for x in [*d as u64, w.to_bits() as u64] {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The traced backend.
pub struct Traced {
    index: Index,
    spans: Mutex<Vec<Span>>,
}

impl Traced {
    pub fn new(index: Index) -> Traced {
        Traced {
            index,
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock poisoned"))
    }

    fn record(
        &self,
        call: Call,
        time: Interval,
        first: Option<&SparseVector>,
        items: usize,
        sealed: usize,
    ) {
        let span = Span {
            call,
            thread: std::thread::current().id(),
            time,
            key: first.map_or(0, fingerprint),
            items,
            sealed_generations: sealed,
        };
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .push(span);
    }
}

impl ServeBackend for Traced {
    fn search(&self, req: &SearchRequest) -> plsh::Result<SearchResponse> {
        let start = Instant::now();
        let resp = self.index.search(req);
        let end = Instant::now();
        // Sharded answers carry no epoch (each shard pins its own); read
        // the index's current one instead, outside the span.
        let sealed = match &resp {
            Ok(SearchResponse { epoch: Some(e), .. }) => e.sealed_generations,
            _ => self.index.epoch_info().sealed_generations,
        };
        let queries = req.queries();
        self.record(
            Call::Search,
            Interval { start, end },
            queries.first(),
            queries.len(),
            sealed,
        );
        resp
    }

    fn insert_batch(&self, vs: &[SparseVector]) -> plsh::Result<Vec<u32>> {
        let start = Instant::now();
        let ids = self.index.add_batch(vs);
        let time = Interval {
            start,
            end: Instant::now(),
        };
        self.record(Call::Ingest, time, vs.first(), vs.len(), 0);
        ids
    }

    fn delete(&self, id: u32) -> plsh::Result<bool> {
        self.index.delete(id)
    }

    fn health(&self) -> HealthReport {
        self.index.health()
    }

    fn stats(&self) -> EngineStats {
        self.index.stats()
    }

    fn epoch_info(&self) -> EpochInfo {
        self.index.epoch_info()
    }

    fn shutdown(&self, deadline: Duration) -> ShutdownReport {
        self.index.shutdown(deadline)
    }
}

/// Pairs a connection's requests (by the fingerprints it sent, in order)
/// with the spans of the handler thread that served them. Returns one
/// span per sent request, or `None` when no thread's spans match. The
/// thread may have served more requests after these (a tail the caller
/// does not measure).
pub fn spans_for_connection<'a>(spans: &'a [Span], sent_keys: &[u64]) -> Option<Vec<&'a Span>> {
    if sent_keys.is_empty() {
        return None;
    }
    let mut threads: Vec<ThreadId> = Vec::new();
    for s in spans {
        if !threads.contains(&s.thread) {
            threads.push(s.thread);
        }
    }
    threads.into_iter().find_map(|t| {
        let mine: Vec<&Span> = spans.iter().filter(|s| s.thread == t).collect();
        let matches =
            mine.len() >= sent_keys.len() && mine.iter().zip(sent_keys).all(|(s, k)| s.key == *k);
        matches.then(|| mine[..sent_keys.len()].to_vec())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_pair_with_the_connection_that_sent_them() {
        let t0 = Instant::now();
        let iv = Interval { start: t0, end: t0 };
        let other = std::thread::spawn(|| std::thread::current().id())
            .join()
            .expect("thread id probe");
        let me = std::thread::current().id();
        let span = |thread, key| Span {
            call: Call::Search,
            thread,
            time: iv,
            key,
            items: 1,
            sealed_generations: 0,
        };
        let spans = vec![span(me, 1), span(other, 7), span(me, 2), span(other, 8)];
        let a = spans_for_connection(&spans, &[7, 8]).expect("matches the other thread");
        assert_eq!(a.iter().map(|s| s.key).collect::<Vec<_>>(), vec![7, 8]);
        assert!(a.iter().all(|s| s.thread == other));
        assert!(spans_for_connection(&spans, &[1, 2]).is_some());
        // A measured prefix pairs with the first spans of the thread.
        let prefix = spans_for_connection(&spans, &[7]).expect("prefix of the other thread");
        assert_eq!(prefix.len(), 1);
        assert!(spans_for_connection(&spans, &[8]).is_none());
        // A missing span means no pairing, never a shifted one.
        assert!(spans_for_connection(&spans, &[1, 2, 3]).is_none());
        assert!(spans_for_connection(&spans, &[]).is_none());
    }
}
