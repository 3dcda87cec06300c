//! The one driver thread: draws an operation, stamps or checks a page,
//! calls the layer under test, and waits for the answer before drawing
//! the next (a pager waits for its page: a closed loop with one caller).
//! A per-key version shadow says what every GET must return.

use crate::pages::{read_stamp, Pool, PAGE};
use crate::trace::Tracer;
use crate::workload::{Op, OpStream, Spec, WINDOW};
use cc_core::store::HitTier;
use cc_core::{CompressedStore, StoreError};
use cc_server::{Client, ClientError, Pipeline, Request, Status};
use std::hint::black_box;
use std::time::Instant;

/// One operation in this many has its call timed with `Instant`; the
/// others pay no clock reads.
pub const LAT_EVERY: u64 = 8;
/// Offset within each `LAT_EVERY` group of the GET that gets a full
/// 4 KiB compare, chosen so it is never the timed one.
const FULL_AT: u64 = 4;
/// Offset of the operation that records spans in a traced round: never
/// the timed one nor the fully compared one, as the spacing is a multiple
/// of `LAT_EVERY`.
const SPAN_AT: u64 = 2;

/// Record spans for one operation in this many, given the operations of a
/// whole run: the issue's 1 in 64 on the fast workload, and more on the
/// slow, heavy-tailed ones (about 100 000 sampled operations a run), where
/// at 1 in 64 the sampled time missed the rounds' by 14 % in some runs.
/// Sparser than 64 is no better: the sampled call then runs behind cold
/// tracing code and reads 45 ns long, which on a 0.4 us operation is the
/// whole tolerance.
pub fn span_every(total_ops: u64) -> u64 {
    (total_ops / 100_000)
        .next_multiple_of(LAT_EVERY)
        .clamp(LAT_EVERY, 64)
}

/// Tier tags on GET samples, in `HitTier` order, plus one for GETs whose
/// serving tier the caller cannot see (over the wire).
pub const TIER_HOT: u8 = 0;
pub const TIER_WARM: u8 = 1;
pub const TIER_SAME: u8 = 2;
pub const TIER_COLD: u8 = 3;
pub const TIER_UNSEEN: u8 = 4;

fn tier_tag(t: HitTier) -> u8 {
    match t {
        HitTier::Hot => TIER_HOT,
        HitTier::Memory => TIER_WARM,
        HitTier::SameFilled => TIER_SAME,
        HitTier::Spill => TIER_COLD,
    }
}

/// What the direct-call loop drives: the store, or a stand-in that does
/// nothing, which times the driver's own share of every operation.
pub trait PageStore {
    /// The stand-in returns no bytes; the driver then checks the expected
    /// page against itself, so the check costs what it costs on a real
    /// GET without a store having copied anything.
    const STUB: bool;
    fn put(&self, key: u64, page: &[u8]) -> Result<(), StoreError>;
    fn get(&self, key: u64, out: &mut [u8]) -> Result<Option<HitTier>, StoreError>;
}

impl PageStore for CompressedStore {
    const STUB: bool = false;
    #[inline]
    fn put(&self, key: u64, page: &[u8]) -> Result<(), StoreError> {
        CompressedStore::put(self, key, page)
    }
    #[inline]
    fn get(&self, key: u64, out: &mut [u8]) -> Result<Option<HitTier>, StoreError> {
        self.get_tier(key, out)
    }
}

pub struct StubStore;

impl PageStore for StubStore {
    const STUB: bool = true;
    #[inline]
    fn put(&self, key: u64, page: &[u8]) -> Result<(), StoreError> {
        black_box((key, page));
        Ok(())
    }
    #[inline]
    fn get(&self, key: u64, out: &mut [u8]) -> Result<Option<HitTier>, StoreError> {
        black_box((key, out));
        Ok(Some(HitTier::Hot))
    }
}

/// A request in the pipeline window, remembered until its reply.
#[derive(Clone, Copy, Default)]
struct InFlight {
    key: u64,
    /// The version a GET must return (the shadow at send time: the server
    /// answers one connection in order).
    version: u32,
    is_get: bool,
    full: bool,
    sent: Option<Instant>,
}

/// Tags are consecutive, so a window of 16 never shares a slot of 64.
const SLOTS: usize = 64;

pub struct Driver {
    ops: OpStream,
    pool: Pool,
    /// The shadow: current version of every key, 0 before its first PUT.
    versions: Vec<u32>,
    out: Vec<u8>,
    slots: [InFlight; SLOTS],
    pub attempted: u64,
    /// Operations that returned `Err`, missed a live key, or failed a
    /// check.
    pub failed: u64,
    /// GETs that returned a page with the wrong stamp or a wrong byte.
    pub wrong_bytes: u64,
    /// This round's timed calls: PUT ns, and GET ns with a tier tag.
    pub put_ns: Vec<u32>,
    pub get_ns: Vec<(u32, u8)>,
    pub gets: u64,
    pub puts: u64,
    pub tracer: Tracer,
    /// See [`span_every`].
    pub span_every: u64,
}

/// Check a returned page against the shadow: always the stamp, and on
/// `full` every byte against the pool page. With `stub` nothing was
/// returned, and the expected page stands in for it.
#[inline]
fn page_is_right(
    pool: &mut Pool,
    got: &[u8],
    key: u64,
    version: u32,
    full: bool,
    stub: bool,
) -> bool {
    if got.len() != PAGE {
        return false;
    }
    if stub {
        let page = pool.stamped(key, version);
        return read_stamp(page) == Some((key, version)) && (!full || black_box(page) == page);
    }
    read_stamp(got) == Some((key, version)) && (!full || got == pool.stamped(key, version))
}

impl Driver {
    pub fn new(spec: &Spec, seed: u64) -> Driver {
        Driver {
            ops: OpStream::new(spec, seed),
            pool: Pool::generate(seed),
            versions: vec![0; spec.keys],
            out: vec![0; PAGE],
            slots: [InFlight::default(); SLOTS],
            attempted: 0,
            failed: 0,
            wrong_bytes: 0,
            put_ns: Vec::new(),
            get_ns: Vec::new(),
            gets: 0,
            puts: 0,
            tracer: Tracer::new(),
            span_every: 64,
        }
    }

    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The page the shadow says `key` holds now.
    pub fn current_page(&mut self, key: u64) -> &[u8] {
        self.pool.stamped(key, self.versions[key as usize])
    }

    pub fn op_stream_hash(&self) -> u64 {
        self.ops.hash()
    }

    /// Keys the shadow says are stored.
    pub fn live_keys(&self) -> u64 {
        self.versions.iter().filter(|&&v| v != 0).count() as u64
    }

    pub fn begin_round(&mut self) {
        self.put_ns.clear();
        self.get_ns.clear();
        self.gets = 0;
        self.puts = 0;
    }

    fn count_wrong(&mut self) {
        self.failed += 1;
        self.wrong_bytes += 1;
    }

    /// One direct call, checked. `i` is the operation's index in its
    /// round and decides whether it is timed, fully compared or traced.
    #[inline]
    fn store_op<S: PageStore>(&mut self, store: &S, op: Op, i: u64, trace_round: Option<u32>) {
        let span = trace_round.filter(|_| i % self.span_every == SPAN_AT);
        let t0 = span.map(|_| self.tracer.now());
        let timed = i.is_multiple_of(LAT_EVERY);
        let key = op.key;
        self.attempted += 1;
        let (name, t1, t2);
        if op.is_get {
            self.gets += 1;
            let version = self.versions[key as usize];
            t1 = span.map(|_| self.tracer.now());
            let start = timed.then(Instant::now);
            let result = store.get(key, &mut self.out);
            let ns = start.map(|s| s.elapsed().as_nanos() as u32);
            t2 = span.map(|_| self.tracer.now());
            name = "store.get";
            match result {
                Ok(Some(tier)) => {
                    if let Some(ns) = ns {
                        self.get_ns.push((ns, tier_tag(tier)));
                    }
                    let full = i % LAT_EVERY == FULL_AT;
                    if !page_is_right(&mut self.pool, &self.out, key, version, full, S::STUB) {
                        self.count_wrong();
                    }
                }
                // Every key is prefilled and never removed: a miss is a
                // lost page.
                Ok(None) | Err(_) => self.failed += 1,
            }
        } else {
            self.puts += 1;
            let version = self.versions[key as usize] + 1;
            let page = self.pool.stamped(key, version);
            t1 = span.map(|_| self.tracer.now());
            let start = timed.then(Instant::now);
            let result = store.put(key, page);
            let ns = start.map(|s| s.elapsed().as_nanos() as u32);
            t2 = span.map(|_| self.tracer.now());
            name = "store.put";
            match result {
                Ok(()) => {
                    self.versions[key as usize] = version;
                    if let Some(ns) = ns {
                        self.put_ns.push(ns);
                    }
                }
                Err(_) => self.failed += 1,
            }
        }
        if let (Some(round), Some(t0), Some(t1), Some(t2)) = (span, t0, t1, t2) {
            let t3 = self.tracer.now();
            let parent = self.tracer.span(0, "driver.op", t0, t3, round);
            self.tracer.span(parent, name, t1, t2, round);
        }
    }

    /// PUT version 1 of every key, untimed.
    pub fn prefill_store<S: PageStore>(&mut self, store: &S) {
        for key in 0..self.versions.len() as u64 {
            self.store_op(store, Op { key, is_get: false }, 1, None);
        }
    }

    /// `n` operations from the stream, each a direct call. Spans are
    /// recorded under `trace_round` when it is set.
    pub fn run_store<S: PageStore>(&mut self, store: &S, n: u64, trace_round: Option<u32>) {
        for i in 0..n {
            let op = self.ops.next_op();
            self.store_op(store, op, i, trace_round);
        }
    }

    /// Send one request into the window.
    #[inline]
    fn wire_send(
        &mut self,
        client: &mut Client,
        pipe: &mut Pipeline,
        op: Op,
        i: u64,
    ) -> Result<(), ClientError> {
        let key = op.key;
        self.attempted += 1;
        let sent = i.is_multiple_of(LAT_EVERY).then(Instant::now);
        let (seq, version) = if op.is_get {
            self.gets += 1;
            let version = self.versions[key as usize];
            (pipe.send(client, &Request::Get { key })?, version)
        } else {
            self.puts += 1;
            let version = self.versions[key as usize] + 1;
            self.versions[key as usize] = version;
            let page = self.pool.stamped(key, version);
            (pipe.send(client, &Request::Put { key, page })?, version)
        };
        self.slots[seq as usize % SLOTS] = InFlight {
            key,
            version,
            is_get: op.is_get,
            full: i % LAT_EVERY == FULL_AT,
            sent,
        };
        Ok(())
    }

    /// Receive one reply, match it to its request, and check it.
    #[inline]
    fn wire_reap(&mut self, client: &mut Client, pipe: &mut Pipeline) -> Result<(), ClientError> {
        let (seq, status) = pipe.recv(client, &mut self.out)?;
        let req = self.slots[seq as usize % SLOTS];
        let ns = req.sent.map(|s| s.elapsed().as_nanos() as u32);
        match (req.is_get, status) {
            (true, Status::Ok) => {
                if let Some(ns) = ns {
                    self.get_ns.push((ns, TIER_UNSEEN));
                }
                if !page_is_right(
                    &mut self.pool,
                    &self.out,
                    req.key,
                    req.version,
                    req.full,
                    false,
                ) {
                    self.count_wrong();
                }
            }
            (false, Status::Ok) => {
                if let Some(ns) = ns {
                    self.put_ns.push(ns);
                }
            }
            _ => self.failed += 1,
        }
        Ok(())
    }

    fn wire_drain(&mut self, client: &mut Client, pipe: &mut Pipeline) -> Result<(), ClientError> {
        while pipe.in_flight() > 0 {
            self.wire_reap(client, pipe)?;
        }
        Ok(())
    }

    /// PUT version 1 of every key through the window, untimed.
    pub fn prefill_wire(
        &mut self,
        client: &mut Client,
        pipe: &mut Pipeline,
    ) -> Result<(), ClientError> {
        for key in 0..self.versions.len() as u64 {
            if pipe.in_flight() == WINDOW {
                self.wire_reap(client, pipe)?;
            }
            self.wire_send(client, pipe, Op { key, is_get: false }, 1)?;
        }
        self.wire_drain(client, pipe)
    }

    /// `n` operations from the stream through a full window: each step
    /// reaps the oldest reply once 16 are in flight, then sends. The
    /// window is drained before returning, so the round's time covers
    /// every reply.
    pub fn run_wire(
        &mut self,
        client: &mut Client,
        pipe: &mut Pipeline,
        n: u64,
        trace_round: Option<u32>,
    ) -> Result<(), ClientError> {
        for i in 0..n {
            let span = trace_round.filter(|_| i % self.span_every == SPAN_AT);
            let t0 = span.map(|_| self.tracer.now());
            let op = self.ops.next_op();
            let mut recv = None;
            if pipe.in_flight() == WINDOW {
                let r0 = span.map(|_| self.tracer.now());
                self.wire_reap(client, pipe)?;
                recv = r0.map(|r0| (r0, self.tracer.now()));
            }
            let s0 = span.map(|_| self.tracer.now());
            self.wire_send(client, pipe, op, i)?;
            if let (Some(round), Some(t0), Some(s0)) = (span, t0, s0) {
                let end = self.tracer.now();
                let parent = self.tracer.span(0, "driver.op", t0, end, round);
                if let Some((r0, r1)) = recv {
                    self.tracer.span(parent, "client.recv", r0, r1, round);
                }
                self.tracer.span(parent, "client.send", s0, end, round);
            }
        }
        self.wire_drain(client, pipe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use cc_core::StoreConfig;

    fn small(spec: &Spec) -> Spec {
        Spec {
            keys: 512,
            budget: 64 << 20,
            ..*spec
        }
    }

    #[test]
    fn a_correct_store_passes_every_check_and_a_stub_costs_no_failures() {
        let spec = small(&WORKLOADS[1]);
        let store = CompressedStore::new(StoreConfig::in_memory(spec.budget));
        let mut d = Driver::new(&spec, 5);
        d.prefill_store(&store);
        d.run_store(&store, 20_000, Some(1));
        assert_eq!(d.failed, 0);
        assert_eq!(d.attempted, 512 + 20_000);
        assert_eq!(d.live_keys(), 512);
        assert!(d.put_ns.len() > 1000 && !d.get_ns.is_empty());
        assert_eq!(d.tracer.spans.len() as u64, 2 * (20_000 / d.span_every + 1));

        let mut s = Driver::new(&spec, 5);
        s.prefill_store(&StubStore);
        s.run_store(&StubStore, 20_000, None);
        assert_eq!((s.failed, s.wrong_bytes), (0, 0));
        assert_eq!(s.op_stream_hash(), d.op_stream_hash());
    }

    /// A store that answers every GET with the page of another version
    /// must be caught by the stamp, and one that flips a late byte by the
    /// full compare.
    struct Lying {
        inner: CompressedStore,
        flip_byte: bool,
    }

    impl PageStore for Lying {
        const STUB: bool = false;
        fn put(&self, key: u64, page: &[u8]) -> Result<(), StoreError> {
            if self.flip_byte {
                return self.inner.put(key, page);
            }
            // Keep only the first version of every key.
            let mut probe = vec![0u8; PAGE];
            if self.inner.get(key, &mut probe)? {
                return Ok(());
            }
            self.inner.put(key, page)
        }
        fn get(&self, key: u64, out: &mut [u8]) -> Result<Option<HitTier>, StoreError> {
            let tier = self.inner.get_tier(key, out)?;
            if self.flip_byte {
                out[PAGE - 1] ^= 0x40;
            }
            Ok(tier)
        }
    }

    #[test]
    fn stale_versions_and_flipped_bytes_are_counted() {
        let spec = small(&WORKLOADS[2]);
        for flip_byte in [false, true] {
            let lying = Lying {
                inner: CompressedStore::new(StoreConfig::in_memory(spec.budget)),
                flip_byte,
            };
            let mut d = Driver::new(&spec, 9);
            d.prefill_store(&lying);
            d.run_store(&lying, 8_000, None);
            assert!(d.wrong_bytes > 0, "flip_byte={flip_byte}");
            assert_eq!(d.failed, d.wrong_bytes);
            if flip_byte {
                // Only the 1-in-8 full compare sees a late byte.
                assert!(d.wrong_bytes <= d.gets / LAT_EVERY + 1);
            }
        }
    }

    #[test]
    fn same_seed_same_stored_bytes() {
        let spec = small(&WORKLOADS[1]);
        let run = |seed| {
            let store = CompressedStore::new(StoreConfig::in_memory(spec.budget));
            let mut d = Driver::new(&spec, seed);
            d.prefill_store(&store);
            d.run_store(&store, 10_000, None);
            store.flush().unwrap();
            let s = store.stats();
            (
                d.op_stream_hash(),
                d.attempted,
                d.live_keys(),
                s.resident_bytes,
                s.bytes_on_spill,
            )
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).0, run(4).0);
    }
}
