//! One reference model, one seeded op-script generator and one
//! [`Target`] trait for every store and wire suite.
//!
//! A script is a list of [`Op`]s: drawn by [`script`] from a seed and a
//! [`Mix`], or written out by hand. [`Model::run`] sends it down a
//! [`Target`] — the store itself, or a client over the wire — and holds
//! every reply to what the model expects in its [`Mode`]. A failure
//! names the arm, the seed and the op, and prints the script up to that
//! op as a literal that pastes into a fixed-script test under
//! `use support::model::{Class::*, Op::*}`.

use super::pattern_page_for;
use cc_core::store::CompressedStore;
use cc_util::SplitMix64;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::ops::Range;

/// What a page holds: the classes the store routes differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Runs of 31 printable bytes: byte-regular and word-irregular, so
    /// LZRW1 seals it, to a fraction of a page.
    Text,
    /// Incompressible: stored raw under any policy.
    Noise,
    /// One 8-byte word, repeated: the same-filled path, no codec.
    Same,
    /// 8-byte words near one base: BDI's.
    Words,
    /// One of [`pattern_page_for`]'s five classes, chosen by key.
    Pattern,
}

impl Class {
    /// Fill `buf` with version `version` of `key`'s page; every
    /// `(key, version)` gets its own bytes.
    pub fn fill(self, key: u64, version: u64, buf: &mut [u8]) {
        let seed =
            key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut rng = SplitMix64::new(seed);
        let mut words = |f: &dyn Fn(u64, u64) -> u64| {
            for (i, w) in buf.chunks_mut(8).enumerate() {
                w.copy_from_slice(&f(i as u64, rng.next_u64()).to_le_bytes()[..w.len()]);
            }
        };
        match self {
            Class::Text => {
                (buf.chunks_mut(31)).for_each(|run| run.fill(b' ' + (rng.next_u64() % 64) as u8))
            }
            Class::Noise => words(&|_, r| r),
            Class::Same => words(&|_, _| seed),
            Class::Words => {
                words(&|i, _| (seed << 8).wrapping_add((i * 7).wrapping_add(seed) % 200))
            }
            Class::Pattern => {
                buf.fill(0);
                pattern_page_for(key.wrapping_add(version.wrapping_mul(20)), buf);
            }
        }
    }

    /// Version `version` of `key`'s page, `len` bytes long.
    pub fn page(self, key: u64, version: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0; len];
        self.fill(key, version, &mut buf);
        buf
    }
}

/// One step of a script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Put version `version` of `key`'s page of `class`.
    Put {
        key: u64,
        version: u64,
        class: Class,
    },
    Get {
        key: u64,
    },
    Remove {
        key: u64,
    },
    Flush,
    /// One demote pass on the calling thread; a no-op over the wire.
    Demote,
}

impl Op {
    /// A put of version `version` of `key`: text for even versions,
    /// noise for odd, so half of a run of them compress well.
    pub fn put(key: u64, version: u64) -> Op {
        let class = [Class::Text, Class::Noise][version as usize % 2];
        Op::Put {
            key,
            version,
            class,
        }
    }
}

/// What [`script`] draws from.
#[derive(Debug, Clone)]
pub struct Mix {
    /// The keys ops touch, drawn uniformly.
    pub keys: Range<u64>,
    /// Relative weights of put, get, remove, flush and demote.
    pub weights: [u64; 5],
    /// The classes a put draws from, uniformly.
    pub classes: &'static [Class],
    /// Every put of a key writes the same page, version 0 of class
    /// [`shared_class`]: scripts for [`Mode::Shared`], whose threads
    /// share keys.
    pub shared: bool,
}

/// The class of `key`'s one page in a shared mix.
pub fn shared_class(classes: &[Class], key: u64) -> Class {
    classes[key as usize % classes.len()]
}

/// `len` ops drawn from `mix` by a generator seeded with `seed`. A put's
/// version is its index in the script plus one, so versions rise.
pub fn script(seed: u64, len: usize, mix: &Mix) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let total: u64 = mix.weights.iter().sum();
    (1..=len as u64)
        .map(|version| {
            let key = mix.keys.start + rng.next_u64() % (mix.keys.end - mix.keys.start);
            let pick = rng.next_u64() % total;
            match (0..5).find(|&k| pick < mix.weights[..=k].iter().sum()) {
                Some(0) if mix.shared => Op::Put {
                    key,
                    version: 0,
                    class: shared_class(mix.classes, key),
                },
                Some(0) => {
                    let class = mix.classes[(rng.next_u64() % mix.classes.len() as u64) as usize];
                    Op::Put {
                        key,
                        version,
                        class,
                    }
                }
                Some(1) => Op::Get { key },
                Some(2) => Op::Remove { key },
                Some(3) => Op::Flush,
                _ => Op::Demote,
            }
        })
        .collect()
}

/// `n` case seeds for a property, each with its label. The base seed is
/// `PROPTEST_SEED` if set, else a hash of `name`, so setting it to a
/// label's value replays that label's cases.
pub fn cases(name: &str, n: u64) -> impl Iterator<Item = (String, u64)> {
    let fnv = |h: u64, b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    let env = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok());
    let base: u64 = env.unwrap_or_else(|| name.bytes().fold(0xcbf2_9ce4_8422_2325, fnv));
    let seed = move |i: u64| base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n).map(move |i| (format!("PROPTEST_SEED={base} case {i}"), seed(i)))
}

/// How the model judges a reply.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// A hit must be the latest put, a miss of a held key fails, and a
    /// remove's existed-bit must agree.
    Exact,
    /// Faults are injected: a failed put, a miss or an `Err` drops the
    /// key, and a dropped key may serve any version ever put of it. A
    /// wrong byte still fails, and so does a removed key that hits.
    Lossy,
    /// Threads share keys, and every put of a key writes its one page
    /// (version 0, class [`shared_class`] of these): a hit must be it.
    Shared(&'static [Class]),
}

/// A reply to one op, as the target saw it.
pub enum Reply<'a> {
    Put(Result<(), String>),
    /// The page found, if any.
    Get(Result<Option<&'a [u8]>, String>),
    /// Whether the key existed.
    Remove(Result<bool, String>),
    Flush(Result<(), String>),
    Demote,
}

pub type Res = Result<(), String>;

/// Where the target hands its replies: op index and reply.
pub type Replies<'a> = &'a mut dyn FnMut(usize, Reply<'_>) -> Res;

/// Something a script runs on.
pub trait Target {
    /// Run op `i` and hand `reply` every reply now complete: this op's,
    /// or an earlier one's on a target that keeps several in flight.
    /// `buf` holds a put's page, and is where a get's page lands.
    fn call(&mut self, i: usize, op: &Op, buf: &mut Vec<u8>, reply: Replies) -> Res;

    /// Hand `reply` every reply still outstanding.
    fn drain(&mut self, _buf: &mut Vec<u8>, _reply: Replies) -> Res {
        Ok(())
    }

    /// The invariant checker, run after every op.
    fn check(&self) -> Res {
        Ok(())
    }
}

/// The store itself, `check_invariants()` after every op.
impl Target for &CompressedStore {
    fn call(&mut self, i: usize, op: &Op, buf: &mut Vec<u8>, reply: Replies) -> Res {
        let r = match *op {
            Op::Put { key, .. } => Reply::Put(self.put(key, buf).map_err(|e| e.to_string())),
            Op::Get { key } => match self.get(key, buf) {
                Ok(hit) => return reply(i, Reply::Get(Ok(hit.then_some(&buf[..])))),
                Err(e) => Reply::Get(Err(e.to_string())),
            },
            Op::Remove { key } => Reply::Remove(Ok(self.remove(key))),
            Op::Flush => Reply::Flush(self.flush().map_err(|e| e.to_string())),
            Op::Demote => {
                self.demote_now();
                Reply::Demote
            }
        };
        reply(i, r)
    }

    fn check(&self) -> Res {
        self.check_invariants()
    }
}

/// A target with its checker off: threads that share a store check it
/// once they are done.
pub struct Unchecked<T>(pub T);

impl<T: Target> Target for Unchecked<T> {
    fn call(&mut self, i: usize, op: &Op, buf: &mut Vec<u8>, reply: Replies) -> Res {
        self.0.call(i, op, buf, reply)
    }

    fn drain(&mut self, buf: &mut Vec<u8>, reply: Replies) -> Res {
        self.0.drain(buf, reply)
    }
}

/// Which run a failure came from.
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    pub policy: &'static str,
    pub codec: &'static str,
    pub medium: &'static str,
    pub target: &'static str,
    pub window: usize,
}

impl Arm {
    /// An arm of the store itself.
    pub fn store(policy: &'static str, codec: &'static str, medium: &'static str) -> Arm {
        Arm {
            policy,
            codec,
            medium,
            target: "store",
            window: 0,
        }
    }
}

/// A failure of op `at` of `ops`: the arm, the seed, what went wrong, and
/// the script up to that op as a pasteable literal.
pub fn report(arm: &Arm, seed: &str, ops: &[Op], at: usize, what: &str) -> String {
    let mut s = format!(
        "model failure\n{arm:?}\nseed: {seed}\nop {at}: {what}\nscript up to op {at}:\n&[\n"
    );
    for op in ops.iter().take(at + 1) {
        let _ = writeln!(s, "    {op:?},");
    }
    s + "]"
}

/// What the model held when a `flush()` was sent, kept once it returned.
#[derive(Debug, Clone)]
pub struct Durable {
    /// Key → the version and class of its latest put.
    pub held: HashMap<u64, (u64, Class)>,
    /// Keys removed and not put since.
    pub removed: HashSet<u64>,
}

/// What a reply must match, pinned when its op is sent: the key, and
/// the version put, the version and class held, or whether it existed.
enum Pin {
    Put(u64, u64),
    Get(u64, Option<(u64, Class)>),
    Remove(u64, bool),
    Flush(Option<Durable>),
    Demote,
}

/// The reference model: key → the page it must serve.
pub struct Model {
    mode: Mode,
    page_len: usize,
    /// Key → the version and class of its latest put.
    pub held: HashMap<u64, (u64, Class)>,
    /// Every `(version, class)` ever put, per key (not kept when shared).
    pub history: HashMap<u64, Vec<(u64, Class)>>,
    /// Keys removed and not put since.
    pub removed: HashSet<u64>,
    /// What was held at each completed flush, in order.
    pub durable: Vec<Durable>,
    /// Gets that returned a page.
    pub hits: u64,
    /// Ops sent whose reply has not come back.
    pins: HashMap<usize, Pin>,
    /// The op whose reply failed, when the failure surfaced later.
    failed_at: Option<usize>,
    expect: Vec<u8>,
}

impl Model {
    pub fn new(mode: Mode, page_len: usize) -> Model {
        Model {
            mode,
            page_len,
            held: HashMap::new(),
            history: HashMap::new(),
            removed: HashSet::new(),
            durable: Vec::new(),
            hits: 0,
            pins: HashMap::new(),
            failed_at: None,
            expect: vec![0; page_len],
        }
    }

    /// Run `ops` on `target`, holding every reply to the model and
    /// running the target's checker after each op.
    pub fn run(&mut self, target: &mut dyn Target, ops: &[Op], arm: &Arm, seed: &str) -> Res {
        self.run_checked(target, ops, (arm, seed), true)
    }

    /// Get every key the model holds, in key order, off the checker.
    pub fn verify_all(&mut self, target: &mut dyn Target, arm: &Arm, seed: &str) -> Res {
        let mut keys: Vec<u64> = self.held.keys().copied().collect();
        keys.sort_unstable();
        let ops: Vec<Op> = keys.into_iter().map(|key| Op::Get { key }).collect();
        self.run_checked(target, &ops, (arm, &format!("{seed}, final sweep")), false)
    }

    fn run_checked(
        &mut self,
        target: &mut dyn Target,
        ops: &[Op],
        (arm, seed): (&Arm, &str),
        check: bool,
    ) -> Res {
        let mut buf = Vec::new();
        let fail = |model: &mut Model, i: usize, e: String| {
            report(arm, seed, ops, model.failed_at.take().unwrap_or(i), &e)
        };
        for (i, op) in ops.iter().enumerate() {
            buf.resize(self.page_len, 0);
            if let Op::Put {
                key,
                version,
                class,
            } = *op
            {
                class.fill(key, version, &mut buf);
            }
            let pin = self.pin(op);
            self.pins.insert(i, pin);
            let called = target.call(i, op, &mut buf, &mut |j, r| self.settle(j, r));
            let checked = called.and_then(|()| if check { target.check() } else { Ok(()) });
            checked.map_err(|e| fail(self, i, e))?;
        }
        let last = ops.len().saturating_sub(1);
        let drained = target.drain(&mut buf, &mut |j, r| self.settle(j, r));
        drained.map_err(|e| fail(self, last, e))?;
        match self.pins.keys().min() {
            Some(&i) => Err(fail(self, i, "no reply".into())),
            None => Ok(()),
        }
    }

    /// Update the model for `op`, sent now, and pin what its reply must be.
    fn pin(&mut self, op: &Op) -> Pin {
        let shared = matches!(self.mode, Mode::Shared(_));
        match *op {
            Op::Put {
                key,
                version,
                class,
            } => {
                self.held.insert(key, (version, class));
                if !shared {
                    self.history.entry(key).or_default().push((version, class));
                }
                self.removed.remove(&key);
                Pin::Put(key, version)
            }
            Op::Get { key } => Pin::Get(key, self.held.get(&key).copied()),
            Op::Remove { key } => {
                self.removed.insert(key);
                Pin::Remove(key, self.held.remove(&key).is_some())
            }
            Op::Flush => Pin::Flush((!shared).then(|| Durable {
                held: self.held.clone(),
                removed: self.removed.clone(),
            })),
            Op::Demote => Pin::Demote,
        }
    }

    /// Hold op `i`'s reply to its pin.
    fn settle(&mut self, i: usize, reply: Reply<'_>) -> Res {
        let Some(pin) = self.pins.remove(&i) else {
            return Err(format!("a reply to op {i}, which is not in flight"));
        };
        self.judge(pin, reply)
            .inspect_err(|_| self.failed_at = Some(i))
    }

    fn judge(&mut self, pin: Pin, reply: Reply<'_>) -> Res {
        let exact = matches!(self.mode, Mode::Exact);
        let lossy = matches!(self.mode, Mode::Lossy);
        let (key, held, page) = match (pin, reply) {
            (Pin::Put(key, version), Reply::Put(Err(_))) if lossy => {
                self.forget(key, Some(version));
                return Ok(());
            }
            (Pin::Put(key, _), Reply::Put(r)) => {
                return r.map_err(|e| format!("put of key {key} failed: {e}"))
            }
            (Pin::Get(key, held), Reply::Get(Err(_) | Ok(None))) if lossy => {
                self.forget(key, held.map(|(v, _)| v));
                return Ok(());
            }
            (Pin::Get(key, _), Reply::Get(Err(e))) => {
                return Err(format!("get of key {key} failed: {e}"))
            }
            (Pin::Get(key, Some((v, _))), Reply::Get(Ok(None))) if exact => {
                return Err(format!("key {key} lost: version {v} missed"));
            }
            (Pin::Get(..), Reply::Get(Ok(None))) => return Ok(()),
            (Pin::Get(key, held), Reply::Get(Ok(Some(page)))) => (key, held, page),
            (Pin::Remove(key, existed), Reply::Remove(Ok(found))) if found != existed && exact => {
                return Err(format!(
                    "remove of key {key} said existed={found}, the model says {existed}"
                ));
            }
            (Pin::Remove(key, _), Reply::Remove(r)) => {
                return r
                    .map(drop)
                    .map_err(|e| format!("remove of key {key} failed: {e}"));
            }
            (Pin::Flush(_), Reply::Flush(Err(e))) if !lossy => {
                return Err(format!("flush failed: {e}"))
            }
            (Pin::Flush(snapshot), Reply::Flush(r)) => {
                self.durable.extend(snapshot.filter(|_| r.is_ok()));
                return Ok(());
            }
            (Pin::Demote, Reply::Demote) => return Ok(()),
            _ => return Err("a reply of another kind than its op".into()),
        };
        self.hits += 1;
        let want = match self.mode {
            Mode::Shared(classes) => Some((0, shared_class(classes, key))),
            _ => held,
        };
        if let Some((v, class)) = want {
            class.fill(key, v, &mut self.expect);
            if page == self.expect {
                return Ok(());
            }
            let seen = seen(self.version_of(key, page));
            return Err(format!(
                "get of key {key} returned wrong bytes, not version {v} ({class:?}){seen}"
            ));
        }
        // A dropped key may serve any version ever put, never other bytes.
        let found = self.version_of(key, page);
        if lossy && !self.removed.contains(&key) && found.is_some() {
            return Ok(());
        }
        Err(format!(
            "get of key {key} hit, but the model holds no page for it{}",
            seen(found)
        ))
    }

    /// Drop `key` if its latest put is still `version`: the store may
    /// have lost it.
    fn forget(&mut self, key: u64, version: Option<u64>) {
        if version.is_some() && self.held.get(&key).map(|&(v, _)| v) == version {
            self.held.remove(&key);
        }
    }

    /// The version of `key` whose page `page` is, if any.
    pub fn version_of(&mut self, key: u64, page: &[u8]) -> Option<u64> {
        let history = self.history.get(&key).map_or(&[][..], Vec::as_slice);
        let expect = &mut self.expect;
        history.iter().rev().find_map(|&(v, class)| {
            class.fill(key, v, expect);
            (page == &expect[..]).then_some(v)
        })
    }
}

/// What a failure says of bytes [`Model::version_of`] placed.
fn seen(version: Option<u64>) -> String {
    version.map_or(" (no version put)".into(), |v| {
        format!(", but they are version {v}'s")
    })
}
