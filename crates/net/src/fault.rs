//! The socket abstraction and the chaos seam.
//!
//! [`NetStream`] is the minimal surface the server and client need from a
//! connection — `Read + Write` plus timeouts and shutdown — implemented by
//! [`std::net::TcpStream`] and by [`FaultyStream`], which wraps any stream
//! and applies a [`NetFaultPlan`]'s seeded schedule: torn writes (prefix
//! sent, then severed), bit flips, stalled reads, and mid-operation
//! disconnects. Handlers are generic over [`NetStream`], so the soak test
//! runs the *real* server loop against faulty sockets with zero
//! production-path branches.
//!
//! Determinism contract: the plan's decision for connection `conn`'s `n`-th
//! read/write is a pure function of `(seed, direction, conn, n)`, drawn
//! with `adv-store`'s seeded draw. Two runs with the same seed and the same
//! per-connection operation counts replay the same fault schedule
//! regardless of thread interleaving, which is what lets the net-chaos
//! soak pin its seeds in CI.

use adv_store::faults::{clamp_rates, pick, site_hash, unit};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a [`NetFaultPlan`] decided for one socket operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Proceed normally.
    None,
    /// Write only the first `keep` bytes, then sever the connection — a
    /// torn frame on the peer's wire.
    Torn {
        /// Bytes that still make it out (strictly less than the op length).
        keep: usize,
    },
    /// Flip one bit of the buffer before it goes out.
    BitFlip {
        /// The bit index (into the byte buffer) to flip.
        bit: usize,
    },
    /// Stall the operation before performing it (slow-network / slow-loris
    /// pressure on the peer's timeouts).
    Stall {
        /// How long to stall.
        delay: Duration,
    },
    /// Sever the connection instead of performing the operation.
    Disconnect,
}

/// A snapshot of what a [`NetFaultPlan`] has injected so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetFaultStats {
    /// Socket operations the plan saw.
    pub ops: u64,
    /// Writes torn short.
    pub torn: u64,
    /// Buffers with one bit flipped.
    pub bit_flips: u64,
    /// Stalled operations.
    pub stalls: u64,
    /// Severed connections.
    pub disconnects: u64,
}

impl NetFaultStats {
    /// Total injected faults of any kind.
    pub fn injected(&self) -> u64 {
        self.torn + self.bit_flips + self.stalls + self.disconnects
    }
}

/// A deterministic socket-fault schedule, consumed by [`FaultyStream`].
/// See the module docs.
#[derive(Debug)]
pub struct NetFaultPlan {
    seed: u64,
    /// Torn, bit-flip, stall and disconnect rates, in [`pick`] order.
    rates: [f64; 4],
    stall: Duration,
    ops: AtomicU64,
    torn: AtomicU64,
    flips: AtomicU64,
    stalls: AtomicU64,
    disconnects: AtomicU64,
}

impl NetFaultPlan {
    /// A quiet plan under `seed`; add fault rates with
    /// [`rates`](Self::rates).
    pub fn new(seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            seed,
            rates: [0.0; 4],
            stall: Duration::from_millis(5),
            ops: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            flips: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
        }
    }

    /// Sets the per-operation probabilities of a torn write, a bit flip, a
    /// stall, and a disconnect. Rates are clamped to `[0, 1]` and their sum
    /// normalized to at most `1`, mirroring
    /// [`adv_store::IoFaultPlan::rates`].
    #[must_use]
    pub fn rates(mut self, torn: f64, flip: f64, stall: f64, disconnect: f64) -> NetFaultPlan {
        self.rates = clamp_rates([torn, flip, stall, disconnect]);
        self
    }

    /// A randomized low-rate plan fully derived from `seed`: each fault
    /// kind gets a rate in `[0, 0.03)` and stalls run up to ~20ms. The
    /// net-chaos soak's workhorse — a different seed is a different chaos
    /// schedule, the same seed replays bit-for-bit.
    pub fn randomized(seed: u64) -> NetFaultPlan {
        let mix = |k: u64| unit(seed, site_hash("net/randomized"), k);
        let stall_ms = 2 + (mix(4) * 18.0) as u64;
        let mut plan = NetFaultPlan::new(seed).rates(
            0.03 * mix(0),
            0.03 * mix(1),
            0.03 * mix(2),
            0.03 * mix(3),
        );
        plan.stall = Duration::from_millis(stall_ms);
        plan
    }

    /// Draws the decision for connection `conn`'s `op`-th **write** of
    /// `len` bytes. Torn writes keep strictly fewer than `len` bytes; bit
    /// flips land inside the buffer.
    pub fn on_write(&self, conn: u64, op: u64, len: usize) -> NetFault {
        self.draw("net/write", conn, op, len, true)
    }

    /// Draws the decision for connection `conn`'s `op`-th **read**. Reads
    /// cannot tear or flip bytes the peer already framed, so torn/flip
    /// draws degrade to stalls on the read side.
    pub fn on_read(&self, conn: u64, op: u64) -> NetFault {
        self.draw("net/read", conn, op, 0, false)
    }

    fn draw(&self, site: &str, conn: u64, op: u64, len: usize, is_write: bool) -> NetFault {
        self.ops.fetch_add(1, Ordering::Relaxed);
        // Mix the connection id into the seed so connections draw
        // independent sequences; the draw stays a pure function of
        // (seed, site, conn, op).
        let conn_seed = self.seed ^ conn.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let draw = unit(conn_seed, site_hash(site), op);
        let aux = unit(conn_seed, site_hash("net/aux"), op);
        let structural = is_write && len > 0;
        let (fault, counter) = match pick(draw, &self.rates) {
            None => return NetFault::None,
            Some(0) if structural => (
                NetFault::Torn {
                    keep: ((aux * len as f64) as usize).min(len - 1),
                },
                &self.torn,
            ),
            Some(1) if structural => (
                NetFault::BitFlip {
                    bit: (aux * (len * 8) as f64) as usize,
                },
                &self.flips,
            ),
            Some(0..=2) => (NetFault::Stall { delay: self.stall }, &self.stalls),
            Some(_) => (NetFault::Disconnect, &self.disconnects),
        };
        // lint-ok(ordering-justified): statistics counter, atomicity only.
        counter.fetch_add(1, Ordering::Relaxed);
        fault
    }

    /// What the plan has injected so far.
    pub fn stats(&self) -> NetFaultStats {
        NetFaultStats {
            ops: self.ops.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
            bit_flips: self.flips.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
        }
    }
}

/// What the front door needs from a connection.
pub trait NetStream: Read + Write + Send {
    /// Sets the read timeout (None blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;

    /// Sets the write timeout (None blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;

    /// Severs both directions; subsequent operations fail.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    fn shutdown(&mut self) -> std::io::Result<()>;
}

impl NetStream for TcpStream {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }

    fn shutdown(&mut self) -> std::io::Result<()> {
        TcpStream::shutdown(self, std::net::Shutdown::Both)
    }
}

/// A [`NetStream`] that consults a seeded [`NetFaultPlan`] before every
/// read and write. See the module docs.
#[derive(Debug)]
pub struct FaultyStream<S: NetStream> {
    inner: S,
    plan: Arc<NetFaultPlan>,
    conn: u64,
    reads: u64,
    writes: u64,
    severed: bool,
}

impl<S: NetStream> FaultyStream<S> {
    /// Wraps `inner`; `conn` distinguishes this connection's fault
    /// schedule from its siblings under the same plan.
    pub fn new(inner: S, plan: Arc<NetFaultPlan>, conn: u64) -> FaultyStream<S> {
        FaultyStream {
            inner,
            plan,
            conn,
            reads: 0,
            writes: 0,
            severed: false,
        }
    }

    fn sever(&mut self) -> std::io::Error {
        self.severed = true;
        let _ = self.inner.shutdown();
        std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "adv-chaos: injected disconnect",
        )
    }
}

impl<S: NetStream> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.severed {
            return Ok(0);
        }
        let op = self.reads;
        self.reads += 1;
        match self.plan.on_read(self.conn, op) {
            NetFault::None => self.inner.read(buf),
            NetFault::Stall { delay } => {
                std::thread::sleep(delay);
                self.inner.read(buf)
            }
            NetFault::Disconnect => Err(self.sever()),
            // The plan degrades structural faults to stalls on reads, but
            // keep the match total in case that contract shifts.
            NetFault::Torn { .. } | NetFault::BitFlip { .. } => self.inner.read(buf),
        }
    }
}

impl<S: NetStream> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.severed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "adv-chaos: connection already severed",
            ));
        }
        let op = self.writes;
        self.writes += 1;
        match self.plan.on_write(self.conn, op, buf.len()) {
            NetFault::None => self.inner.write(buf),
            NetFault::Disconnect => Err(self.sever()),
            NetFault::Stall { delay } => {
                std::thread::sleep(delay);
                self.inner.write(buf)
            }
            NetFault::Torn { keep } => {
                // Send the prefix, then sever: the peer sees a torn frame.
                let prefix = buf.get(..keep).unwrap_or(buf);
                let _ = self.inner.write_all(prefix);
                let _ = self.inner.flush();
                Err(self.sever())
            }
            NetFault::BitFlip { bit } => {
                let mut corrupted = buf.to_vec();
                let byte = (bit / 8).min(corrupted.len().saturating_sub(1));
                if let Some(b) = corrupted.get_mut(byte) {
                    *b ^= 1u8 << (bit % 8);
                }
                // Report the full length so the writer believes the frame
                // went out intact — the corruption is the peer's problem.
                self.inner.write_all(&corrupted).map(|()| buf.len())
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl<S: NetStream> NetStream for FaultyStream<S> {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_write_timeout(timeout)
    }

    fn shutdown(&mut self) -> std::io::Result<()> {
        self.severed = true;
        self.inner.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// A loopback stream for exercising the wrapper without sockets.
    #[derive(Debug, Default)]
    struct MemStream {
        incoming: VecDeque<u8>,
        outgoing: Arc<Mutex<Vec<u8>>>,
        shut: bool,
    }

    impl Read for MemStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.shut {
                return Ok(0);
            }
            let n = buf.len().min(self.incoming.len());
            for slot in buf.iter_mut().take(n) {
                *slot = self.incoming.pop_front().unwrap_or(0);
            }
            Ok(n)
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.shut {
                return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "shut"));
            }
            adv_profile::sync::lock_unpoisoned(&self.outgoing).extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl NetStream for MemStream {
        fn set_read_timeout(&mut self, _t: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }

        fn set_write_timeout(&mut self, _t: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }

        fn shutdown(&mut self) -> std::io::Result<()> {
            self.shut = true;
            Ok(())
        }
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let mem = MemStream {
            incoming: VecDeque::from(vec![1, 2, 3]),
            outgoing: out.clone(),
            shut: false,
        };
        let mut s = FaultyStream::new(mem, Arc::new(NetFaultPlan::new(1)), 0);
        let mut buf = [0u8; 3];
        assert_eq!(s.read(&mut buf).unwrap(), 3);
        assert_eq!(buf, [1, 2, 3]);
        s.write_all(&[9, 8]).unwrap();
        assert_eq!(*adv_profile::sync::lock_unpoisoned(&out), vec![9, 8]);
    }

    #[test]
    fn torn_write_sends_a_strict_prefix_then_severs() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let mem = MemStream {
            incoming: VecDeque::new(),
            outgoing: out.clone(),
            shut: false,
        };
        let plan = Arc::new(NetFaultPlan::new(3).rates(1.0, 0.0, 0.0, 0.0));
        let mut s = FaultyStream::new(mem, plan, 0);
        let payload = vec![0xAAu8; 64];
        assert!(s.write(&payload).is_err(), "torn write must error");
        let sent = adv_profile::sync::lock_unpoisoned(&out).len();
        assert!(sent < 64, "sent {sent} of 64");
        // Severed: later writes fail, later reads report EOF.
        assert!(s.write(&payload).is_err());
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let mem = MemStream {
            incoming: VecDeque::new(),
            outgoing: out.clone(),
            shut: false,
        };
        let plan = Arc::new(NetFaultPlan::new(5).rates(0.0, 1.0, 0.0, 0.0));
        let mut s = FaultyStream::new(mem, plan, 0);
        let payload = vec![0u8; 32];
        assert_eq!(s.write(&payload).unwrap(), 32, "flip reports full length");
        let sent = adv_profile::sync::lock_unpoisoned(&out).clone();
        let flipped: u32 = sent.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");
    }

    #[test]
    fn disconnect_on_read_severs_the_stream() {
        let mem = MemStream {
            incoming: VecDeque::from(vec![0u8; 16]),
            outgoing: Arc::new(Mutex::new(Vec::new())),
            shut: false,
        };
        let plan = Arc::new(NetFaultPlan::new(7).rates(0.0, 0.0, 0.0, 1.0));
        let mut s = FaultyStream::new(mem, plan, 0);
        let mut buf = [0u8; 8];
        assert!(s.read(&mut buf).is_err());
        assert_eq!(s.read(&mut buf).unwrap(), 0, "severed reads are EOF");
    }

    fn schedule(plan: &NetFaultPlan, conn: u64, n: u64) -> Vec<NetFault> {
        (0..n)
            .map(|op| plan.on_write(conn, op, 64))
            .chain((0..n).map(|op| plan.on_read(conn, op)))
            .collect()
    }

    #[test]
    fn schedule_is_seed_deterministic() {
        let mk = || NetFaultPlan::new(11).rates(0.15, 0.15, 0.15, 0.15);
        let a = schedule(&mk(), 3, 200);
        let b = schedule(&mk(), 3, 200);
        assert_eq!(a, b, "same seed + conn must replay bit-for-bit");
        let c = schedule(&NetFaultPlan::new(12).rates(0.15, 0.15, 0.15, 0.15), 3, 200);
        assert_ne!(a, c, "different seed must differ");
    }

    #[test]
    fn connections_draw_independent_sequences() {
        let plan = NetFaultPlan::new(5).rates(0.25, 0.25, 0.25, 0.25);
        let a: Vec<NetFault> = (0..64).map(|op| plan.on_write(1, op, 64)).collect();
        let b: Vec<NetFault> = (0..64).map(|op| plan.on_write(2, op, 64)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn torn_keep_is_strictly_short_and_flip_in_range() {
        let plan = NetFaultPlan::new(9).rates(0.5, 0.5, 0.0, 0.0);
        for op in 0..200 {
            for len in [1usize, 2, 22, 640] {
                match plan.on_write(0, op, len) {
                    NetFault::Torn { keep } => assert!(keep < len, "keep={keep} len={len}"),
                    NetFault::BitFlip { bit } => assert!(bit < len * 8, "bit={bit} len={len}"),
                    NetFault::None => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn reads_degrade_structural_faults_to_stalls() {
        let plan = NetFaultPlan::new(2).rates(0.5, 0.5, 0.0, 0.0);
        for op in 0..200 {
            assert!(matches!(
                plan.on_read(0, op),
                NetFault::None | NetFault::Stall { .. }
            ));
        }
    }

    #[test]
    fn quiet_plan_injects_nothing_and_stats_count() {
        let quiet = NetFaultPlan::new(1);
        for op in 0..50 {
            assert_eq!(quiet.on_write(0, op, 10), NetFault::None);
        }
        assert_eq!(quiet.stats().injected(), 0);
        assert_eq!(quiet.stats().ops, 50);

        let loud = NetFaultPlan::new(1).rates(1.0, 0.0, 0.0, 0.0);
        for op in 0..50 {
            loud.on_write(0, op, 10);
        }
        assert_eq!(loud.stats().torn, 50);
    }

    #[test]
    fn randomized_plans_are_seed_deterministic() {
        let a = schedule(&NetFaultPlan::randomized(42), 0, 400);
        let b = schedule(&NetFaultPlan::randomized(42), 0, 400);
        let c = schedule(&NetFaultPlan::randomized(43), 0, 400);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
