//! The socket abstraction and the chaos seam.
//!
//! [`NetStream`] is the minimal surface the server and client need from a
//! connection — `Read + Write` plus timeouts and shutdown — implemented by
//! [`std::net::TcpStream`] and by [`FaultyStream`], which wraps any stream
//! and applies an [`adv_chaos::NetFaultPlan`]'s seeded schedule: torn
//! writes (prefix sent, then severed), bit flips, stalled reads, and
//! mid-operation disconnects. Handlers are generic over [`NetStream`], so
//! the soak test runs the *real* server loop against faulty sockets with
//! zero production-path branches.

use adv_chaos::{NetFault, NetFaultPlan};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    reads: AtomicU64,
    writes: AtomicU64,
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
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
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
        let op = self.reads.fetch_add(1, Ordering::Relaxed);
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
        let op = self.writes.fetch_add(1, Ordering::Relaxed);
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
}
