//! The little-endian binary codec under every artifact and wire format:
//! models, checkpoints, optimizer state, attack caches, sweep and
//! promotion journal records, telemetry chunks and manifests, `ADVNET1`
//! frames and this crate's envelope and journal framing all write through
//! one [`Writer`] and read through one [`Reader`], the one place lengths
//! are checked. Every read is bounds-checked and fails with a
//! [`DecodeError`], never a panic; the bulk readers check `count × width`
//! with `checked_mul` against what remains *before* they allocate;
//! [`Reader::dims`] rejects a shape whose element count overflows; and
//! [`Reader::finish`] rejects trailing bytes. Format-level checks (magic,
//! version, tags, bounds) stay with each format and report through
//! [`Reader::fail`].

/// Why a buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding stopped.
    pub offset: usize,
    /// What the decoder needed at `offset`.
    pub expected: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: expected {}", self.offset, self.expected)
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a (64-bit) of `bytes`: the content fingerprint behind cache file
/// names, journal contexts, checkpoint digests and the format pin tests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every single-bit corruption of `bytes`, in bit order: what each
/// format's decoder is fed to show that no corruption panics it.
pub fn single_bit_flips(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..bytes.len() * 8).map(move |bit| {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    })
}

/// An append-only little-endian encoder. Sizes are written as `u64`.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Writer {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Writer {
        self.bytes(&[v])
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a size as a `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Writer {
        self.u64(v as u64)
    }

    /// Appends an `f32`.
    pub fn f32(&mut self, v: f32) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends each value as a `u32`.
    pub fn u32s(&mut self, vs: &[u32]) -> &mut Writer {
        self.each(vs, u32::to_le_bytes)
    }

    /// Appends each value as an `i32`.
    pub fn i32s(&mut self, vs: &[i32]) -> &mut Writer {
        self.each(vs, i32::to_le_bytes)
    }

    /// Appends each value as a `u64`.
    pub fn u64s(&mut self, vs: &[u64]) -> &mut Writer {
        self.each(vs, u64::to_le_bytes)
    }

    /// Appends each size as a `u64`.
    pub fn usizes(&mut self, vs: &[usize]) -> &mut Writer {
        self.each(vs, |v| (v as u64).to_le_bytes())
    }

    /// Appends each value as an `f32`.
    pub fn f32s(&mut self, vs: &[f32]) -> &mut Writer {
        self.each(vs, f32::to_le_bytes)
    }

    fn each<T: Copy, const N: usize>(&mut self, vs: &[T], le: fn(T) -> [u8; N]) -> &mut Writer {
        self.buf.reserve(vs.len() * N);
        for &v in vs {
            self.buf.extend_from_slice(&le(v));
        }
        self
    }
}

/// A bounds-checked little-endian cursor over a byte slice.
///
/// Every read that runs past the end of the input, and every check the
/// method names, fails with a [`DecodeError`]; a failed read consumes
/// nothing.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A [`DecodeError`] at the current offset, for the format-level
    /// checks (magic, version, tags, bounds) the caller makes.
    pub fn fail(&self, expected: &'static str) -> DecodeError {
        DecodeError {
            offset: self.pos,
            expected,
        }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let buf: &'a [u8] = self.buf;
        let head = buf[self.pos..]
            .get(..n)
            .ok_or(self.fail("more bytes than remain"))?;
        self.pos += n;
        Ok(head)
    }

    /// Consumes `magic`; fails with `expected` when the next bytes are not
    /// exactly it.
    pub fn magic(&mut self, magic: &[u8], expected: &'static str) -> Result<(), DecodeError> {
        if !self.buf[self.pos..].starts_with(magic) {
            return Err(self.fail(expected));
        }
        self.pos += magic.len();
        Ok(())
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N).map_err(|e| DecodeError {
            expected: what,
            ..e
        })?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array("a u8").map(|[b]| b)
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array("a u16").map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array("a u32").map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array("a u64").map(u64::from_le_bytes)
    }

    /// Reads a size written by [`Writer::usize`]; fails when it does not
    /// fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.fail("a size that fits usize"))
    }

    /// Reads an `f32`.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        self.array("an f32").map(f32::from_le_bytes)
    }

    /// Reads `n` `u32`s.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, DecodeError> {
        self.each(n, "u32 values backed by the input", u32::from_le_bytes)
    }

    /// Reads `n` `i32`s.
    pub fn i32s(&mut self, n: usize) -> Result<Vec<i32>, DecodeError> {
        self.each(n, "i32 values backed by the input", i32::from_le_bytes)
    }

    /// Reads `n` `u64`s.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, DecodeError> {
        self.each(n, "u64 values backed by the input", u64::from_le_bytes)
    }

    /// Reads `n` `f32`s.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, DecodeError> {
        self.each(n, "f32 values backed by the input", f32::from_le_bytes)
    }

    /// Reads `n` values of `N` bytes each; the byte count is checked
    /// against what remains before anything is allocated.
    fn each<T, const N: usize>(
        &mut self,
        n: usize,
        what: &'static str,
        le: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, DecodeError> {
        let run = match n.checked_mul(N) {
            Some(len) if len <= self.remaining() => self.bytes(len)?,
            _ => return Err(self.fail(what)),
        };
        let value = |c: &[u8]| {
            let mut a = [0u8; N];
            a.copy_from_slice(c);
            le(a)
        };
        Ok(run.chunks_exact(N).map(value).collect())
    }

    /// Reads a tensor shape of `rank` sizes; fails when their product, the
    /// element count, overflows.
    pub fn dims(&mut self, rank: usize) -> Result<Vec<usize>, DecodeError> {
        let dims = (0..rank)
            .map(|_| self.usize())
            .collect::<Result<Vec<_>, _>>()?;
        match dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) {
            Some(_) => Ok(dims),
            None => Err(self.fail("dims whose product fits usize")),
        }
    }

    /// Ends decoding; fails when bytes remain unread.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(self.fail("no trailing bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_width_roundtrips() {
        let mut w = Writer::new();
        w.bytes(b"HDR")
            .u8(7)
            .u16(0xBEEF)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX - 1);
        w.usize(12).f32(-1.5).u32s(&[1, 2]).i32s(&[-3]).u64s(&[4]);
        w.usizes(&[5, 6]).f32s(&[0.25, f32::MIN_POSITIVE]);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        r.magic(b"HDR", "HDR").unwrap();
        assert_eq!(
            (r.u8(), r.u16(), r.u32()),
            (Ok(7), Ok(0xBEEF), Ok(0xDEAD_BEEF))
        );
        assert_eq!(
            (r.u64(), r.usize(), r.f32()),
            (Ok(u64::MAX - 1), Ok(12), Ok(-1.5))
        );
        assert_eq!(
            (r.u32s(2), r.i32s(1), r.u64s(1)),
            (Ok(vec![1, 2]), Ok(vec![-3]), Ok(vec![4]))
        );
        assert_eq!(r.dims(2), Ok(vec![5, 6]));
        assert_eq!(r.f32s(2), Ok(vec![0.25, f32::MIN_POSITIVE]));
        r.finish().unwrap();
    }

    #[test]
    fn failed_reads_report_their_offset_and_consume_nothing() {
        let mut r = Reader::new(b"\x01\x02\x03\x04\x05");
        assert_eq!(r.u8(), Ok(1));
        let err = r.u64().unwrap_err();
        assert_eq!(err.to_string(), "at byte 1: expected a u64");
        assert!(r.magic(b"\x02\x03\x04\x05\x06", "magic").is_err());
        assert_eq!(r.u32(), Ok(u32::from_le_bytes([2, 3, 4, 5])));
        assert!(r.u8().is_err());
        assert!(Reader::new(b"\x09")
            .finish()
            .unwrap_err()
            .expected
            .contains("trailing"));
    }

    #[test]
    fn bulk_counts_are_checked_before_allocation() {
        let bytes = [0u8; 16];
        for n in [5, usize::MAX / 4 + 1, usize::MAX] {
            assert!(Reader::new(&bytes).f32s(n).is_err(), "f32s({n})");
            assert!(Reader::new(&bytes).u32s(n).is_err(), "u32s({n})");
            assert!(Reader::new(&bytes).i32s(n).is_err(), "i32s({n})");
            assert!(Reader::new(&bytes).u64s(n / 2 + 1).is_err(), "u64s({n})");
        }
        assert_eq!(Reader::new(&bytes).f32s(4).map(|v| v.len()), Ok(4));
    }

    #[test]
    fn dims_reject_an_overflowing_product() {
        let mut w = Writer::new();
        w.u64s(&[1 << 32, 1 << 32]);
        let bytes = w.into_vec();
        assert_eq!(Reader::new(&bytes).dims(2).unwrap_err().offset, 16);
        assert_eq!(Reader::new(&bytes).dims(1), Ok(vec![1 << 32]));
        assert_eq!(Reader::new(&[]).dims(0), Ok(vec![]));
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(single_bit_flips(b"\x00\x80").count(), 16);
        assert!(single_bit_flips(b"\x00\x80").all(|f| f != b"\x00\x80"));
    }
}
