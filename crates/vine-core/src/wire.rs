//! The byte-level core of every binary codec in the workspace: `VPK2`
//! pickles and `VBC2` compiled images (`vine_lang::pickle`,
//! `vine_lang::bytecode`) and `VFR2` frame payloads (`vine_proto::codec`,
//! where each message writes and reads its own fields through these two
//! types).
//!
//! Fixed-width integers and floats are little-endian; [`Writer::bytes`]
//! and [`Writer::str`] carry a u32 length prefix, and [`Writer::varint`]
//! is LEB128 (zigzagged for signed values, [`Writer::zigzag`]) for
//! formats that prefer small numbers small. The decoding limits live
//! here, in one reader, so every codec enforces them alike: one nesting
//! budget shared by every recursive structure, element counts checked
//! against the bytes left, and small up-front reservations. No input can
//! overflow the decoding thread's stack or reserve memory it cannot fill.

use crate::{Result, VineError};

/// Deepest nesting a decoder accepts (values, expressions, statements and
/// nested function tables share one budget). The language's parser
/// enforces the same bound on source, so every function it accepts also
/// pickles.
pub const MAX_DEPTH: usize = 256;

/// Elements reserved before a sequence decodes, however many its prefix
/// claims: a claim is only a hint until the elements arrive, and nested
/// false claims must not multiply into gigabytes.
const PREALLOC: usize = 16;

pub struct Writer {
    pub buf: Vec<u8>,
}

impl Writer {
    pub fn new(magic: &[u8; 4]) -> Writer {
        Writer::after(Vec::new(), magic)
    }

    /// A writer that appends `magic`, then everything written, to `buf`,
    /// e.g. behind a header reserved at its front.
    pub fn after(mut buf: Vec<u8>, magic: &[u8; 4]) -> Writer {
        buf.extend_from_slice(magic);
        Writer { buf }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// LEB128: seven bits per byte, low first, high bit set on all but
    /// the last.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A signed varint: zigzag-mapped so that small magnitudes of either
    /// sign stay small, then [`Writer::varint`].
    pub fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Bytes with no length prefix.
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.raw(b);
    }
}

pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    depth: usize,
    /// The format's magic, naming it in error messages.
    magic: &'static [u8; 4],
}

impl<'a> Reader<'a> {
    /// A reader positioned after `magic`, which `data` must start with.
    pub fn new(data: &'a [u8], magic: &'static [u8; 4]) -> Result<Reader<'a>> {
        let r = Reader {
            data,
            pos: 4,
            depth: 0,
            magic,
        };
        if data.get(..4) != Some(&magic[..]) {
            return Err(r.err("bad magic header"));
        }
        Ok(r)
    }

    pub fn err(&self, msg: impl std::fmt::Display) -> VineError {
        let format = String::from_utf8_lossy(self.magic);
        VineError::Serialization(format!("{format}: {msg}"))
    }

    /// Enter one nesting level. No matching exit on the error path: a
    /// failed decode discards the reader.
    pub fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        Ok(())
    }

    pub fn ascend(&mut self) {
        self.depth -= 1;
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Error unless every byte was consumed.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.err("trailing bytes"));
        }
        Ok(())
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.err("truncated input"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    pub fn u128(&mut self) -> Result<u128> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A LEB128 value written by [`Writer::varint`]; rejects encodings
    /// longer than ten bytes or wider than 64 bits.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(self.err("varint wider than 64 bits"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!("the tenth byte ends the varint or fails")
    }

    /// A signed varint written by [`Writer::zigzag`].
    pub fn zigzag(&mut self) -> Result<i64> {
        let z = self.varint()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// A varint length or count, not yet checked against the input.
    pub fn varint_len(&mut self) -> Result<usize> {
        let n = self.varint()?;
        usize::try_from(n).map_err(|_| self.err(format!("length {n} exceeds the address space")))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub fn str(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| self.err("invalid utf-8 in string"))
    }

    /// `n` elements decoded by `item`. Every element takes at least one
    /// byte, so a count beyond the bytes left is rejected before anything
    /// is reserved, and only a few elements' room is reserved up front.
    pub fn items<T>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        if n > self.remaining() {
            return Err(self.err(format!("count {n} exceeds the input")));
        }
        let mut out = Vec::with_capacity(n.min(PREALLOC));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A u32-counted sequence of elements decoded by `item`.
    pub fn seq<T>(&mut self, item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.u32()? as usize;
        self.items(n, item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_and_reject_overlong_input() {
        let values = [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        let mut w = Writer::new(b"TEST");
        for v in values {
            w.varint(v);
        }
        assert_eq!(&w.buf[4..7], &[0, 1, 127]);
        let mut r = Reader::new(&w.buf, b"TEST").unwrap();
        for v in values {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.finish().unwrap();

        // u64::MAX is ten bytes ending in 0x01; anything wider fails
        for bad in [&[0xff; 9][..], &[0x80; 11][..]] {
            let mut data = b"TEST".to_vec();
            data.extend_from_slice(bad);
            data.push(0x02);
            let mut r = Reader::new(&data, b"TEST").unwrap();
            assert!(r.varint().is_err(), "{bad:?}");
        }
        let mut r = Reader::new(b"TEST\x80", b"TEST").unwrap();
        assert!(r.varint().unwrap_err().to_string().contains("truncated"));
    }

    #[test]
    fn zigzag_varints_keep_small_magnitudes_small() {
        let values = [0, -1, 1, -64, 63, -65, i64::MIN, i64::MAX];
        let mut w = Writer::new(b"TEST");
        for v in values {
            w.zigzag(v);
        }
        assert_eq!(&w.buf[4..9], &[0, 1, 2, 0x7f, 0x7e]);
        let mut r = Reader::new(&w.buf, b"TEST").unwrap();
        for v in values {
            assert_eq!(r.zigzag().unwrap(), v);
        }
        r.finish().unwrap();
    }
}
