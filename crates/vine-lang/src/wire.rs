//! The byte-level core of both binary codecs: `VPK1` pickles
//! ([`crate::pickle`]) and `VBC2` compiled images ([`crate::bytecode`]).
//!
//! Integers are little-endian; strings, byte blobs and sequences carry a
//! u32 length prefix. The decoding limits live here, in one reader, so
//! both codecs enforce them alike: one nesting budget shared by every
//! recursive structure, element counts checked against the bytes left,
//! and small up-front reservations. No input can overflow the decoding
//! thread's stack or reserve memory it cannot fill.

use crate::ast::BinOp;
use vine_core::{Result, VineError};

/// Deepest nesting a decoder accepts (values, expressions, statements and
/// nested function tables share one budget). The parser enforces the same
/// bound on source, so every function it accepts also pickles.
pub const MAX_DEPTH: usize = 256;

/// Elements reserved before a sequence decodes, however many its prefix
/// claims: a claim is only a hint until the elements arrive, and nested
/// false claims must not multiply into gigabytes.
const PREALLOC: usize = 16;

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new(magic: &[u8; 4]) -> Writer {
        Writer {
            buf: magic.to_vec(),
        }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn binop(&mut self, op: BinOp) {
        let code = BINOPS.iter().position(|o| *o == op).expect("every op");
        self.u8(code as u8);
    }
}

pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    depth: usize,
    /// The format's magic, naming it in error messages.
    magic: &'static [u8; 4],
}

impl<'a> Reader<'a> {
    /// A reader positioned after `magic`, which `data` must start with.
    pub(crate) fn new(data: &'a [u8], magic: &'static [u8; 4]) -> Result<Reader<'a>> {
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

    pub(crate) fn err(&self, msg: impl std::fmt::Display) -> VineError {
        let format = String::from_utf8_lossy(self.magic);
        VineError::Serialization(format!("{format}: {msg}"))
    }

    /// Enter one nesting level. No matching exit on the error path: a
    /// failed decode discards the reader.
    pub(crate) fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        Ok(())
    }

    pub(crate) fn ascend(&mut self) {
        self.depth -= 1;
    }

    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Error unless every byte was consumed.
    pub(crate) fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.err("trailing bytes"));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
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

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| self.err("invalid utf-8 in string"))
    }

    /// `n` elements decoded by `item`. Every element takes at least one
    /// byte, so a count beyond the bytes left is rejected before anything
    /// is reserved, and only a few elements' room is reserved up front.
    pub(crate) fn items<T>(
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
    pub(crate) fn seq<T>(&mut self, item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.u32()? as usize;
        self.items(n, item)
    }

    pub(crate) fn binop(&mut self) -> Result<BinOp> {
        let code = self.u8()?;
        BINOPS
            .get(code as usize)
            .copied()
            .ok_or_else(|| self.err(format!("unknown binop {code}")))
    }
}

/// Binary operators in byte-code order: an operator's byte is its index.
const BINOPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
];

/// Run `f` on a thread with the default 2 MiB stack. Decoding and parsing
/// peer input must fit in it, well inside the `USER_STACK_BYTES` of the
/// library daemons and task threads that do it.
#[cfg(test)]
pub(crate) fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}
