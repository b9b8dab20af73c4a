//! The language's share of its two binary codecs, `VPK2` pickles
//! ([`crate::pickle`]) and `VBC2` compiled images ([`crate::bytecode`]):
//! the binary-operator table both encode. The bounded reader and writer
//! they are built on are [`vine_core::wire`].

use crate::ast::BinOp;
use vine_core::wire::{Reader, Writer};
use vine_core::Result;

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

pub(crate) fn write_binop(w: &mut Writer, op: BinOp) {
    let code = BINOPS.iter().position(|o| *o == op).expect("every op");
    w.u8(code as u8);
}

pub(crate) fn read_binop(r: &mut Reader) -> Result<BinOp> {
    let code = r.u8()?;
    BINOPS
        .get(code as usize)
        .copied()
        .ok_or_else(|| r.err(format!("unknown binop {code}")))
}

/// Run `f` on a thread with the default 2 MiB stack. Decoding and parsing
/// peer input must fit in it, well inside the `USER_STACK_BYTES` of the
/// library daemons and worker pool threads that do it.
#[cfg(test)]
pub(crate) fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}
