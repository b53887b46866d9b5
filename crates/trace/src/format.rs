//! The `.ptr` binary trace format: constants, metadata, typed errors,
//! and the per-record codec shared by the writer and reader.
//!
//! ## Layout
//!
//! ```text
//! "PTRC"  u16 version (LE)
//! 'H' block — trace metadata (workload, program fingerprint, entry pc,
//!             fetch/memory configuration keys)
//! 'B' block*  — consecutive step records
//! 'E' block — end summary (instructions, cycles, fetch stalls, waits)
//! ```
//!
//! Every block is `marker, varint payload-length, u32 CRC-32 (LE),
//! payload`; a corrupted payload is detected by the CRC and reported as
//! [`TraceError::CorruptBlock`] — never a panic. Records use varint
//! fields with zigzag delta encoding for addresses (sequential code and
//! strided data streams make most deltas one byte); records never span a
//! block boundary, but the delta predictors run across blocks, so blocks
//! can only be decoded in order.

use std::error::Error;
use std::fmt;
use std::io;

use pipe_icache::{ReplayBranch, ReplayOp, ReplayStep};
use pipe_isa::Program;

use crate::varint;

/// File magic: "PTRC" (Pipe TRaCe).
pub const MAGIC: [u8; 4] = *b"PTRC";
/// Current format version.
pub const FORMAT_VERSION: u16 = 1;
/// Target payload size at which the writer cuts a block.
pub const BLOCK_TARGET_BYTES: usize = 32 * 1024;
/// Upper bound accepted for a block payload when reading (guards against
/// absurd allocations from corrupted length fields).
pub const MAX_BLOCK_BYTES: usize = 1 << 24;

pub(crate) const MARKER_HEADER: u8 = b'H';
pub(crate) const MARKER_BLOCK: u8 = b'B';
pub(crate) const MARKER_END: u8 = b'E';

const FLAG_ADDR: u8 = 1 << 0;
const FLAG_GAP: u8 = 1 << 1;
const FLAG_OPS: u8 = 1 << 2;
const FLAG_RESOLVE: u8 = 1 << 3;
const FLAG_TAKEN: u8 = 1 << 4;

const OP_LOAD: u8 = 0;
const OP_STORE: u8 = 1;
const OP_STORE_DATA: u8 = 2;

/// Metadata identifying what a trace was recorded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload key, e.g. `livermore:format=fixed-32,scale=1` for
    /// workloads the experiment harness can rebuild, or any other label
    /// for a program it cannot (replay then needs the program supplied).
    pub workload: String,
    /// FNV-1a fingerprint of the program image (base + parcels); replay
    /// verifies the supplied program against it.
    pub program_fnv: u64,
    /// Entry byte address of the recorded program.
    pub entry_pc: u32,
    /// Fetch-engine configuration key at record time (informational —
    /// replay may use any engine).
    pub fetch_key: String,
    /// Memory configuration key at record time (informational).
    pub mem_key: String,
}

/// Totals written by the recorder, used by replay verification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Instructions recorded.
    pub instructions: u64,
    /// Total cycles of the recorded run, including the post-halt drain.
    pub cycles: u64,
    /// Instruction-fetch stall cycles of the recorded run.
    pub ifetch_stalls: u64,
    /// Non-fetch stall cycles (branch/data/queue) of the recorded run.
    pub wait_cycles: u64,
}

/// A typed trace-format error. Corruption and truncation are ordinary
/// error values, never panics.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `PTRC` magic.
    BadMagic,
    /// The file's format version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// A block's payload failed its CRC-32 check.
    CorruptBlock {
        /// Zero-based index of the failing block.
        index: u64,
    },
    /// The file ended before the end-summary block.
    Truncated,
    /// A structurally invalid record or field.
    Malformed(&'static str),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a pipe trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (reader supports {FORMAT_VERSION})"
                )
            }
            TraceError::CorruptBlock { index } => {
                write!(
                    f,
                    "trace block {index} failed its CRC-32 check (corrupted file)"
                )
            }
            TraceError::Truncated => write!(f, "trace file truncated before end summary"),
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Streaming FNV-1a 64-bit hasher (for hashing trace files of any size
/// without loading them).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash value so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// Fingerprint of a program image: FNV-1a over the base address and every
/// parcel, little-endian. Stored in the trace header so replay can detect
/// a program/trace mismatch.
pub fn program_fnv(program: &Program) -> u64 {
    let mut h = Fnv64::new();
    h.update(&program.base().to_le_bytes());
    h.update(&program.entry().to_le_bytes());
    for &parcel in program.parcels() {
        h.update(&parcel.to_le_bytes());
    }
    h.finish()
}

pub(crate) fn write_string(buf: &mut Vec<u8>, s: &str) {
    varint::write_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn read_string(buf: &[u8], pos: &mut usize) -> Result<String, TraceError> {
    let len = varint::read_u64(buf, pos).ok_or(TraceError::Malformed("string length"))? as usize;
    if len > MAX_BLOCK_BYTES || *pos + len > buf.len() {
        return Err(TraceError::Malformed("string length out of range"));
    }
    let s = std::str::from_utf8(&buf[*pos..*pos + len])
        .map_err(|_| TraceError::Malformed("string not utf-8"))?;
    *pos += len;
    Ok(s.to_owned())
}

pub(crate) fn encode_meta(meta: &TraceMeta) -> Vec<u8> {
    let mut buf = Vec::new();
    write_string(&mut buf, &meta.workload);
    buf.extend_from_slice(&meta.program_fnv.to_le_bytes());
    buf.extend_from_slice(&meta.entry_pc.to_le_bytes());
    write_string(&mut buf, &meta.fetch_key);
    write_string(&mut buf, &meta.mem_key);
    buf
}

pub(crate) fn decode_meta(buf: &[u8]) -> Result<TraceMeta, TraceError> {
    let mut pos = 0;
    let workload = read_string(buf, &mut pos)?;
    if pos + 12 > buf.len() {
        return Err(TraceError::Malformed("header too short"));
    }
    let program_fnv = u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("length checked"));
    pos += 8;
    let entry_pc = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("length checked"));
    pos += 4;
    let fetch_key = read_string(buf, &mut pos)?;
    let mem_key = read_string(buf, &mut pos)?;
    Ok(TraceMeta {
        workload,
        program_fnv,
        entry_pc,
        fetch_key,
        mem_key,
    })
}

pub(crate) fn encode_summary(s: &TraceSummary) -> Vec<u8> {
    let mut buf = Vec::new();
    varint::write_u64(&mut buf, s.instructions);
    varint::write_u64(&mut buf, s.cycles);
    varint::write_u64(&mut buf, s.ifetch_stalls);
    varint::write_u64(&mut buf, s.wait_cycles);
    buf
}

pub(crate) fn decode_summary(buf: &[u8]) -> Result<TraceSummary, TraceError> {
    let mut pos = 0;
    let mut next = || varint::read_u64(buf, &mut pos).ok_or(TraceError::Malformed("end summary"));
    Ok(TraceSummary {
        instructions: next()?,
        cycles: next()?,
        ifetch_stalls: next()?,
        wait_cycles: next()?,
    })
}

/// Delta-predictor state threaded through consecutive records. The
/// writer and reader each keep one; predictors persist across block
/// boundaries.
#[derive(Debug, Clone, Default)]
pub(crate) struct Codec {
    prev_addr: u32,
    last_data_addr: u32,
}

impl Codec {
    /// Encodes `step` onto `buf`.
    pub(crate) fn encode_step(&mut self, buf: &mut Vec<u8>, step: &ReplayStep) {
        let mut flags = 0u8;
        if step.addr.is_some() {
            flags |= FLAG_ADDR;
        }
        if step.waits > 0 {
            flags |= FLAG_GAP;
        }
        if !step.ops.is_empty() {
            flags |= FLAG_OPS;
        }
        if let Some(r) = &step.resolve {
            flags |= FLAG_RESOLVE;
            if r.taken {
                flags |= FLAG_TAKEN;
            }
        }
        buf.push(flags);
        if let Some(addr) = step.addr {
            let predicted = self.prev_addr.wrapping_add(4);
            let delta = addr.wrapping_sub(predicted) as i32;
            varint::write_u64(buf, varint::zigzag(i64::from(delta)));
            self.prev_addr = addr;
        }
        if step.waits > 0 {
            varint::write_u64(buf, u64::from(step.waits));
        }
        if !step.ops.is_empty() {
            varint::write_u64(buf, step.ops.len() as u64);
            for op in &step.ops {
                match *op {
                    ReplayOp::Load { addr } => {
                        buf.push(OP_LOAD);
                        self.encode_data_addr(buf, addr);
                    }
                    ReplayOp::StoreAddr { addr } => {
                        buf.push(OP_STORE);
                        self.encode_data_addr(buf, addr);
                    }
                    ReplayOp::StoreData { value } => {
                        buf.push(OP_STORE_DATA);
                        varint::write_u64(buf, u64::from(value));
                    }
                }
            }
        }
        if let Some(r) = &step.resolve {
            varint::write_u64(buf, u64::from(r.remaining));
            varint::write_u64(buf, u64::from(r.target));
        }
    }

    fn encode_data_addr(&mut self, buf: &mut Vec<u8>, addr: u32) {
        let delta = addr.wrapping_sub(self.last_data_addr) as i32;
        varint::write_u64(buf, varint::zigzag(i64::from(delta)));
        self.last_data_addr = addr;
    }

    fn decode_data_addr(&mut self, buf: &[u8], pos: &mut usize) -> Result<u32, TraceError> {
        let raw = varint::read_u64(buf, pos).ok_or(TraceError::Malformed("data address"))?;
        let addr = self
            .last_data_addr
            .wrapping_add(varint::unzigzag(raw) as u32);
        self.last_data_addr = addr;
        Ok(addr)
    }

    /// Decodes one step from `buf` at `*pos`.
    pub(crate) fn decode_step(
        &mut self,
        buf: &[u8],
        pos: &mut usize,
    ) -> Result<ReplayStep, TraceError> {
        let flags = *buf.get(*pos).ok_or(TraceError::Malformed("step flags"))?;
        *pos += 1;
        if flags & !(FLAG_ADDR | FLAG_GAP | FLAG_OPS | FLAG_RESOLVE | FLAG_TAKEN) != 0 {
            return Err(TraceError::Malformed("unknown step flags"));
        }
        let mut step = ReplayStep::default();
        if flags & FLAG_ADDR != 0 {
            let raw = varint::read_u64(buf, pos).ok_or(TraceError::Malformed("step address"))?;
            let predicted = self.prev_addr.wrapping_add(4);
            let addr = predicted.wrapping_add(varint::unzigzag(raw) as u32);
            self.prev_addr = addr;
            step.addr = Some(addr);
        }
        if flags & FLAG_GAP != 0 {
            let waits = varint::read_u64(buf, pos).ok_or(TraceError::Malformed("step waits"))?;
            step.waits = u32::try_from(waits).map_err(|_| TraceError::Malformed("step waits"))?;
        }
        if flags & FLAG_OPS != 0 {
            let count = varint::read_u64(buf, pos).ok_or(TraceError::Malformed("op count"))?;
            if count == 0 || count > 4096 {
                return Err(TraceError::Malformed("op count out of range"));
            }
            for _ in 0..count {
                let tag = *buf.get(*pos).ok_or(TraceError::Malformed("op tag"))?;
                *pos += 1;
                let op = match tag {
                    OP_LOAD => ReplayOp::Load {
                        addr: self.decode_data_addr(buf, pos)?,
                    },
                    OP_STORE => ReplayOp::StoreAddr {
                        addr: self.decode_data_addr(buf, pos)?,
                    },
                    OP_STORE_DATA => {
                        let v = varint::read_u64(buf, pos)
                            .ok_or(TraceError::Malformed("store value"))?;
                        ReplayOp::StoreData {
                            value: u32::try_from(v)
                                .map_err(|_| TraceError::Malformed("store value"))?,
                        }
                    }
                    _ => return Err(TraceError::Malformed("unknown op tag")),
                };
                step.ops.push(op);
            }
        }
        if flags & FLAG_RESOLVE != 0 {
            let remaining =
                varint::read_u64(buf, pos).ok_or(TraceError::Malformed("resolve remaining"))?;
            let target =
                varint::read_u64(buf, pos).ok_or(TraceError::Malformed("resolve target"))?;
            step.resolve = Some(ReplayBranch {
                taken: flags & FLAG_TAKEN != 0,
                remaining: u32::try_from(remaining)
                    .map_err(|_| TraceError::Malformed("resolve remaining"))?,
                target: u32::try_from(target)
                    .map_err(|_| TraceError::Malformed("resolve target"))?,
            });
        }
        Ok(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_codec_roundtrip() {
        let steps = vec![
            ReplayStep::at(0x100),
            ReplayStep::at(0x104),
            ReplayStep {
                waits: 7,
                ops: vec![
                    ReplayOp::Load { addr: 0x2000 },
                    ReplayOp::StoreAddr { addr: 0x2004 },
                    ReplayOp::StoreData { value: 0xDEAD_BEEF },
                ],
                ..ReplayStep::at(0x108)
            },
            ReplayStep {
                resolve: Some(ReplayBranch {
                    taken: true,
                    remaining: 2,
                    target: 0x100,
                }),
                ..ReplayStep::at(0x10C)
            },
            // An engine that cannot attribute an address.
            ReplayStep::default(),
        ];
        let mut enc = Codec::default();
        let mut buf = Vec::new();
        for s in &steps {
            enc.encode_step(&mut buf, s);
        }
        let mut dec = Codec::default();
        let mut pos = 0;
        for want in &steps {
            let got = dec.decode_step(&buf, &mut pos).expect("decodes");
            assert_eq!(&got, want);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn sequential_steps_are_two_bytes() {
        let mut enc = Codec::default();
        let mut buf = Vec::new();
        enc.encode_step(&mut buf, &ReplayStep::at(0x40));
        let first = buf.len();
        enc.encode_step(&mut buf, &ReplayStep::at(0x44));
        assert_eq!(buf.len() - first, 2, "flags + one-byte zero delta");
    }

    #[test]
    fn malformed_step_is_typed() {
        let mut dec = Codec::default();
        let mut pos = 0;
        let buf = [0x80u8]; // unknown flag bit
        assert!(matches!(
            dec.decode_step(&buf, &mut pos),
            Err(TraceError::Malformed(_))
        ));
    }

    #[test]
    fn fnv_matches_reference() {
        // FNV-1a 64 reference values.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
