//! Streaming trace reader.

use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

use pipe_icache::ReplayStep;

use crate::crc32::crc32;
use crate::format::{
    decode_meta, decode_summary, Codec, TraceError, TraceMeta, TraceSummary, FORMAT_VERSION, MAGIC,
    MARKER_BLOCK, MARKER_END, MARKER_HEADER, MAX_BLOCK_BYTES,
};

/// Reads a `.ptr` trace one block at a time: the current block is held
/// in memory and CRC-verified before any record in it is decoded, so a
/// flipped bit anywhere surfaces as [`TraceError::CorruptBlock`] before
/// a single damaged step is replayed. Memory use is one block regardless
/// of trace length.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: R,
    meta: TraceMeta,
    codec: Codec,
    block: Vec<u8>,
    pos: usize,
    blocks_read: u64,
    summary: Option<TraceSummary>,
    finished: bool,
}

impl TraceReader<BufReader<File>> {
    /// Opens `path` and parses the header.
    ///
    /// # Errors
    ///
    /// I/O failures and any header-level [`TraceError`].
    pub fn open(path: &Path) -> Result<TraceReader<BufReader<File>>, TraceError> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Parses the magic, version, and header block from `input`.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] for
    /// foreign files, plus I/O and structural errors.
    pub fn new(mut input: R) -> Result<TraceReader<R>, TraceError> {
        let mut magic = [0u8; 4];
        read_exact_or(&mut input, &mut magic, TraceError::BadMagic)?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut version = [0u8; 2];
        read_exact_or(&mut input, &mut version, TraceError::Truncated)?;
        let version = u16::from_le_bytes(version);
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let mut blocks_read = 0;
        let (marker, payload) = read_block(&mut input, &mut blocks_read)?;
        if marker != MARKER_HEADER {
            return Err(TraceError::Malformed("missing header block"));
        }
        let meta = decode_meta(&payload)?;
        Ok(TraceReader {
            input,
            meta,
            codec: Codec::default(),
            block: Vec::new(),
            pos: 0,
            blocks_read,
            summary: None,
            finished: false,
        })
    }

    /// The trace's metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The end summary — available once every step has been read.
    pub fn summary(&self) -> Option<&TraceSummary> {
        self.summary.as_ref()
    }

    /// Reads the next step, or `None` at the end of the trace. After any
    /// `Some(Err(..))` the reader yields `None` forever.
    #[allow(clippy::should_implement_trait)] // Iterator is also implemented, delegating here
    pub fn next_step(&mut self) -> Option<Result<ReplayStep, TraceError>> {
        let mut step = ReplayStep::default();
        match self.read_step(&mut step) {
            Ok(true) => Some(Ok(step)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }

    /// Reads the next step into `step`, reusing the capacity of its
    /// `ops`, and returns `Ok(false)` at the end of the trace. After any
    /// error the reader returns `Ok(false)` forever.
    ///
    /// # Errors
    ///
    /// I/O failures, [`TraceError::CorruptBlock`], [`TraceError::Truncated`]
    /// and [`TraceError::Malformed`] blocks and records.
    pub fn read_step(&mut self, step: &mut ReplayStep) -> Result<bool, TraceError> {
        if self.finished {
            return Ok(false);
        }
        while self.pos == self.block.len() {
            let block = read_block(&mut self.input, &mut self.blocks_read);
            let (marker, payload) = block.inspect_err(|_| self.finished = true)?;
            match marker {
                MARKER_BLOCK => {
                    self.block = payload;
                    self.pos = 0;
                }
                MARKER_END => {
                    self.finished = true;
                    self.summary = Some(decode_summary(&payload)?);
                    return Ok(false);
                }
                _ => {
                    self.finished = true;
                    return Err(TraceError::Malformed("unexpected block marker"));
                }
            }
        }
        let decoded = self.codec.decode_step(&self.block, &mut self.pos, step);
        decoded.inspect_err(|_| self.finished = true)?;
        Ok(true)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<ReplayStep, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_step()
    }
}

fn read_exact_or<R: Read>(
    input: &mut R,
    buf: &mut [u8],
    on_eof: TraceError,
) -> Result<(), TraceError> {
    match input.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(on_eof),
        Err(e) => Err(TraceError::Io(e)),
    }
}

fn read_byte<R: Read>(input: &mut R) -> Result<Option<u8>, TraceError> {
    let mut b = [0u8; 1];
    match input.read_exact(&mut b) {
        Ok(()) => Ok(Some(b[0])),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(TraceError::Io(e)),
    }
}

fn read_varint_stream<R: Read>(input: &mut R) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = read_byte(input)?.ok_or(TraceError::Truncated)?;
        if shift >= 64 {
            return Err(TraceError::Malformed("oversized varint"));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn read_block<R: Read>(input: &mut R, blocks_read: &mut u64) -> Result<(u8, Vec<u8>), TraceError> {
    let marker = read_byte(input)?.ok_or(TraceError::Truncated)?;
    let len = read_varint_stream(input)?;
    if len as usize > MAX_BLOCK_BYTES {
        return Err(TraceError::Malformed("block length out of range"));
    }
    let mut crc = [0u8; 4];
    read_exact_or(input, &mut crc, TraceError::Truncated)?;
    let crc = u32::from_le_bytes(crc);
    let mut payload = vec![0u8; len as usize];
    read_exact_or(input, &mut payload, TraceError::Truncated)?;
    let index = *blocks_read;
    *blocks_read += 1;
    if crc32(&payload) != crc {
        return Err(TraceError::CorruptBlock { index });
    }
    Ok((marker, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceMeta;
    use crate::writer::TraceWriter;
    use pipe_icache::{ReplayBranch, ReplayOp};

    fn meta() -> TraceMeta {
        TraceMeta {
            workload: "test".into(),
            program_fnv: 0x1234_5678_9ABC_DEF0,
            entry_pc: 0x40,
            fetch_key: "fetch=test".into(),
            mem_key: "mem=test".into(),
        }
    }

    fn sample_steps(n: u32) -> Vec<ReplayStep> {
        (0..n)
            .map(|i| {
                let mut s = ReplayStep::at(0x40 + i * 4);
                if i % 7 == 3 {
                    s.waits = i % 5;
                    s.ops.push(ReplayOp::Load { addr: 0x1000 + i });
                }
                if i % 11 == 5 {
                    s.resolve = Some(ReplayBranch {
                        taken: i % 2 == 0,
                        remaining: i % 3,
                        target: 0x40,
                    });
                }
                s
            })
            .collect()
    }

    fn write_trace(steps: &[ReplayStep]) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new(), &meta()).expect("header writes");
        for s in steps {
            w.write_step(s).expect("step writes");
        }
        let (bytes, _) = w.finish(123, 45).expect("finishes");
        bytes
    }

    #[test]
    fn roundtrip_preserves_steps_and_summary() {
        let steps = sample_steps(500);
        let bytes = write_trace(&steps);
        let mut r = TraceReader::new(&bytes[..]).expect("header parses");
        assert_eq!(r.meta(), &meta());
        let mut got = Vec::new();
        while let Some(s) = r.next_step() {
            got.push(s.expect("step decodes"));
        }
        assert_eq!(got, steps);
        let summary = r.summary().expect("summary present");
        assert_eq!(summary.instructions, 500);
        assert_eq!(summary.cycles, 123);
        assert_eq!(summary.ifetch_stalls, 45);
    }

    #[test]
    fn compact_encoding() {
        // Straight-line code: ~2 bytes per instruction plus framing.
        let steps: Vec<_> = (0..10_000).map(|i| ReplayStep::at(i * 4)).collect();
        let bytes = write_trace(&steps);
        assert!(
            bytes.len() < 3 * steps.len(),
            "10k sequential steps took {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn corrupted_block_is_typed_error() {
        let steps = sample_steps(400);
        let mut bytes = write_trace(&steps);
        // Flip a bit well inside the (single) data block payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let mut r = TraceReader::new(&bytes[..]).expect("header still parses");
        let err = r
            .find_map(|s| s.err())
            .expect("corruption must surface as an error");
        assert!(
            matches!(err, TraceError::CorruptBlock { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn truncated_file_is_typed_error() {
        let steps = sample_steps(100);
        let bytes = write_trace(&steps);
        let cut = &bytes[..bytes.len() - 10];
        let mut r = TraceReader::new(cut).expect("header parses");
        let err = r.find_map(|s| s.err()).expect("truncation surfaces");
        assert!(
            matches!(err, TraceError::Truncated | TraceError::CorruptBlock { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn foreign_file_is_bad_magic() {
        let err = TraceReader::new(&b"not a trace file"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let steps = sample_steps(3);
        let mut bytes = write_trace(&steps);
        bytes[4] = 0xFF; // version low byte
        let err = TraceReader::new(&bytes[..]).unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion(_)));
    }
}
