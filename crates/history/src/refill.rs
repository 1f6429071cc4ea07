//! The refill buffer under both stream-file readers
//! ([`LineStream`](crate::ndjson::LineStream) and
//! [`FrameStream`](crate::frame::FrameStream)).
//!
//! Input arrives through any [`Read`] — a file, stdin, a pipe, a byte
//! slice — in chunks of whatever size the source yields. The buffer cuts
//! it into *units* (NDJSON lines or fixed-width frames), keeps each unit
//! contiguous however the chunks fall, and owns the accounting both
//! readers share: the unit count a checkpoint records as its resume
//! position, and the [`Fingerprint`] chain, which digests one update per
//! unit. Because a unit is digested whole, the chain is independent of
//! how the input was chunked.

use crate::fxhash::Fingerprint;
use std::io::{self, Read};

/// Starting buffer size, and the granularity it grows by; a unit longer
/// than the buffer doubles it.
const CHUNK: usize = 64 * 1024;

/// A [`Read`] cut into counted, fingerprinted units.
pub(crate) struct Units<R> {
    input: R,
    buf: Vec<u8>,
    /// Start of the pending (read but unconsumed) bytes in `buf`.
    start: usize,
    /// End of the pending bytes in `buf`.
    end: usize,
    /// Units consumed so far.
    units: u64,
    fingerprint: Option<Fingerprint>,
}

impl<R: Read> Units<R> {
    pub(crate) fn new(input: R, fingerprint: Option<Fingerprint>) -> Self {
        Units { input, buf: Vec::new(), start: 0, end: 0, units: 0, fingerprint }
    }

    /// Units consumed so far.
    pub(crate) fn units(&self) -> u64 {
        self.units
    }

    /// The running digest of every consumed unit, when fingerprinting.
    pub(crate) fn fingerprint(&self) -> Option<u64> {
        self.fingerprint.as_ref().map(Fingerprint::value)
    }

    /// Reads more input behind the pending bytes; `false` at the end of
    /// input. Makes room first: the pending bytes move to the front, and
    /// the buffer doubles once they fill half of it.
    fn refill(&mut self) -> io::Result<bool> {
        if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.end * 2 >= self.buf.len() {
                self.buf.resize((self.buf.len() * 2).max(CHUNK), 0);
            }
        }
        loop {
            match self.input.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads until `n` bytes are pending or the input ends; returns how
    /// many of them (at most `n`) are there.
    fn fill(&mut self, n: usize) -> io::Result<usize> {
        while self.end - self.start < n && self.refill()? {}
        Ok((self.end - self.start).min(n))
    }

    /// Consumes `len` pending bytes as the next unit: counts and
    /// fingerprints them and returns them with their 1-based unit number.
    fn take(&mut self, len: usize) -> (u64, &[u8]) {
        let raw = &self.buf[self.start..self.start + len];
        self.start += len;
        self.units += 1;
        if let Some(fp) = &mut self.fingerprint {
            fp.update(raw);
        }
        (self.units, raw)
    }

    /// Consumes up to `n` leading bytes that are not a unit (a file
    /// magic): neither counted nor fingerprinted.
    pub(crate) fn header(&mut self, n: usize) -> io::Result<&[u8]> {
        let len = self.fill(n)?;
        self.start += len;
        Ok(&self.buf[self.start - len..self.start])
    }

    /// The next `width`-byte unit — shorter only as a truncated tail at
    /// the end of input — with its 1-based number; `None` at the end of
    /// input.
    pub(crate) fn next_fixed(&mut self, width: usize) -> io::Result<Option<(u64, &[u8])>> {
        match self.fill(width)? {
            0 => Ok(None),
            len => Ok(Some(self.take(len))),
        }
    }

    /// The next line — through its `\n`, or to the end of input for a
    /// final line without one — with its 1-based number; `None` at the
    /// end of input.
    ///
    /// A line that is not valid UTF-8 is consumed but neither counted nor
    /// fingerprinted, and reported as an [`io::ErrorKind::InvalidData`]
    /// error: exactly what [`BufRead::read_line`](std::io::BufRead::read_line)
    /// does, so the serde `Reader` and this buffer agree line for line.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<(u64, &str)>> {
        // Bytes already searched for `\n`, so a long line is scanned once.
        let mut scanned = 0;
        let len = loop {
            let pending = &self.buf[self.start + scanned..self.end];
            if let Some(i) = pending.iter().position(|&b| b == b'\n') {
                break scanned + i + 1;
            }
            scanned = self.end - self.start;
            if !self.refill()? {
                if scanned == 0 {
                    return Ok(None);
                }
                break scanned;
            }
        };
        let raw = &self.buf[self.start..self.start + len];
        self.start += len;
        let text = std::str::from_utf8(raw).map_err(|_| invalid_utf8())?;
        self.units += 1;
        if let Some(fp) = &mut self.fingerprint {
            fp.update(raw);
        }
        Ok(Some((self.units, text)))
    }
}

/// The error [`BufRead::read_line`](std::io::BufRead::read_line) reports
/// for a line that is not UTF-8.
fn invalid_utf8() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
}
