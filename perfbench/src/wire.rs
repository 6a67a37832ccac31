//! The benchmark's client side of the wire protocol: frames are built with
//! `lrb_service::protocol::encode_request` and responses are read with
//! `protocol::read_response`, so the client codec is the program's own.

use std::io::{self, BufReader};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use lrb_service::protocol::{encode_request, read_response, OpCode};

/// Longest a client waits for one response before the run counts the
/// rest of its requests as failed.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One connection: a write half and a buffered read half.
pub struct Conn {
    /// Frames are written here.
    pub writer: UnixStream,
    /// Responses are read from here.
    pub reader: BufReader<UnixStream>,
}

impl Conn {
    /// Connect to the server at `path`.
    pub fn open(path: &Path) -> io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
        })
    }

    /// Read one response: its OK payload, or why it failed.
    pub fn recv(&mut self) -> Result<Vec<u8>, String> {
        read_response(&mut self.reader).map_err(|e| e.to_string())
    }

    /// Whether a whole response frame is already buffered (reading it will
    /// not block).
    pub fn frame_buffered(&self) -> bool {
        let buf = self.reader.buffer();
        buf.len() >= 4
            && buf.len() - 4 >= u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize
    }
}

/// A request frame as encoded once and sent many times.
#[derive(Debug, Clone)]
pub struct Request {
    /// Its opcode.
    pub op: OpCode,
    /// Its payload.
    pub payload: Vec<u8>,
    /// The encoded frame.
    pub frame: Vec<u8>,
    /// Draws in the response: `None` for a single `DRAW`, `Some(k)` for
    /// `DRAW_BATCH(k)`.
    pub batch: Option<u32>,
}

impl Request {
    fn new(op: OpCode, payload: Vec<u8>, batch: Option<u32>) -> Self {
        let mut frame = Vec::new();
        encode_request(&mut frame, op, &payload);
        Self {
            op,
            payload,
            frame,
            batch,
        }
    }

    /// One `DRAW`.
    pub fn draw() -> Self {
        Self::new(OpCode::Draw, Vec::new(), None)
    }

    /// One `DRAW_BATCH(count)`.
    pub fn draw_batch(count: u32) -> Self {
        Self::new(OpCode::DrawBatch, count.to_le_bytes().to_vec(), Some(count))
    }

    /// Draws one response carries.
    pub fn draws(&self) -> u64 {
        self.batch.map_or(1, u64::from)
    }
}

/// Bucket of a category whose weight is zero when the support is checked:
/// drawing it is an error.
pub const OUTSIDE: u16 = u16::MAX;

/// How a returned index maps to its goodness-of-fit bucket.
#[derive(Debug)]
pub enum Buckets {
    /// One entry per category: its bucket, or [`OUTSIDE`].
    Each(Vec<u16>),
    /// `n` categories; the few listed in `top` have their own bucket and
    /// every other one shares `rest`. `top` is an open-addressing table
    /// small enough to stay in cache while millions of indices are checked.
    Top {
        /// Category count.
        n: u64,
        /// `(index, bucket)` slots; empty slots hold `u64::MAX`.
        top: Vec<(u64, u16)>,
        /// Bucket of every category not in `top`.
        rest: u16,
    },
}

impl Buckets {
    /// `n` categories with their own buckets for `top` (`(index, bucket)`
    /// pairs) and bucket `rest` for all others.
    pub fn top(n: usize, top: &[(usize, u16)], rest: u16) -> Self {
        let slots = (top.len() * 4).next_power_of_two().max(16);
        let mut table = vec![(u64::MAX, 0); slots];
        for &(index, bucket) in top {
            let mut slot = Self::slot(index as u64, slots);
            while table[slot].0 != u64::MAX {
                slot = (slot + 1) & (slots - 1);
            }
            table[slot] = (index as u64, bucket);
        }
        Self::Top {
            n: n as u64,
            top: table,
            rest,
        }
    }

    fn slot(index: u64, slots: usize) -> usize {
        (index.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (slots - 1)
    }

    fn of(&self, index: u64) -> u16 {
        match self {
            Buckets::Each(map) => usize::try_from(index)
                .ok()
                .and_then(|i| map.get(i))
                .copied()
                .unwrap_or(OUTSIDE),
            Buckets::Top { n, top, rest } => {
                if index >= *n {
                    return OUTSIDE;
                }
                let mut slot = Self::slot(index, top.len());
                loop {
                    match top[slot] {
                        (key, bucket) if key == index => return bucket,
                        (u64::MAX, _) => return *rest,
                        _ => slot = (slot + 1) & (top.len() - 1),
                    }
                }
            }
        }
    }
}

/// Checks every returned index (range, and support where asked) and counts
/// the draws per goodness-of-fit bucket.
#[derive(Debug, Clone)]
pub struct Tally {
    buckets: Arc<Buckets>,
    /// Draws per bucket.
    pub counts: Vec<u64>,
    /// Indices checked.
    pub draws: u64,
}

impl Tally {
    /// A tally over `buckets` with `count` buckets.
    pub fn new(buckets: Buckets, count: usize) -> Self {
        Self {
            buckets: Arc::new(buckets),
            counts: vec![0; count],
            draws: 0,
        }
    }

    /// An empty tally over the same buckets (for another client thread).
    pub fn fresh(&self) -> Self {
        Self {
            buckets: Arc::clone(&self.buckets),
            counts: vec![0; self.counts.len()],
            draws: 0,
        }
    }

    fn accept(&mut self, index: u64) -> bool {
        let bucket = self.buckets.of(index);
        if bucket == OUTSIDE {
            return false;
        }
        self.counts[bucket as usize] += 1;
        self.draws += 1;
        true
    }

    /// Check one draw response payload for `request`; false if it is
    /// malformed or holds a bad index.
    pub fn check(&mut self, request: &Request, payload: &[u8]) -> bool {
        let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
        match request.batch {
            None => payload.len() == 8 && self.accept(word(0)),
            Some(count) => {
                if payload.len() != 4 + 8 * count as usize || payload[..4] != count.to_le_bytes() {
                    return false;
                }
                let mut ok = true;
                for k in 0..count as usize {
                    ok &= self.accept(word(4 + 8 * k));
                }
                ok
            }
        }
    }

    /// Fold another thread's tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.draws += other.draws;
    }
}
