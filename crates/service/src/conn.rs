//! Per-connection state machine for the event-driven server: a resumable
//! [`FrameReader`] on the inbound side, an [`OutBuf`] write buffer with
//! partial-write handling on the outbound side, and the **per-turn frame
//! budget** between them.
//!
//! The budget is the server's connection-level fairness and backpressure:
//! one readiness turn decodes at most [`ServerConfig::inflight_budget`]
//! frames from a connection, serves them inline and answers them before
//! anything more is read. The `k+1`st frame stays in the kernel socket
//! buffer (and ultimately pushes back on the client through TCP flow
//! control) until a later turn, after the reactor's other ready
//! connections have had theirs.
//!
//! Responses are correlated **by order**: frames execute strictly in the
//! order they arrived on the connection, on the one thread that owns it,
//! so a pipelining client matches the `n`th response to the `n`th request
//! without any message ids on the wire.
//!
//! Everything here is transport-generic (`S: Read + Write`), so the budget
//! and partial-write behaviour are unit-tested against in-memory streams —
//! no sockets required — and the same state machine drives TCP and UDS
//! connections identically.
//!
//! [`ServerConfig::inflight_budget`]: crate::server::ServerConfig

use std::io::{self, Read, Write};

use lrb_rng::{MersenneTwister64, SeedableSource};

use crate::protocol::{Frame, FrameReader};
use crate::server::execute_run;
use crate::sharded::ServiceCore;

/// Once this many already-written bytes accumulate at the front of the
/// outbound buffer, they are compacted away so a long-lived connection's
/// buffer does not grow monotonically.
const COMPACT_THRESHOLD: usize = 16 * 1024;

/// Outbound byte buffer with partial-write (`EWOULDBLOCK`) handling.
///
/// Responses for a connection append here (many frames coalesce into one
/// contiguous buffer, so a pipelined burst leaves in one `write` syscall
/// when the socket accepts it) and [`flush`](Self::flush) advances a write
/// cursor instead of draining, so a short write costs no memmove.
#[derive(Debug, Default)]
pub(crate) struct OutBuf {
    buf: Vec<u8>,
    /// Bytes before `pos` are already written to the socket.
    pos: usize,
}

impl OutBuf {
    /// Bytes still waiting to be written.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether anything is waiting to be written.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Queue `bytes` behind whatever is still unwritten.
    pub(crate) fn append(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Write as much as the sink accepts. Returns `Ok(true)` when the
    /// buffer fully drained, `Ok(false)` on `WouldBlock` with the cursor
    /// parked mid-frame (the reactor arms `EPOLLOUT` and resumes later),
    /// and `Err` on a transport failure.
    pub(crate) fn flush(&mut self, sink: &mut impl Write) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match sink.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

/// One multiplexed connection owned by a reactor thread, which does all
/// of its socket I/O and executes all of its frames, so nothing races
/// with its teardown.
#[derive(Debug)]
pub(crate) struct Connection<S> {
    /// The nonblocking socket (TCP or UDS).
    pub(crate) sock: S,
    /// Resumable frame parser (survives frames split across segments).
    reader: FrameReader,
    /// Outbound responses, in request order.
    out: OutBuf,
    /// Frames decoded this turn, in arrival order, until
    /// [`serve`](Self::serve) answers them.
    run: Vec<Frame>,
    /// Per-connection RNG for `DRAW_BATCH` and draw runs.
    rng: MersenneTwister64,
    /// The epoll interest mask currently registered for this connection.
    pub(crate) interest: u32,
}

impl<S: Read + Write> Connection<S> {
    /// A fresh connection over `sock`, drawing from an RNG seeded with
    /// `rng_seed`.
    pub(crate) fn new(sock: S, rng_seed: u64) -> Self {
        Self {
            sock,
            reader: FrameReader::new(),
            out: OutBuf::default(),
            run: Vec::new(),
            rng: MersenneTwister64::seed_from_u64(rng_seed),
            interest: 0,
        }
    }

    /// Whether unwritten response bytes are buffered (the reactor keeps
    /// `EPOLLOUT` armed while true).
    pub(crate) fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// Read and decode frames until the socket drains (`WouldBlock`) or
    /// `budget` decoded frames await [`serve`](Self::serve). Returns
    /// `Ok(true)` when the budget cut the read short — the rest stays in
    /// the socket for a later turn — `Ok(false)` when the kernel buffer
    /// drained, and `Err` on EOF / framing violation / transport error
    /// (the caller closes the connection).
    pub(crate) fn read_frames(&mut self, budget: usize) -> io::Result<bool> {
        while self.run.len() < budget {
            match self.reader.poll(&mut self.sock)? {
                Some(frame) => self.run.push(frame),
                None => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Execute the decoded frames inline, in arrival order, and queue
    /// their responses for write. The caller flushes and then checks
    /// [`outbound_len`](Self::outbound_len) against the slow-consumer cap
    /// — the cap judges the backlog the socket refused, not the size of a
    /// single response.
    pub(crate) fn serve(&mut self, core: &ServiceCore) {
        if self.run.is_empty() {
            return;
        }
        let bytes = execute_run(&self.run, core, &mut self.rng);
        self.run.clear();
        self.out.append(&bytes);
    }

    /// Bytes buffered for write (the slow-consumer backlog).
    pub(crate) fn outbound_len(&self) -> usize {
        self.out.len()
    }

    /// Flush buffered responses; see [`OutBuf::flush`].
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        self.out.flush(&mut self.sock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServiceError;
    use crate::protocol::{codes, encode_request, read_response, OpCode, MAX_FRAME};
    use crate::sharded::{ServiceConfig, ShardedService};
    use lrb_rng::{RandomSource, SplitMix64};

    /// In-memory "socket": reads from `input` (then `WouldBlock`, like an
    /// idle nonblocking socket), writes into `written` accepting at most
    /// `write_cap` bytes per call with a `WouldBlock` interleaved after
    /// every accepted chunk — the worst-case slow peer.
    struct FakeSock {
        input: Vec<u8>,
        at: usize,
        written: Vec<u8>,
        write_cap: usize,
        starve_write: bool,
    }

    impl FakeSock {
        fn with_input(input: Vec<u8>) -> Self {
            Self {
                input,
                at: 0,
                written: Vec::new(),
                write_cap: usize::MAX,
                starve_write: false,
            }
        }
        fn unread(&self) -> usize {
            self.input.len() - self.at
        }
    }

    impl Read for FakeSock {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at == self.input.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "idle"));
            }
            let n = buf.len().min(self.input.len() - self.at);
            buf[..n].copy_from_slice(&self.input[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    impl Write for FakeSock {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.starve_write {
                self.starve_write = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.write_cap);
            self.written.extend_from_slice(&buf[..n]);
            if self.write_cap != usize::MAX {
                self.starve_write = true;
            }
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn draw_frames(n: usize) -> Vec<u8> {
        let mut wire = Vec::new();
        for _ in 0..n {
            encode_request(&mut wire, OpCode::Draw, &[]);
        }
        wire
    }

    #[test]
    fn budget_defers_the_k_plus_first_frame_until_a_response_drains() {
        // Six frames arrive at once; with a budget of 4 the reactor must
        // decode exactly 4 and leave the rest unread in the "kernel".
        let service = ShardedService::new(
            (1..=16).map(f64::from).collect(),
            ServiceConfig {
                shards: 2,
                fanout_workers: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let core = service.core();
        let sock = FakeSock::with_input(draw_frames(6));
        let mut conn = Connection::new(sock, 7);
        let deferred = conn.read_frames(4).unwrap();
        assert!(deferred, "budget was reached, reading must defer");
        assert_eq!(conn.run.len(), 4);
        // Another readiness event before the run is answered (e.g.
        // EPOLLRDHUP on a half-close) must not decode past the budget.
        assert!(
            conn.read_frames(4).unwrap(),
            "the budget still caps the turn"
        );
        assert_eq!(conn.run.len(), 4);
        assert_eq!(
            conn.sock.unread(),
            draw_frames(2).len(),
            "the 5th and 6th frames must stay unread in the socket buffer"
        );

        // Answering the run frees the budget: now (and only now) the
        // remaining frames may be read.
        conn.serve(&core);
        assert!(conn.run.is_empty());
        assert!(conn.wants_write());
        let deferred = conn.read_frames(4).unwrap();
        assert!(!deferred);
        assert_eq!(conn.run.len(), 2);
        assert_eq!(conn.sock.unread(), 0);
        conn.serve(&core);
        assert!(conn.flush().unwrap());

        // Six answers, one per frame, in order.
        let mut responses = conn.sock.written.as_slice();
        for _ in 0..6 {
            let payload = read_response(&mut responses).unwrap();
            assert!(u64::from_le_bytes(payload.try_into().unwrap()) < 16);
        }
        assert!(responses.is_empty());
    }

    #[test]
    fn torn_frames_resume_across_reads() {
        // A frame split at every byte must decode once the bytes arrive.
        let wire = draw_frames(2);
        let mut conn = Connection::new(FakeSock::with_input(Vec::new()), 1);
        for &byte in &wire {
            conn.sock.input.push(byte);
            let _ = conn.read_frames(64).unwrap();
        }
        assert_eq!(conn.run.len(), 2);
    }

    #[test]
    fn out_buf_survives_partial_writes_and_compaction() {
        let mut out = OutBuf::default();
        let payload: Vec<u8> = (0..=255u8).cycle().take(40_000).collect();
        out.append(&payload);
        let mut sink = FakeSock::with_input(Vec::new());
        sink.write_cap = 3; // 3 bytes per write, WouldBlock in between
        let mut rounds = 0usize;
        while !out.flush(&mut sink).unwrap() {
            rounds += 1;
            assert!(rounds < 100_000, "flush never completed");
            if rounds == 5 {
                // Mid-flush append must not corrupt the stream.
                out.append(&[0xAA, 0xBB]);
            }
        }
        assert!(out.is_empty());
        let mut expected = payload.clone();
        expected.extend_from_slice(&[0xAA, 0xBB]);
        assert_eq!(sink.written, expected);
    }

    #[test]
    fn slow_consumer_backlog_is_what_the_socket_refused() {
        let sock = FakeSock::with_input(draw_frames(1));
        let mut conn = Connection::new(sock, 3);
        conn.read_frames(64).unwrap();
        conn.run.clear();
        // The peer accepts 100 bytes and then stalls: the backlog the cap
        // judges is what remains after flushing, not the response size.
        conn.sock.write_cap = 100;
        let big = vec![0u8; 4096];
        conn.out.append(&big);
        assert_eq!(conn.outbound_len(), 4096);
        assert!(
            !conn.flush().unwrap(),
            "stalled peer must report WouldBlock"
        );
        assert_eq!(conn.outbound_len(), 4096 - 100);
        assert!(conn.outbound_len() > 1024, "backlog exceeds a 1 KiB cap");
    }

    /// What a request frame's response must look like.
    #[derive(Debug, Clone, Copy)]
    enum Expect {
        /// Unknown opcode: a `PROTOCOL` error naming it.
        Unknown(u8),
        /// A single draw: one in-range `u64` index.
        Draw,
        /// `DRAW_BATCH` of this count: the count, then that many indices.
        DrawBatch(u32),
        /// `UPDATE` / `UPDATE_BATCH` / `SCALE`: an empty OK.
        Empty,
        /// `PUBLISH` / `TOTALS`: a shard count, then one `u64` per shard.
        PerShard,
        /// `METRICS`: a JSON document.
        Metrics,
        /// A known opcode with a random payload: any in-band answer.
        Any,
    }

    /// One length-prefixed request frame with a raw opcode byte.
    fn raw_frame(wire: &mut Vec<u8>, opcode: u8, payload: &[u8]) {
        wire.extend_from_slice(&(1 + payload.len() as u32).to_le_bytes());
        wire.push(opcode);
        wire.extend_from_slice(payload);
    }

    /// One random request: a valid frame of a random opcode, the same
    /// opcode with a random payload, or an unknown opcode.
    fn random_frame(rng: &mut SplitMix64, wire: &mut Vec<u8>, categories: u64) -> Expect {
        let random_payload = |rng: &mut SplitMix64| -> Vec<u8> {
            let len = rng.next_u64() % 24;
            (0..len).map(|_| rng.next_u64() as u8).collect()
        };
        match rng.next_u64() % 10 {
            0 => {
                // 0x00 or 0x09..=0xFF: never a known opcode.
                let opcode = match rng.next_u64() % 248 {
                    0 => 0,
                    k => 8 + k as u8,
                };
                raw_frame(wire, opcode, &random_payload(rng));
                Expect::Unknown(opcode)
            }
            1 => {
                let opcode = 1 + (rng.next_u64() % 8) as u8;
                raw_frame(wire, opcode, &random_payload(rng));
                Expect::Any
            }
            kind => {
                let mut payload = Vec::new();
                let weight = |rng: &mut SplitMix64| (1 + rng.next_u64() % 100) as f64;
                let (opcode, expect) = match kind {
                    2 | 3 => (OpCode::Draw, Expect::Draw),
                    4 => {
                        let count = (rng.next_u64() % 40) as u32;
                        payload.extend_from_slice(&count.to_le_bytes());
                        (OpCode::DrawBatch, Expect::DrawBatch(count))
                    }
                    5 => {
                        payload.extend_from_slice(&(rng.next_u64() % categories).to_le_bytes());
                        payload.extend_from_slice(&weight(rng).to_bits().to_le_bytes());
                        (OpCode::Update, Expect::Empty)
                    }
                    6 => {
                        let count = (rng.next_u64() % 4) as u32;
                        payload.extend_from_slice(&count.to_le_bytes());
                        for _ in 0..count {
                            payload.extend_from_slice(&(rng.next_u64() % categories).to_le_bytes());
                            payload.extend_from_slice(&weight(rng).to_bits().to_le_bytes());
                        }
                        (OpCode::UpdateBatch, Expect::Empty)
                    }
                    7 => {
                        let factor = [0.5f64, 1.0, 2.0][(rng.next_u64() % 3) as usize];
                        payload.extend_from_slice(&factor.to_bits().to_le_bytes());
                        (OpCode::Scale, Expect::Empty)
                    }
                    8 => {
                        if rng.next_u64().is_multiple_of(2) {
                            (OpCode::Publish, Expect::PerShard)
                        } else {
                            (OpCode::Totals, Expect::PerShard)
                        }
                    }
                    _ => (OpCode::Metrics, Expect::Metrics),
                };
                encode_request(wire, opcode, &payload);
                expect
            }
        }
    }

    fn check_response(response: Result<Vec<u8>, ServiceError>, expect: Expect, shards: usize) {
        let ok_len = |response: &Result<Vec<u8>, ServiceError>| match response {
            Ok(payload) => Some(payload.len()),
            Err(_) => None,
        };
        match expect {
            Expect::Unknown(opcode) => match response {
                Err(ServiceError::Remote { code, message }) => {
                    assert_eq!(code, codes::PROTOCOL, "{message}");
                    assert!(message.contains(&format!("{opcode:#04x}")), "{message}");
                }
                other => panic!("unknown opcode {opcode:#04x} answered {other:?}"),
            },
            Expect::Draw => assert_eq!(ok_len(&response), Some(8), "{response:?}"),
            Expect::DrawBatch(count) => {
                let payload = response.expect("a valid DRAW_BATCH must succeed");
                assert_eq!(payload.len(), 4 + 8 * count as usize);
                assert_eq!(payload[..4], count.to_le_bytes());
            }
            Expect::Empty => assert_eq!(ok_len(&response), Some(0), "{response:?}"),
            Expect::PerShard => {
                assert_eq!(ok_len(&response), Some(4 + 8 * shards), "{response:?}")
            }
            Expect::Metrics => {
                assert_eq!(response.expect("METRICS must succeed").first(), Some(&b'{'))
            }
            Expect::Any => assert!(
                matches!(response, Ok(_) | Err(ServiceError::Remote { .. })),
                "{response:?}"
            ),
        }
    }

    #[test]
    fn arbitrary_byte_streams_get_one_ordered_response_per_frame() {
        // Random request streams — valid frames of every opcode, known
        // opcodes with random payloads, unknown opcodes — arrive in random
        // chunks under a random frame budget and run through the
        // reactor's own sequence: read_frames → serve → flush. Half the
        // streams end in an illegal length prefix.
        let service = ShardedService::new(
            (1..=16).map(f64::from).collect(),
            ServiceConfig {
                shards: 2,
                fanout_workers: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let core = service.core();
        for case in 0..128u64 {
            let mut rng = SplitMix64::new(0xB17E_5EED ^ case);
            let mut wire = Vec::new();
            let expects: Vec<Expect> = (0..1 + rng.next_u64() % 24)
                .map(|_| random_frame(&mut rng, &mut wire, core.len() as u64))
                .collect();
            let frames_end = wire.len();
            let bad_prefix = case % 2 == 1;
            if bad_prefix {
                let over = MAX_FRAME as u32 + 1;
                let len = match rng.next_u64() % 2 {
                    0 => 0,
                    _ => over + (rng.next_u64() % u64::from(u32::MAX - over + 1)) as u32,
                };
                wire.extend_from_slice(&len.to_le_bytes());
                // Bytes a body would have been read from.
                wire.extend((0..rng.next_u64() % 16).map(|_| rng.next_u64() as u8));
            }
            let budget = 1 + (rng.next_u64() % 8) as usize;

            let mut conn = Connection::new(FakeSock::with_input(Vec::new()), case);
            let mut fed = 0usize;
            let mut answered = 0usize;
            let mut failed = false;
            for _ in 0..100_000 {
                if fed < wire.len() {
                    let chunk = (1 + rng.next_u64() % 32) as usize;
                    let next = (fed + chunk).min(wire.len());
                    conn.sock.input.extend_from_slice(&wire[fed..next]);
                    fed = next;
                }
                if !failed {
                    if let Err(error) = conn.read_frames(budget) {
                        assert!(bad_prefix, "case {case}: valid stream rejected: {error}");
                        assert_eq!(error.kind(), io::ErrorKind::InvalidData, "case {case}");
                        failed = true;
                    }
                }
                answered += conn.run.len();
                conn.serve(&core);
                assert!(conn.flush().unwrap(), "case {case}: flush stalled");
                if failed || (fed == wire.len() && conn.sock.unread() == 0) {
                    break;
                }
            }
            assert_eq!(failed, bad_prefix, "case {case}");
            assert_eq!(answered, expects.len(), "case {case}: frames lost");
            assert!(conn.run.is_empty(), "case {case}");
            if bad_prefix {
                // The reader stopped right after the illegal prefix: not
                // one body byte was read.
                assert_eq!(conn.sock.at, frames_end + 4, "case {case}");
            }

            let mut responses = conn.sock.written.as_slice();
            for (k, &expect) in expects.iter().enumerate() {
                let response = read_response(&mut responses);
                assert!(
                    !matches!(response, Err(ServiceError::Io(_))),
                    "case {case}: response {k} missing"
                );
                check_response(response, expect, core.shard_count());
            }
            assert!(responses.is_empty(), "case {case}: extra response bytes");
        }
    }

    #[test]
    fn write_zero_is_a_transport_error() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = OutBuf::default();
        out.append(&[1, 2, 3]);
        assert_eq!(
            out.flush(&mut Dead).unwrap_err().kind(),
            io::ErrorKind::WriteZero
        );
    }
}
