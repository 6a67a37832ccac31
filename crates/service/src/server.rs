//! The request layer: an event-driven TCP/UDS server speaking the
//! length-prefixed binary protocol of [`crate::protocol`].
//!
//! On Linux the server runs [`ServerConfig::reactors`] epoll reactor
//! threads (the private `reactor` module) multiplexing every connection
//! and executing its decoded frames inline against the sharded core —
//! total thread count is **O(reactors + shards)** regardless of how many
//! connections are open. Connections are nonblocking; idle ones cost
//! nothing (no poll-loop wakeups, no thread stacks). On other platforms a
//! blocking thread-per-connection fallback keeps the same wire behaviour.
//!
//! Request execution semantics per connection:
//!
//! * frames execute strictly in arrival order, on the reactor thread that
//!   owns the connection, and responses are written in that order, so a
//!   pipelining client correlates by position;
//! * a **run** of `k >= 1` consecutive `DRAW` frames from one connection
//!   is served by a single fused two-level batch
//!   ([`ServiceCore::draw_many`]) on the connection's own RNG — pipelined
//!   single draws get batch-draw throughput automatically, and a lone
//!   `DRAW` is simply a run of one;
//! * at most [`ServerConfig::inflight_budget`] frames are decoded from a
//!   connection per readiness turn and answered before it reads more; the
//!   rest waits in the socket for a later turn (TCP flow control pushes
//!   back on the client);
//! * a `PUBLISH` (including a `FsyncPolicy::Always` WAL fsync) or a large
//!   `UPDATE_BATCH` runs on its reactor too, stalling that reactor's other
//!   connections while it runs; [`ServiceConfig::publish_interval`]
//!   publisher threads keep publishes off the request path;
//! * a connection whose buffered responses exceed
//!   [`ServerConfig::max_outbound_bytes`] is disconnected (slow-consumer
//!   policy) with a journaled [`ServiceEvent::SlowConsumer`] reason.
//!
//! [`ServiceEvent::SlowConsumer`]: crate::telemetry::ServiceEvent
//! [`ServiceConfig::publish_interval`]: crate::sharded::ServiceConfig::publish_interval

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
#[cfg(not(target_os = "linux"))]
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lrb_rng::MersenneTwister64;

use crate::protocol::{codes, encode_err, encode_ok, error_code, Cursor, Frame, OpCode, MAX_BATCH};
use crate::sharded::ServiceCore;

/// Back-off before retrying a failed `accept()` (e.g. fd exhaustion), so a
/// persistent error cannot busy-spin the accept loop.
const ACCEPT_RETRY_DELAY: Duration = Duration::from_millis(20);

/// Timeout on the throwaway connection that unblocks the accept loop at
/// shutdown.
const SHUTDOWN_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Sizing and backpressure knobs for [`ServiceServer`].
///
/// The defaults suit a small host: reactors scale with cores up to 4
/// (thousands of mostly-idle connections per reactor are fine — each costs
/// one epoll registration and a couple of buffers, not a thread). Each
/// reactor both multiplexes its connections and executes their requests.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reactor (event-loop and request-execution) threads; `0` =
    /// `min(4, cores)`.
    pub reactors: usize,
    /// Max frames decoded from one connection per readiness turn; they
    /// are answered before the reactor reads that connection again
    /// (connection-level fairness and backpressure).
    pub inflight_budget: usize,
    /// Max buffered outbound response bytes per connection before the
    /// slow-consumer policy disconnects it.
    pub max_outbound_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            reactors: 0,
            inflight_budget: 64,
            max_outbound_bytes: 16 << 20,
        }
    }
}

impl ServerConfig {
    /// The reactor-thread count after resolving the `0 = auto` default.
    pub fn resolved_reactors(&self) -> usize {
        if self.reactors > 0 {
            self.reactors
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4)
        }
    }
}

/// Where a running server is listening.
#[derive(Debug, Clone)]
pub enum ServerAddr {
    /// A TCP socket address (use with [`crate::ServiceClient::connect_tcp`]).
    Tcp(SocketAddr),
    /// A Unix-domain socket path (use with
    /// [`crate::ServiceClient::connect_uds`]).
    #[cfg(unix)]
    Unix(PathBuf),
}

enum Incoming {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// A running selection server. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop and the reactors,
/// closes every connection and, for UDS, removes the socket file.
pub struct ServiceServer {
    addr: ServerAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    runtime: Runtime,
}

impl std::fmt::Debug for ServiceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServiceServer {
    /// Bind a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral port)
    /// and start serving `core` with default sizing. `seed` keys the
    /// server-side RNGs.
    pub fn bind_tcp(
        core: Arc<ServiceCore>,
        addr: impl ToSocketAddrs,
        seed: u64,
    ) -> std::io::Result<Self> {
        Self::bind_tcp_with(core, addr, seed, ServerConfig::default())
    }

    /// [`bind_tcp`](Self::bind_tcp) with explicit [`ServerConfig`] knobs.
    pub fn bind_tcp_with(
        core: Arc<ServiceCore>,
        addr: impl ToSocketAddrs,
        seed: u64,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Self::start(
            core,
            Incoming::Tcp(listener),
            ServerAddr::Tcp(local),
            seed,
            config,
        )
    }

    /// Bind a Unix-domain socket at `path` (removed on shutdown) and start
    /// serving `core` with default sizing.
    #[cfg(unix)]
    pub fn bind_uds(
        core: Arc<ServiceCore>,
        path: impl Into<PathBuf>,
        seed: u64,
    ) -> std::io::Result<Self> {
        Self::bind_uds_with(core, path, seed, ServerConfig::default())
    }

    /// [`bind_uds`](Self::bind_uds) with explicit [`ServerConfig`] knobs.
    #[cfg(unix)]
    pub fn bind_uds_with(
        core: Arc<ServiceCore>,
        path: impl Into<PathBuf>,
        seed: u64,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let path = path.into();
        // A stale socket file from a crashed predecessor would fail the
        // bind; remove it (ignoring "was not there").
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Self::start(
            core,
            Incoming::Unix(listener),
            ServerAddr::Unix(path),
            seed,
            config,
        )
    }

    fn start(
        core: Arc<ServiceCore>,
        listener: Incoming,
        addr: ServerAddr,
        seed: u64,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let (runtime, accept) = Runtime::start(core, listener, Arc::clone(&stop), seed, config)?;
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
            runtime,
        })
    }

    /// Where the server is listening (for clients; the TCP variant carries
    /// the resolved ephemeral port).
    pub fn local_addr(&self) -> &ServerAddr {
        &self.addr
    }

    /// Stop accepting, wake and join the reactors, close every connection
    /// and clean up the socket. Also runs on drop.
    ///
    /// This is the *abrupt* path: connections close regardless of
    /// in-flight work. For a graceful stop that lets in-flight requests
    /// finish and flushes their responses first, use
    /// [`shutdown_within`](Self::shutdown_within).
    pub fn shutdown(&mut self) {
        if self.stop_accepting() {
            self.runtime.shutdown();
            self.cleanup_socket();
        }
    }

    /// Gracefully drain and stop within `deadline`: stop accepting new
    /// connections, stop *reading* on existing ones (every request already
    /// read has been answered), let buffered responses flush, then close.
    /// Connections still unflushed when the deadline expires are closed
    /// anyway and counted as abandoned in the journaled
    /// [`ServiceEvent::Drained`](crate::ServiceEvent::Drained) (one entry
    /// per reactor). Also safe to call after a shutdown (no-op).
    ///
    /// On non-Linux hosts (the thread-per-connection fallback) this is
    /// plain [`shutdown`](Self::shutdown): in-flight requests there
    /// complete on their own threads anyway.
    pub fn shutdown_within(&mut self, deadline: Duration) {
        if self.stop_accepting() {
            self.runtime.shutdown_within(deadline);
            self.cleanup_socket();
        }
    }

    /// Set the stop flag, unblock and join the accept thread. Returns
    /// false when shutdown already ran.
    fn stop_accepting(&mut self) -> bool {
        if self.accept.is_none() {
            return false;
        }
        self.stop.store(true, Ordering::Release);
        // Unblock the blocking accept with a throwaway connection.
        match &self.addr {
            ServerAddr::Tcp(addr) => {
                let _ = TcpStream::connect_timeout(addr, SHUTDOWN_CONNECT_TIMEOUT);
            }
            #[cfg(unix)]
            ServerAddr::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        true
    }

    fn cleanup_socket(&self) {
        #[cfg(unix)]
        if let ServerAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ServiceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Derive the per-connection RNG seed for connection `token` (SplitMix
/// keeps adjacent tokens decorrelated).
fn connection_seed(seed: u64, token: u64) -> u64 {
    let mut mixer = lrb_rng::SplitMix64::new(seed ^ token.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    lrb_rng::RandomSource::next_u64(&mut mixer)
}

// ---------------------------------------------------------------------------
// Linux: epoll reactor runtime.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
struct Runtime {
    reactors: Arc<Vec<Arc<crate::reactor::ReactorShared>>>,
    reactor_threads: Vec<JoinHandle<()>>,
}

#[cfg(target_os = "linux")]
impl Runtime {
    fn start(
        core: Arc<ServiceCore>,
        listener: Incoming,
        stop: Arc<AtomicBool>,
        seed: u64,
        config: ServerConfig,
    ) -> std::io::Result<(Self, JoinHandle<()>)> {
        use crate::reactor::{ReactorContext, ReactorShared};

        let reactors = (0..config.resolved_reactors())
            .map(|_| ReactorShared::new().map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;
        let reactors = Arc::new(reactors);
        let reactor_threads = reactors
            .iter()
            .map(|shared| {
                let ctx = ReactorContext {
                    shared: Arc::clone(shared),
                    core: Arc::clone(&core),
                    budget: config.inflight_budget.max(1),
                    max_outbound: config.max_outbound_bytes.max(1),
                };
                std::thread::spawn(move || crate::reactor::run_reactor(ctx))
            })
            .collect();
        let accept = {
            let reactors = Arc::clone(&reactors);
            std::thread::spawn(move || accept_loop(listener, reactors, stop, seed))
        };
        Ok((
            Self {
                reactors,
                reactor_threads,
            },
            accept,
        ))
    }

    fn shutdown(&mut self) {
        for reactor in self.reactors.iter() {
            reactor.request_shutdown();
        }
        self.join_all();
    }

    /// Graceful drain: the reactors keep flushing until every connection's
    /// responses are written or `deadline` elapses, then they join.
    fn shutdown_within(&mut self, deadline: Duration) {
        let by = Instant::now() + deadline;
        for reactor in self.reactors.iter() {
            reactor.request_drain(by);
        }
        self.join_all();
    }

    fn join_all(&mut self) {
        for handle in self.reactor_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(target_os = "linux")]
fn accept_loop(
    listener: Incoming,
    reactors: Arc<Vec<Arc<crate::reactor::ReactorShared>>>,
    stop: Arc<AtomicBool>,
    seed: u64,
) {
    use crate::reactor::{Registration, Socket};

    let mut next_token: u64 = 1; // u64::MAX is the reactors' wake token
    loop {
        let socket: std::io::Result<Socket> = match &listener {
            Incoming::Tcp(l) => l.accept().and_then(|(s, _)| {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(Socket::Tcp(s))
            }),
            #[cfg(unix)]
            Incoming::Unix(l) => l.accept().and_then(|(s, _)| {
                s.set_nonblocking(true)?;
                Ok(Socket::Unix(s))
            }),
        };
        if stop.load(Ordering::Acquire) {
            break;
        }
        let socket = match socket {
            Ok(socket) => socket,
            Err(_) => {
                // A persistent accept failure (e.g. EMFILE under fd
                // exhaustion) would otherwise busy-spin this loop at 100%
                // CPU; back off briefly before retrying.
                std::thread::sleep(ACCEPT_RETRY_DELAY);
                continue;
            }
        };
        let token = next_token;
        next_token += 1;
        reactors[(token as usize) % reactors.len()].register(Registration {
            socket,
            token,
            rng_seed: connection_seed(seed, token),
        });
    }
}

// ---------------------------------------------------------------------------
// Fallback (non-Linux): blocking thread-per-connection, same wire
// behaviour, no backpressure beyond the socket buffers.
// ---------------------------------------------------------------------------

#[cfg(not(target_os = "linux"))]
struct Runtime {
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

#[cfg(not(target_os = "linux"))]
impl Runtime {
    fn start(
        core: Arc<ServiceCore>,
        listener: Incoming,
        stop: Arc<AtomicBool>,
        seed: u64,
        _config: ServerConfig,
    ) -> std::io::Result<(Self, JoinHandle<()>)> {
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let handlers = Arc::clone(&handlers);
            std::thread::spawn(move || fallback_accept_loop(listener, core, stop, seed, handlers))
        };
        Ok((Self { handlers }, accept))
    }

    fn shutdown(&mut self) {
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.handlers.lock().expect("handler list poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// The fallback's handlers each complete their current request before
    /// observing the stop flag, so the plain shutdown already drains.
    fn shutdown_within(&mut self, _deadline: Duration) {
        self.shutdown();
    }
}

#[cfg(not(target_os = "linux"))]
fn fallback_accept_loop(
    listener: Incoming,
    core: Arc<ServiceCore>,
    stop: Arc<AtomicBool>,
    seed: u64,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    use std::io::Write;

    /// Shutdown-observation latency of the blocking fallback.
    const READ_TIMEOUT: Duration = Duration::from_millis(100);

    trait Conn: std::io::Read + Write + Send {}
    impl Conn for TcpStream {}
    #[cfg(unix)]
    impl Conn for UnixStream {}

    let mut next_token: u64 = 1;
    loop {
        let stream: std::io::Result<Box<dyn Conn>> = match &listener {
            Incoming::Tcp(l) => l.accept().and_then(|(s, _)| {
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(READ_TIMEOUT))?;
                Ok(Box::new(s) as Box<dyn Conn>)
            }),
            #[cfg(unix)]
            Incoming::Unix(l) => l.accept().and_then(|(s, _)| {
                s.set_read_timeout(Some(READ_TIMEOUT))?;
                Ok(Box::new(s) as Box<dyn Conn>)
            }),
        };
        if stop.load(Ordering::Acquire) {
            break;
        }
        let mut stream = match stream {
            Ok(stream) => stream,
            Err(_) => {
                std::thread::sleep(ACCEPT_RETRY_DELAY);
                continue;
            }
        };
        let token = next_token;
        next_token += 1;
        let mut rng: MersenneTwister64 =
            lrb_rng::SeedableSource::seed_from_u64(connection_seed(seed, token));
        let handler = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reader = crate::protocol::FrameReader::new();
                while !stop.load(Ordering::Acquire) {
                    let frame = match reader.poll(&mut stream) {
                        Ok(Some(frame)) => frame,
                        Ok(None) => continue,
                        Err(_) => return,
                    };
                    let bytes = execute_run(std::slice::from_ref(&frame), &core, &mut rng);
                    if stream.write_all(&bytes).is_err() {
                        return;
                    }
                }
            })
        };
        let mut handlers = handlers.lock().expect("handler list poisoned");
        handlers.push(handler);
        handlers.retain(|h| !h.is_finished());
    }
}

// ---------------------------------------------------------------------------
// Frame execution (shared by the reactors and the fallback).
// ---------------------------------------------------------------------------

/// Execute a run of frames from one connection, in order, and return the
/// encoded responses (one per frame, same order).
///
/// Every run of `k >= 1` consecutive empty-payload `DRAW` frames is served
/// by one [`ServiceCore::draw_many`] on the connection's own RNG and
/// recorded as one batch of `k` in the telemetry. Protocol and selection
/// errors are answered in-band, so this never fails — transport problems
/// are the caller's (the reactor's) concern.
pub(crate) fn execute_run(
    frames: &[Frame],
    core: &ServiceCore,
    rng: &mut MersenneTwister64,
) -> Vec<u8> {
    let is_draw = |frame: &Frame| frame.opcode == OpCode::Draw as u8 && frame.payload.is_empty();
    let mut out = Vec::new();
    let telemetry = core.telemetry();
    let mut i = 0;
    while i < frames.len() {
        let started = Instant::now();
        let run = frames[i..].iter().take_while(|f| is_draw(f)).count();
        if run == 0 {
            execute_one(&frames[i], core, rng, &mut out);
        } else {
            match core.draw_many(rng, run) {
                Ok(indices) => {
                    telemetry.record_batch(run as u64);
                    for index in indices {
                        encode_ok(&mut out, &(index as u64).to_le_bytes());
                    }
                }
                Err(e) => {
                    let code = error_code(&e);
                    let message = e.to_string();
                    for _ in 0..run {
                        encode_err(&mut out, code, &message);
                    }
                }
            }
        }
        let served = run.max(1);
        for _ in 0..served {
            telemetry.record_request_span(started);
        }
        i += served;
    }
    out
}

/// Handle one decoded frame that is not part of a `DRAW` run, appending
/// its encoded response to `out`. Protocol and selection errors are
/// answered in-band.
fn execute_one(frame: &Frame, core: &ServiceCore, rng: &mut MersenneTwister64, out: &mut Vec<u8>) {
    let Some(opcode) = OpCode::from_u8(frame.opcode) else {
        encode_err(
            out,
            codes::PROTOCOL,
            &format!("unknown opcode {:#04x}", frame.opcode),
        );
        return;
    };
    // Decode-and-execute; any ServiceError becomes an in-band error frame.
    let outcome: Result<Vec<u8>, (u8, String)> = match opcode {
        // `execute_run` serves every empty-payload DRAW as part of a run,
        // so a DRAW that reaches here carries a payload.
        OpCode::Draw => {
            Err(decode_empty(&frame.payload).expect_err("empty-payload DRAWs are served as runs"))
        }
        OpCode::DrawBatch => decode_count(&frame.payload).and_then(|count| {
            core.draw_many(rng, count as usize)
                .map(|indices| {
                    let mut payload = Vec::with_capacity(4 + 8 * indices.len());
                    payload.extend_from_slice(&count.to_le_bytes());
                    for index in indices {
                        payload.extend_from_slice(&(index as u64).to_le_bytes());
                    }
                    payload
                })
                .map_err(|e| (error_code(&e), e.to_string()))
        }),
        OpCode::Update => decode_update(&frame.payload).and_then(|(index, weight)| {
            core.update(index, weight)
                .map(|()| Vec::new())
                .map_err(|e| (error_code(&e), e.to_string()))
        }),
        OpCode::UpdateBatch => decode_update_batch(&frame.payload).and_then(|updates| {
            core.update_many(&updates)
                .map(|()| Vec::new())
                .map_err(|e| (error_code(&e), e.to_string()))
        }),
        OpCode::Scale => decode_scale(&frame.payload).and_then(|factor| {
            core.scale_all(factor)
                .map(|()| Vec::new())
                .map_err(|e| (error_code(&e), e.to_string()))
        }),
        OpCode::Publish => decode_empty(&frame.payload).and_then(|()| {
            core.publish_all()
                .map(|versions| {
                    let mut payload = Vec::with_capacity(4 + 8 * versions.len());
                    payload.extend_from_slice(&(versions.len() as u32).to_le_bytes());
                    for version in versions {
                        payload.extend_from_slice(&version.to_le_bytes());
                    }
                    payload
                })
                .map_err(|e| (error_code(&e), e.to_string()))
        }),
        OpCode::Totals => decode_empty(&frame.payload).map(|()| {
            let totals = core.shard_totals();
            let mut payload = Vec::with_capacity(4 + 8 * totals.len());
            payload.extend_from_slice(&(totals.len() as u32).to_le_bytes());
            for total in totals {
                payload.extend_from_slice(&total.to_bits().to_le_bytes());
            }
            payload
        }),
        OpCode::Metrics => {
            decode_empty(&frame.payload).map(|()| core.metrics().to_json().into_bytes())
        }
    };
    match outcome {
        Ok(payload) => encode_ok(out, &payload),
        Err((code, message)) => encode_err(out, code, &message),
    }
}

/// Reject any payload on an opcode that takes none.
fn decode_empty(payload: &[u8]) -> Result<(), (u8, String)> {
    Cursor::new(payload)
        .done()
        .map_err(|e| (codes::PROTOCOL, e.to_string()))
}

fn decode_count(payload: &[u8]) -> Result<u32, (u8, String)> {
    let mut cursor = Cursor::new(payload);
    let count = cursor
        .u32()
        .and_then(|c| cursor.done().map(|()| c))
        .map_err(|e| (codes::PROTOCOL, e.to_string()))?;
    if count > MAX_BATCH {
        return Err((
            codes::PROTOCOL,
            format!("batch count {count} exceeds {MAX_BATCH}"),
        ));
    }
    Ok(count)
}

fn decode_update(payload: &[u8]) -> Result<(usize, f64), (u8, String)> {
    fn inner(payload: &[u8]) -> Result<(usize, f64), crate::error::ServiceError> {
        let mut cursor = Cursor::new(payload);
        let index = cursor.u64()? as usize;
        let weight = cursor.f64()?;
        cursor.done()?;
        Ok((index, weight))
    }
    inner(payload).map_err(|e| (codes::PROTOCOL, e.to_string()))
}

fn decode_update_batch(payload: &[u8]) -> Result<Vec<(usize, f64)>, (u8, String)> {
    fn inner(payload: &[u8]) -> Result<Vec<(usize, f64)>, crate::error::ServiceError> {
        let mut cursor = Cursor::new(payload);
        let count = cursor.u32()?;
        if count > MAX_BATCH {
            return Err(crate::error::ServiceError::Protocol(format!(
                "batch count {count} exceeds {MAX_BATCH}"
            )));
        }
        let mut updates = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let index = cursor.u64()? as usize;
            let weight = cursor.f64()?;
            updates.push((index, weight));
        }
        cursor.done()?;
        Ok(updates)
    }
    inner(payload).map_err(|e| (codes::PROTOCOL, e.to_string()))
}

fn decode_scale(payload: &[u8]) -> Result<f64, (u8, String)> {
    fn inner(payload: &[u8]) -> Result<f64, crate::error::ServiceError> {
        let mut cursor = Cursor::new(payload);
        let factor = cursor.f64()?;
        cursor.done()?;
        Ok(factor)
    }
    inner(payload).map_err(|e| (codes::PROTOCOL, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_response;
    use crate::sharded::{ServiceConfig, ShardedService};
    use lrb_rng::SeedableSource;

    fn draw_frame() -> Frame {
        Frame {
            opcode: OpCode::Draw as u8,
            payload: Vec::new(),
        }
    }

    #[test]
    fn a_draw_run_is_served_and_recorded_as_one_batch() {
        let service =
            ShardedService::new((1..=16).map(f64::from).collect(), ServiceConfig::default())
                .unwrap();
        let core = service.core();
        let mut rng = MersenneTwister64::seed_from_u64(0x5EED);
        let telemetry = core.telemetry();
        let (batches, batched_draws) = (telemetry.batches(), telemetry.batched_draws());

        let frames = vec![draw_frame(); 16];
        let bytes = execute_run(&frames, &core, &mut rng);

        assert_eq!(telemetry.batches(), batches + 1);
        assert_eq!(telemetry.batched_draws(), batched_draws + 16);
        let mut reader = bytes.as_slice();
        for _ in 0..16 {
            let payload = read_response(&mut reader).unwrap();
            let index = u64::from_le_bytes(payload.try_into().unwrap());
            assert!(index < 16);
        }
        assert!(reader.is_empty(), "one response per frame");
    }
}
