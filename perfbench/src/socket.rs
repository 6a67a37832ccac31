//! The socket side: starting the service in-process and the load phases
//! that drive it over a Unix-domain socket (at most two client threads and
//! two connections per phase).

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use lrb_obs::HistogramSnapshot;
use lrb_rng::Xoshiro256PlusPlus;
use lrb_service::protocol::{encode_request, OpCode};
use lrb_service::{ServiceConfig, ServiceCore, ServiceServer, ShardedService};

use crate::report::Windows;
use crate::trace::Tracer;
use crate::wire::{Conn, Request, Tally};

/// Shortest time window of the latency phases (open loops and write
/// probes), seconds: short, so that some windows fall between the bursts
/// of interference from other tenants of the host.
const LATENCY_WINDOW_S: f64 = 0.05;

/// Requests an open-loop window holds at least, so that its p50 is not
/// itself a coin toss.
const LATENCY_WINDOW_REQUESTS: f64 = 50.0;

/// Length of the closed-loop phases' time windows, seconds: long enough
/// that the draws a window completes do not swing with how the pipelined
/// requests happen to be batched.
const WINDOW_S: f64 = 0.25;

/// A running service: the sharded core and its UDS server.
pub struct Running {
    /// Stopped first on drop, then the service's own threads.
    server: ServiceServer,
    service: ShardedService,
    /// Where the server listens.
    pub path: PathBuf,
}

impl Running {
    /// The shared core (for in-process layer timing and exported metrics).
    pub fn core(&self) -> Arc<ServiceCore> {
        self.service.core()
    }

    /// Stop the server and the service threads, waiting for each.
    pub fn stop(mut self) {
        self.server.shutdown();
        self.service.shutdown();
    }
}

/// Build the service over `weights`, bind it at `path` and complete one
/// draw over the socket. Returns the running service and the seconds the
/// whole set-up took.
pub fn start(
    weights: Vec<f64>,
    config: ServiceConfig,
    path: &Path,
    seed: u64,
) -> Result<(Running, f64), String> {
    let started = Instant::now();
    let service = ShardedService::new(weights, config).map_err(|e| e.to_string())?;
    let server = ServiceServer::bind_uds(service.core(), path, seed).map_err(|e| e.to_string())?;
    let mut conn = Conn::open(path).map_err(|e| e.to_string())?;
    conn.writer
        .write_all(&Request::draw().frame)
        .map_err(|e| e.to_string())?;
    conn.recv()?;
    let setup = started.elapsed().as_secs_f64();
    Ok((
        Running {
            server,
            service,
            path: path.to_path_buf(),
        },
        setup,
    ))
}

/// What one load phase produced.
#[derive(Debug)]
pub struct PhaseOut {
    /// Latency, lateness and completed draws per time window.
    pub windows: Windows,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed or returned a bad answer.
    pub failed: u64,
    /// Spans recorded (traced runs).
    pub tracer: Tracer,
}

impl PhaseOut {
    fn new(start: Instant, duration: Duration, window_s: f64, tracer: Tracer) -> Self {
        Self {
            windows: Windows::covering(start, duration, window_s),
            attempted: 0,
            failed: 0,
            tracer,
        }
    }

    fn absorb(&mut self, other: PhaseOut) {
        self.windows.merge(&other.windows);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.tracer.merge(other.tracer);
    }

    /// Count one completed operation: `draws` draws and a latency measured
    /// from `from`, in the window holding `key`.
    fn complete(&mut self, key: Instant, from: Instant, to: Instant, draws: u64) {
        if let Some(k) = self.windows.at(key) {
            self.windows.latency[k].record(nanos(to - from));
            self.windows.draws[k] += draws;
        }
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Sleep until `due` (never spins; the overshoot is the generator's
/// lateness and is recorded by the callers).
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        thread::sleep(due - now);
    }
}

/// Open loop on one pipelined connection: a sender thread writes request
/// `j` at `start + j/rate` (every request already due goes out in one
/// write), this thread reads the in-order responses. Latency counts from
/// the due instant.
pub fn open_loop(
    path: &Path,
    request: &Request,
    rate: f64,
    duration: Duration,
    tally: &mut Tally,
    tracer: &Tracer,
) -> io::Result<PhaseOut> {
    let mut conn = Conn::open(path)?;
    let total = (rate * duration.as_secs_f64()).ceil().max(1.0) as u64;
    let period_ns = 1e9 / rate;
    let start = Instant::now() + Duration::from_millis(1);
    let due = move |j: u64| start + Duration::from_nanos((j as f64 * period_ns) as u64);
    let window_s = LATENCY_WINDOW_S.max(LATENCY_WINDOW_REQUESTS / rate);
    let mut out = PhaseOut::new(start, duration, window_s, tracer.fork());
    let mut late = out.windows.clone();
    let mut writer = conn.writer.try_clone()?;
    let frame = &request.frame;
    thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<Windows> {
            let mut buf = Vec::new();
            let mut j = 0;
            while j < total {
                sleep_until(due(j));
                let now = Instant::now();
                buf.clear();
                while j < total && due(j) <= now {
                    buf.extend_from_slice(frame);
                    if let Some(k) = late.at(due(j)) {
                        late.late[k].record(nanos(now - due(j)));
                    }
                    j += 1;
                }
                writer.write_all(&buf)?;
            }
            Ok(late)
        });
        for j in 0..total {
            let payload = conn.recv();
            let now = Instant::now();
            out.attempted += 1;
            let Ok(payload) = payload else {
                // The connection is gone: every request not yet answered failed.
                out.failed += total - j;
                out.attempted += total - j - 1;
                break;
            };
            let ok = tally.check(request, &payload);
            let checked = Instant::now();
            if !ok {
                out.failed += 1;
                continue;
            }
            out.complete(due(j), due(j), now, request.draws());
            let root = out.tracer.record("open_loop.request", j, due(j), checked);
            out.tracer.child("client.check", root, j, now, checked);
        }
        match sender.join() {
            Ok(Ok(late)) => out.windows.merge(&late),
            Ok(Err(_)) | Err(_) => out.failed += 1,
        }
    });
    Ok(out)
}

/// Closed loop on `conns` connections (one client thread each), each
/// keeping `window` requests in flight until `duration` has passed; the
/// outstanding ones are then drained and checked but not counted. Each
/// window keeps only the draws it completed.
pub fn closed_loop(
    path: &Path,
    request: &Request,
    conns: usize,
    window: usize,
    duration: Duration,
    tally: &mut Tally,
    tracer: &Tracer,
) -> io::Result<PhaseOut> {
    let start = Instant::now();
    let mut merged = PhaseOut::new(start, duration, WINDOW_S, tracer.fork());
    let results: Vec<io::Result<(PhaseOut, Tally)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let tally = tally.fresh();
                let out = PhaseOut::new(start, duration, WINDOW_S, tracer.fork());
                scope.spawn(move || {
                    closed_conn(
                        path,
                        request,
                        window,
                        start + duration,
                        c as u64,
                        tally,
                        out,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
            })
            .collect()
    });
    for result in results {
        let (out, part) = result?;
        tally.merge(&part);
        merged.absorb(out);
    }
    Ok(merged)
}

fn closed_conn(
    path: &Path,
    request: &Request,
    window: usize,
    deadline: Instant,
    conn_id: u64,
    mut tally: Tally,
    mut out: PhaseOut,
) -> io::Result<(PhaseOut, Tally)> {
    let mut conn = Conn::open(path)?;
    let mut sent: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut burst = Vec::with_capacity(window * request.frame.len());
    let mut id = conn_id << 40;
    let mut answered = window;
    loop {
        // Replace what was answered, until the deadline; then drain.
        if answered > 0 && Instant::now() < deadline {
            burst.clear();
            for _ in 0..answered {
                burst.extend_from_slice(&request.frame);
            }
            conn.writer.write_all(&burst)?;
            let now = Instant::now();
            sent.extend(std::iter::repeat_n(now, answered));
            out.attempted += answered as u64;
        }
        answered = 0;
        // Block for one response, then take every one already buffered, so
        // a burst of answers is replaced with one write.
        while let Some(&sent_at) = sent.front() {
            if answered > 0 && !conn.frame_buffered() {
                break;
            }
            sent.pop_front();
            let Ok(payload) = conn.recv() else {
                out.failed += 1 + sent.len() as u64;
                return Ok((out, tally));
            };
            let now = Instant::now();
            if !tally.check(request, &payload) {
                out.failed += 1;
            } else if let Some(k) = out.windows.at(now) {
                out.windows.draws[k] += request.draws();
            }
            if out.tracer.enabled() {
                let root = out
                    .tracer
                    .record("closed_loop.request", id, sent_at, Instant::now());
                out.tracer
                    .child("client.check", root, id, now, Instant::now());
            }
            id += 1;
            answered += 1;
        }
        if sent.is_empty() && Instant::now() >= deadline {
            return Ok((out, tally));
        }
    }
}

/// Write cycles back to back on one connection for `duration`: each is an
/// `UPDATE_BATCH` of `overrides` seeded-random categories that writes back
/// their current `weights` (so the served law never changes), then
/// `PUBLISH`; its latency runs from sending the cycle to the `PUBLISH`
/// response, i.e. until the writes are visible.
pub fn write_cycles(
    path: &Path,
    overrides: usize,
    duration: Duration,
    weights: &[f64],
    rng: &mut Xoshiro256PlusPlus,
    tracer: &Tracer,
) -> io::Result<PhaseOut> {
    let mut conn = Conn::open(path)?;
    let start = Instant::now();
    let deadline = start + duration;
    let mut out = PhaseOut::new(start, duration, LATENCY_WINDOW_S, tracer.fork());
    let mut frames = Vec::new();
    let mut payload = Vec::new();
    let mut j = 0;
    while Instant::now() < deadline {
        // Build the cycle before timing it: generation is not charged.
        let updates = crate::gen::overrides(rng, weights, overrides);
        frames.clear();
        payload.clear();
        payload.extend_from_slice(&(updates.len() as u32).to_le_bytes());
        for &(index, weight) in &updates {
            payload.extend_from_slice(&(index as u64).to_le_bytes());
            payload.extend_from_slice(&weight.to_bits().to_le_bytes());
        }
        encode_request(&mut frames, OpCode::UpdateBatch, &payload);
        encode_request(&mut frames, OpCode::Publish, &[]);
        let sent = Instant::now();
        j += 1;
        out.attempted += 1;
        conn.writer.write_all(&frames)?;
        let ok = conn.recv().is_ok() & conn.recv().is_ok();
        let done = Instant::now();
        if !ok {
            out.failed += 1;
            continue;
        }
        out.complete(sent, sent, done, 0);
        out.tracer.record("write_cycle", j, sent, done);
    }
    Ok(out)
}

/// The exported service and engine metrics a phase is judged by, read
/// through the core's public accessors (the same values the `METRICS`
/// opcode serves).
#[derive(Debug, Clone)]
pub struct Exported {
    /// `lrb_service_agg_batches_total`.
    pub agg_batches: u64,
    /// `lrb_service_agg_batched_draws_total`.
    pub agg_draws: u64,
    /// `lrb_service_planner_batches_total`.
    pub planner_batches: u64,
    /// `lrb_service_read_deferrals_total`.
    pub read_deferrals: u64,
    /// `lrb_service_request_ns`.
    pub request_ns: HistogramSnapshot,
    /// Summed over shards: `lrb_publishes_total`.
    pub publishes: u64,
    /// Summed over shards: `lrb_patched_total`.
    pub patched: u64,
    /// Summed over shards: `lrb_backend_switches_total`.
    pub backend_switches: u64,
    /// Summed over shards: `lrb_wal_bytes_total`.
    pub wal_bytes: u64,
    /// Per shard: `lrb_publish_ns`.
    pub publish_ns: Vec<HistogramSnapshot>,
    /// Per shard: `lrb_freeze_ns`.
    pub freeze_ns: Vec<HistogramSnapshot>,
    /// Per shard: `lrb_wal_append_ns`.
    pub wal_append_ns: Vec<HistogramSnapshot>,
}

impl Exported {
    /// Read every metric once.
    pub fn read(core: &ServiceCore) -> Self {
        let t = core.telemetry();
        let engines: Vec<_> = (0..core.shard_count())
            .map(|s| core.shard_engine(s))
            .collect();
        let stats: Vec<_> = engines.iter().map(|e| e.stats()).collect();
        Self {
            agg_batches: t.batches(),
            agg_draws: t.batched_draws(),
            planner_batches: t.planner_batches(),
            read_deferrals: t.read_deferrals(),
            request_ns: t.request_latency(),
            publishes: stats.iter().map(|s| s.publishes).sum(),
            patched: stats.iter().map(|s| s.patched).sum(),
            backend_switches: stats.iter().map(|s| s.backend_switches).sum(),
            wal_bytes: engines.iter().map(|e| e.observability().wal_bytes()).sum(),
            publish_ns: engines
                .iter()
                .map(|e| e.observability().publish_latency())
                .collect(),
            freeze_ns: engines
                .iter()
                .map(|e| e.observability().freeze_latency())
                .collect(),
            wal_append_ns: engines
                .iter()
                .map(|e| e.observability().wal_append_latency())
                .collect(),
        }
    }
}
