//! The per-layer ladder (traced runs): each layer timed from outside by
//! calling its public functions on the workload's own inputs, with a span
//! around every timed block.

use std::io::{Read, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use lrb_core::parallel::{kernel_counters, ParallelLogBiddingSelector};
use lrb_core::{Fitness, Selector};
use lrb_engine::{Durability, EngineConfig, FsyncPolicy, WalOptions};
use lrb_rng::Xoshiro256PlusPlus;
use lrb_service::protocol::{encode_ok, encode_request, read_response, FrameReader};
use lrb_service::{ServiceConfig, ServiceCore, ShardedService};

use crate::report::{delta_quantile, median, Report};
use crate::socket::Exported;
use crate::trace::Tracer;
use crate::wire::{Conn, Request, Tally};

/// Draws per timed block of single-draw calls.
const BLOCK: usize = 256;
/// Buffer size of the batch rungs (the `batch_dense` request size).
const BATCH: usize = 4096;
/// Request/response pairs per timed codec block.
const CODEC_BLOCK: usize = 64;

/// Run `body` — one block of `calls` calls into a layer — until `budget`
/// is spent (at least 10 blocks); each block is one span named `name`.
/// Returns the nanoseconds per call of every block.
fn blocks(
    tracer: &mut Tracer,
    name: &'static str,
    budget: Duration,
    calls: usize,
    mut body: impl FnMut() -> bool,
    failed: &mut u64,
) -> Vec<f64> {
    let deadline = Instant::now() + budget;
    let mut out = Vec::new();
    while out.len() < 10 || Instant::now() < deadline {
        let started = Instant::now();
        let ok = body();
        let ended = Instant::now();
        if !ok {
            *failed += 1;
        }
        tracer.record(name, out.len() as u64, started, ended);
        out.push((ended - started).as_nanos() as f64 / calls as f64);
    }
    out
}

/// The serial round-trip rungs: one request at a time over a fresh
/// connection, split into client encode, wait and client decode; the
/// server's exported request histogram gives its share, and the rest of
/// the round trip is reported as transport.
pub fn serial_rtt(
    core: &ServiceCore,
    path: &Path,
    request: &Request,
    tally: &mut Tally,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> std::io::Result<()> {
    let mut conn = Conn::open(path)?;
    let before = Exported::read(core);
    let deadline = Instant::now() + budget;
    let (mut frame, mut raw) = (Vec::new(), Vec::new());
    let (mut rtt, mut encode, mut decode) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0;
    let mut id = 0u64;
    while rtt.len() < 100 || Instant::now() < deadline {
        let t0 = Instant::now();
        frame.clear();
        encode_request(&mut frame, request.op, &request.payload);
        let t1 = Instant::now();
        conn.writer.write_all(&frame)?;
        raw.resize(4, 0);
        conn.reader.read_exact(&mut raw[..4])?;
        let len = u32::from_le_bytes(raw[..4].try_into().expect("4 bytes")) as usize;
        raw.resize(4 + len, 0);
        conn.reader.read_exact(&mut raw[4..])?;
        let t2 = Instant::now();
        let payload = read_response(&mut raw.as_slice());
        let t3 = Instant::now();
        if !payload.is_ok_and(|p| tally.check(request, &p)) {
            failed += 1;
        }
        let root = tracer.record("ladder.rtt", id, t0, t3);
        tracer.child("client.encode", root, id, t0, t1);
        tracer.child("client.decode", root, id, t2, t3);
        rtt.push((t3 - t0).as_nanos() as f64);
        encode.push((t1 - t0).as_nanos() as f64);
        decode.push((t3 - t2).as_nanos() as f64);
        id += 1;
    }
    let after = Exported::read(core);
    report.ops(rtt.len() as u64, failed);
    let server_ns = delta_quantile(
        std::slice::from_ref(&before.request_ns),
        std::slice::from_ref(&after.request_ns),
        0.5,
    )
    .unwrap_or(f64::NAN);
    let rtt_us = median(&rtt) / 1e3;
    let codec_us = (median(&encode) + median(&decode)) / 1e3;
    let server_us = server_ns / 1e3;
    report.put("ladder.rtt_us", rtt_us, "us");
    report.put("ladder.codec_us", codec_us, "us");
    report.put("server.request_p50_us", server_us, "us");
    report.put("server.transport_us", rtt_us - codec_us - server_us, "us");
    Ok(())
}

/// In-memory codec rungs for the workload's request and a real response
/// to it: `encode_request` + `encode_ok`, then `FrameReader::poll` +
/// `read_response`, per request/response pair.
pub fn codec(
    core: &ServiceCore,
    request: &Request,
    rng: &mut Xoshiro256PlusPlus,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let draws = request.draws() as usize;
    let mut indices = vec![0usize; draws];
    let mut failed = 0;
    if core.draw_into(rng, &mut indices).is_err() {
        failed += 1;
    }
    let mut response_payload = Vec::with_capacity(4 + 8 * draws);
    if let Some(count) = request.batch {
        response_payload.extend_from_slice(&count.to_le_bytes());
    }
    for &index in &indices {
        response_payload.extend_from_slice(&(index as u64).to_le_bytes());
    }
    let mut request_bytes = Vec::new();
    let mut response_bytes = Vec::new();
    let encode = blocks(
        tracer,
        "protocol.encode",
        budget / 2,
        CODEC_BLOCK,
        || {
            for _ in 0..CODEC_BLOCK {
                request_bytes.clear();
                response_bytes.clear();
                encode_request(&mut request_bytes, request.op, &request.payload);
                encode_ok(&mut response_bytes, &response_payload);
                std::hint::black_box((&request_bytes, &response_bytes));
            }
            true
        },
        &mut failed,
    );
    let decode = blocks(
        tracer,
        "protocol.decode",
        budget / 2,
        CODEC_BLOCK,
        || {
            (0..CODEC_BLOCK).all(|_| {
                let frame = FrameReader::new().poll(&mut request_bytes.as_slice());
                let payload = read_response(&mut response_bytes.as_slice());
                matches!(frame, Ok(Some(ref f)) if f.opcode == request.op as u8)
                    && payload.is_ok_and(|p| p == response_payload)
            })
        },
        &mut failed,
    );
    report.ops((encode.len() + decode.len()) as u64, failed);
    report.put("protocol.encode_ns", median(&encode), "ns");
    report.put("protocol.decode_ns", median(&decode), "ns");
}

/// In-process draw rungs: `ServiceCore::draw` and `draw_into`, and a
/// shard engine's `read` + `Snapshot::sample` and `sample_into`.
pub fn draws(
    core: &ServiceCore,
    rng: &mut Xoshiro256PlusPlus,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let n = core.len();
    let mut failed = 0;
    let mut buf = vec![0usize; BATCH];
    let slice = budget / 4;
    let draw = blocks(
        tracer,
        "sharded.draw",
        slice,
        BLOCK,
        || (0..BLOCK).all(|_| core.draw(rng).is_ok_and(|i| i < n)),
        &mut failed,
    );
    let draw_into = blocks(
        tracer,
        "sharded.draw_into",
        slice,
        BATCH,
        || core.draw_into(rng, &mut buf).is_ok() && buf.iter().all(|&i| i < n),
        &mut failed,
    );
    // Engine rungs run on every shard with weight, in turn.
    let shards: Vec<usize> = (0..core.shard_count())
        .filter(|&s| core.shard_engine(s).total_weight() > 0.0)
        .collect();
    let mut turn = 0;
    let sample = blocks(
        tracer,
        "engine.sample",
        slice,
        BLOCK,
        || {
            turn += 1;
            let engine = core.shard_engine(shards[turn % shards.len()]);
            let len = engine.len();
            engine.read(|snap| (0..BLOCK).all(|_| snap.sample(rng).is_ok_and(|i| i < len)))
        },
        &mut failed,
    );
    let sample_into = blocks(
        tracer,
        "engine.sample_into",
        slice,
        BATCH,
        || {
            turn += 1;
            let engine = core.shard_engine(shards[turn % shards.len()]);
            let len = engine.len();
            engine.read(|snap| {
                snap.sample_into(rng, &mut buf).is_ok() && buf.iter().all(|&i| i < len)
            })
        },
        &mut failed,
    );
    report.ops(
        (draw.len() + draw_into.len() + sample.len() + sample_into.len()) as u64,
        failed,
    );
    report.put("sharded.draw_ns", median(&draw), "ns");
    report.put("sharded.draw_into_ns_per_draw", median(&draw_into), "ns");
    report.put("engine.sample_ns", median(&sample), "ns");
    report.put("engine.sample_into_ns_per_draw", median(&sample_into), "ns");
}

/// The bid-kernel rung: `ParallelLogBiddingSelector::select` over the
/// workload's weight vector, with the kernel's `ln` counter delta.
pub fn select(
    weights: &[f64],
    rng: &mut Xoshiro256PlusPlus,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let selector = ParallelLogBiddingSelector::default();
    let fitness = Fitness::new(weights.to_vec()).expect("generated weights are valid");
    let nonzero = weights.iter().filter(|&&w| w > 0.0).count();
    let mut failed = 0;
    let ln_before = kernel_counters().ln_calls;
    let times = blocks(
        tracer,
        "core.select",
        budget,
        1,
        || {
            selector
                .select(&fitness, rng)
                .is_ok_and(|i| weights.get(i).is_some_and(|&w| w > 0.0))
        },
        &mut failed,
    );
    let ln = kernel_counters().ln_calls - ln_before;
    report.ops(times.len() as u64, failed);
    report.put("core.select_ns", median(&times), "ns");
    report.put(
        "core.ln_per_select",
        ln as f64 / times.len() as f64,
        "count",
    );
    report.put("core.nonzero_per_select", nonzero as f64, "count");
    report.put("core.selects", times.len() as f64, "count");
}

/// Engine and WAL metrics from the exported counters and histograms that
/// grew between two reads: publish and freeze p50, the patch share of
/// publishes (with its base), backend switches, WAL append p50 and WAL
/// bytes per publish.
fn publish_metrics(before: &Exported, after: &Exported, report: &mut Report) {
    let us = |b: &[_], a: &[_]| delta_quantile(b, a, 0.5).map_or(f64::NAN, |ns| ns / 1e3);
    let publishes = (after.publishes - before.publishes) as f64;
    report.put(
        "engine.publish_p50_us",
        us(&before.publish_ns, &after.publish_ns),
        "us",
    );
    report.put(
        "engine.freeze_p50_us",
        us(&before.freeze_ns, &after.freeze_ns),
        "us",
    );
    report.put("engine.publishes", publishes, "count");
    report.put(
        "engine.patched_ratio",
        (after.patched - before.patched) as f64 / publishes,
        "ratio",
    );
    report.put(
        "engine.backend_switches",
        (after.backend_switches - before.backend_switches) as f64,
        "count",
    );
    report.put(
        "durable.wal_append_p50_us",
        us(&before.wal_append_ns, &after.wal_append_ns),
        "us",
    );
    report.put(
        "durable.wal_bytes_per_publish",
        (after.wal_bytes - before.wal_bytes) as f64 / publishes,
        "B",
    );
}

/// The publish rungs for workloads that publish nothing themselves: a
/// second service over the same weights with a per-shard WAL
/// (`FsyncPolicy::Off`) under `dir`, fed `update_many` (256 overrides that
/// rewrite the current weights) + `publish_all` cycles.
pub fn publish(
    weights: &[f64],
    dir: &Path,
    rng: &mut Xoshiro256PlusPlus,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let service =
        ShardedService::new(weights.to_vec(), wal_config(dir)).map_err(|e| e.to_string())?;
    let before = Exported::read(&service);
    let mut failed = 0;
    let cycles = blocks(
        tracer,
        "sharded.publish_cycle",
        budget,
        1,
        || {
            let updates = crate::gen::overrides(rng, weights, 256);
            service.update_many(&updates).is_ok() && service.publish_all().is_ok()
        },
        &mut failed,
    );
    let after = Exported::read(&service);
    report.ops(cycles.len() as u64, failed);
    publish_metrics(&before, &after, report);
    Ok(())
}

/// The service configuration with a per-shard WAL under `dir` whose
/// appends never wait for a disk flush.
fn wal_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        engine: EngineConfig {
            durability: Durability::Wal(WalOptions {
                fsync: FsyncPolicy::Off,
                ..WalOptions::at(dir)
            }),
            ..EngineConfig::default()
        },
        ..ServiceConfig::default()
    }
}
