//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <single_sparse|batch_dense|aco_tsp|all> \
//!     --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: metric names and units come from
//! `BENCHMARK.json` there. Each workload generates its inputs from the
//! seed, starts the service (or the colony) inside this process, measures
//! for `--seconds`, checks the outputs, prints a table of every metric,
//! and ends with one JSON line holding the `end_to_end` metrics
//! (`--trace 0`) or the `per_layer` metrics (`--trace 1`). The exit code is
//! non-zero when an output check fails. See `perfbench/README.md` for the
//! workloads, phases and the layer → end-to-end predictions.

mod aco;
mod gen;
mod ladder;
mod report;
mod socket;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use lrb_aco::TspInstance;
use lrb_service::ServiceConfig;
use lrb_stats::chi_square_gof;

use crate::report::{calm_rate, calm_time, chunk_quantiles, median, peak_rss_mb, Report, Windows};
use crate::socket::{Exported, PhaseOut, Running};
use crate::trace::Tracer;
use crate::wire::{Buckets, Request, Tally, OUTSIDE};

const USAGE: &str = "usage: perfbench --workload <single_sparse|batch_dense|aco_tsp|all> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["single_sparse", "batch_dense", "aco_tsp"];

/// Set-ups at the start of a run (the read workloads add one per later
/// round); `setup_s` is the median of them all.
const SETUP_REPS: usize = 25;

/// Significance level of the goodness-of-fit checks. Each run makes at
/// most one, so a correct program fails a run this rarely.
const FIT_ALPHA: f64 = 1e-6;

/// Rounds of alternating latency and throughput phases per run.
const ROUNDS: usize = 8;

/// Untimed warm-up of each round's service, per kind of traffic.
const WARM_UP: Duration = Duration::from_millis(50);

/// Overrides per write cycle of the publish probe.
const OVERRIDES: usize = 256;

/// Chunks each round's `aco_tsp` pheromone-update timings are split into
/// (their percentiles are read over chunks, like the windows elsewhere).
const PUBLISH_CHUNKS: usize = 4;

/// Offered tours per second in the `aco_tsp` latency phase.
const TOUR_RATE: f64 = 10.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=600.0).contains(&s) {
                    return Err("--seconds must be in 0.5..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The `(name, unit)` list of the metric group the run reports, read from
/// `BENCHMARK.json`.
fn wanted_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = serde_json::from_str_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let group = spec
        .field(if trace { "per_layer" } else { "end_to_end" })
        .map_err(|e| e.to_string())?;
    let serde_json::Value::Array(entries) = group else {
        return Err("BENCHMARK.json: metric group is not a list".into());
    };
    entries
        .iter()
        .map(|entry| {
            let text = |key: &str| match entry.field(key) {
                Ok(serde_json::Value::String(s)) => Ok(s.clone()),
                _ => Err(format!("BENCHMARK.json: metric without a {key}")),
            };
            Ok((text("name")?, text("unit")?))
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let wanted = match wanted_metrics(args.trace) {
        Ok(wanted) => wanted,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let wanted: Vec<(&str, &str)> = wanted
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    let scratch = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for workload in workloads {
        let dir = scratch.join(workload);
        let outcome = std::fs::create_dir_all(&dir)
            .map_err(|e| e.to_string())
            .and_then(|()| run(workload, &args, &dir));
        match outcome {
            Ok((report, tracer)) => {
                if args.trace {
                    print_self_times(&tracer);
                    print_ladder(&report);
                    let path = PathBuf::from(".perfbench_out")
                        .join(format!("trace_{workload}_{}.jsonl", args.seed));
                    if let Err(e) = tracer.write(&path) {
                        eprintln!("perfbench: writing {}: {e}", path.display());
                    }
                }
                report.print(workload, &wanted);
                all_correct &= report.correct();
            }
            Err(message) => {
                eprintln!("perfbench: {workload}: {message}");
                all_correct = false;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    std::process::exit(if all_correct { 0 } else { 1 });
}

fn run(workload: &str, args: &Args, dir: &Path) -> Result<(Report, Tracer), String> {
    match workload {
        "single_sparse" => read_workload(
            ReadWorkload {
                weights: gen::sparse(args.seed, 1 << 16, 64),
                config: ServiceConfig::default(),
                request: Request::draw(),
                rate: 50_000.0,
                window: 16,
                probe_share: 0.1,
                fit: Fit::Support,
            },
            args,
            dir,
        ),
        "batch_dense" => read_workload(
            ReadWorkload {
                weights: gen::zipf_shuffled(args.seed, 1 << 18),
                // One fan-out lane: on a 2-vCPU host a second lane competes
                // with the two client threads and the server's own; with it,
                // closed-loop draws were a quarter slower and less steady.
                config: ServiceConfig {
                    fanout_workers: 1,
                    ..ServiceConfig::default()
                },
                request: Request::draw_batch(4096),
                rate: 250.0,
                window: 2,
                probe_share: 0.2,
                fit: Fit::TopK(256),
            },
            args,
            dir,
        ),
        "aco_tsp" => aco_workload(args, dir),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Print each span name's count, mean duration and mean self time.
fn print_self_times(tracer: &Tracer) {
    println!("-- spans: name, count, mean ns, mean self ns");
    for (name, (count, total, own)) in tracer.self_times() {
        println!(
            "  {name:<28} {count:>10} {:>14.1} {:>14.1}",
            total as f64 / count as f64,
            own as f64 / count as f64
        );
    }
}

/// Print the serial round trip as rungs that add up to it, with the
/// nested in-process rungs beside the server's share.
fn print_ladder(report: &Report) {
    let get = |name| report.get(name).unwrap_or(f64::NAN);
    println!("-- ladder (one request in flight), us:");
    println!("  client codec           {:>10.3}", get("ladder.codec_us"));
    println!(
        "  server request p50     {:>10.3}   (inside: sharded.draw {:.3}, engine.sample {:.3})",
        get("server.request_p50_us"),
        get("sharded.draw_ns") / 1e3,
        get("engine.sample_ns") / 1e3
    );
    println!(
        "  transport (residual)   {:>10.3}",
        get("server.transport_us")
    );
    println!("  = serial RTT           {:>10.3}", get("ladder.rtt_us"));
}

/// Run `start` `reps` times; keep the last result, stop the others, and
/// return it with every set-up's seconds (`setup_s` is their median).
fn repeated_setup<T>(
    mut start: impl FnMut(usize) -> Result<(T, f64), String>,
    mut stop: impl FnMut(T),
    reps: usize,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..reps {
        let (value, seconds) = start(k)?;
        times.push(seconds);
        if let Some(previous) = kept.replace(value) {
            stop(previous);
        }
    }
    Ok((kept.expect("at least one set-up"), times))
}

fn setup_reps(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        SETUP_REPS
    }
}

fn secs(total: f64, share: f64) -> Duration {
    Duration::from_secs_f64(total * share)
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

/// A phase's latency as `<prefix>_p50_us` / `_p99_us`: each window's
/// percentile, read at the calm end over the phase's windows.
fn put_latency(report: &mut Report, prefix: &str, windows: &Windows) {
    report.put(&format!("{prefix}_p50_us"), windows.latency_us(0.5), "us");
    report.put(&format!("{prefix}_p99_us"), windows.latency_us(0.99), "us");
}

/// The generator's lateness beside a latency phase.
fn put_late(report: &mut Report, windows: &Windows) {
    report.put("harness.late_p50_us", windows.late_us(0.5), "us");
    report.put("harness.late_p99_us", windows.late_us(0.99), "us");
}

/// The exported counter deltas of a phase, each ratio with its base.
fn put_counters(report: &mut Report, before: &Exported, after: &Exported) {
    let batches = after.agg_batches - before.agg_batches;
    let batched = after.agg_draws - before.agg_draws;
    let requests = after.request_ns.count - before.request_ns.count;
    let deferrals = after.read_deferrals - before.read_deferrals;
    report.put("aggregator.batches", batches as f64, "count");
    report.put(
        "aggregator.draws_per_batch",
        if batches == 0 {
            0.0
        } else {
            batched as f64 / batches as f64
        },
        "ratio",
    );
    report.put("server.requests", requests as f64, "count");
    report.put(
        "server.read_deferrals_per_kreq",
        if requests == 0 {
            0.0
        } else {
            deferrals as f64 * 1e3 / requests as f64
        },
        "ratio",
    );
    report.put(
        "sharded.planner_batches",
        (after.planner_batches - before.planner_batches) as f64,
        "count",
    );
}

fn absorb(report: &mut Report, phase: &PhaseOut) {
    report.ops(phase.attempted, phase.failed);
}

fn append(all: &mut Option<Windows>, windows: Windows) {
    match all {
        Some(all) => all.append(windows),
        None => *all = Some(windows),
    }
}

/// The goodness-of-fit check a read-only workload runs on its draws.
enum Fit {
    /// Every non-zero category is its own bucket.
    Support,
    /// The `k` heaviest categories, plus one bucket for the rest.
    TopK(usize),
}

struct ReadWorkload {
    weights: Vec<f64>,
    config: ServiceConfig,
    request: Request,
    /// Offered requests per second in the latency phase.
    rate: f64,
    /// Requests in flight per connection in the throughput phase.
    window: usize,
    /// Share of the run given to the publish probe.
    probe_share: f64,
    fit: Fit,
}

fn start_service(
    weights: &[f64],
    config: ServiceConfig,
    dir: &Path,
    k: usize,
    seed: u64,
) -> Result<(Running, f64), String> {
    socket::start(
        weights.to_vec(),
        config,
        &dir.join(format!("sock-{k}")),
        seed,
    )
}

/// `single_sparse` and `batch_dense`: untraced, rounds of an open-loop
/// latency phase and a closed-loop throughput phase of reads, then a probe
/// of write cycles that rewrite current weights, for the publish latency.
fn read_workload(w: ReadWorkload, args: &Args, dir: &Path) -> Result<(Report, Tracer), String> {
    let epoch = Instant::now();
    let mut report = Report::default();
    let mut tracer = Tracer::new(epoch, args.trace);
    let off = Tracer::new(epoch, false);
    let weights = w.weights;
    let seed = args.seed;
    let (mut running, mut setups) = repeated_setup(
        |k| start_service(&weights, w.config.clone(), dir, k, seed),
        Running::stop,
        setup_reps(args),
    )?;
    let mut path = running.path.clone();
    let (buckets, expected) = fit_buckets(&w.fit, &weights);
    let mut tally = Tally::new(buckets, expected.len());
    let s = args.seconds;
    let mut rng = gen::stream(seed, 10);
    if !args.trace {
        // Latency, throughput and publish-probe phases alternate in rounds,
        // so that each metric's windows sample the whole run.
        let share = (1.0 - w.probe_share) / 2.0 / ROUNDS as f64;
        let (mut lat, mut tput, mut publ) = (None, None, None);
        for round in 0..ROUNDS {
            if round > 0 {
                // A fresh service each round, so that every round's reads
                // run on the backends a new service starts with: the
                // publish probe re-runs the engine's backend decider on
                // timings it observed, and reads measured after it ran at
                // anywhere from half to twice the speed.
                running.stop();
                let k = SETUP_REPS + round;
                let setup;
                (running, setup) = start_service(
                    &weights,
                    w.config.clone(),
                    dir,
                    k,
                    seed.wrapping_add(k as u64),
                )?;
                setups.push(setup);
                path = running.path.clone();
            }
            // Untimed warm-up: a new service's first draws fill its caches.
            let warm =
                socket::closed_loop(&path, &w.request, 1, w.window, WARM_UP, &mut tally, &off)
                    .map_err(io)?;
            absorb(&mut report, &warm);
            let phase =
                socket::open_loop(&path, &w.request, w.rate, secs(s, share), &mut tally, &off)
                    .map_err(io)?;
            absorb(&mut report, &phase);
            append(&mut lat, phase.windows);
            let phase = socket::closed_loop(
                &path,
                &w.request,
                2,
                w.window,
                secs(s, share),
                &mut tally,
                &off,
            )
            .map_err(io)?;
            absorb(&mut report, &phase);
            append(&mut tput, phase.windows);
            let warm = socket::write_cycles(&path, OVERRIDES, WARM_UP, &weights, &mut rng, &off)
                .map_err(io)?;
            absorb(&mut report, &warm);
            let writes = socket::write_cycles(
                &path,
                OVERRIDES,
                secs(s, w.probe_share / ROUNDS as f64),
                &weights,
                &mut rng,
                &off,
            )
            .map_err(io)?;
            absorb(&mut report, &writes);
            append(&mut publ, writes.windows);
        }
        let (lat, tput, publ) = (
            lat.expect("rounds ran"),
            tput.expect("rounds ran"),
            publ.expect("rounds ran"),
        );
        put_latency(&mut report, "req", &lat);
        put_late(&mut report, &lat);
        report.put("draws_per_s", tput.draws_per_s(), "1/s");
        put_latency(&mut report, "publish", &publ);
    } else {
        let core = running.core();
        let untraced = socket::closed_loop(
            &path,
            &w.request,
            2,
            w.window,
            secs(s, 0.15),
            &mut tally,
            &off,
        )
        .map_err(io)?;
        absorb(&mut report, &untraced);
        let before = Exported::read(&core);
        let traced = socket::closed_loop(
            &path,
            &w.request,
            2,
            w.window,
            secs(s, 0.15),
            &mut tally,
            &tracer,
        )
        .map_err(io)?;
        let after = Exported::read(&core);
        absorb(&mut report, &traced);
        put_counters(&mut report, &before, &after);
        report.put(
            "harness.trace_overhead",
            traced.windows.draws_per_s() / untraced.windows.draws_per_s(),
            "ratio",
        );
        tracer.merge(traced.tracer);
        let lat = socket::open_loop(&path, &w.request, w.rate, secs(s, 0.2), &mut tally, &tracer)
            .map_err(io)?;
        absorb(&mut report, &lat);
        put_late(&mut report, &lat.windows);
        tracer.merge(lat.tracer);
        ladder_rungs(
            &core,
            &path,
            &w.request,
            &weights,
            &mut tally,
            s * 0.5,
            dir,
            &mut rng,
            &mut tracer,
            &mut report,
            true,
        )?;
        aco_probe(seed, secs(s, 0.05), &mut tracer, &mut report);
    }
    report.put("setup_s", median(&setups), "s");
    fit_check(&expected, &tally, &mut report);
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    running.stop();
    Ok((report, tracer))
}

/// The ladder rungs every traced socket workload runs, sharing
/// `seconds` between them.
#[allow(clippy::too_many_arguments)]
fn ladder_rungs(
    core: &lrb_service::ServiceCore,
    path: &Path,
    request: &Request,
    weights: &[f64],
    tally: &mut Tally,
    seconds: f64,
    dir: &Path,
    rng: &mut lrb_rng::Xoshiro256PlusPlus,
    tracer: &mut Tracer,
    report: &mut Report,
    with_publish: bool,
) -> Result<(), String> {
    ladder::serial_rtt(
        core,
        path,
        request,
        tally,
        secs(seconds, 0.3),
        tracer,
        report,
    )
    .map_err(io)?;
    ladder::codec(core, request, rng, secs(seconds, 0.1), tracer, report);
    ladder::draws(core, rng, secs(seconds, 0.25), tracer, report);
    ladder::select(weights, rng, secs(seconds, 0.15), tracer, report);
    if with_publish {
        ladder::publish(
            weights,
            &dir.join("probe-wal"),
            rng,
            secs(seconds, 0.2),
            tracer,
            report,
        )?;
    }
    Ok(())
}

/// `aco.self_us_per_tour` on a workload without a colony: tours on a
/// fixed-size probe instance.
fn aco_probe(seed: u64, budget: Duration, tracer: &mut Tracer, report: &mut Report) {
    let self_ns = aco::probe_self_time(seed, budget, tracer);
    report.put("aco.self_us_per_tour", median(&self_ns) / 1e3, "us");
}

/// The goodness-of-fit buckets of `weights`, and each bucket's
/// probability: under [`Fit::Support`] every non-zero category is a bucket
/// and zero-weight ones are [`OUTSIDE`]; under [`Fit::TopK`] the `k`
/// heaviest categories are buckets and the rest share one.
fn fit_buckets(fit: &Fit, weights: &[f64]) -> (Buckets, Vec<f64>) {
    let total: f64 = weights.iter().sum();
    let mut expected = Vec::new();
    match fit {
        Fit::Support => {
            let map = weights
                .iter()
                .map(|&w| {
                    if w > 0.0 {
                        expected.push(w / total);
                        (expected.len() - 1) as u16
                    } else {
                        OUTSIDE
                    }
                })
                .collect();
            (Buckets::Each(map), expected)
        }
        Fit::TopK(k) => {
            let mut order: Vec<usize> = (0..weights.len()).collect();
            order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
            let top: Vec<(usize, u16)> = order[..*k]
                .iter()
                .enumerate()
                .map(|(rank, &i)| (i, rank as u16))
                .collect();
            expected.extend(top.iter().map(|&(i, _)| weights[i] / total));
            expected.push(1.0 - expected.iter().sum::<f64>());
            (Buckets::top(weights.len(), &top, *k as u16), expected)
        }
    }
}

fn fit_check(expected: &[f64], tally: &Tally, report: &mut Report) {
    let result = chi_square_gof(&tally.counts, expected);
    report.check(
        "chi_square",
        result.is_consistent(FIT_ALPHA),
        format!(
            "p = {:.3e} over {} draws, {} buckets, alpha {FIT_ALPHA:e}",
            result.p_value,
            tally.draws,
            expected.len()
        ),
    );
}

/// `aco_tsp`: untraced, rounds of open-loop single-ant tours, closed-loop
/// colony iterations and timed pheromone updates.
fn aco_workload(args: &Args, dir: &Path) -> Result<(Report, Tracer), String> {
    let epoch = Instant::now();
    let mut report = Report::default();
    let mut tracer = Tracer::new(epoch, args.trace);
    let mut off = Tracer::new(epoch, false);
    let seed = args.seed;
    let instance = TspInstance::random_euclidean(1000, seed);
    let selector = aco::TimedSelector::default();
    // A set-up builds the instance (its distance matrix) from the generated
    // cities, then the colony, up to the colony's first selection.
    let (_, setups) = repeated_setup(
        |_| {
            let cities = instance.coords().to_vec();
            let started = Instant::now();
            let built = TspInstance::from_coords(cities);
            let colony = aco::setup(&built, &selector, seed)?;
            let seconds = started.elapsed().as_secs_f64();
            drop(colony);
            Ok(((), seconds))
        },
        drop,
        setup_reps(args),
    )?;
    report.put("setup_s", median(&setups), "s");
    let mut colony = aco::setup(&instance, &selector, seed)?;
    let trails = aco::warm_up(&instance, &mut colony)?;
    let s = args.seconds;
    // Every built tour passed `Tour::is_valid` in `tour_phase`; the others
    // are counted as failed.
    let check_tours = |built: usize, failed: u64, report: &mut Report| {
        report.ops(built as u64 + failed, failed);
        report.check(
            "tours_valid",
            failed == 0,
            format!("{built} tours valid, {failed} failed or invalid"),
        );
    };
    if !args.trace {
        let share = 0.45 / ROUNDS as f64;
        let (mut lat, mut rates, mut tours, mut failed_tours) = (None, Vec::new(), Vec::new(), 0);
        let (mut update_p50, mut update_p99) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            let phase = aco::tour_phase(
                &instance,
                &trails,
                &selector,
                TOUR_RATE,
                secs(s, share),
                seed,
                &mut off,
            );
            failed_tours += phase.failed;
            append(&mut lat, phase.windows);
            tours.extend(phase.tours);
            let (iterations, failed) = aco::colony_phase(&instance, &mut colony, secs(s, share));
            report.ops(iterations.len() as u64, failed);
            rates.extend(iterations);
            let updates = aco::pheromone_updates(&trails, &tours, secs(s, 0.1 / ROUNDS as f64));
            update_p50.extend(chunk_quantiles(&updates, PUBLISH_CHUNKS, 0.5));
            update_p99.extend(chunk_quantiles(&updates, PUBLISH_CHUNKS, 0.99));
        }
        check_tours(tours.len(), failed_tours, &mut report);
        let lat = lat.expect("rounds ran");
        put_latency(&mut report, "req", &lat);
        put_late(&mut report, &lat);
        report.put("draws_per_s", calm_rate(&rates), "1/s");
        report.put("publish_p50_us", calm_time(&update_p50) / 1e3, "us");
        report.put("publish_p99_us", calm_time(&update_p99) / 1e3, "us");
    } else {
        let (untraced, failed) = aco::colony_phase(&instance, &mut colony, secs(s, 0.2));
        report.ops(untraced.len() as u64, failed);
        selector.on.store(true, Ordering::Relaxed);
        let (traced, failed) = aco::colony_phase(&instance, &mut colony, secs(s, 0.2));
        report.ops(traced.len() as u64, failed);
        report.put(
            "harness.trace_overhead",
            median(&traced) / median(&untraced),
            "ratio",
        );
        selector.spans.store(true, Ordering::Relaxed);
        let (ns0, calls0, nz0) = selector.totals();
        let ln0 = lrb_core::parallel::kernel_counters().ln_calls;
        let tours = aco::tour_phase(
            &instance,
            &trails,
            &selector,
            TOUR_RATE,
            secs(s, 0.3),
            seed,
            &mut tracer,
        );
        let ln = lrb_core::parallel::kernel_counters().ln_calls - ln0;
        let (ns1, calls1, nz1) = selector.totals();
        selector.spans.store(false, Ordering::Relaxed);
        check_tours(tours.tours.len(), tours.failed, &mut report);
        put_late(&mut report, &tours.windows);
        let calls = (calls1 - calls0).max(1) as f64;
        report.put("core.select_ns", (ns1 - ns0) as f64 / calls, "ns");
        report.put("core.ln_per_select", ln as f64 / calls, "count");
        report.put(
            "core.nonzero_per_select",
            (nz1 - nz0) as f64 / calls,
            "count",
        );
        report.put("core.selects", calls, "count");
        report.put("aco.self_us_per_tour", median(&tours.self_ns) / 1e3, "us");
        // The service layers on this workload's own weights: a probe
        // service over the first-step desirability row.
        let row = aco::first_row(&instance, &colony);
        let (running, _) = start_service(&row, ServiceConfig::default(), dir, 0, seed)?;
        let core = running.core();
        let (buckets, expected) = fit_buckets(&Fit::Support, &row);
        let mut tally = Tally::new(buckets, expected.len());
        let mut rng = gen::stream(seed, 12);
        let before = Exported::read(&core);
        ladder::serial_rtt(
            &core,
            &running.path,
            &Request::draw(),
            &mut tally,
            secs(s, 0.1),
            &mut tracer,
            &mut report,
        )
        .map_err(io)?;
        let after = Exported::read(&core);
        put_counters(&mut report, &before, &after);
        ladder::codec(
            &core,
            &Request::draw(),
            &mut rng,
            secs(s, 0.03),
            &mut tracer,
            &mut report,
        );
        ladder::draws(&core, &mut rng, secs(s, 0.07), &mut tracer, &mut report);
        ladder::publish(
            &row,
            &dir.join("probe-wal"),
            &mut rng,
            secs(s, 0.07),
            &mut tracer,
            &mut report,
        )?;
        running.stop();
    }
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok((report, tracer))
}
