//! The paper's motivating application in process: an Ant System colony on a
//! random Euclidean TSP instance whose ants pick every next city with the
//! parallel logarithmic random bidding.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use lrb_aco::{
    construct_tour, Colony, ColonyParams, ColonyVariant, ConstructionBackend, PheromoneMatrix,
    Tour, TspInstance,
};
use lrb_core::parallel::ParallelLogBiddingSelector;
use lrb_core::{Fitness, SelectionError, Selector};
use lrb_rng::RandomSource;

use crate::report::Windows;
use crate::trace::Tracer;

/// Ants per colony iteration.
pub const ANTS: usize = 16;

/// The colony configuration every phase uses.
pub fn params() -> ColonyParams {
    ColonyParams {
        ants: ANTS,
        variant: ColonyVariant::AntSystem,
        construction: ConstructionBackend::OneShotSelector,
        local_search: false,
        ..ColonyParams::default()
    }
}

/// `ParallelLogBiddingSelector` behind a timing wrapper: when `on`, every
/// `select` adds its duration and the support size it saw to the totals,
/// and when `spans` is also set the call's interval is kept for the tracer.
#[derive(Debug, Default)]
pub struct TimedSelector {
    inner: ParallelLogBiddingSelector,
    /// Time and count calls.
    pub on: AtomicBool,
    /// Keep each call's interval.
    pub spans: AtomicBool,
    /// Nanoseconds spent in `select`.
    pub ns: AtomicU64,
    /// `select` calls.
    pub calls: AtomicU64,
    /// Non-zero fitness values summed over calls.
    pub nonzero: AtomicU64,
    /// Call intervals (when `spans` is set).
    pub intervals: Mutex<Vec<(Instant, Instant)>>,
}

impl Selector for TimedSelector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_exact(&self) -> bool {
        self.inner.is_exact()
    }

    fn select(
        &self,
        fitness: &Fitness,
        rng: &mut dyn RandomSource,
    ) -> Result<usize, SelectionError> {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.select(fitness, rng);
        }
        let nonzero = fitness.values().iter().filter(|&&v| v > 0.0).count() as u64;
        let started = Instant::now();
        let result = self.inner.select(fitness, rng);
        let ended = Instant::now();
        self.ns
            .fetch_add((ended - started).as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nonzero.fetch_add(nonzero, Ordering::Relaxed);
        if self.spans.load(Ordering::Relaxed) {
            self.intervals
                .lock()
                .expect("interval list poisoned")
                .push((started, ended));
        }
        result
    }
}

impl TimedSelector {
    /// (nanoseconds, calls, non-zero values) so far.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.ns.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
            self.nonzero.load(Ordering::Relaxed),
        )
    }
}

/// Build a colony and complete its first selection (city 0's first step).
pub fn setup<'a>(
    instance: &'a TspInstance,
    selector: &'a TimedSelector,
    seed: u64,
) -> Result<Colony<'a>, String> {
    let colony = Colony::new(instance, selector, params(), seed);
    let fitness = Fitness::new(first_row(instance, &colony)).map_err(|e| e.to_string())?;
    let mut rng = crate::gen::stream(seed, 7);
    let city = selector
        .select(&fitness, &mut rng)
        .map_err(|e| e.to_string())?;
    if city == 0 || city >= instance.len() {
        return Err(format!("first selection returned city {city}"));
    }
    Ok(colony)
}

/// The desirabilities an ant at city 0 sees on its first step.
pub fn first_row(instance: &TspInstance, colony: &Colony<'_>) -> Vec<f64> {
    let ant = params().ant_params;
    (0..instance.len())
        .map(|j| {
            if j == 0 {
                0.0
            } else {
                ant.desirability(instance, colony.pheromone(), 0, j)
            }
        })
        .collect()
}

/// Outcome of the open-loop tour phase.
#[derive(Debug)]
pub struct Tours {
    /// Tour latency from its due instant and generator lateness.
    pub windows: Windows,
    /// Tour time minus the time spent in `select`, ns.
    pub self_ns: Vec<f64>,
    /// Every tour constructed.
    pub tours: Vec<Tour>,
    /// Tours that failed or were invalid.
    pub failed: u64,
}

/// Length of the tour phases' time windows, seconds (about ten tours each).
const TOUR_WINDOW_S: f64 = 1.0;

/// Colony iterations run before the tour phases.
const WARM_UP: usize = 3;

/// Run [`WARM_UP`] colony iterations and return a copy of the resulting
/// trails: every tour phase builds on this one matrix, so a tour costs the
/// same in every round of a run (the live trails keep changing, and with
/// them the cost of the desirability arithmetic).
pub fn warm_up(instance: &TspInstance, colony: &mut Colony<'_>) -> Result<PheromoneMatrix, String> {
    for _ in 0..WARM_UP {
        colony.run_iteration().map_err(|e| e.to_string())?;
    }
    match colony.best_tour() {
        Some(tour) if tour.is_valid(instance.len()) => Ok(colony.pheromone().clone()),
        _ => Err("warm-up left no valid best tour".into()),
    }
}

/// Open loop of single-ant tours on this thread: tour `j` is due at
/// `start + j/rate`, built on the trails `pheromone`.
pub fn tour_phase(
    instance: &TspInstance,
    pheromone: &PheromoneMatrix,
    selector: &TimedSelector,
    rate: f64,
    duration: Duration,
    seed: u64,
    tracer: &mut Tracer,
) -> Tours {
    let total = (rate * duration.as_secs_f64()).ceil().max(1.0) as u64;
    let period_ns = 1e9 / rate;
    let start = Instant::now() + Duration::from_millis(1);
    let due = |j: u64| start + Duration::from_nanos((j as f64 * period_ns) as u64);
    let mut rng = crate::gen::stream(seed, 8);
    let mut out = Tours {
        windows: Windows::covering(start, duration, TOUR_WINDOW_S),
        self_ns: Vec::new(),
        tours: Vec::new(),
        failed: 0,
    };
    let ant = params().ant_params;
    for j in 0..total {
        let first = rng.next_u64_below(instance.len() as u64) as usize;
        let now = Instant::now();
        if due(j) > now {
            thread::sleep(due(j) - now);
        }
        let began = Instant::now();
        let select_before = selector.ns.load(Ordering::Relaxed);
        let tour = construct_tour(instance, pheromone, &ant, selector, first, &mut rng);
        let ended = Instant::now();
        let select_ns = selector.ns.load(Ordering::Relaxed) - select_before;
        let window = out.windows.at(due(j));
        if let Some(k) = window {
            out.windows.late[k].record((began - due(j)).as_nanos() as u64);
        }
        match tour {
            Ok(tour) if tour.is_valid(instance.len()) => {
                if let Some(k) = window {
                    out.windows.latency[k].record((ended - due(j)).as_nanos() as u64);
                }
                out.self_ns
                    .push(((ended - began).as_nanos() as u64).saturating_sub(select_ns) as f64);
                let root = tracer.record("aco.tour", j, began, ended);
                let intervals = std::mem::take(
                    &mut *selector.intervals.lock().expect("interval list poisoned"),
                );
                for (a, b) in intervals {
                    tracer.child("core.select", root, j, a, b);
                }
                out.tours.push(tour);
            }
            _ => out.failed += 1,
        }
    }
    out
}

/// Closed loop of whole colony iterations until `duration` has passed.
/// Returns each iteration's selections per second, and how many
/// iterations failed or left an invalid best tour.
pub fn colony_phase(
    instance: &TspInstance,
    colony: &mut Colony<'_>,
    duration: Duration,
) -> (Vec<f64>, u64) {
    let started = Instant::now();
    let selections = (ANTS * (instance.len() - 1)) as f64;
    let mut rates = Vec::new();
    let mut failed = 0u64;
    while rates.is_empty() || started.elapsed() < duration {
        let began = Instant::now();
        let ok = colony.run_iteration().is_ok()
            && colony
                .best_tour()
                .is_some_and(|t| t.is_valid(instance.len()));
        rates.push(selections / began.elapsed().as_secs_f64());
        failed += u64::from(!ok);
    }
    (rates, failed)
}

/// The colony's write path, timed on a copy of `trails`: one Ant System
/// update (evaporation, then a deposit per tour) per call, repeated until
/// `budget` is spent. Returns each update's ns.
pub fn pheromone_updates(trails: &PheromoneMatrix, tours: &[Tour], budget: Duration) -> Vec<f64> {
    let p = params();
    let mut matrix = trails.clone();
    let deadline = Instant::now() + budget;
    let mut out = Vec::new();
    while out.len() < 20 || Instant::now() < deadline {
        if out.len() % 50 == 49 {
            // Start over before repeated evaporation drives trails toward
            // subnormal values, which would time a different arithmetic.
            matrix = trails.clone();
        }
        let started = Instant::now();
        matrix.evaporate(p.evaporation);
        for tour in tours.iter().take(ANTS) {
            matrix.deposit_tour(&tour.order, p.deposit / tour.length);
        }
        out.push(started.elapsed().as_nanos() as f64);
        std::hint::black_box(&matrix);
    }
    out
}

/// Tour self time (tour minus `select`) on a fixed 128-city probe
/// instance, for workloads that run no colony. Returns ns per tour.
pub fn probe_self_time(seed: u64, budget: Duration, tracer: &mut Tracer) -> Vec<f64> {
    let instance = TspInstance::random_euclidean(128, seed);
    let selector = TimedSelector::default();
    selector.on.store(true, Ordering::Relaxed);
    let colony = Colony::new(&instance, &selector, params(), seed);
    let ant = params().ant_params;
    let mut rng = crate::gen::stream(seed, 9);
    let deadline = Instant::now() + budget;
    let mut out = Vec::new();
    while out.len() < 10 || Instant::now() < deadline {
        let before = selector.ns.load(Ordering::Relaxed);
        let started = Instant::now();
        let tour = construct_tour(&instance, colony.pheromone(), &ant, &selector, 0, &mut rng);
        let ended = Instant::now();
        let select_ns = selector.ns.load(Ordering::Relaxed) - before;
        if tour.is_ok_and(|t| t.is_valid(instance.len())) {
            tracer.record("aco.probe_tour", out.len() as u64, started, ended);
            out.push(((ended - started).as_nanos() as u64).saturating_sub(select_ns) as f64);
        }
    }
    out
}
