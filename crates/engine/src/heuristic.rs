//! The backend decider: pick the cheapest sampler for a workload from a
//! closed-form cost model.
//!
//! Every publish freezes the weight vector into a new immutable snapshot, so
//! the relevant cost per publish window is `freeze + draws · per_draw`.
//! Each registered [`FrozenBackend`] supplies its own closed-form cost in
//! scale-free abstract "weight ops"; *freeze* is a full build or — for the
//! incumbent backend only — an incremental patch of the previous snapshot
//! when that is cheaper. [`cheapest_for_publish`] takes the arg-min (ties
//! break toward earlier registry entries), [`patch_beats_rebuild`] answers
//! the freeze-path question alone for a pinned backend, and
//! [`choose_backend`] is the arg-min when the build must be paid.
//!
//! The only observed input is `draws`: the engine keeps an [`Ewma`] of how
//! many draws each outgoing snapshot actually served and scores the next
//! publish against it. Everything else is a function of the weights and
//! the coalesced batch, so a given run makes the same choices on every
//! host.

use crate::backend::{BackendRegistry, FrozenBackend};

/// How the engine should pick its snapshot backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Re-run the cost model at every publish against the fresh weights and
    /// the observed draw rate.
    #[default]
    Auto,
    /// Always use one backend, by registry name (benches and conformance
    /// tests pin this).
    Fixed(&'static str),
}

/// The workload shape the cost model scores backends against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Number of categories `n`.
    pub categories: usize,
    /// Expected draws served by one snapshot before the next publish.
    pub draws_per_publish: f64,
    /// Weight skew `w_max / w_mean` (≥ 1 for any non-degenerate vector);
    /// equals the expected stochastic-acceptance rejection rounds.
    pub skew: f64,
}

impl WorkloadProfile {
    /// Measure the skew of a weight vector (1.0 for all-zero or empty
    /// vectors, where every backend degenerates identically anyway).
    pub fn measure(weights: &[f64], draws_per_publish: f64) -> Self {
        let total: f64 = weights.iter().sum();
        let max = weights.iter().cloned().fold(0.0, f64::max);
        let skew = if total > 0.0 {
            weights.len() as f64 * max / total
        } else {
            1.0
        };
        Self {
            categories: weights.len(),
            draws_per_publish,
            skew,
        }
    }
}

/// An exponentially weighted moving average over non-negative observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    value: Option<f64>,
    alpha: f64,
}

impl Ewma {
    /// An empty average with smoothing factor `alpha` (weight of the newest
    /// observation).
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        Self { value: None, alpha }
    }

    /// Fold one observation in (the first observation seeds the average).
    pub fn observe(&mut self, sample: f64) {
        if !sample.is_finite() || sample < 0.0 {
            return; // clock hiccups must not poison the estimate
        }
        self.value = Some(match self.value {
            Some(current) => self.alpha * sample + (1.0 - self.alpha) * current,
            None => sample,
        });
    }

    /// The current average, or `default` before any observation.
    pub fn get(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Whether any observation has been folded in.
    pub fn is_seeded(&self) -> bool {
        self.value.is_some()
    }
}

/// The publish-time decision: the backend whose publish window
/// `freeze + draws · per_draw` costs the fewest abstract ops under
/// `profile`, and whether it should freeze by patching. Every challenger
/// pays its full build; the `incumbent` (the backend the previous snapshot
/// was frozen under) may instead pay its patch price for the `dirty`
/// coalesced categories (with a whole-vector scale fold when `scaled`)
/// whenever that undercuts its build. Ties break toward earlier registry
/// entries.
pub fn cheapest_for_publish(
    registry: &BackendRegistry,
    profile: &WorkloadProfile,
    incumbent: Option<usize>,
    dirty: usize,
    scaled: bool,
) -> (usize, bool) {
    assert!(!registry.is_empty(), "cannot choose from an empty registry");
    let draws = profile.draws_per_publish.max(0.0);
    let mut best = (0, false);
    let mut best_ops = f64::INFINITY;
    for (entry, backend) in registry.entries().iter().enumerate() {
        let cost = backend.model_cost(profile);
        let patch_ops = if incumbent == Some(entry) {
            cheaper_patch(backend.as_ref(), profile, cost.build_ops, dirty, scaled)
        } else {
            None
        };
        let ops = patch_ops.unwrap_or(cost.build_ops) + draws * cost.per_draw_ops;
        if ops < best_ops {
            best = (entry, patch_ops.is_some());
            best_ops = ops;
        }
    }
    best
}

/// Whether registry `entry`, as the incumbent, should freeze the next
/// snapshot by patching `dirty` categories rather than rebuilding — the
/// freeze-path half of [`cheapest_for_publish`], for engines whose backend
/// is pinned by [`BackendChoice::Fixed`].
pub fn patch_beats_rebuild(
    registry: &BackendRegistry,
    profile: &WorkloadProfile,
    entry: usize,
    dirty: usize,
    scaled: bool,
) -> bool {
    let backend = &registry.entries()[entry];
    let build_ops = backend.model_cost(profile).build_ops;
    cheaper_patch(backend.as_ref(), profile, build_ops, dirty, scaled).is_some()
}

/// The backend's patch price, when it has a patch path that undercuts a
/// full build of `build_ops`.
fn cheaper_patch(
    backend: &dyn FrozenBackend,
    profile: &WorkloadProfile,
    build_ops: f64,
    dirty: usize,
    scaled: bool,
) -> Option<f64> {
    backend
        .model_patch_cost(profile, dirty, scaled)
        .filter(|&patch_ops| patch_ops < build_ops)
}

/// Pick the cheapest backend for the profile when the build must be paid —
/// the closed-form arg-min with no incumbent (ties break toward the
/// earliest registry entry; in the standard registry that is the Fenwick
/// tree, the most predictable engine).
pub fn choose_backend(registry: &BackendRegistry, profile: &WorkloadProfile) -> &'static str {
    let (entry, _) = cheapest_for_publish(registry, profile, None, 0, false);
    registry.entries()[entry].name()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> BackendRegistry {
        BackendRegistry::standard()
    }

    #[test]
    fn balanced_weights_with_moderate_draws_pick_stochastic_acceptance() {
        // skew ≈ 1: SA draws are ~2 ops with a build as cheap as Fenwick's.
        let profile = WorkloadProfile {
            categories: 1 << 16,
            draws_per_publish: 1024.0,
            skew: 1.2,
        };
        assert_eq!(
            choose_backend(&registry(), &profile),
            "stochastic-acceptance"
        );
    }

    #[test]
    fn draw_heavy_windows_amortise_the_alias_build() {
        // Many draws per publish: alias' O(1) draws beat SA once the skew
        // makes SA rounds pricier than a table lookup.
        let profile = WorkloadProfile {
            categories: 4096,
            draws_per_publish: 1.0e6,
            skew: 8.0,
        };
        assert_eq!(choose_backend(&registry(), &profile), "alias");
    }

    #[test]
    fn degenerate_skew_never_picks_stochastic_acceptance() {
        let profile = WorkloadProfile {
            categories: 1 << 14,
            draws_per_publish: 256.0,
            skew: 10_000.0,
        };
        assert_ne!(
            choose_backend(&registry(), &profile),
            "stochastic-acceptance"
        );
    }

    #[test]
    fn few_draws_per_publish_pick_the_cheap_build() {
        // One draw per publish: build cost dominates, alias' 3n loses.
        let profile = WorkloadProfile {
            categories: 1 << 12,
            draws_per_publish: 1.0,
            skew: 4.0,
        };
        assert_ne!(choose_backend(&registry(), &profile), "alias");
    }

    #[test]
    fn measure_computes_the_skew_as_expected_rounds() {
        let p = WorkloadProfile::measure(&[1.0, 1.0, 6.0], 10.0);
        assert_eq!(p.categories, 3);
        assert!((p.skew - 3.0 * 6.0 / 8.0).abs() < 1e-12);
        let zero = WorkloadProfile::measure(&[0.0, 0.0], 10.0);
        assert_eq!(zero.skew, 1.0);
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        let mut avg = Ewma::new(0.5);
        assert!(!avg.is_seeded());
        assert_eq!(avg.get(9.0), 9.0);
        avg.observe(4.0);
        assert!(avg.is_seeded());
        assert_eq!(avg.get(9.0), 4.0);
        avg.observe(8.0);
        assert_eq!(avg.get(9.0), 6.0);
        avg.observe(f64::NAN); // ignored
        avg.observe(-1.0); // ignored
        assert_eq!(avg.get(9.0), 6.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BackendChoice::default(), BackendChoice::Auto);
        assert_eq!(
            registry().names(),
            vec!["fenwick", "alias", "stochastic-acceptance"]
        );
    }
}

/// The decider's golden table: the choices the closed-form cost model makes
/// over a grid of workloads, which any rewrite of the decider must
/// reproduce exactly. One row per
/// `(n, draws_per_publish, skew)`; the first string holds the publish-time
/// choice for incumbent ∈ {none, fenwick, alias, stochastic-acceptance} ×
/// dirty ∈ {1, 1 % of n} × scaled ∈ {no, yes}, one letter per cell
/// (`F`/`A`/`S` rebuild, lower case patch); the second holds the
/// `BackendChoice::Fixed` patch decision per backend (same dirty × scaled
/// order, `p` patch, `-` rebuild).
#[cfg(test)]
#[rustfmt::skip]
const GOLDEN_DECISIONS: &[(usize, f64, f64, &str, &str)] = &[
    (16, 0.0, 1.0, "FFFFfFfFFFFFssss", "p-p- ---- pppp"),
    (16, 0.0, 1.2, "FFFFfFfFFFFFssss", "p-p- ---- pppp"),
    (16, 0.0, 8.0, "FFFFfFfFFFFFssss", "p-p- ---- pppp"),
    (16, 0.0, 300.0, "FFFFfFfFFFFFssss", "p-p- ---- pppp"),
    (16, 0.0, 1.0e4, "FFFFfFfFFFFFssss", "p-p- ---- pppp"),
    (16, 1.0, 1.0, "SSSSfSfSSSSSssss", "p-p- ---- pppp"),
    (16, 1.0, 1.2, "SSSSfSfSSSSSssss", "p-p- ---- pppp"),
    (16, 1.0, 8.0, "FFFFfFfFFFFFFFFF", "p-p- ---- pppp"),
    (16, 1.0, 300.0, "FFFFfFfFFFFFFFFF", "p-p- ---- pppp"),
    (16, 1.0, 1.0e4, "FFFFfFfFFFFFFFFF", "p-p- ---- pppp"),
    (16, 64.0, 1.0, "SSSSSSSSSSSSssss", "p-p- ---- pppp"),
    (16, 64.0, 1.2, "SSSSSSSSSSSSssss", "p-p- ---- pppp"),
    (16, 64.0, 8.0, "AAAAAAAAAAAAAAAA", "p-p- ---- pppp"),
    (16, 64.0, 300.0, "AAAAAAAAAAAAAAAA", "p-p- ---- pppp"),
    (16, 64.0, 1.0e4, "AAAAAAAAAAAAAAAA", "p-p- ---- pppp"),
    (16, 1024.0, 1.0, "SSSSSSSSSSSSssss", "p-p- ---- pppp"),
    (16, 1024.0, 1.2, "AAAAAAAAAAAAAAAA", "p-p- ---- pppp"),
    (16, 1024.0, 8.0, "AAAAAAAAAAAAAAAA", "p-p- ---- pppp"),
    (16, 1024.0, 300.0, "AAAAAAAAAAAAAAAA", "p-p- ---- pppp"),
    (16, 1024.0, 1.0e4, "AAAAAAAAAAAAAAAA", "p-p- ---- pppp"),
    (16, 1.0e6, 1.0, "SSSSSSSSSSSSssss", "p-p- ---- pppp"),
    (16, 1.0e6, 1.2, "AAAAAAAAAAAAAAAA", "p-p- ---- pppp"),
    (16, 1.0e6, 8.0, "AAAAAAAAAAAAAAAA", "p-p- ---- pppp"),
    (16, 1.0e6, 300.0, "AAAAAAAAAAAAAAAA", "p-p- ---- pppp"),
    (16, 1.0e6, 1.0e4, "AAAAAAAAAAAAAAAA", "p-p- ---- pppp"),
    (4096, 0.0, 1.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (4096, 0.0, 1.2, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (4096, 0.0, 8.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (4096, 0.0, 300.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (4096, 0.0, 1.0e4, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (4096, 1.0, 1.0, "SSSSffffSSSSssss", "pppp ---- pppp"),
    (4096, 1.0, 1.2, "SSSSffffSSSSssss", "pppp ---- pppp"),
    (4096, 1.0, 8.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (4096, 1.0, 300.0, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (4096, 1.0, 1.0e4, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (4096, 64.0, 1.0, "SSSSfffSSSSSssss", "pppp ---- pppp"),
    (4096, 64.0, 1.2, "SSSSfffSSSSSssss", "pppp ---- pppp"),
    (4096, 64.0, 8.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (4096, 64.0, 300.0, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (4096, 64.0, 1.0e4, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (4096, 1024.0, 1.0, "SSSSSSSSSSSSssss", "pppp ---- pppp"),
    (4096, 1024.0, 1.2, "SSSSSSSSSSSSssss", "pppp ---- pppp"),
    (4096, 1024.0, 8.0, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (4096, 1024.0, 300.0, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (4096, 1024.0, 1.0e4, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (4096, 1.0e6, 1.0, "SSSSSSSSSSSSssss", "pppp ---- pppp"),
    (4096, 1.0e6, 1.2, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (4096, 1.0e6, 8.0, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (4096, 1.0e6, 300.0, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (4096, 1.0e6, 1.0e4, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (16384, 0.0, 1.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (16384, 0.0, 1.2, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (16384, 0.0, 8.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (16384, 0.0, 300.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (16384, 0.0, 1.0e4, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (16384, 1.0, 1.0, "SSSSffffSSSSssss", "pppp ---- pppp"),
    (16384, 1.0, 1.2, "SSSSffffSSSSssss", "pppp ---- pppp"),
    (16384, 1.0, 8.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (16384, 1.0, 300.0, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (16384, 1.0, 1.0e4, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (16384, 64.0, 1.0, "SSSSffffSSSSssss", "pppp ---- pppp"),
    (16384, 64.0, 1.2, "SSSSffffSSSSssss", "pppp ---- pppp"),
    (16384, 64.0, 8.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (16384, 64.0, 300.0, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (16384, 64.0, 1.0e4, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (16384, 1024.0, 1.0, "SSSSSSSSSSSSssss", "pppp ---- pppp"),
    (16384, 1024.0, 1.2, "SSSSSSSSSSSSssss", "pppp ---- pppp"),
    (16384, 1024.0, 8.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (16384, 1024.0, 300.0, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (16384, 1024.0, 1.0e4, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (16384, 1.0e6, 1.0, "SSSSSSSSSSSSssss", "pppp ---- pppp"),
    (16384, 1.0e6, 1.2, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (16384, 1.0e6, 8.0, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (16384, 1.0e6, 300.0, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (16384, 1.0e6, 1.0e4, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (65536, 0.0, 1.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (65536, 0.0, 1.2, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (65536, 0.0, 8.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (65536, 0.0, 300.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (65536, 0.0, 1.0e4, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (65536, 1.0, 1.0, "SSSSffffSSSSssss", "pppp ---- pppp"),
    (65536, 1.0, 1.2, "SSSSffffSSSSssss", "pppp ---- pppp"),
    (65536, 1.0, 8.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (65536, 1.0, 300.0, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (65536, 1.0, 1.0e4, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (65536, 64.0, 1.0, "SSSSffffSSSSssss", "pppp ---- pppp"),
    (65536, 64.0, 1.2, "SSSSffffSSSSssss", "pppp ---- pppp"),
    (65536, 64.0, 8.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (65536, 64.0, 300.0, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (65536, 64.0, 1.0e4, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (65536, 1024.0, 1.0, "SSSSfffSSSSSssss", "pppp ---- pppp"),
    (65536, 1024.0, 1.2, "SSSSfffSSSSSssss", "pppp ---- pppp"),
    (65536, 1024.0, 8.0, "FFFFffffFFFFssss", "pppp ---- pppp"),
    (65536, 1024.0, 300.0, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (65536, 1024.0, 1.0e4, "FFFFffffFFFFFFFF", "pppp ---- pppp"),
    (65536, 1.0e6, 1.0, "SSSSSSSSSSSSssss", "pppp ---- pppp"),
    (65536, 1.0e6, 1.2, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (65536, 1.0e6, 8.0, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (65536, 1.0e6, 300.0, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
    (65536, 1.0e6, 1.0e4, "AAAAAAAAAAAAAAAA", "pppp ---- pppp"),
];

#[cfg(test)]
mod golden {
    use super::*;

    #[test]
    fn decisions_match_the_golden_table() {
        let registry = BackendRegistry::standard();
        let letters = ['F', 'A', 'S'];
        assert_eq!(GOLDEN_DECISIONS.len(), 4 * 5 * 5);
        for &(n, draws, skew, publish, fixed) in GOLDEN_DECISIONS {
            let profile = WorkloadProfile {
                categories: n,
                draws_per_publish: draws,
                skew,
            };
            let cells = || {
                [1, (n / 100).max(1)]
                    .into_iter()
                    .flat_map(|dirty| [(dirty, false), (dirty, true)])
            };
            let mut got = String::new();
            for incumbent in [None, Some(0), Some(1), Some(2)] {
                for (dirty, scaled) in cells() {
                    let (entry, patches) =
                        cheapest_for_publish(&registry, &profile, incumbent, dirty, scaled);
                    let letter = letters[entry];
                    got.push(if patches {
                        letter.to_ascii_lowercase()
                    } else {
                        letter
                    });
                }
            }
            assert_eq!(
                got, publish,
                "publish choice at n={n} draws={draws} skew={skew}"
            );
            let mut got = String::new();
            for entry in 0..registry.len() {
                if entry > 0 {
                    got.push(' ');
                }
                for (dirty, scaled) in cells() {
                    let patches = patch_beats_rebuild(&registry, &profile, entry, dirty, scaled);
                    got.push(if patches { 'p' } else { '-' });
                }
            }
            assert_eq!(
                got, fixed,
                "fixed patch choice at n={n} draws={draws} skew={skew}"
            );
        }
    }
}
