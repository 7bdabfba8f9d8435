//! Budgeted tiled Bayesian inference over full frames (paper §V-B).
//!
//! The paper's cost argument — Bayesian verification of a full 3840x2160
//! frame takes over a minute while a crop verifies in seconds — is why
//! the Figure 2 architecture verifies candidate crops only. This module
//! closes the remaining gap: a full frame *can* be Bayesian-verified
//! **incrementally**, tile by tile under an explicit latency budget, with
//! candidate-zone tiles verified first so the safety-relevant regions are
//! covered before the budget runs out.
//!
//! Correctness rests on two invariants of the engine:
//!
//! - the tile margin is at least the network's receptive radius, so every
//!   kept pixel's Monte-Carlo-invariant prefix equals the whole-frame
//!   prefix bit for bit (the same argument as deterministic
//!   [`el_seg::segment_tiled`]);
//! - dropout masks are **coordinate-keyed**
//!   ([`el_nn::layers::keyed_mask_word`]): a tile processed at its frame
//!   origin draws exactly the masks the whole frame would draw at those
//!   pixels. (Mask rows and GEMMs both lower through the `el_kernels`
//!   dispatch ladder, whose tiers are mutually bit-identical — tiling
//!   invariants survive a change of ISA or a forced `EL_FORCE_KERNEL`
//!   tier unchanged.)
//!
//! Together they make an unbudgeted tiled pass **bit-identical** to
//! untiled [`bayesian_segment`](crate::bayes::bayesian_segment)
//! (property-tested), so partial coverage is a strict prefix of the exact
//! full-frame answer — not an approximation of it.
//!
//! **Kept-interior evaluation.** Each tile computes only what it keeps:
//! the invariant prefix is evaluated at the tile's kept interior
//! ([`MsdNet::mc_prefix_window`] — the margin feeds the branch
//! convolutions' taps but is never itself computed), and every
//! Monte-Carlo sample's suffix runs on those kept columns with the mask
//! origin shifted to the keep's top-left. The heads are 1x1 and the
//! masks coordinate-keyed, so the kept statistics are the same bits the
//! whole tile would produce there, and stitching is a plain copy. At the
//! paper geometry (256 px frames, 128 px tiles, 8 px margin) this skips
//! the 55.6% of tile columns a full-tile pass computed and discarded.
//! The kept interior itself runs band-major, one cache-resident row
//! band at a time ([`crate::bayes`], engine design item 6).
//!
//! The audit sweep — and only the audit sweep — may additionally opt
//! into an **approximate contract**
//! ([`bayesian_segment_tiled_precise_with_clock`]): the per-tile
//! Monte-Carlo *suffix* GEMMs route through a reduced-precision
//! `el_kernels` rung, the invariant prefix stays exact, a
//! deterministically sampled fraction of tiles is re-run through the
//! exact path, and any divergence beyond the calibrated tolerance
//! hard-fails the rest of the sweep back to exact (see
//! [`crate::precision`]).

use std::time::{Duration, Instant};

use el_geom::{Grid, Rect};
use el_nn::Tensor;
use el_scene::Image;
use el_seg::data::image_to_tensor;
use el_seg::{plan_tiles, prioritize_tiles, MsdNet, Tile, TileConfig};

use el_kernels::ResolvedKernels;

use crate::bayes::{mc_stats, BayesStats, McJob, ScratchPool};
use crate::precision::{
    crosscheck_tile, resolve_validated, stats_divergence, AuditPrecision, PrecisionOutcome,
};

/// The result of a (possibly budget-truncated) tiled Bayesian pass.
#[derive(Debug, Clone)]
pub struct TiledBayesStats {
    /// Full-frame statistics. Pixels of verified tiles carry the exact
    /// whole-frame values; unverified pixels are zero (never NaN).
    pub stats: BayesStats,
    /// `true` where [`TiledBayesStats::stats`] is populated — the union
    /// of the kept interiors of the verified tiles.
    pub covered: Grid<bool>,
    /// The tile plan the pass ran over ([`el_seg::plan_tiles`] output).
    pub tiles: Vec<Tile>,
    /// Indices into [`TiledBayesStats::tiles`] of the verified tiles, in
    /// verification order (priority tiles first) — the audit's per-tile
    /// statistics are keyed by these.
    pub verified: Vec<usize>,
    /// Number of tiles the plan contains.
    pub tiles_total: usize,
    /// Number of tiles verified before the budget expired.
    pub tiles_verified: usize,
}

impl TiledBayesStats {
    /// Fraction of frame pixels covered.
    pub fn coverage(&self) -> f64 {
        self.covered.fraction_set()
    }

    /// `true` when every tile was verified (the result equals an untiled
    /// pass).
    pub fn is_complete(&self) -> bool {
        self.tiles_verified == self.tiles_total
    }
}

/// Bayesian-verifies a full frame tile by tile under a latency budget.
///
/// Tiles come from the shared planner ([`el_seg::plan_tiles`]); tiles
/// whose kept interior intersects a `priority` rectangle (candidate
/// landing zones) are verified first, remaining tiles in row-major order.
/// Admission is **predictive**: before each tile the elapsed wall-clock
/// time is polled once, an EWMA of the measured per-tile cost is
/// maintained from successive polls, and the tile is admitted only while
/// `elapsed + (pending + 1) · avg < budget` (`pending` the tiles already
/// admitted into the current admission group) — so an admitted group
/// can no longer overrun the budget by a trailing tile once a cost
/// measurement exists. Until the first group has been measured the raw
/// `elapsed < budget` check applies. On expiry the partial result is
/// returned immediately — covered tiles carry exact whole-frame
/// statistics (see the module docs), uncovered pixels are zero with
/// `covered` false.
///
/// With an unexpired budget the result is **bit-identical** to untiled
/// [`bayesian_segment`](crate::bayes::bayesian_segment) on the whole
/// frame.
///
/// # Panics
///
/// Panics if the tile configuration is invalid, `samples == 0`, or the
/// margin is smaller than the network's receptive radius (the exactness
/// precondition).
pub fn bayesian_segment_tiled(
    net: &MsdNet,
    image: &Image,
    config: TileConfig,
    samples: usize,
    seed: u64,
    budget: Duration,
    priority: &[Rect],
) -> TiledBayesStats {
    let start = Instant::now();
    bayesian_segment_tiled_with_clock(
        net,
        image,
        config,
        samples,
        seed,
        budget.as_secs_f64(),
        priority,
        move || start.elapsed().as_secs_f64(),
    )
}

/// Copies every channel of `src` into `dst` with its top-left pixel at
/// `origin = (row, col)`.
fn paste(dst: &mut Tensor, src: &Tensor, origin: (usize, usize)) {
    let (sw, dw) = (src.width(), dst.width());
    for c in 0..src.channels() {
        let dst = dst.channel_mut(c);
        for (y, row) in src.channel(c).chunks_exact(sw).enumerate() {
            let at = (origin.0 + y) * dw + origin.1;
            dst[at..at + sw].copy_from_slice(row);
        }
    }
}

/// Pixel-column budget of one admission group: consecutive tiles whose
/// combined kept-pixel count stays within it are admitted together,
/// between two clock polls, before any of them runs.
const ADMIT_GROUP_COLUMNS: usize = 32 * 1024;

/// Hard cap on tiles per admission group, whatever the tile size. The
/// clock is polled at *admission*, before any of the group's
/// Monte-Carlo work runs — this cap keeps the admitted-but-unmeasured
/// backlog to at most two tiles (small audit tiles would otherwise pack
/// dozens of tiles under the column budget), and the predictive
/// admission check ([`TILE_COST_EWMA_ALPHA`]) charges every pending
/// group tile against the budget, so an admitted group no longer
/// overruns it once a per-tile cost measurement exists.
const ADMIT_GROUP_TILES: usize = 2;

/// EWMA smoothing factor for the measured per-tile cost that drives
/// predictive admission. Successive admission polls bracket the
/// processing of an admission group, so `(poll_delta / tiles_processed)` is
/// a direct per-tile cost sample; the EWMA tracks drift (cache warmup,
/// load) while damping one-off spikes. Admission stops when
/// `elapsed + (pending + 1) · avg >= budget`.
const TILE_COST_EWMA_ALPHA: f64 = 0.5;

/// [`bayesian_segment_tiled`] with an injectable clock: `elapsed_s`
/// returns seconds since the pass began and is polled once **before each
/// tile** (at its admission into the current admission group); per-tile
/// cost for the predictive admission check is derived from the deltas of
/// those same polls, so the clock remains the single source of time.
/// Production passes wall-clock time; tests pass a deterministic fake
/// clock to pin the budget semantics (coverage monotone in budget,
/// partial results well-formed, one clock poll per admission attempt,
/// predictive stop before a foreseeable overrun).
#[allow(clippy::too_many_arguments)]
pub fn bayesian_segment_tiled_with_clock(
    net: &MsdNet,
    image: &Image,
    config: TileConfig,
    samples: usize,
    seed: u64,
    budget_s: f64,
    priority: &[Rect],
    elapsed_s: impl FnMut() -> f64,
) -> TiledBayesStats {
    let (stats, _outcome) = bayesian_segment_tiled_precise_with_clock(
        net,
        image,
        config,
        samples,
        seed,
        budget_s,
        priority,
        &AuditPrecision::exact(),
        elapsed_s,
    );
    stats
}

/// [`bayesian_segment_tiled_with_clock`] under an explicit
/// [`AuditPrecision`] policy — the audit sweep's entry point.
///
/// Under [`AuditPrecision::exact`] this is the exact pass, bit for bit
/// (the wrapper above delegates here). Under an approximate contract:
///
/// - each tile's Monte-Carlo suffix runs through the policy's
///   [`el_kernels::ApproxRung`]; the invariant prefix, sample seeds,
///   dropout masks and fold order are unchanged;
/// - tiles selected by [`crosscheck_tile`] (a pure seed-chained hash —
///   the same tiles every replay) are re-run through the exact path;
///   the worst observed µ/σ divergence over the tile's **kept** pixels
///   (the only ones either pass computes, and the only ones the report
///   uses) is reported in the outcome;
/// - a cross-check divergence beyond the policy's tolerance is a
///   **hard failure**: that tile keeps its exact statistics and every
///   subsequent tile runs exact (`el-metrics` counts the fallback), so
///   a mis-calibrated rung degrades to coverage loss, never to wrong
///   statistics surviving unflagged.
///
/// Tile admission, budget accounting and the returned
/// [`TiledBayesStats`] layout are identical to the exact pass — the
/// cross-check's extra exact passes charge the same budget clock, so
/// an approximate sweep's coverage gain is measured net of its
/// verification overhead.
///
/// # Panics
///
/// Panics on the same preconditions as the exact pass, and if the
/// precision policy fails to resolve to kernels (rejected earlier by
/// [`AuditPrecision::validate`] at configuration time).
#[allow(clippy::too_many_arguments)]
pub fn bayesian_segment_tiled_precise_with_clock(
    net: &MsdNet,
    image: &Image,
    config: TileConfig,
    samples: usize,
    seed: u64,
    budget_s: f64,
    priority: &[Rect],
    precision: &AuditPrecision,
    mut elapsed_s: impl FnMut() -> f64,
) -> (TiledBayesStats, PrecisionOutcome) {
    assert!(samples > 0, "at least one Monte-Carlo sample is required");
    assert!(
        config.margin >= net.receptive_radius(),
        "tile margin {} below the network's receptive radius {}: tiled \
         statistics would diverge from the whole frame near seams",
        config.margin,
        net.receptive_radius()
    );
    let (w, h) = (image.width(), image.height());
    let tiles = plan_tiles(w, h, config);
    let order = prioritize_tiles(&tiles, priority);
    let classes = net.classes();
    let mut mean = Tensor::zeros(classes, h, w);
    let mut std = Tensor::zeros(classes, h, w);
    let mut covered = Grid::new(w, h, false);
    let mut verified: Vec<usize> = Vec::new();
    // One scratch pool warms up on the first tile and serves every
    // subsequent one.
    let pool = ScratchPool::new();
    let exact = ResolvedKernels::active_exact();
    // Approximate contracts resolve their kernels once, up front; a
    // policy that cannot resolve panics here (configuration validation
    // rejects it long before a frame reaches this point).
    let approx_kernels = if precision.contract.is_exact() {
        None
    } else {
        Some(resolve_validated(precision))
    };
    let mut outcome = PrecisionOutcome {
        contract: precision.contract,
        sigma_margin: if precision.contract.is_exact() {
            0.0
        } else {
            precision.sigma_margin
        },
        ..PrecisionOutcome::exact()
    };
    // Tiles are admitted in small groups, and each admitted tile then
    // runs through the band-major statistics engine on its own. The
    // budget clock is polled once per tile, at admission; successive
    // poll deltas bracket the processing of a group, yielding the
    // per-tile cost samples behind the predictive stop
    // (`elapsed + (pending + 1) · avg >= budget`).
    let mut pos = 0usize;
    let mut expired = false;
    // (clock value, tiles verified by then) at the previous admission
    // poll, and the EWMA per-tile cost measured from those deltas. Until
    // a group has been processed between two polls there is no cost
    // sample and admission falls back to the raw `elapsed < budget`
    // check (the pre-EWMA behaviour).
    let mut last_poll: Option<(f64, usize)> = None;
    let mut avg_tile_s: Option<f64> = None;
    while pos < order.len() && !expired {
        let mut group: Vec<usize> = Vec::new();
        let mut cols = 0usize;
        while pos < order.len() {
            let hw = tiles[order[pos]].keep_window().area();
            if !group.is_empty()
                && (group.len() >= ADMIT_GROUP_TILES || cols + hw > ADMIT_GROUP_COLUMNS)
            {
                break;
            }
            let now = elapsed_s();
            if let Some((prev_t, prev_done)) = last_poll {
                let done = verified.len() - prev_done;
                if done > 0 {
                    let cost = ((now - prev_t) / done as f64).max(0.0);
                    avg_tile_s = Some(match avg_tile_s {
                        None => cost,
                        Some(avg) => avg + TILE_COST_EWMA_ALPHA * (cost - avg),
                    });
                }
            }
            last_poll = Some((now, verified.len()));
            let predicted = avg_tile_s.map_or(0.0, |avg| (group.len() + 1) as f64 * avg);
            if now + predicted >= budget_s {
                expired = true;
                // Every tile left unadmitted by this pass was refused on
                // budget grounds.
                el_metrics::registry()
                    .tile_refusals
                    .add((order.len() - pos) as u64);
                break;
            }
            group.push(order[pos]);
            cols += hw;
            pos += 1;
        }
        if group.is_empty() {
            break;
        }
        let inputs: Vec<Tensor> = group
            .iter()
            .map(|&i| image_to_tensor(&image.crop(tiles[i].rect).expect("tile within image")))
            .collect();
        for (&i, input) in group.iter().zip(&inputs) {
            // Statistics of the kept interior only, keyed at the keep's
            // frame origin.
            let keep = tiles[i].keep_rect();
            let origin = (keep.y as usize, keep.x as usize);
            let job = [McJob {
                input,
                window: tiles[i].keep_window(),
                seed,
                origin,
            }];
            let stats_with = |kernels: &ResolvedKernels| {
                mc_stats(net, &job, samples, true, &pool, kernels)
                    .pop()
                    .expect("one job in, one result out")
            };
            let tile_sw = el_metrics::Stopwatch::start();
            // The cross-check selection hashes the *plan* index `i`, not
            // the verification position, so the checked tile set is
            // independent of priority ordering and budget truncation.
            let stats = match &approx_kernels {
                Some(kernels) if !outcome.fell_back => {
                    let approx = stats_with(kernels);
                    if crosscheck_tile(seed, i, precision.crosscheck_fraction) {
                        outcome.tiles_crosschecked += 1;
                        el_metrics::registry().audit_crosschecks.add(1);
                        let exact = stats_with(&exact);
                        let div = stats_divergence(&approx, &exact);
                        outcome.max_divergence = outcome.max_divergence.max(div);
                        if div > precision.divergence_tolerance {
                            // Hard failure: this tile keeps the exact
                            // statistics, the rest of the sweep runs
                            // exact.
                            outcome.fell_back = true;
                            outcome.tiles_fallback += 1;
                            el_metrics::registry().audit_fallbacks.add(1);
                            exact
                        } else {
                            outcome.tiles_approx += 1;
                            el_metrics::registry().audit_approx_tiles.add(1);
                            approx
                        }
                    } else {
                        outcome.tiles_approx += 1;
                        el_metrics::registry().audit_approx_tiles.add(1);
                        approx
                    }
                }
                Some(_) => {
                    // Post-fallback: the remainder of the sweep is exact.
                    outcome.tiles_fallback += 1;
                    stats_with(&exact)
                }
                None => stats_with(&exact),
            };
            el_metrics::registry().tile_cost.record(tile_sw);
            debug_assert_eq!(
                stats.mean.shape(),
                (classes, keep.h as usize, keep.w as usize)
            );
            paste(&mut mean, &stats.mean, origin);
            paste(&mut std, &stats.std, origin);
            for p in keep.pixels() {
                covered[(p.x as usize, p.y as usize)] = true;
            }
            verified.push(i);
        }
    }
    let tiles_verified = verified.len();
    let metrics = el_metrics::registry();
    metrics.tiles_planned.add(tiles.len() as u64);
    metrics.tiles_verified.add(tiles_verified as u64);
    (
        TiledBayesStats {
            stats: BayesStats { mean, std, samples },
            covered,
            tiles_total: tiles.len(),
            tiles_verified,
            tiles,
            verified,
        },
        outcome,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bayes::bayesian_segment;
    use el_scene::{Conditions, Scene, SceneParams};
    use el_seg::MsdNetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net() -> MsdNet {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        MsdNet::new(&MsdNetConfig::tiny(), &mut rng)
    }

    fn image(w: usize, h: usize) -> Image {
        let mut p = SceneParams::small();
        p.width = w;
        p.height = h;
        Scene::generate(&p, 3).render(&Conditions::nominal(), 3)
    }

    fn cfg() -> TileConfig {
        TileConfig {
            tile: 24,
            margin: 4,
        }
    }

    #[test]
    fn unbudgeted_tiled_equals_untiled_bitwise() {
        let net = net();
        let img = image(52, 41);
        let tiled =
            bayesian_segment_tiled(&net, &img, cfg(), 5, 11, Duration::from_secs(3600), &[]);
        assert!(tiled.is_complete());
        assert!(tiled.covered.iter().all(|&c| c));
        let whole = bayesian_segment(&net, &img, 5, 11);
        assert_eq!(tiled.stats.mean.as_slice(), whole.mean.as_slice());
        assert_eq!(tiled.stats.std.as_slice(), whole.std.as_slice());
    }

    /// 64 px frames at 32 px tiles with a 4 px margin cut each axis at
    /// [0, 24, 32]: the clamped last tile squeezes the middle tile's
    /// keep to an 8 px sliver (keep widths 28, 8, 28).
    fn sliver_cfg() -> TileConfig {
        TileConfig {
            tile: 32,
            margin: 4,
        }
    }

    #[test]
    fn sliver_keep_plan_is_what_the_tests_below_exercise() {
        let tiles = plan_tiles(64, 64, sliver_cfg());
        let widths: Vec<i64> = tiles[..3].iter().map(|t| t.keep_rect().w).collect();
        assert_eq!(widths, [28, 8, 28]);
    }

    #[test]
    fn sliver_keep_unbudgeted_tiled_equals_untiled_bitwise() {
        let net = net();
        let img = image(64, 64);
        let tiled = bayesian_segment_tiled(
            &net,
            &img,
            sliver_cfg(),
            5,
            23,
            Duration::from_secs(3600),
            &[],
        );
        assert!(tiled.is_complete());
        assert!(tiled.covered.iter().all(|&c| c));
        let whole = bayesian_segment(&net, &img, 5, 23);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tiled.stats.mean), bits(&whole.mean));
        assert_eq!(bits(&tiled.stats.std), bits(&whole.std));
    }

    #[test]
    fn sliver_keep_truncated_coverage_equals_the_whole_frame() {
        let net = net();
        let img = image(64, 64);
        let whole = bayesian_segment(&net, &img, 5, 23);
        // Priority on the sliver column, one clock tick per admission
        // poll: the budget truncates the sweep partway through the plan.
        let sliver = Rect::new(30, 0, 4, 64);
        let mut t = -1.0f64;
        let out = bayesian_segment_tiled_with_clock(
            &net,
            &img,
            sliver_cfg(),
            5,
            23,
            4.5,
            &[sliver],
            move || {
                t += 1.0;
                t
            },
        );
        assert!(out.tiles_verified > 0 && !out.is_complete());
        let (classes, h, w) = whole.mean.shape();
        let mut covered = 0usize;
        for y in 0..h {
            for x in 0..w {
                for c in 0..classes {
                    let i = (c * h + y) * w + x;
                    let (m, s) = (out.stats.mean.as_slice()[i], out.stats.std.as_slice()[i]);
                    if out.covered[(x, y)] {
                        assert_eq!(m.to_bits(), whole.mean.as_slice()[i].to_bits());
                        assert_eq!(s.to_bits(), whole.std.as_slice()[i].to_bits());
                    } else {
                        assert_eq!((m, s), (0.0, 0.0), "uncovered pixels stay zero");
                    }
                }
                covered += usize::from(out.covered[(x, y)]);
            }
        }
        // Coverage is exactly the union of the verified tiles' keeps.
        let kept: i64 = out
            .verified
            .iter()
            .map(|&i| out.tiles[i].keep_rect().area())
            .sum();
        assert_eq!(covered as i64, kept);
        // The sliver tiles were verified first.
        assert!(out.verified[..3]
            .iter()
            .all(|&i| out.tiles[i].keep_rect().w == 8));
    }

    #[test]
    fn zero_budget_returns_empty_coverage() {
        let net = net();
        let img = image(40, 40);
        let out = bayesian_segment_tiled_with_clock(&net, &img, cfg(), 3, 1, 0.0, &[], || 1.0);
        assert_eq!(out.tiles_verified, 0);
        assert!(out.covered.iter().all(|&c| !c));
        assert!(out.stats.mean.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn priority_tiles_verified_first_under_budget() {
        let net = net();
        let img = image(48, 48);
        let target = Rect::new(30, 30, 8, 8);
        // Fake clock: one tick per tile, budget admits exactly one tile.
        let mut t = -1.0f64;
        let out =
            bayesian_segment_tiled_with_clock(&net, &img, cfg(), 3, 1, 0.5, &[target], move || {
                t += 1.0;
                t
            });
        assert_eq!(out.tiles_verified, 1);
        // The verified tile covers (part of) the priority rect.
        assert!(target
            .pixels()
            .any(|p| out.covered[(p.x as usize, p.y as usize)]));
    }

    #[test]
    fn predictive_admission_stops_before_a_foreseeable_overrun() {
        // Fake clock: +10 s per admission poll, so after the first
        // 2-tile group the measured cost is 5 s/tile. Budget 35 s:
        //   poll 0 s  -> bootstrap, admit        (group tile 1)
        //   poll 10 s -> bootstrap, admit        (group tile 2; process)
        //   poll 20 s -> avg 5, 20 + 1*5 < 35, admit
        //   poll 30 s -> avg 5 (pending 1), 30 + 2*5 >= 35 -> stop.
        // The raw `elapsed < budget` check would have admitted a fourth
        // tile at 30 s and finished near 40 s — one tile past budget.
        let net = net();
        let img = image(72, 72); // 3x3 plan at 24 px tiles
        let mut t = -10.0f64;
        let out =
            bayesian_segment_tiled_with_clock(&net, &img, cfg(), 3, 1, 35.0, &[], move || {
                t += 10.0;
                t
            });
        assert_eq!(
            out.tiles_verified, 3,
            "prediction must refuse the tile the raw elapsed check would admit"
        );
        assert!(out.tiles_total >= 4, "plan must have tiles left to refuse");
    }

    /// `true` when the active tier (which honours `EL_FORCE_KERNEL`,
    /// so CI's forced-sse2 leg skips rather than fails) offers `rung`.
    fn rung_available(rung: el_kernels::ApproxRung) -> bool {
        el_kernels::KernelPolicy::approximate(rung)
            .resolve()
            .is_ok()
    }

    #[test]
    fn approximate_sweep_covers_and_reports_its_outcome() {
        if !rung_available(el_kernels::ApproxRung::F16) {
            eprintln!("skipping: f16 rung unavailable on the active tier");
            return;
        }
        let net = net();
        let img = image(52, 41);
        let mut precision = AuditPrecision::approximate(el_kernels::ApproxRung::F16);
        precision.crosscheck_fraction = 1.0; // check every tile
        precision.divergence_tolerance = 1.0; // never hard-fail
        let (tiled, outcome) = bayesian_segment_tiled_precise_with_clock(
            &net,
            &img,
            cfg(),
            5,
            11,
            f64::INFINITY,
            &[],
            &precision,
            || 0.0,
        );
        assert!(tiled.is_complete());
        assert!(!outcome.fell_back);
        assert_eq!(outcome.tiles_approx, tiled.tiles_total);
        assert_eq!(outcome.tiles_crosschecked, tiled.tiles_total);
        assert_eq!(outcome.tiles_fallback, 0);
        assert!(outcome.max_divergence.is_finite());
        assert!(tiled.stats.mean.as_slice().iter().all(|v| v.is_finite()));
        // Same seeds, same sample set: the approximate sweep tracks the
        // exact one to within the (generous) f16 fuzz.
        let whole = bayesian_segment(&net, &img, 5, 11);
        for (a, e) in tiled
            .stats
            .mean
            .as_slice()
            .iter()
            .zip(whole.mean.as_slice())
        {
            assert!((a - e).abs() < 0.05, "approx {a} vs exact {e}");
        }
    }

    #[test]
    fn forced_divergence_hard_fails_back_to_the_exact_path() {
        if !rung_available(el_kernels::ApproxRung::Int8) {
            eprintln!("skipping: int8 rung unavailable on the active tier");
            return;
        }
        let net = net();
        let img = image(52, 41);
        let mut precision = AuditPrecision::approximate(el_kernels::ApproxRung::Int8);
        precision.crosscheck_fraction = 1.0;
        // Impossible tolerance: the first cross-check must hard-fail.
        precision.divergence_tolerance = -1.0;
        let (tiled, outcome) = bayesian_segment_tiled_precise_with_clock(
            &net,
            &img,
            cfg(),
            5,
            11,
            f64::INFINITY,
            &[],
            &precision,
            || 0.0,
        );
        assert!(outcome.fell_back);
        assert_eq!(outcome.tiles_approx, 0);
        assert_eq!(outcome.tiles_fallback, tiled.tiles_total);
        assert_eq!(outcome.tiles_crosschecked, 1, "fallback after first check");
        // Every kept tile carried exact statistics, so the fallback
        // sweep equals the untiled exact pass bit for bit.
        let whole = bayesian_segment(&net, &img, 5, 11);
        assert_eq!(tiled.stats.mean.as_slice(), whole.mean.as_slice());
        assert_eq!(tiled.stats.std.as_slice(), whole.std.as_slice());
    }

    #[test]
    #[should_panic(expected = "below the network's receptive radius")]
    fn insufficient_margin_rejected() {
        let net = net();
        let img = image(32, 32);
        let _ = bayesian_segment_tiled(
            &net,
            &img,
            TileConfig {
                tile: 16,
                margin: 1,
            },
            3,
            1,
            Duration::from_secs(1),
            &[],
        );
    }
}
