//! Monte-Carlo-dropout Bayesian inference — the monitor's fast engine.
//!
//! # Engine design
//!
//! A verified crop costs `samples` stochastic passes in the naive
//! formulation. The engine cuts that down six ways, none of which
//! changes the statistics' semantics:
//!
//! 1. **Invariant-prefix caching.** No dropout layer precedes the MSDnet's
//!    dilated branch convolutions, so `relu(conv_d(x))` is identical in
//!    every Monte-Carlo sample. The engine computes it once per row band
//!    ([`el_seg::MsdNet::mc_prefix_window`]); each sample replays only
//!    the stochastic suffix (branch dropout → fusion head → head
//!    dropout → classifier).
//! 2. **Coordinate-keyed masks.** Sample `k`'s per-sample seed is
//!    `splitmix64(seed + (k+1)·φ)` (`φ` the 64-bit golden-ratio
//!    constant), and each activation's mask bit is a pure hash of that
//!    seed and the activation's **global frame coordinates**
//!    ([`el_nn::layers::keyed_mask_word`]). Masks therefore depend
//!    neither on execution order nor on the shape or position of the
//!    block they are computed through: the parallel and sequential paths
//!    agree bit for bit, a batch of crops agrees with per-crop
//!    verification, and a tile computed at its frame origin agrees with
//!    the whole frame ([`bayesian_segment_tiled`](crate::tiledbayes)).
//!    The per-row mask evaluation — like the GEMMs under every
//!    convolution here — dispatches through the `el_kernels` tier
//!    ladder (portable/SSE2/AVX2/AVX-512F/NEON, `EL_FORCE_KERNEL` to
//!    pin), and every tier is bit-identical, so verdicts are also
//!    independent of the ISA the monitor ships on (`docs/kernels.md`).
//! 3. **Fixed-chunk streaming Welford.** Samples are partitioned into at
//!    most [`MC_CHUNKS`] contiguous chunks — a partition that depends only
//!    on the sample count, never on thread count. Each chunk folds its
//!    samples into a running Welford mean/M2 (O(1) memory in the sample
//!    count); the per-chunk partials are then merged **in chunk order**
//!    with Chan's parallel-combine formula. Because both the partition and
//!    the merge order are fixed, [`bayesian_segment_tensor`] (bands on
//!    rayon workers) and [`bayesian_segment_tensor_sequential`] (same
//!    bands, one thread) produce bit-identical [`BayesStats`]. The fold
//!    itself is **lane-parallel across pixels, sequential across
//!    samples** — pixel statistics never interact — so both the per-pixel
//!    update and the chunk merge dispatch through the `el_kernels` tier
//!    ladder ([`el_kernels::Kernels::welford_push`] /
//!    [`el_kernels::Kernels::welford_merge`]), 4/8/16 pixels per lane
//!    step, every tier bit-identical to portable. A one-sample chunk's
//!    partial is exactly `(x, 0)`, so it is merged in straight from the
//!    sample's scores.
//! 4. **One shared batch work queue.** [`bayesian_segment_batch`] turns
//!    a batch of crops into `crops x bands` independent tasks drained by
//!    a single rayon `par_iter` — no per-crop join barriers, so workers
//!    stay busy while any crop still has work left — and scratch is
//!    pooled across the whole invocation instead of re-warmed per crop.
//! 5. **Kept-interior evaluation.** A tiled whole-frame pass keeps only
//!    each tile's interior; its margin exists to feed the dilated
//!    branch convolutions' taps. The tiled pass therefore computes
//!    the prefix at the kept interior only (an im2col over an output
//!    window of the crop) and runs every Monte-Carlo sample's suffix on
//!    those kept columns, keyed at the keep's frame origin. The heads
//!    are 1x1, masks are keyed by global coordinates and each GEMM
//!    column reduces over `k` in a fixed order, so the kept pixels'
//!    statistics are bit-identical to computing the whole tile and
//!    discarding its margin — without paying for the margin.
//! 6. **Band-major evaluation.** A window is never evaluated whole: the
//!    band planner ([`el_nn::layers::Window::row_bands`]) cuts it into
//!    runs of full-width rows of at most [`el_seg::BAND_COLUMNS`]
//!    columns, and each band task computes its windowed prefix, every
//!    sample's suffix and softmax, the per-chunk Welford folds, the
//!    chunk-order merge and `σ` while the band is L2-resident, then
//!    writes the band's rows. The band is the parallel unit; bands are
//!    disjoint and written to fixed positions, so the result does not
//!    depend on the thread count. A call with fewer bands than workers
//!    also splits each band's chunks into runs, one task each, and
//!    merges the runs' partials in chunk order. The result is
//!    bit-identical to whole-window evaluation by item 5's argument
//!    plus a fixed chunk partition and merge order, and every band
//!    starts on a 64-column boundary, so the approximate GEMM rungs see
//!    the same column tiles and int8 quantisation groups as they would
//!    over the whole window (`docs/kernels.md`).
//!
//! The pre-optimization path — naive scalar convolution, one RNG stream,
//! strictly sequential — survives as [`bayesian_segment_tensor_reference`]
//! for the equivalence tests and the `perf_monitor_scaling` benchmark.

use el_kernels::welford::AlignedF32;
use el_kernels::ResolvedKernels;
use el_nn::layers::{Phase, Window};
use el_nn::loss::{softmax, softmax_in_place};
use el_nn::{Tensor, Workspace};
use el_scene::Image;
use el_seg::data::image_to_tensor;
use el_seg::{MsdNet, BAND_COLUMNS};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Maximum number of Monte-Carlo work chunks.
///
/// The partition of samples into chunks depends only on the sample count,
/// so results are independent of how many threads actually execute them.
/// Memory overhead is O(`MC_CHUNKS`) statistics buffers, regardless of the
/// sample count.
pub const MC_CHUNKS: usize = 8;

/// Per-pixel, per-class statistics over `samples` stochastic passes.
#[derive(Debug, Clone)]
pub struct BayesStats {
    /// Empirical mean `µ` of the softmax scores, shape `(classes, h, w)`.
    pub mean: Tensor,
    /// Empirical standard deviation `σ`, same shape.
    pub std: Tensor,
    /// Number of Monte-Carlo samples used.
    pub samples: usize,
}

impl BayesStats {
    /// The upper 99.7% confidence bound `µ + k σ` for one class channel.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn upper_bound(&self, class: usize, sigma_factor: f32) -> Vec<f32> {
        assert!(class < self.mean.channels(), "class {class} out of range");
        self.mean
            .channel(class)
            .iter()
            .zip(self.std.channel(class))
            .map(|(&m, &s)| m + sigma_factor * s)
            .collect()
    }

    /// Mean of `σ` over all pixels and classes — a scalar uncertainty
    /// summary used by the experiments (rises on out-of-distribution
    /// inputs).
    pub fn mean_uncertainty(&self) -> f64 {
        self.std.mean() as f64
    }
}

/// The 64-bit golden-ratio constant used by SplitMix64.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the private seed of Monte-Carlo sample `k` from the caller's
/// seed: the SplitMix64 finaliser over `seed + (k+1)·φ`.
///
/// Execution-order independent by construction — this is what makes the
/// parallel sample loop deterministic.
fn sample_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed.wrapping_add((k as u64 + 1).wrapping_mul(GOLDEN));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed, thread-count-independent partition of `samples` into at
/// most [`MC_CHUNKS`] contiguous `(start, len)` chunks.
fn chunk_layout(samples: usize) -> Vec<(usize, usize)> {
    let chunks = samples.clamp(1, MC_CHUNKS);
    let base = samples / chunks;
    let extra = samples % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        out.push((start, len));
        start += len;
    }
    out
}

/// A streaming Welford mean/M2 accumulator over equal-length vectors.
///
/// Both the per-sample update and the Chan merge are lane-parallel
/// across elements (pixels) and dispatch through the `el_kernels` tier
/// ladder ([`el_kernels::active`], honouring `EL_FORCE_KERNEL`); every
/// tier reproduces the portable fold bit for bit, so the monitor's
/// statistics are independent of the ISA it ships on. The accumulator
/// slabs live in 64-byte-aligned storage
/// ([`el_kernels::welford::AlignedF32`]) — they are the streams loaded
/// *and* stored every sample, and aligned 512-bit accesses dodge the
/// cache-line-split tax. Consecutive samples can fold as fused pairs
/// ([`Welford::push2`]), which is bit-identical to two single pushes
/// and halves the accumulator traffic.
#[derive(Clone, Default)]
struct Welford {
    count: usize,
    mean: AlignedF32,
    m2: AlignedF32,
}

impl Welford {
    fn new(len: usize) -> Self {
        Welford {
            count: 0,
            mean: AlignedF32::zeroed(len),
            m2: AlignedF32::zeroed(len),
        }
    }

    /// Folds one sample in (classic Welford update, lane-parallel over
    /// the slab).
    fn push(&mut self, xs: &[f32]) {
        debug_assert_eq!(xs.len(), self.mean.len());
        self.count += 1;
        let n = self.count as f32;
        el_kernels::active().welford_push(self.mean.as_mut_slice(), self.m2.as_mut_slice(), xs, n);
    }

    /// Folds two consecutive samples as one fused pass — bit-identical
    /// to `push(xs0); push(xs1)` on every tier (the kernel preserves
    /// every intermediate rounding), but the accumulator slabs stream
    /// through the cache once instead of twice.
    fn push2(&mut self, xs0: &[f32], xs1: &[f32]) {
        debug_assert_eq!(xs0.len(), self.mean.len());
        let n0 = (self.count + 1) as f32;
        self.count += 2;
        el_kernels::active().welford_push2(
            self.mean.as_mut_slice(),
            self.m2.as_mut_slice(),
            xs0,
            xs1,
            n0,
        );
    }

    /// Folds the samples of chunk `(start, len)` in, `probs(k, ws)`
    /// yielding sample `k`'s softmax scores. Consecutive samples fold as
    /// fused pairs — bit-identical to single pushes (see
    /// `Kernels::welford_push2`) with half the accumulator traffic — and
    /// an odd chunk's last sample singly.
    fn fold_chunk(
        &mut self,
        (start, len): (usize, usize),
        ws: &mut Workspace,
        probs: impl Fn(usize, &mut Workspace) -> Tensor,
    ) {
        let mut k = start;
        while k + 2 <= start + len {
            let (p0, p1) = (probs(k, ws), probs(k + 1, ws));
            self.push2(p0.as_slice(), p1.as_slice());
            ws.recycle(p1);
            ws.recycle(p0);
            k += 2;
        }
        if k < start + len {
            let p = probs(k, ws);
            self.push(p.as_slice());
            ws.recycle(p);
        }
    }

    /// Empties the accumulator for `len` elements, reusing its slabs
    /// when they already have that length.
    fn reset(&mut self, len: usize) {
        if self.mean.len() == len {
            self.count = 0;
            self.mean.as_mut_slice().fill(0.0);
            self.m2.as_mut_slice().fill(0.0);
        } else {
            *self = Welford::new(len);
        }
    }

    /// Merges `other` in with Chan's parallel-combine formula
    /// (lane-parallel; the scalar weights are computed once, which is
    /// bit-identical to recomputing them per element).
    fn merge_from(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let na = self.count as f32;
        let nb = other.count as f32;
        let n = na + nb;
        el_kernels::active().welford_merge(
            self.mean.as_mut_slice(),
            self.m2.as_mut_slice(),
            other.mean.as_slice(),
            other.m2.as_slice(),
            nb / n,
            na * nb / n,
        );
        self.count += other.count;
    }

    /// Makes `xs` the accumulator's only sample. Bit-identical to
    /// `reset` then `push(xs)` on softmax scores: `0 + (x − 0)·1 = x`
    /// and `0 + x·(x − x) = 0` for every score in `[0, 1]` (never −0).
    /// A NaN score leaves `M2` at 0 here and NaN there; the mean is NaN
    /// either way, so every later merge turns `M2` NaN, and `σ` clamps a
    /// NaN `M2` to 0 ([`std_of`]).
    fn set_one(&mut self, xs: &[f32]) {
        if self.mean.len() == xs.len() {
            self.m2.as_mut_slice().fill(0.0);
        } else {
            *self = Welford::new(xs.len());
        }
        self.mean.as_mut_slice().copy_from_slice(xs);
        self.count = 1;
    }

    /// Merges a one-sample chunk in: bit-identical to `merge_from` a
    /// partial built by [`Welford::set_one`], whose `M2` is the zero
    /// slab `zeros`, without building it.
    fn merge_one(&mut self, xs: &[f32], zeros: &[f32]) {
        debug_assert!(self.count > 0);
        let na = self.count as f32;
        let n = na + 1.0;
        el_kernels::active().welford_merge(
            self.mean.as_mut_slice(),
            self.m2.as_mut_slice(),
            xs,
            zeros,
            1.0 / n,
            na / n,
        );
        self.count += 1;
    }
}

/// Per-worker scratch of the statistics engine, reused from band to
/// band: a workspace arena, the two Welford partials of a band task
/// (the running chunk-order total and the chunk in progress) and a
/// zero slab, the `M2` of every one-sample chunk.
#[derive(Default)]
struct BandScratch {
    ws: Workspace,
    total: Welford,
    part: Welford,
    zeros: AlignedF32,
}

/// A lock-protected stack of scratch shared by every task of one engine
/// invocation or more: a worker pops a scratch (or starts a fresh one),
/// runs its task, and pushes the scratch back. The number of scratches
/// ever warmed therefore equals the peak worker concurrency — not the
/// task count, and not the crop count as in `N` sequential engine calls.
pub(crate) struct ScratchPool(std::sync::Mutex<Vec<BandScratch>>);

impl ScratchPool {
    pub(crate) fn new() -> Self {
        ScratchPool(std::sync::Mutex::new(Vec::new()))
    }

    fn with<R>(&self, f: impl FnOnce(&mut BandScratch) -> R) -> R {
        let mut scratch = self
            .0
            .lock()
            .expect("scratch pool lock")
            .pop()
            .unwrap_or_default();
        let out = f(&mut scratch);
        self.0.lock().expect("scratch pool lock").push(scratch);
        out
    }
}

/// `σ` from a Welford `M2` over `samples` samples.
fn std_of(m2: f32, samples: f32) -> f32 {
    (m2 / samples).max(0.0).sqrt()
}

fn stats_from(total: Welford, samples: usize, shape: (usize, usize, usize)) -> BayesStats {
    debug_assert_eq!(total.count, samples);
    let denom = samples as f32;
    let (c, h, w) = shape;
    let std: Vec<f32> = total
        .m2
        .as_slice()
        .iter()
        .map(|&m2| std_of(m2, denom))
        .collect();
    BayesStats {
        mean: Tensor::from_vec(c, h, w, total.mean.into_vec())
            .expect("mean shaped like the logits"),
        std: Tensor::from_vec(c, h, w, std).expect("std shaped like the logits"),
        samples,
    }
}

/// One crop of a statistics-engine invocation ([`mc_stats`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct McJob<'a> {
    /// The crop's input tensor.
    pub input: &'a Tensor,
    /// The output window whose statistics are wanted: the whole crop,
    /// or a tile's kept interior.
    pub window: Window,
    /// The crop's seed.
    pub seed: u64,
    /// Frame coordinates of the window's top-left pixel, where its
    /// dropout masks are keyed.
    pub origin: (usize, usize),
}

impl<'a> McJob<'a> {
    /// A whole crop whose top-left pixel sits at `origin` in its frame.
    pub(crate) fn whole(input: &'a Tensor, seed: u64, origin: (usize, usize)) -> Self {
        McJob {
            input,
            window: Window::full(input),
            seed,
            origin,
        }
    }
}

/// The Monte-Carlo statistics engine: every job's [`BayesStats`] over
/// its window, computed band-major (module docs, item 6) with the
/// suffix GEMMs routed through `kernels`. An exact resolution is the
/// certified path; an approximate one is the audit sweep's
/// reduced-precision suffix, and changes nothing else.
pub(crate) fn mc_stats(
    net: &MsdNet,
    jobs: &[McJob],
    samples: usize,
    parallel: bool,
    pool: &ScratchPool,
    kernels: &ResolvedKernels,
) -> Vec<BayesStats> {
    run_bands(net, jobs, samples, parallel, pool, kernels, BAND_COLUMNS)
}

/// [`mc_stats`] for one whole crop under the exact contract.
fn crop_stats(
    net: &MsdNet,
    input: &Tensor,
    samples: usize,
    seed: u64,
    origin: (usize, usize),
    parallel: bool,
) -> BayesStats {
    let (job, pool) = (McJob::whole(input, seed, origin), ScratchPool::new());
    mc_stats(
        net,
        &[job],
        samples,
        parallel,
        &pool,
        &ResolvedKernels::active_exact(),
    )
    .pop()
    .expect("one job in, one result out")
}

/// A band's rows of every class plane of its job's mean and `σ`.
type BandRows<'a> = (Vec<&'a mut [f32]>, Vec<&'a mut [f32]>);

/// One task of the band runner: a band of one job's window and a run of
/// its sample chunks — all of them, or one run when the band is split
/// across workers.
struct BandTask<'a> {
    job: McJob<'a>,
    band: Window,
    /// Index of the run's first chunk in the chunk layout.
    first: usize,
    chunks: &'a [(usize, usize)],
    /// The band's output rows, when the task folds every chunk.
    rows: Option<BandRows<'a>>,
}

/// Splits `planes` (`classes` planes of one window's pixels) into the
/// row blocks of `bands`: entry `b` holds band `b`'s rows of each plane.
fn split_bands<'a>(
    mut planes: &'a mut [f32],
    classes: usize,
    bands: &[Window],
) -> Vec<Vec<&'a mut [f32]>> {
    let mut out: Vec<Vec<&mut [f32]>> = bands.iter().map(|_| Vec::with_capacity(classes)).collect();
    for _ in 0..classes {
        for (rows, band) in out.iter_mut().zip(bands) {
            let (block, rest) = std::mem::take(&mut planes).split_at_mut(band.area());
            rows.push(block);
            planes = rest;
        }
    }
    out
}

/// The band runner behind [`mc_stats`], with the band budget as a
/// parameter (production passes [`BAND_COLUMNS`]; the property tests
/// pass small budgets to cut small windows into many bands).
///
/// Every task drains one work queue, in parallel when `parallel`.
/// Bands are disjoint and each writes its own rows, so the result is
/// independent of the thread count; and because the chunk partition and
/// merge order depend only on `samples`, it is bit-identical to
/// evaluating each window whole, at any budget. When there are fewer
/// bands than workers, each band's chunks are split into contiguous
/// runs, one task each, so a window that fits one band still spreads
/// its samples over the workers: every task recomputes the band's
/// prefix, and the runs' partials merge in chunk order afterwards.
#[allow(clippy::too_many_arguments)]
fn run_bands(
    net: &MsdNet,
    jobs: &[McJob],
    samples: usize,
    parallel: bool,
    pool: &ScratchPool,
    kernels: &ResolvedKernels,
    band_cols: usize,
) -> Vec<BayesStats> {
    assert!(samples > 0, "at least one Monte-Carlo sample is required");
    el_metrics::registry()
        .samples_run
        .add((samples * jobs.len()) as u64);
    let classes = net.classes();
    let chunks = chunk_layout(samples);
    let bands: Vec<Vec<Window>> = jobs.iter().map(|j| j.window.row_bands(band_cols)).collect();
    let n_bands: usize = bands.iter().map(Vec::len).sum();
    let workers = if parallel {
        rayon::current_num_threads()
    } else {
        1
    };
    let runs = if n_bands < workers {
        workers.div_ceil(n_bands.max(1)).min(chunks.len())
    } else {
        1
    };
    let run_len = chunks.len().div_ceil(runs);
    let task_runs = chunks.chunks(run_len).len();
    let mut planes: Vec<(Vec<f32>, Vec<f32>)> = jobs
        .iter()
        .map(|job| {
            let len = classes * job.window.area();
            (vec![0.0; len], vec![0.0; len])
        })
        .collect();
    let (mut tasks, mut split) = (Vec::new(), Vec::new());
    for ((&job, bands), (mean, std)) in jobs.iter().zip(bands).zip(&mut planes) {
        let means = split_bands(mean, classes, &bands);
        let stds = split_bands(std, classes, &bands);
        for ((band, mean), std) in bands.into_iter().zip(means).zip(stds) {
            for (r, run) in chunks.chunks(run_len).enumerate() {
                tasks.push(BandTask {
                    job,
                    band,
                    first: r * run_len,
                    chunks: run,
                    rows: None,
                });
            }
            if task_runs == 1 {
                tasks.last_mut().expect("one run").rows = Some((mean, std));
            } else {
                split.push((mean, std));
            }
        }
    }
    let run = |task: BandTask| pool.with(|s| run_band(net, task, samples, kernels, s));
    let partials: Vec<Vec<Welford>> = if parallel {
        tasks.into_par_iter().map(run).collect()
    } else {
        tasks.into_iter().map(run).collect()
    };
    // Split bands: merge the runs' partials in chunk order.
    for (rows, parts) in split.into_iter().zip(partials.chunks(task_runs)) {
        let mut parts = parts.iter().flatten();
        let mut total = parts.next().expect("the first run's total").clone();
        parts.for_each(|p| total.merge_from(p));
        write_rows(&total, rows, samples);
    }
    jobs.iter()
        .zip(planes)
        .map(|(job, (mean, std))| {
            let (h, w) = (job.window.h, job.window.w);
            BayesStats {
                mean: Tensor::from_vec(classes, h, w, mean).expect("mean sized to the window"),
                std: Tensor::from_vec(classes, h, w, std).expect("std sized to the window"),
                samples,
            }
        })
        .collect()
}

/// Writes a band's mean and `σ` rows from its merged statistics.
fn write_rows(total: &Welford, (mean, std): BandRows, samples: usize) {
    debug_assert_eq!(total.count, samples);
    let n = mean.first().map_or(0, |row| row.len());
    let denom = samples as f32;
    for (c, (mean, std)) in mean.into_iter().zip(std).enumerate() {
        mean.copy_from_slice(&total.mean.as_slice()[c * n..(c + 1) * n]);
        for (s, &m2) in std.iter_mut().zip(&total.m2.as_slice()[c * n..(c + 1) * n]) {
            *s = std_of(m2, denom);
        }
    }
}

/// Runs one band task while the band is cache-resident: the band's
/// windowed prefix, then every sample of its chunk run — suffix,
/// softmax and Welford fold. The run that starts at chunk 0 folds its
/// chunks into one running total in chunk order (a one-sample chunk is
/// set or merged in directly, without a partial of its own); any other
/// run returns one partial per chunk. A task that owns the band's rows
/// writes them; otherwise it returns its partials.
fn run_band(
    net: &MsdNet,
    task: BandTask,
    samples: usize,
    kernels: &ResolvedKernels,
    scratch: &mut BandScratch,
) -> Vec<Welford> {
    let BandTask {
        job,
        band,
        first,
        chunks,
        rows,
    } = task;
    let BandScratch {
        ws,
        total,
        part,
        zeros,
    } = scratch;
    let n = net.classes() * band.area();
    if zeros.len() < n {
        *zeros = AlignedF32::zeroed(n);
    }
    // Masks are keyed at the band's own frame position.
    let origin = (job.origin.0 + band.y0 - job.window.y0, job.origin.1);
    let fused = net.mc_prefix_window(job.input, band, ws);
    let probs = |k: usize, ws: &mut Workspace| {
        let mut p = net.mc_sample_at_with(&fused, sample_seed(job.seed, k), origin, ws, kernels);
        softmax_in_place(&mut p);
        p
    };
    let sw = el_metrics::Stopwatch::start();
    let mut out = Vec::new();
    for (i, &chunk) in chunks.iter().enumerate() {
        if first > 0 {
            let mut acc = Welford::new(n);
            acc.fold_chunk(chunk, ws, probs);
            out.push(acc);
        } else if chunk.1 == 1 {
            let p = probs(chunk.0, ws);
            if i == 0 {
                total.set_one(p.as_slice());
            } else {
                total.merge_one(p.as_slice(), &zeros.as_slice()[..n]);
            }
            ws.recycle(p);
        } else {
            let acc = if i == 0 { &mut *total } else { &mut *part };
            acc.reset(n);
            acc.fold_chunk(chunk, ws, probs);
            // Merging each chunk as it completes is the same left fold,
            // in chunk order, as merging all partials at the end.
            if i > 0 {
                total.merge_from(part);
            }
        }
    }
    el_metrics::registry().sample_fold.record(sw);
    ws.recycle(fused);
    match rows {
        Some(rows) => write_rows(total, rows, samples),
        None if first == 0 => out.push(std::mem::take(total)),
        None => {}
    }
    out
}

/// Runs Monte-Carlo-dropout inference on an input tensor.
///
/// The network's stochastic suffix runs `samples` times — dropout live,
/// different neurons dropped each pass, exactly the paper's Bayesian
/// MSDnet — with the input's row bands spread over rayon workers, and the
/// per-pixel softmax scores aggregated into mean and standard deviation
/// by streaming Welford accumulation (see the module docs for why this is
/// deterministic and O(1) memory in the sample count).
///
/// Deterministic given `(net, input, samples, seed)` — independent of
/// thread count, and bit-identical to
/// [`bayesian_segment_tensor_sequential`].
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn bayesian_segment_tensor(
    net: &MsdNet,
    input: &Tensor,
    samples: usize,
    seed: u64,
) -> BayesStats {
    crop_stats(net, input, samples, seed, (0, 0), true)
}

/// [`bayesian_segment_tensor`] for a crop located at `origin = (row, col)`
/// of a larger frame: the coordinate-keyed dropout masks are drawn at the
/// crop's **global** coordinates, so a tile computed here is bit-identical
/// to the same pixels of a whole-frame pass (the invariant behind
/// [`bayesian_segment_tiled`](crate::tiledbayes::bayesian_segment_tiled)).
///
/// `bayesian_segment_tensor` is exactly this function at origin `(0, 0)`.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn bayesian_segment_tensor_at(
    net: &MsdNet,
    input: &Tensor,
    samples: usize,
    seed: u64,
    origin: (usize, usize),
) -> BayesStats {
    crop_stats(net, input, samples, seed, origin, true)
}

/// Single-threaded variant of [`bayesian_segment_tensor`]: the identical
/// chunk layout and merge order on one thread, hence bit-identical
/// results (asserted by tests).
pub fn bayesian_segment_tensor_sequential(
    net: &MsdNet,
    input: &Tensor,
    samples: usize,
    seed: u64,
) -> BayesStats {
    crop_stats(net, input, samples, seed, (0, 0), false)
}

/// Batched Monte-Carlo-dropout inference: verifies every crop of a batch
/// in one engine invocation.
///
/// Crop `i` uses its own seed `seeds[i]` and frame origin `origins[i]`
/// (pass `(0, 0)` for standalone crops). The row bands of **all** crops
/// flow through one rayon work queue of the band-major engine, so
/// workers never idle at a per-crop join barrier while another crop
/// still has work, each task stays cache-resident on one band, and
/// scratch is pooled across the whole invocation rather than re-warmed
/// per crop.
///
/// Element `i` of the result is **bit-identical** to
/// `bayesian_segment_tensor_at(net, inputs[i], samples, seeds[i],
/// origins[i])` (property-tested): the coordinate-keyed masks depend
/// only on `(seed, global coordinates)`, and the Welford chunk
/// partition and merge order are the same fixed functions of `samples`.
///
/// # Panics
///
/// Panics if `samples == 0` or the slices disagree in length.
pub fn bayesian_segment_batch(
    net: &MsdNet,
    inputs: &[&Tensor],
    samples: usize,
    seeds: &[u64],
    origins: &[(usize, usize)],
) -> Vec<BayesStats> {
    assert!(samples > 0, "at least one Monte-Carlo sample is required");
    assert!(
        inputs.len() == seeds.len() && inputs.len() == origins.len(),
        "batch inputs must be parallel"
    );
    let jobs: Vec<McJob> = inputs
        .iter()
        .zip(seeds)
        .zip(origins)
        .map(|((&input, &seed), &origin)| McJob::whole(input, seed, origin))
        .collect();
    mc_stats(
        net,
        &jobs,
        samples,
        true,
        &ScratchPool::new(),
        &ResolvedKernels::active_exact(),
    )
}

/// The pre-optimization baseline: naive scalar convolution
/// ([`MsdNet::forward_reference`]), one sequential RNG stream, full
/// forward pass per sample.
///
/// Retained to anchor the engine's speedup in `perf_monitor_scaling` and
/// as a semantic reference — it produces the same *distribution* of
/// statistics, though not the same bits (its single RNG stream makes
/// sample `k` depend on all earlier samples, which is exactly what the
/// seed-splitting scheme removed).
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn bayesian_segment_tensor_reference(
    net: &mut MsdNet,
    input: &Tensor,
    samples: usize,
    seed: u64,
) -> BayesStats {
    assert!(samples > 0, "at least one Monte-Carlo sample is required");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut acc: Option<Welford> = None;
    for _ in 0..samples {
        let logits = net.forward_reference(input, Phase::Stochastic, &mut rng);
        let probs = softmax(&logits);
        acc.get_or_insert_with(|| Welford::new(probs.len()))
            .push(probs.as_slice());
    }
    let shape = (net.classes(), input.height(), input.width());
    stats_from(acc.expect("samples > 0"), samples, shape)
}

/// Runs Monte-Carlo-dropout inference on a rendered image.
///
/// See [`bayesian_segment_tensor`].
pub fn bayesian_segment(net: &MsdNet, image: &Image, samples: usize, seed: u64) -> BayesStats {
    bayesian_segment_tensor(net, &image_to_tensor(image), samples, seed)
}

#[cfg(test)]
mod band_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use el_seg::MsdNetConfig;
    use rand::SeedableRng;

    fn setup() -> (MsdNet, Tensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let input = Tensor::from_fn(3, 10, 10, |c, y, x| ((c + y + x) as f32 * 0.37).sin() * 0.5);
        (net, input)
    }

    #[test]
    fn shapes_and_determinism() {
        let (net, input) = setup();
        let a = bayesian_segment_tensor(&net, &input, 5, 1);
        assert_eq!(a.mean.shape(), (8, 10, 10));
        assert_eq!(a.std.shape(), (8, 10, 10));
        assert_eq!(a.samples, 5);
        let b = bayesian_segment_tensor(&net, &input, 5, 1);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std, b.std);
        let c = bayesian_segment_tensor(&net, &input, 5, 2);
        assert_ne!(a.mean, c.mean, "different seeds draw different masks");
    }

    #[test]
    fn parallel_and_sequential_are_bit_identical() {
        let (net, input) = setup();
        for samples in [1, 3, 8, 13] {
            let par = bayesian_segment_tensor(&net, &input, samples, 21);
            let seq = bayesian_segment_tensor_sequential(&net, &input, samples, 21);
            assert_eq!(
                par.mean.as_slice(),
                seq.mean.as_slice(),
                "{samples}-sample means diverge"
            );
            assert_eq!(
                par.std.as_slice(),
                seq.std.as_slice(),
                "{samples}-sample stds diverge"
            );
        }
    }

    #[test]
    fn engine_matches_reference_distribution() {
        // The engine and the naive baseline draw different (but equally
        // valid) mask streams; their statistics must agree in expectation.
        // With dropout 0 both are deterministic and must agree exactly.
        let (mut net, input) = setup();
        net.set_dropout(0.0);
        let a = bayesian_segment_tensor(&net, &input, 4, 7);
        let b = bayesian_segment_tensor_reference(&mut net, &input, 4, 7);
        assert_eq!(a.mean, b.mean, "dropout-0 means must agree exactly");
        assert!(a.std.max_abs() < 1e-6 && b.std.max_abs() < 1e-6);
    }

    #[test]
    fn chunk_layout_is_exhaustive_and_ordered() {
        for samples in 1..40 {
            let chunks = chunk_layout(samples);
            assert!(chunks.len() <= MC_CHUNKS);
            let mut expect = 0;
            for (start, len) in &chunks {
                assert_eq!(*start, expect, "chunks must be contiguous");
                assert!(*len > 0, "chunks must be non-empty");
                expect += len;
            }
            assert_eq!(expect, samples, "chunks must cover all samples");
        }
    }

    #[test]
    fn mean_is_probability_distribution() {
        let (net, input) = setup();
        let stats = bayesian_segment_tensor(&net, &input, 6, 3);
        let hw = 100;
        for i in 0..hw {
            let s: f32 = (0..8).map(|k| stats.mean.as_slice()[k * hw + i]).sum();
            assert!((s - 1.0).abs() < 1e-4, "pixel {i} mean sums to {s}");
        }
        assert!(stats.std.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn single_sample_has_zero_std() {
        let (net, input) = setup();
        let stats = bayesian_segment_tensor(&net, &input, 1, 4);
        assert!(stats.std.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dropout_zero_has_zero_std() {
        let (mut net, input) = setup();
        net.set_dropout(0.0);
        let stats = bayesian_segment_tensor(&net, &input, 8, 5);
        assert!(stats.std.max_abs() < 1e-6, "no dropout, no variance");
    }

    #[test]
    fn welford_matches_two_pass() {
        let (net, input) = setup();
        let samples = 7;
        let stats = bayesian_segment_tensor(&net, &input, samples, 9);
        // Reference: recompute by storing all passes, drawing each
        // sample's keyed masks from its split seed.
        let mut ws = Workspace::new();
        let fused = net.mc_prefix(&input, &mut ws);
        let mut all: Vec<Tensor> = Vec::new();
        for k in 0..samples {
            let logits = net.mc_sample_at(&fused, sample_seed(9, k), (0, 0), &mut ws);
            all.push(softmax(&logits));
        }
        let n = all[0].len();
        for i in (0..n).step_by(37) {
            let vals: Vec<f32> = all.iter().map(|t| t.as_slice()[i]).collect();
            let mean = vals.iter().sum::<f32>() / samples as f32;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / samples as f32;
            assert!((stats.mean.as_slice()[i] - mean).abs() < 1e-5);
            assert!((stats.std.as_slice()[i] - var.sqrt()).abs() < 1e-4);
        }
    }

    #[test]
    fn upper_bound_exceeds_mean() {
        let (net, input) = setup();
        let stats = bayesian_segment_tensor(&net, &input, 5, 6);
        let ub = stats.upper_bound(1, 3.0);
        for (u, &m) in ub.iter().zip(stats.mean.channel(1)) {
            assert!(*u >= m);
        }
        assert!(stats.mean_uncertainty() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one Monte-Carlo sample")]
    fn zero_samples_rejected() {
        let (net, input) = setup();
        let _ = bayesian_segment_tensor(&net, &input, 0, 0);
    }

    #[test]
    fn batch_matches_single_crop_bitwise() {
        assert_batch_matches_single(&[(10, 10), (7, 9), (12, 5)]);
        let (net, _) = setup();
        assert!(bayesian_segment_batch(&net, &[], 4, &[], &[]).is_empty());
    }

    #[test]
    fn batch_per_crop_branch_matches_single_crop_bitwise() {
        // Candidate-zone-sized crops, several row bands each.
        assert_batch_matches_single(&[(45, 45), (40, 40), (33, 41)]);
    }

    /// Drives one batch against per-crop verification.
    fn assert_batch_matches_single(sizes: &[(usize, usize)]) {
        let (net, _) = setup();
        let inputs: Vec<Tensor> = sizes
            .iter()
            .enumerate()
            .map(|(i, &(h, w))| {
                Tensor::from_fn(3, h, w, move |c, y, x| {
                    ((i * 37 + c * 11 + y * 3 + x) as f32 * 0.21).sin()
                })
            })
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let seeds: Vec<u64> = (0..sizes.len() as u64).map(|i| 5 + 29 * i).collect();
        let origins: Vec<(usize, usize)> = (0..sizes.len()).map(|i| (3 * i, 40 + 7 * i)).collect();
        for samples in [1usize, 4, 10] {
            let batch = bayesian_segment_batch(&net, &refs, samples, &seeds, &origins);
            assert_eq!(batch.len(), inputs.len());
            for (((input, &seed), &origin), stats) in
                inputs.iter().zip(&seeds).zip(&origins).zip(&batch)
            {
                let single = bayesian_segment_tensor_at(&net, input, samples, seed, origin);
                assert_eq!(
                    single.mean.as_slice(),
                    stats.mean.as_slice(),
                    "{samples}-sample batch mean diverges at origin {origin:?}"
                );
                assert_eq!(
                    single.std.as_slice(),
                    stats.std.as_slice(),
                    "{samples}-sample batch std diverges at origin {origin:?}"
                );
                assert_eq!(stats.samples, samples);
            }
        }
    }

    #[test]
    fn origin_shifts_masks() {
        // Different frame origins draw different masks — the engine keys
        // them by global coordinates.
        let (net, input) = setup();
        let a = bayesian_segment_tensor_at(&net, &input, 6, 3, (0, 0));
        let b = bayesian_segment_tensor_at(&net, &input, 6, 3, (5, 9));
        assert_ne!(a.mean, b.mean);
        // And origin (0, 0) is the plain entry point.
        let c = bayesian_segment_tensor(&net, &input, 6, 3);
        assert_eq!(a.mean, c.mean);
        assert_eq!(a.std, c.std);
    }
}
