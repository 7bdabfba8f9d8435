//! The band runner against the whole-window engine it replaced.
//!
//! [`whole_window`] is that engine, kept here as the reference: the
//! prefix over the whole window, then every chunk's samples over all of
//! its columns at once, the partials merged in chunk order. The band
//! runner must reproduce it bit for bit at every band budget, thread
//! count and kernel contract.

use std::sync::Mutex;

use el_kernels::{ApproxRung, KernelPolicy};
use el_nn::layers::BAND_ALIGN_COLUMNS;
use el_seg::MsdNetConfig;

use super::*;

/// The whole-window reference engine (see the module docs).
fn whole_window(net: &MsdNet, job: McJob, samples: usize, kernels: &ResolvedKernels) -> BayesStats {
    let mut ws = Workspace::new();
    let fused = net.mc_prefix_window(job.input, job.window, &mut ws);
    let probs = |k: usize, ws: &mut Workspace| {
        let seed = sample_seed(job.seed, k);
        let mut p = net.mc_sample_at_with(&fused, seed, job.origin, ws, kernels);
        softmax_in_place(&mut p);
        p
    };
    let mut partials = chunk_layout(samples).into_iter().map(|(start, len)| {
        let mut acc = Welford::new(net.classes() * job.window.area());
        let mut k = start;
        while k + 2 <= start + len {
            acc.push2(
                probs(k, &mut ws).as_slice(),
                probs(k + 1, &mut ws).as_slice(),
            );
            k += 2;
        }
        if k < start + len {
            acc.push(probs(k, &mut ws).as_slice());
        }
        acc
    });
    let mut total = partials.next().expect("at least one chunk");
    partials.for_each(|partial| total.merge_from(&partial));
    let (h, w) = (job.window.h, job.window.w);
    stats_from(total, samples, (net.classes(), h, w))
}

/// Serialises the tests that set `RAYON_NUM_THREADS` (process-wide).
static THREAD_ENV: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _guard = THREAD_ENV.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let out = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Exact, f16 and int8 resolutions on the active tier. A rung the tier
/// lacks (a forced sse2 or neon run) is skipped, unless
/// `EL_REQUIRE_APPROX` is set: the forced-approximate CI leg sets it so
/// that the int8 alignment check cannot pass without running.
fn contracts() -> Vec<ResolvedKernels> {
    let mut out = vec![KernelPolicy::exact().resolve().expect("exact resolves")];
    for rung in [ApproxRung::F16, ApproxRung::Int8] {
        match KernelPolicy::approximate(rung).resolve() {
            Ok(k) => out.push(k),
            Err(e) if std::env::var_os("EL_REQUIRE_APPROX").is_some() => {
                panic!("EL_REQUIRE_APPROX is set but rung {rung:?} is unavailable: {e}")
            }
            Err(e) => eprintln!("skipping {rung:?}: {e}"),
        }
    }
    out
}

#[test]
fn band_runner_matches_the_whole_window_engine_bitwise() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
    let pool = ScratchPool::new();
    for (i, w) in [1usize, 7, 16, 45, 120, 129].into_iter().enumerate() {
        // Rows of one aligned row group at this width.
        let group = (1..=BAND_ALIGN_COLUMNS)
            .find(|rows| (rows * w).is_multiple_of(BAND_ALIGN_COLUMNS))
            .unwrap();
        // One row, and three bands at a one-group budget.
        for h in [1usize, 2 * group + 3] {
            // The window sits inside a larger crop, away from its edges,
            // and the crop inside a frame.
            let input = Tensor::from_fn(3, h + 5, w + 6, |c, y, x| {
                ((c * 13 + y * 7 + x * 3 + i) as f32 * 0.17).sin()
            });
            let job = McJob {
                input: &input,
                window: Window { y0: 2, x0: 3, h, w },
                seed: 71 + i as u64,
                origin: (9 + 5 * i, 33 * i),
            };
            for samples in [1usize, 4, 5, 13] {
                for kernels in contracts() {
                    let reference = whole_window(&net, job, samples, &kernels);
                    // Many bands on one thread; three bands on two
                    // workers; and one or two bands on more workers,
                    // whose chunks are split into runs.
                    let cases = [
                        (1, 1),
                        (2, group * w),
                        (2, 3 * group * w),
                        (8, BAND_COLUMNS),
                    ];
                    for (threads, band_cols) in cases {
                        let got = with_threads(threads, || {
                            run_bands(
                                &net,
                                &[job],
                                samples,
                                threads > 1,
                                &pool,
                                &kernels,
                                band_cols,
                            )
                        })
                        .pop()
                        .unwrap();
                        let what = format!(
                            "{w}x{h}, {samples} samples, {:?}, {threads} threads, \
                             {band_cols}-column bands",
                            kernels.contract()
                        );
                        assert_eq!(bits(&got.mean), bits(&reference.mean), "mean: {what}");
                        assert_eq!(bits(&got.std), bits(&reference.std), "std: {what}");
                        assert_eq!(got.samples, samples);
                    }
                }
            }
        }
    }
}
