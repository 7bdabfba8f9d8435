//! Inputs, statistics and fingerprints shared by every workload.

use std::time::Instant;

use el_core::{AuditReport, FinalDecision, Trial};
use el_metrics::Fingerprint;
use el_seg::MsdNet;
use el_uavsim::seedchain::mix64;

/// Number of committed input sets; `--seed n` selects set `n % INPUT_SETS`
/// so that every run's outputs are checked against a stored reference.
pub const INPUT_SETS: u64 = 64;

/// The weights of `MsdNetConfig::default_uavid` trained by
/// `TrainConfig::benchmark` on `DatasetConfig::benchmark(1)`
/// (regenerate with `--write-model`).
pub const MODEL_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/model.json");

/// Stored per-input-set output fingerprints (regenerate with
/// `--write-reference`).
pub const REFERENCE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");

/// Deterministic seed for `(set, index, domain)`.
pub fn derive(set: u64, index: u64, domain: u64) -> u64 {
    mix64(mix64(set ^ domain).wrapping_add(index))
}

/// Reads and parses the committed weights.
pub fn load_model() -> MsdNet {
    let json = std::fs::read_to_string(MODEL_PATH).expect("model.json is readable");
    MsdNet::from_json(&json).expect("model.json parses")
}

/// Fingerprint of a decision and its trials (the same canonical fields
/// the service's decision log hashes).
pub fn decision_fp(fp: &mut Fingerprint, decision: &FinalDecision, trials: &[Trial]) {
    match decision {
        FinalDecision::Land(c) => {
            fp.tag(0);
            fp.i64(c.center.x);
            fp.i64(c.center.y);
            fp.f64(c.clearance_px);
            fp.usize(c.region_area);
            fp.f64(c.score);
        }
        FinalDecision::Abort(reason) => {
            fp.tag(1);
            fp.tag(*reason as u8);
        }
    }
    fp.usize(trials.len());
    for t in trials {
        fp.tag(t.verdict as u8);
        fp.f64(t.warning_fraction);
    }
}

/// Fingerprint of a whole audit report, down to every statistic's bits.
pub fn audit_fp(fp: &mut Fingerprint, report: &AuditReport) {
    fp.usize(report.tiles_total());
    fp.usize(report.tiles_verified());
    fp.f64(report.warning_fraction);
    for t in &report.tile_stats {
        fp.f64(t.mean_sigma);
        fp.f64(t.warning_fraction);
    }
    fp.usize(report.regions.len());
    for r in &report.regions {
        fp.i64(r.bbox.x);
        fp.i64(r.bbox.y);
        fp.i64(r.bbox.w);
        fp.i64(r.bbox.h);
        fp.usize(r.area);
        fp.f64(r.mean_sigma);
    }
    let stats = &report.tiled.stats;
    for v in stats.mean.as_slice().iter().chain(stats.std.as_slice()) {
        fp.u64(u64::from(v.to_bits()));
    }
}

/// Sorted copy of a sample.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of a timing sample: the highest whole percentile `p` whose
/// nearest-rank value leaves at least ten samples beyond it. Returns
/// `(p, value)`; a sample too small for `p >= 50` reports its median.
pub fn tail(samples: &[f64]) -> (u32, f64) {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "tail of an empty sample");
    let p = (100 * n.saturating_sub(10)) / n;
    if p < 50 {
        return (50, median(samples));
    }
    let rank = (p * n).div_ceil(100);
    (p as u32, s[rank - 1])
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `setup` `times` times and returns the last result with the
/// median set-up time in seconds.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(setup()));
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (frames offered, missions replayed).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Correctness-gate and health-guard violations; any entry fails the
    /// run.
    pub errors: Vec<String>,
    /// Context printed before the result line (host, tail percentiles).
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Adds `<name>_tail` for a millisecond sample and notes which
    /// percentile the tail is. The median is noted, not a metric: on a
    /// shared host whose speed switches between a fast and a slow regime
    /// for tens of seconds at a time, it jumps between the two as their
    /// shares of a run cross one half, while the tail stays in the slow
    /// one (see README.md).
    pub fn latency(&mut self, name: &str, samples_ms: &[f64]) {
        let (p, v) = tail(samples_ms);
        self.metric(&format!("{name}_tail"), v, "ms");
        self.note(&format!("{name}_p50"), format!("{} ms", median(samples_ms)));
        self.note(
            &format!("{name}_tail"),
            format!("p{p} of {} samples", samples_ms.len()),
        );
    }
}
