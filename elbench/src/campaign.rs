//! `campaign`: the four committed fault-injection scenarios replayed
//! through `Scenario::run` — the only workload that runs the mission
//! simulator and power reporting, and the one no perception change moves.
//!
//! The scenarios run at their committed base seeds, so every pass is
//! checked against `scenarios/goldens.json`; the input set only rotates
//! the order they replay in. Re-seeding them instead changes the missions'
//! lengths, and with them the time of a pass by up to a fifth, which no
//! regression bound could tell apart from a slowdown.

use std::path::PathBuf;
use std::time::Instant;

use el_uavsim::Scenario;

use crate::common::{self, Report};

/// The committed scenarios, in replay order.
const SCENARIOS: [&str; 4] = ["nominal", "degraded_el", "storm_wind", "fault_storm"];

fn scenario_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../scenarios"))
}

/// Loads the committed scenarios, rotated by the input set.
fn load(set: u64) -> Vec<Scenario> {
    let mut scenarios: Vec<Scenario> = SCENARIOS
        .iter()
        .map(|name| {
            let path = scenario_dir().join(format!("{name}.json"));
            Scenario::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        })
        .collect();
    scenarios.rotate_left((set % SCENARIOS.len() as u64) as usize);
    scenarios
}

/// `(scenario name, fingerprint)` of one pass, in replay order.
type PassFingerprints = Vec<(String, String)>;

/// Replays every scenario once; returns `(name, fingerprint)` pairs and
/// the missions run.
fn replay(scenarios: &[Scenario]) -> (PassFingerprints, usize) {
    let mut missions = 0;
    let fps = scenarios
        .iter()
        .map(|s| {
            let outcome = s.run().expect("committed scenarios validate");
            missions += outcome.logs.len();
            (s.name.clone(), outcome.fingerprint_hex())
        })
        .collect();
    (fps, missions)
}

/// The committed golden fingerprint of every scenario.
fn goldens() -> Result<serde::Value, String> {
    let path = scenario_dir().join("goldens.json");
    std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::parse_value(&t).map_err(|e| e.to_string()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Checks one pass's fingerprints against the goldens.
fn check_pass(report: &mut Report, goldens: &serde::Value, fps: &PassFingerprints) {
    for (name, got) in fps {
        let want = match goldens.get(name) {
            Some(serde::Value::Str(s)) => s.as_str(),
            _ => "<missing>",
        };
        report.check(got == want, || {
            format!("scenario {name}: fingerprint {got}, golden {want}")
        });
    }
}

pub fn run(set: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let goldens = match goldens() {
        Ok(g) => g,
        Err(e) => {
            report.errors.push(e);
            return report;
        }
    };
    // Set-up loads the scenarios and replays them once, untimed, so that
    // first-touch costs stay out of the timed passes; that replay is the
    // first one checked.
    let ((scenarios, warm), setup_s) = common::timed_setup(3, || {
        let scenarios = load(set);
        let (fps, _) = replay(&scenarios);
        (scenarios, fps)
    });
    check_pass(&mut report, &goldens, &warm);

    // A traced run alternates untraced and traced passes, so that drift
    // in the host's speed reaches both sides of the overhead comparison.
    let registry = el_metrics::registry();
    registry.reset();
    let (mut pass_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut missions, mut traced_missions) = (0, 0);
    let min_passes = if trace { 2 } else { 1 };
    let t0 = Instant::now();
    let mut n = 0;
    while n < min_passes || t0.elapsed().as_secs_f64() < seconds {
        let traced = trace && n % 2 == 1;
        el_metrics::set_enabled(traced);
        let start = Instant::now();
        let (fps, m) = replay(&scenarios);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        el_metrics::set_enabled(false);
        check_pass(&mut report, &goldens, &fps);
        if traced {
            traced_ms.push(ms);
            traced_missions += m;
        } else {
            pass_ms.push(ms);
            missions += m;
        }
        n += 1;
    }
    report.attempted = missions as u64;

    if !trace {
        let wall_s = pass_ms.iter().sum::<f64>() / 1e3;
        report.latency("decision_ms", &pass_ms);
        report.metric("throughput_per_s", missions as f64 / wall_s, "1/s");
        report.metric("served_share", 1.0, "share");
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
        return report;
    }
    let wall = registry.snapshot().campaign.mission_wall;
    report.metric(
        "uavsim.mission_us",
        wall.sum_ns as f64 / wall.count.max(1) as f64 / 1e3,
        "us",
    );
    report.metric(
        "uavsim.missions",
        (traced_missions / traced_ms.len()) as f64,
        "count",
    );
    report.metric(
        "trace.overhead_share",
        common::median(&traced_ms) / common::median(&pass_ms) - 1.0,
        "share",
    );
    report.metric("trace.samples", traced_ms.len() as f64, "count");
    report
}
