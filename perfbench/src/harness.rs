//! What every workload shares: the run's outcome (metrics, checks,
//! request accounting), the server under test, the rate ladder, and the
//! scratch directory inside the checkout.

pub use crate::loadgen::Req;
use crate::loadgen::{kept_schedule, open_loop, Phase, GEN_LATE_LIMIT_US};
use crate::stats::{micros, percentile, timed};
use grafics_core::GraficsFleet;
use grafics_serve::{FleetState, HttpServer, PredictionBody, RunningServer, ServeConfig};
use grafics_types::SignalRecord;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Sender threads and connections of the load generator: the box has two
/// cores, and the server two workers.
pub const CONNS: usize = 2;

/// Request kinds, as indices into a [`Phase`]'s per-kind results.
pub const INFER: usize = 0;
pub const ABSORB: usize = 1;
pub const PUBLISH: usize = 2;
pub const KINDS: usize = 3;

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// End-to-end figures that do not repeat run to run on the reference
    /// host (tail latencies, the rate ladder): always in the report, and
    /// in the result line with the per-layer metrics of a traced run.
    pub unsteady: Vec<Metric>,
    /// `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable report lines, printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push((name.to_owned(), passed, detail));
    }

    /// Counts a phase's requests and reports them.
    pub fn account(&mut self, phase: &Phase) {
        self.attempted += phase.total_sent();
        self.failed += phase.total_sent() - phase.total_ok();
        self.report.push(phase.report_line());
    }

    /// Counts in-process operations (trainings, scored queries, ...).
    pub fn account_ops(&mut self, name: &str, attempted: u64, ok: u64) {
        self.attempted += attempted;
        self.failed += attempted - ok;
        self.report.push(format!(
            "phase {name:<22} in process        sent {attempted:>6}  ok {ok:>6}  failed {:>4}",
            attempted - ok
        ));
    }

    /// Flags the measured phases when the generator's own lag, pooled
    /// over them, shows it could not keep their schedule: their latencies
    /// then describe the generator, not the server. A flag, not a failed
    /// check: the answers are still right.
    pub fn schedule<'a>(&mut self, phases: impl IntoIterator<Item = &'a Phase>) {
        let (kept, lag) = kept_schedule(phases);
        self.report.push(format!(
            "schedule {}: pooled gen_late_p99 {lag:.0} us, limit {GEN_LATE_LIMIT_US} us",
            if kept {
                "kept"
            } else {
                "OFF-SCHEDULE, latencies not valid"
            }
        ));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }
}

/// A scratch directory for this run inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> Self {
        let dir =
            PathBuf::from(".perfbench_out").join(format!("{workload}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create the run's scratch directory");
        WorkDir(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The HTTP server under test plus a handle on its state, through which
/// the benchmark reaches the same fleet in process.
pub struct Server {
    pub running: RunningServer,
    pub state: Arc<FleetState>,
}

impl Server {
    pub fn start(fleet: GraficsFleet, seed: u64) -> Self {
        let server = HttpServer::bind(
            fleet,
            "127.0.0.1:0",
            ServeConfig {
                workers: CONNS,
                seed,
                ..ServeConfig::default()
            },
        )
        .expect("bind a loopback port");
        let state = Arc::clone(server.state());
        let running = server.spawn().expect("start the server");
        Server { running, state }
    }

    pub fn stop(self) {
        self.running.shutdown().expect("server drains cleanly");
    }
}

/// What a [`copy_probe`] measured.
#[derive(Default)]
pub struct CopyProbe {
    /// `GraficsFleet::recover` wall times, in seconds.
    pub recover_s: Vec<f64>,
    /// `GraficsFleet::absorb_durable` wall times, in µs.
    pub absorb_us: Vec<f64>,
    pub accepted: u64,
}

impl CopyProbe {
    pub fn extend(&mut self, other: CopyProbe) {
        self.recover_s.extend(other.recover_s);
        self.absorb_us.extend(other.absorb_us);
        self.accepted += other.accepted;
    }
}

/// The restart and absorb figures of a workload whose traffic has
/// neither: every workload reports every end-to-end metric. Recovers the
/// saved directory `restarts` times (the operator's restart, with no WAL
/// to replay) and absorbs `records` into the last recovered copy, which
/// is then dropped. The fleet that serves, and the directory, never
/// change.
pub fn copy_probe(dir: &Path, restarts: usize, records: &[SignalRecord], seed: u64) -> CopyProbe {
    let mut probe = CopyProbe::default();
    let mut copy = None;
    for _ in 0..restarts.max(1) {
        let ((fleet, _), secs) = timed(|| GraficsFleet::recover(dir).expect("recover the fleet"));
        probe.recover_s.push(secs);
        copy = Some(fleet);
    }
    let copy = copy.expect("at least one restart");
    for (i, record) in records.iter().enumerate() {
        let t = Instant::now();
        probe.accepted += u64::from(copy.absorb_durable(record, seed, i as u64).is_ok());
        probe.absorb_us.push(micros(t));
    }
    probe
}

/// Is `body` a well-formed answer for a request of `kind`?
pub fn well_formed(kind: usize, status: u16, body: &str) -> bool {
    status == 200
        && match kind {
            INFER => serde_json::from_str::<PredictionBody>(body).is_ok(),
            ABSORB => serde_json::from_str::<grafics_serve::AbsorbBody>(body).is_ok(),
            _ => serde_json::from_str::<grafics_serve::PublishBody>(body).is_ok(),
        }
}

/// The fixed rate ladder: rung `k` offers `LADDER_BASE · LADDER_STEP^k`
/// requests per second. Rungs are 5% apart, so a reading moves in steps
/// well under a tenth.
pub const LADDER_BASE: f64 = 100.0;
pub const LADDER_STEP: f64 = 1.05;
pub fn rung_rate(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}

/// The rung whose rate is closest to `rate`.
pub fn rung_of(rate: f64) -> usize {
    ((rate / LADDER_BASE).ln() / LADDER_STEP.ln())
        .round()
        .max(0.0) as usize
}

/// Walks the fixed ladder upward from rung `start`. A rung passes when its
/// p99 (from the intended send time) and its backlog stay under
/// `p99_limit_us` (the backlog does not grow) and every answer is a
/// well-formed 200; a rung gets three tries before it counts as
/// failed, so one burst of host interference does not end the climb.
/// The walk goes four rungs (21.6%) at a time until a rung fails, then
/// one at a time from the last pass. Returns the highest passing rate and
/// every attempt's phase.
pub fn ladder(
    start: usize,
    rung_secs: f64,
    p99_limit_us: f64,
    run: &mut dyn FnMut(&str, f64, usize) -> Phase,
) -> (f64, Vec<Phase>) {
    let mut phases = Vec::new();
    let mut passes = |k: usize, phases: &mut Vec<Phase>| {
        (0..3).any(|_| {
            let rate = rung_rate(k);
            let n = ((rate * rung_secs).round() as usize).max(50);
            let phase = run(&format!("ladder {rate:.0}/s"), rate, n);
            let pass = rung_passes(&phase, p99_limit_us);
            phases.push(phase);
            pass
        })
    };
    let mut best: Option<usize> = None;
    let mut k = start;
    loop {
        if passes(k, &mut phases) {
            best = Some(k);
            k += 4;
        } else if best.is_none() && k >= 4 {
            k -= 4;
        } else {
            break;
        }
    }
    if let Some(mut b) = best {
        while b + 1 < k && passes(b + 1, &mut phases) {
            b += 1;
        }
        best = Some(b);
    }
    (best.map_or(rung_rate(0) / LADDER_STEP, rung_rate), phases)
}

fn rung_passes(phase: &Phase, p99_limit_us: f64) -> bool {
    let lat: Vec<f64> = phase.latency_us.iter().flatten().copied().collect();
    percentile(&lat, 0.99) <= p99_limit_us
        && percentile(&phase.send_late_us, 0.99) <= p99_limit_us
        && phase.total_ok() == phase.total_sent()
}

/// Sends one open-loop phase of `/v1/infer` requests over `bodies`
/// (cycled), naming stream `base + i` in request `i`.
#[allow(clippy::too_many_arguments)]
pub fn infer_phase(
    name: &str,
    server: &Server,
    rate: f64,
    n: usize,
    records: &[String],
    seed: u64,
    base: u64,
    keep_every: usize,
) -> Phase {
    let make = |i: usize| Req {
        kind: INFER,
        path: "/v1/infer",
        body: crate::corpus::infer_body(&records[i % records.len()], seed, base + i as u64),
    };
    let keep = |i: usize| keep_every > 0 && i.is_multiple_of(keep_every);
    open_loop(
        name,
        server.running.addr(),
        rate,
        n,
        CONNS,
        KINDS,
        &make,
        &well_formed,
        &keep,
    )
}
