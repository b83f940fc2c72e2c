//! `query-wide`: read-only open-loop `POST /v1/infer` against a
//! 32-building fleet served under the recommended adaptive policy.

use crate::corpus::{self, record_json};
use crate::harness::{
    copy_probe, infer_phase, ladder, rung_of, CopyProbe, Outcome, Server, WorkDir, INFER,
};
use crate::layers::{self, TraceInputs};
use crate::loadgen::Phase;
use crate::stats::{block_low_decile, low_decile, median, peak_rss_mb, secs};
use grafics_core::{record_rng, GraficsConfig, GraficsFleet, OnlineBudget, ServingPolicy};
use grafics_data::BuildingModel;
use grafics_serve::PredictionBody;
use grafics_types::{DurabilityPolicy, SignalRecord};
use std::path::Path;
use std::time::Instant;

const BUILDINGS: usize = 32;
const FLOORS: i16 = 3;
const RECORDS_PER_FLOOR: usize = 40;
/// Full set-ups per run, spread across it; `setup_s` is their median.
const SETUPS: usize = 3;
/// The nominal `/v1/infer` rate, well under the ladder's reading.
const NOMINAL_QPS: f64 = 2_000.0;
/// Measurement rounds per run; each sends a nominal block
/// `BLOCK_SHARE` of `--seconds` long.
const ROUNDS: usize = 18;
const BLOCK_SHARE: f64 = 0.03;
/// Held-out scans each round's copy probe absorbs.
const PROBE_ABSORBS: usize = 50;
/// The ladder's p99 limit: about fifty served queries back to back.
const LADDER_P99_LIMIT_US: f64 = 5_000.0;
/// Stream-index bases, so no two requests share an RNG stream.
const PHASE_STREAMS: u64 = 100_000_000;

fn serving() -> ServingPolicy {
    ServingPolicy {
        budget: Some(OnlineBudget::Adaptive {
            max_spe: 40,
            min_spe: 10,
            margin_ratio: 0.25,
        }),
        precision: None,
    }
}

/// One full set-up into `dir`: generate, train, save, load, start the
/// server. Returns it with its wall time and every shard's training time.
fn setup(
    models: &[BuildingModel],
    config: &GraficsConfig,
    seed: u64,
    dir: &Path,
) -> (Server, Vec<corpus::Building>, f64, Vec<f64>) {
    let t = Instant::now();
    let buildings = corpus::generate(models, seed);
    let (fleet, times) = corpus::train_fleet(&buildings, config, serving(), seed);
    std::fs::remove_dir_all(dir).ok();
    fleet.save_dir(dir).expect("save the fleet");
    drop(fleet);
    let fleet = GraficsFleet::load_dir(dir).expect("load the fleet");
    let server = Server::start(fleet, seed);
    (server, buildings, secs(t), times)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let work = WorkDir::new("query-wide");
    let models: Vec<BuildingModel> = (0..BUILDINGS)
        .map(|i| {
            BuildingModel::office(&format!("qw-{i}"), FLOORS)
                .with_records_per_floor(RECORDS_PER_FLOOR)
        })
        .collect();
    let config = GraficsConfig::default();
    let saved = work.path("fleet");

    // The first set-up is the one served; the others are spread across
    // the run and only timed.
    let (server, buildings, secs0, times) = setup(&models, &config, seed, &saved);
    let mut setup_s = vec![secs0];
    let mut train_s = times;
    let queries = corpus::queries(&buildings);
    let bodies: Vec<String> = queries.iter().map(|(_, _, r)| record_json(r)).collect();

    // The paper's accuracy, in process on the served fleet.
    let (report, served) = corpus::score(server.state.fleet(), &queries, seed);
    outcome.account_ops("held-out scoring", queries.len() as u64, served);
    outcome.check(
        "micro_f and macro_f clear 0.9",
        report.micro_f >= 0.9 && report.macro_f >= 0.9,
        format!(
            "micro_f {:.5} macro_f {:.5}",
            report.micro_f, report.macro_f
        ),
    );

    // Measurement in rounds, so every metric samples the whole run: a
    // nominal `/v1/infer` block, then the copy probe (a restart of the
    // saved fleet and a block of absorbs into that copy, which is
    // dropped: the served fleet and the HTTP traffic stay read-only).
    // The rate ladder and the extra set-ups fall between rounds.
    let block_n = ((NOMINAL_QPS * seconds * BLOCK_SHARE) as usize).max(100);
    let mut stream = PHASE_STREAMS;
    let mut next_base = || {
        stream += PHASE_STREAMS;
        stream
    };
    let warm = infer_phase(
        "warmup",
        &server,
        NOMINAL_QPS,
        block_n,
        &bodies,
        seed,
        next_base(),
        0,
    );
    let mut nominal: Vec<(Phase, u64)> = Vec::new();
    let mut probe = CopyProbe::default();
    let mut rungs: Vec<Phase> = Vec::new();
    let mut max_rate = 0.0;
    for round in 0..ROUNDS {
        let base = next_base();
        let name = format!("nominal {}", round + 1);
        nominal.push((
            infer_phase(&name, &server, NOMINAL_QPS, block_n, &bodies, seed, base, 7),
            base,
        ));
        // Every `ROUNDS`-th held-out scan, so a probe spans the buildings.
        let records: Vec<SignalRecord> = (0..PROBE_ABSORBS)
            .map(|i| queries[(round + ROUNDS * i) % queries.len()].2.clone())
            .collect();
        probe.extend(copy_probe(&saved, 1, &records, seed));
        if round == ROUNDS / 2 - 1 {
            let mut run_rung = |name: &str, rate: f64, n: usize| {
                infer_phase(name, &server, rate, n, &bodies, seed, next_base(), 0)
            };
            let rung_secs = 0.025 * seconds;
            (max_rate, rungs) = ladder(
                rung_of(NOMINAL_QPS),
                rung_secs,
                LADDER_P99_LIMIT_US,
                &mut run_rung,
            );
        }
        if (round + 1) % (ROUNDS / SETUPS) == 0 && setup_s.len() < SETUPS {
            let (extra, _, secs, times) = setup(&models, &config, seed, &work.path("extra"));
            extra.stop();
            setup_s.push(secs);
            train_s.extend(times);
        }
    }
    outcome.account_ops(
        "setup trainings",
        train_s.len() as u64,
        train_s.len() as u64,
    );
    outcome.account_ops(
        "copy probe absorbs",
        probe.absorb_us.len() as u64,
        probe.accepted,
    );

    // Bit-identity: sampled HTTP answers vs in-process serve on the same stream.
    let mut compared = 0usize;
    let mut differing = 0usize;
    for (phase, base) in &nominal {
        for (i, _, body) in &phase.kept {
            let record = &queries[i % queries.len()].2;
            let local = server
                .state
                .fleet()
                .serve(record, &mut record_rng(seed, (base + *i as u64) as usize));
            let wire: Option<PredictionBody> = serde_json::from_str(body).ok();
            compared += 1;
            let same = matches!((&local, &wire), (Ok(l), Some(w))
                if l.building.0 == w.building && l.floor.0 == w.floor && l.distance.to_bits() == w.distance.to_bits());
            differing += usize::from(!same);
        }
    }
    outcome.check(
        "HTTP /v1/infer answers bit-identical to in-process serve",
        compared > 0 && differing == 0,
        format!("{differing} of {compared} sampled answers differ"),
    );

    let phases: Vec<&Phase> = std::iter::once(&warm)
        .chain(nominal.iter().map(|(p, _)| p))
        .chain(rungs.iter())
        .collect();
    for phase in &phases {
        outcome.account(phase);
    }
    outcome.schedule(nominal.iter().map(|(p, _)| p));
    let sent: u64 = phases.iter().map(|p| p.total_sent()).sum();
    let ok: u64 = phases.iter().map(|p| p.total_ok()).sum();
    let infer_blocks = || nominal.iter().map(|(p, _)| p.latency_us[INFER].as_slice());
    outcome.e2e = vec![
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("ok_ratio", ok as f64 / sent.max(1) as f64, "ratio"),
        ("micro_f", report.micro_f, "ratio"),
        ("macro_f", report.macro_f, "ratio"),
        ("train_s", low_decile(&train_s), "s"),
        ("infer_p50_us", block_low_decile(infer_blocks(), 0.5), "us"),
        (
            "absorb_p50_us",
            block_low_decile(probe.absorb_us.chunks(PROBE_ABSORBS), 0.5),
            "us",
        ),
        ("recover_s", low_decile(&probe.recover_s), "s"),
    ];
    outcome.unsteady = vec![
        ("infer_p99_us", block_low_decile(infer_blocks(), 0.99), "us"),
        (
            "absorb_p99_us",
            block_low_decile(probe.absorb_us.chunks(PROBE_ABSORBS), 0.99),
            "us",
        ),
        ("infer_max_rate_qps", max_rate, "qps"),
    ];

    if trace {
        let mut durable = GraficsFleet::load_dir(&saved).expect("load the fleet");
        durable.set_durability(DurabilityPolicy::FsyncEveryN(64));
        let durable_dir = work.path("durable");
        durable
            .save_dir(&durable_dir)
            .expect("save the durable fleet");
        drop(durable);
        let (durable, _) = GraficsFleet::recover(&durable_dir).expect("attach the WAL");
        let probe: Vec<SignalRecord> = queries
            .iter()
            .step_by(2)
            .map(|(_, _, r)| r.clone())
            .collect();
        let absorb: Vec<SignalRecord> = probe.iter().take(256).cloned().collect();
        let nominal_phases: Vec<&Phase> = nominal.iter().map(|(p, _)| p).collect();
        layers::collect(
            &TraceInputs {
                workload: "query-wide",
                seed,
                state: &server.state,
                probe_records: &probe,
                offline_train: &buildings[0].train,
                offline_reps: 3,
                config: &config,
                durable_fleet: &durable,
                durable_dir: &durable_dir,
                absorb_records: &absorb,
                http: &nominal_phases,
            },
            &mut outcome,
        );
    }
    server.stop();
    outcome
}
