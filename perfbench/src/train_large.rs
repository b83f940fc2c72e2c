//! `train-large`: offline training of one large mall, repeated inside the
//! run, with the held-out 30% scored in process. No HTTP or WAL work
//! happens outside the traced run's probes, and the copy probe's absorbs
//! go into a copy that is dropped.

use crate::corpus;
use crate::harness::{copy_probe, infer_phase, CopyProbe, Outcome, Server, WorkDir};
use crate::layers::{self, fingerprint, TraceInputs};
use crate::stats::{block_low_decile, high_decile, low_decile, median, micros, peak_rss_mb, secs};
use grafics_core::{record_rng, Grafics, GraficsConfig, GraficsFleet, GraficsServer};
use grafics_data::BuildingModel;
use grafics_metrics::ConfusionMatrix;
use grafics_types::{DurabilityPolicy, FloorId, SignalRecord};
use std::time::Instant;

const FLOORS: i16 = 5;
const RECORDS_PER_FLOOR: usize = 800;
/// Draws of the labelled few, one per round; the paper's metrics pool
/// the first `DRAWS` rounds, and later rounds repeat the draws.
const DRAWS: usize = 4;
/// Held-out scans each repetition's model answers, compared across
/// repetitions.
const COMPARED: usize = 64;
/// Restarts and held-out scans of each round's copy probe: enough to
/// keep it busy for a few tenths of a second, so its low decile does not
/// hang on a few milliseconds of the host's state.
const PROBE_RESTARTS: usize = 5;
const PROBE_ABSORBS: usize = 300;
/// The accuracy floor on the pooled draws. One draw of four labels per
/// floor on this mall scores between about 0.77 and 0.98, so a floor
/// tighter than this would fail sound runs; the bound on `micro_f` and
/// `macro_f` catches a drop of the median instead.
const F_FLOOR: f64 = 0.8;
/// Queries or absorbs per latency block.
const BLOCK: usize = 50;

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let work = WorkDir::new("train-large");
    let models =
        vec![BuildingModel::mall("tl-mall", FLOORS).with_records_per_floor(RECORDS_PER_FLOOR)];
    let config = GraficsConfig::default();

    let generated = corpus::generate(&models, seed).remove(0);

    // Warm-up: a tenth of the epochs on the same corpus.
    let warm = GraficsConfig {
        epochs: (config.epochs / 10).max(1),
        ..config
    };
    let _ = corpus::train_building(&generated, &warm, seed);

    // Rounds: each draws the labelled few and trains on them, then sets
    // the trained mall up to serve (save, recover: `setup_s`; training is
    // `train_s`, so it is not set-up time here). It runs the restart and
    // absorb probe on the saved directory, then serves the held-out scans
    // in process. Rounds cycle through the draws; the first `DRAWS` are
    // scored, and every repeat of a draw must rebuild the same model bit
    // for bit.
    let rounds = ((seconds / 4.0).round() as usize).max(DRAWS + 1);
    let saved = work.path("fleet");
    let mut setup_s = Vec::with_capacity(rounds);
    let mut train_s = Vec::with_capacity(rounds);
    let mut reference: Vec<Option<(u64, Vec<Answer>)>> = vec![None; DRAWS];
    let mut repeats = 0usize;
    let mut identical = true;
    let mut cm = ConfusionMatrix::new();
    let mut draw_f = Vec::with_capacity(DRAWS);
    let mut infer_us = Vec::new();
    let mut probe = CopyProbe::default();
    let mut last = None;
    for round in 0..rounds {
        let draw = round % DRAWS;
        let building = corpus::redraw(generated.clone(), seed, draw);
        let (model, train) = corpus::train_building(&building, &config, seed);
        train_s.push(train);
        std::fs::remove_dir_all(&saved).ok();
        let t = Instant::now();
        GraficsFleet::from_model(model)
            .save_dir(&saved)
            .expect("save the fleet");
        let (served, _) = GraficsFleet::recover(&saved).expect("recover the fleet");
        setup_s.push(secs(t));
        let test = &building.test;

        let records: Vec<SignalRecord> = test
            .iter()
            .cycle()
            .skip(round * PROBE_ABSORBS)
            .take(PROBE_ABSORBS)
            .map(|(_, r)| r.clone())
            .collect();
        probe.extend(copy_probe(&saved, PROBE_RESTARTS, &records, seed));

        let snapshot = served.shards()[0].snapshot();
        let print = (
            fingerprint(snapshot.clusters()),
            answers(&snapshot, test, seed),
        );
        match &reference[draw] {
            Some(first) => {
                repeats += 1;
                identical &= *first == print;
            }
            None => reference[draw] = Some(print),
        }
        // Every round serves the held-out scans, so the latency samples
        // span the run; the first `DRAWS` rounds are scored.
        let mut draw_cm = ConfusionMatrix::new();
        for (i, (truth, record)) in test.iter().enumerate() {
            let q = Instant::now();
            let answer = served.serve(record, &mut record_rng(seed, i));
            infer_us.push(micros(q));
            if round < DRAWS {
                let predicted = answer.map_or(FloorId(i16::MIN), |p| p.floor);
                cm.observe(*truth, predicted);
                draw_cm.observe(*truth, predicted);
            }
        }
        if round < DRAWS {
            draw_f.push(draw_cm.report().micro_f);
        }
        last = Some((building, served));
    }
    let (mall, served) = last.expect("at least one round");
    let model = served.shards()[0].snapshot();
    outcome.account_ops("trainings", rounds as u64, rounds as u64);
    outcome.check(
        "train-large repetitions build identical models",
        identical && repeats > 0,
        format!("{repeats} repeated draws, {COMPARED} answers each"),
    );
    let report = cm.report();
    let scored = (DRAWS * mall.test.len()) as u64;
    outcome.account_ops("held-out scoring", scored, cm.total() as u64);
    outcome.account_ops(
        "copy probe absorbs",
        probe.absorb_us.len() as u64,
        probe.accepted,
    );
    outcome.check(
        &format!("micro_f and macro_f clear {F_FLOOR}"),
        report.micro_f >= F_FLOOR && report.macro_f >= F_FLOOR,
        format!(
            "micro_f {:.5} macro_f {:.5} over {DRAWS} label draws (micro_f per draw {})",
            report.micro_f,
            report.macro_f,
            draw_f
                .iter()
                .map(|f| format!("{f:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    );
    let block_rate: Vec<f64> = infer_us
        .chunks(BLOCK)
        .map(|b| 1e6 * b.len() as f64 / b.iter().sum::<f64>())
        .collect();

    let attempted = rounds as u64 + scored + probe.absorb_us.len() as u64;
    let ok = rounds as u64 + cm.total() as u64 + probe.accepted;
    outcome.e2e = vec![
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("ok_ratio", ok as f64 / attempted as f64, "ratio"),
        ("micro_f", report.micro_f, "ratio"),
        ("macro_f", report.macro_f, "ratio"),
        ("train_s", low_decile(&train_s), "s"),
        (
            "infer_p50_us",
            block_low_decile(infer_us.chunks(BLOCK), 0.5),
            "us",
        ),
        (
            "absorb_p50_us",
            block_low_decile(probe.absorb_us.chunks(BLOCK), 0.5),
            "us",
        ),
        ("recover_s", low_decile(&probe.recover_s), "s"),
    ];
    outcome.unsteady = vec![
        (
            "infer_p99_us",
            block_low_decile(infer_us.chunks(BLOCK), 0.99),
            "us",
        ),
        (
            "absorb_p99_us",
            block_low_decile(probe.absorb_us.chunks(BLOCK), 0.99),
            "us",
        ),
        ("infer_max_rate_qps", high_decile(&block_rate), "qps"),
    ];

    if trace {
        // The probes need a server and a WAL the workload itself never
        // uses; both wrap the trained model.
        let server = Server::start(GraficsFleet::from_model((*model).clone()), seed);
        let bodies: Vec<String> = mall
            .test
            .iter()
            .map(|(_, r)| corpus::record_json(r))
            .collect();
        let http = infer_phase(
            "trace http",
            &server,
            200.0,
            400,
            &bodies,
            seed,
            500_000_000,
            0,
        );
        outcome.account(&http);
        let mut durable = GraficsFleet::from_model((*model).clone());
        durable.set_durability(DurabilityPolicy::FsyncEveryN(64));
        let durable_dir = work.path("durable");
        durable
            .save_dir(&durable_dir)
            .expect("save the durable fleet");
        drop(durable);
        let (durable, _) = GraficsFleet::recover(&durable_dir).expect("attach the WAL");
        let probe: Vec<SignalRecord> = mall.test.iter().take(256).map(|(_, r)| r.clone()).collect();
        layers::collect(
            &TraceInputs {
                workload: "train-large",
                seed,
                state: &server.state,
                probe_records: &probe,
                offline_train: &mall.train,
                offline_reps: 1,
                config: &config,
                durable_fleet: &durable,
                durable_dir: &durable_dir,
                absorb_records: &probe,
                http: &[&http],
            },
            &mut outcome,
        );
        server.stop();
    }
    outcome
}

/// A model's floor and distance bits for one held-out scan.
type Answer = Option<(FloorId, u64)>;

/// The answers a model gives the first held-out scans.
fn answers(model: &Grafics, test: &[(FloorId, SignalRecord)], seed: u64) -> Vec<Answer> {
    let mut server = GraficsServer::over(model);
    test.iter()
        .take(COMPARED)
        .enumerate()
        .map(|(i, (_, r))| {
            server
                .infer(r, &mut record_rng(seed, i))
                .ok()
                .map(|p| (p.floor, p.distance.to_bits()))
        })
        .collect()
}
