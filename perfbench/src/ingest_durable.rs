//! `ingest-durable`: open-loop writes beside reads on a durable 4-building
//! fleet (`fsync:64`), with publishes on a fixed schedule, then a drain
//! and the operator's restart (`GraficsFleet::recover`).

use crate::corpus::{self, absorb_body, infer_body, record_json};
use crate::harness::{
    infer_phase, ladder, rung_of, well_formed, Outcome, Req, Server, WorkDir, ABSORB, CONNS, INFER,
    KINDS, PUBLISH,
};
use crate::layers::{self, copy_dir, TraceInputs};
use crate::loadgen::{open_loop, Phase};
use crate::stats::{block_low_decile, low_decile, median, peak_rss_mb, secs, timed};
use grafics_core::{GraficsConfig, GraficsFleet, ServingPolicy};
use grafics_data::BuildingModel;
use grafics_types::{DurabilityPolicy, SignalRecord};
use std::path::Path;
use std::time::Instant;

const BUILDINGS: usize = 4;
const FLOORS: i16 = 3;
const RECORDS_PER_FLOOR: usize = 300;
/// Full set-ups per run, spread across it; `setup_s` is their median.
const SETUPS: usize = 3;
/// The mixed phase's offered rate (infer and absorb alternate).
const MIX_QPS: f64 = 300.0;
/// A block of the mixed load: this many requests, the middle one a
/// `/v1/publish` (two publishes a second).
const PUBLISH_EVERY: usize = 150;
const BLOCKS_PER_SECOND: f64 = 1.0;
/// The ladder's p99 limit: about ten fixed-budget queries back to back.
const LADDER_P99_LIMIT_US: f64 = 10_000.0;
const PHASE_STREAMS: u64 = 100_000_000;

/// One full set-up into `dir`: generate, train, save durably, recover
/// (attaching the WAL), start the server. Returns it with its wall time
/// and every shard's training time.
fn setup(
    models: &[BuildingModel],
    config: &GraficsConfig,
    seed: u64,
    dir: &Path,
) -> (Server, Vec<corpus::Building>, f64, Vec<f64>) {
    let t = Instant::now();
    let buildings = corpus::generate(models, seed);
    let (mut fleet, times) =
        corpus::train_fleet(&buildings, config, ServingPolicy::default(), seed);
    fleet.set_durability(DurabilityPolicy::FsyncEveryN(64));
    std::fs::remove_dir_all(dir).ok();
    fleet.save_dir(dir).expect("save the fleet");
    drop(fleet);
    let (fleet, _) = GraficsFleet::recover(dir).expect("attach the WAL");
    let server = Server::start(fleet, seed);
    (server, buildings, secs(t), times)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let work = WorkDir::new("ingest-durable");
    let models: Vec<BuildingModel> = (0..BUILDINGS)
        .map(|i| {
            BuildingModel::office(&format!("id-{i}"), FLOORS)
                .with_records_per_floor(RECORDS_PER_FLOOR)
        })
        .collect();
    let config = GraficsConfig::default();

    // The first set-up is the one served; the others are spread across
    // the run and only timed.
    let dir = work.path("fleet");
    let (server, buildings, secs0, times) = setup(&models, &config, seed, &dir);
    let mut setup_s = vec![secs0];
    let mut train_s = times;
    let queries = corpus::queries(&buildings);
    let bodies: Vec<String> = queries.iter().map(|(_, _, r)| record_json(r)).collect();

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

    // The mixed load: infer and absorb alternate, and a publish goes out
    // in the middle of every block, so its checkpoint overlaps the
    // block's second half. After each block the WAL is drained and a
    // copy of the durable directory is recovered: the operator's restart,
    // replaying the absorbs since the block's publish. The rate ladder
    // (infer only) and the extra set-ups fall between blocks; a last half
    // block, with no publish, leaves a WAL tail.
    let addr = server.running.addr();
    let fleet = server.state.fleet();
    let mix = |name: &str, n: usize, block: usize, base: u64| -> Phase {
        let make = |i: usize| {
            let record = &bodies[(block * PUBLISH_EVERY + i) / 2 % bodies.len()];
            if i == PUBLISH_EVERY / 2 {
                Req {
                    kind: PUBLISH,
                    path: "/v1/publish",
                    body: String::new(),
                }
            } else if i.is_multiple_of(2) {
                Req {
                    kind: INFER,
                    path: "/v1/infer",
                    body: infer_body(record, seed, base + i as u64),
                }
            } else {
                Req {
                    kind: ABSORB,
                    path: "/v1/absorb",
                    body: absorb_body(record),
                }
            }
        };
        open_loop(
            name,
            addr,
            MIX_QPS,
            n,
            CONNS,
            KINDS,
            &make,
            &well_formed,
            &|_| false,
        )
    };
    let count = ((seconds * BLOCKS_PER_SECOND).round() as usize).max(SETUPS * 2);
    let warm = mix("warmup", PUBLISH_EVERY, 0, PHASE_STREAMS);
    let mut blocks = Vec::new();
    let mut rungs = Vec::new();
    let mut max_rate = 0.0;
    let mut recover_s = Vec::new();
    let mut replayed = Vec::new();
    let mut resident_ok = true;
    for b in 0..count {
        blocks.push(mix(
            &format!("mixed {}", b + 1),
            PUBLISH_EVERY,
            b + 1,
            PHASE_STREAMS * (2 + b as u64),
        ));
        fleet.drain_wal().expect("WAL drains");
        let copy = work.path("restart");
        copy_dir(&dir, &copy).expect("copy the durable directory");
        let ((recovered, report), secs) =
            timed(|| GraficsFleet::recover(&copy).expect("recover the fleet"));
        recover_s.push(secs);
        replayed.push(report.total_replayed());
        resident_ok &=
            recovered.stats().total_resident_records() == fleet.stats().total_resident_records();
        drop(recovered);
        std::fs::remove_dir_all(&copy).ok();
        if b == count / 2 - 1 {
            let mut stream = PHASE_STREAMS * 1_000;
            let mut run_rung = |name: &str, rate: f64, n: usize| {
                stream += PHASE_STREAMS;
                infer_phase(name, &server, rate, n, &bodies, seed, stream, 0)
            };
            let rung_secs = 0.025 * seconds;
            (max_rate, rungs) = ladder(
                rung_of(MIX_QPS),
                rung_secs,
                LADDER_P99_LIMIT_US,
                &mut run_rung,
            );
        }
        if (b + 1) % (count / SETUPS) == 0 && setup_s.len() < SETUPS {
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
    let tail = mix("tail", PUBLISH_EVERY / 2, count + 1, PHASE_STREAMS * 999);
    fleet.drain_wal().expect("WAL drains");
    outcome.check(
        "recovered fleet holds the live fleet's records",
        resident_ok && replayed.iter().all(|r| *r > 0),
        format!(
            "{} restarts, {} resident, {} replayed from the last WAL tail",
            replayed.len(),
            fleet.stats().total_resident_records(),
            replayed.last().copied().unwrap_or(0)
        ),
    );
    let phases: Vec<&Phase> = [&warm, &tail]
        .into_iter()
        .chain(blocks.iter())
        .chain(rungs.iter())
        .collect();
    let accepted: u64 = phases.iter().map(|p| p.ok[ABSORB]).sum();
    let sent_absorbs: u64 = phases.iter().map(|p| p.sent[ABSORB]).sum();
    outcome.check(
        "WAL appends == accepted absorbs",
        fleet.wal_stats().appends == accepted && accepted == sent_absorbs,
        format!(
            "appends {} accepted {accepted} sent {sent_absorbs}",
            fleet.wal_stats().appends
        ),
    );

    for phase in &phases {
        outcome.account(phase);
    }
    outcome.schedule(blocks.iter());
    let sent: u64 = phases.iter().map(|p| p.total_sent()).sum();
    let ok: u64 = phases.iter().map(|p| p.total_ok()).sum();
    let kind_blocks = |kind: usize| blocks.iter().map(move |p| p.latency_us[kind].as_slice());
    outcome.e2e = vec![
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("ok_ratio", ok as f64 / sent.max(1) as f64, "ratio"),
        ("micro_f", report.micro_f, "ratio"),
        ("macro_f", report.macro_f, "ratio"),
        ("train_s", low_decile(&train_s), "s"),
        (
            "infer_p50_us",
            block_low_decile(kind_blocks(INFER), 0.5),
            "us",
        ),
        (
            "absorb_p50_us",
            block_low_decile(kind_blocks(ABSORB), 0.5),
            "us",
        ),
        ("recover_s", low_decile(&recover_s), "s"),
    ];
    outcome.unsteady = vec![
        (
            "infer_p99_us",
            block_low_decile(kind_blocks(INFER), 0.99),
            "us",
        ),
        (
            "absorb_p99_us",
            block_low_decile(kind_blocks(ABSORB), 0.99),
            "us",
        ),
        ("infer_max_rate_qps", max_rate, "qps"),
    ];

    if trace {
        let probe: Vec<SignalRecord> = queries
            .iter()
            .step_by(4)
            .map(|(_, _, r)| r.clone())
            .collect();
        let block_refs: Vec<&Phase> = blocks.iter().collect();
        layers::collect(
            &TraceInputs {
                workload: "ingest-durable",
                seed,
                state: &server.state,
                probe_records: &probe,
                offline_train: &buildings[0].train,
                offline_reps: 2,
                config: &config,
                durable_fleet: server.state.fleet(),
                durable_dir: &dir,
                absorb_records: &probe,
                http: &block_refs,
            },
            &mut outcome,
        );
    }
    server.stop();
    outcome
}
