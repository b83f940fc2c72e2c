//! The traced run's layer probes. Each calls one layer's public function
//! on the workload's own inputs and times it from outside, recording a
//! span per call. Stage paths are checked against the whole call they
//! decompose (same inputs, same RNG stream, bit-identical answer), so a
//! stage timing always describes the work the user path really does.

use crate::corpus::{infer_body, record_json};
use crate::stats::{median, micros, peak_rss_mb, percentile, reset_peak_rss, secs};
use grafics_cluster::{dissimilarity_matrix, ClusterModel, MatchPrecision, MatchScratch};
use grafics_core::{record_rng, Grafics, GraficsConfig, GraficsFleet, OnlineBudget};
use grafics_embed::{ElineTrainer, OnlineScratch};
use grafics_graph::BipartiteGraph;
use grafics_serve::api::{dispatch, InferRequest};
use grafics_serve::{FleetState, PredictionBody};
use grafics_types::{Dataset, RecordId, RowMatrix, SignalRecord};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed layer call. `parent` indexes the enclosing span; `request`
/// is shared by every span of one query.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span log, written out once at the end of the run.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Records a span that started at `start` and ends now; returns its
    /// index (a parent for later spans).
    pub fn close(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.t0).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.t0).as_nanos() as u64,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a parent span now; [`Spans::finish`] sets its end.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        self.close(name, Instant::now(), None, request)
    }

    pub fn finish(&mut self, span: usize) {
        self.spans[span].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Stable fingerprint of a cluster model (floors, centroid bits,
/// members): equal fingerprints mean bit-identical clusterings.
pub fn fingerprint(clusters: &ClusterModel) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for c in clusters.clusters() {
        c.floor.0.hash(&mut h);
        for x in &c.centroid {
            x.to_bits().hash(&mut h);
        }
        c.members.hash(&mut h);
    }
    h.finish()
}

/// Offline stage timings for one corpus.
pub struct OfflineLayers {
    pub graph_ms: f64,
    pub edges: f64,
    pub eline_s: f64,
    pub eline_samples_per_s: f64,
    pub dissim_ms: f64,
    pub fit_s: f64,
    pub agglomerate_s: f64,
    pub fit_peak_rss_mb: f64,
    pub points: f64,
    pub clusters: f64,
    /// `Grafics::train` on the same corpus and RNG stream, timed whole.
    pub train_s: f64,
    /// The stage path built the same clustering as `Grafics::train`.
    pub identical: bool,
}

/// Runs `Grafics::train`'s stages one call at a time (graph build,
/// E-LINE, dissimilarity, constrained agglomerative fit), then the whole
/// call on the same RNG stream. Resets the RSS high-water mark before
/// the fit to read the fit's own peak.
pub fn offline(
    train: &Dataset,
    config: &GraficsConfig,
    rng_seed: u64,
    spans: &mut Spans,
    request: u64,
) -> OfflineLayers {
    let parent = spans.open("offline.train", request);
    let t = Instant::now();
    let graph = BipartiteGraph::from_dataset(train, config.weight_function);
    spans.close("graph.build", t, Some(parent), request);
    let graph_ms = 1e3 * secs(t);

    let trainer = ElineTrainer::new(config.embedding());
    let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
    let t = Instant::now();
    let embeddings = trainer.train(&graph, &mut rng).expect("E-LINE trains");
    spans.close("embed.eline", t, Some(parent), request);
    let eline_s = secs(t);

    let mut points = RowMatrix::with_capacity(train.len(), config.dim);
    let mut labels = Vec::with_capacity(train.len());
    for (i, sample) in train.samples().iter().enumerate() {
        let node = graph
            .record_node(RecordId(i as u32))
            .expect("training records are live");
        points.push_row_widen(embeddings.ego(node));
        labels.push(sample.floor);
    }
    let t = Instant::now();
    let matrix = dissimilarity_matrix(&points, config.threads);
    spans.close("cluster.dissim", t, Some(parent), request);
    let dissim_s = secs(t);
    drop(matrix);

    let rss_reset = reset_peak_rss();
    let t = Instant::now();
    let clusters =
        ClusterModel::fit(&points, &labels, &config.clustering()).expect("clustering fits");
    spans.close("cluster.fit", t, Some(parent), request);
    let fit_s = secs(t);
    let fit_peak_rss_mb = if rss_reset { peak_rss_mb() } else { 0.0 };
    spans.finish(parent);

    let whole = spans.open("core.train", request);
    let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
    let t = Instant::now();
    let model = Grafics::train(train, config, &mut rng).expect("the corpus trains");
    let train_s = secs(t);
    spans.finish(whole);

    OfflineLayers {
        graph_ms,
        edges: graph.edge_count() as f64,
        eline_s,
        eline_samples_per_s: (config.epochs * graph.edge_count()) as f64 / eline_s,
        dissim_ms: 1e3 * dissim_s,
        fit_s,
        agglomerate_s: fit_s - dissim_s,
        fit_peak_rss_mb,
        points: points.rows() as f64,
        clusters: clusters.clusters().len() as f64,
        train_s,
        identical: fingerprint(&clusters) == fingerprint(model.clusters()),
    }
}

/// Online stage timings over a sample of queries.
#[derive(Default)]
pub struct OnlineLayers {
    pub route_us: Vec<f64>,
    pub route_probes: Vec<f64>,
    pub embed_us: Vec<f64>,
    pub refine_samples: Vec<f64>,
    pub early_stops: usize,
    pub match_us: Vec<f64>,
    pub serve_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub dispatch_us: Vec<f64>,
    /// `GraficsFleet::serve` timed with no span bookkeeping, same queries.
    pub serve_untraced_us: Vec<f64>,
    /// Per query: route + embed + match, and serve + decode + encode.
    pub stage_sum_us: Vec<f64>,
    pub wire_sum_us: Vec<f64>,
    /// Queries whose stage path or dispatch answer differed from serve.
    pub mismatches: usize,
}

impl OnlineLayers {
    pub fn queries(&self) -> usize {
        self.serve_us.len()
    }

    pub fn early_stop_ratio(&self) -> f64 {
        self.early_stops as f64 / self.queries().max(1) as f64
    }

    /// Stage sum vs the directly timed whole, as a signed percentage.
    pub fn serve_recon_pct(&self) -> f64 {
        100.0 * (median(&self.stage_sum_us) / median(&self.serve_us) - 1.0)
    }

    pub fn dispatch_recon_pct(&self) -> f64 {
        100.0 * (median(&self.wire_sum_us) / median(&self.dispatch_us) - 1.0)
    }

    /// What recording spans added to the serve call, in percent.
    pub fn overhead_pct(&self) -> f64 {
        100.0 * (median(&self.serve_us) / median(&self.serve_untraced_us) - 1.0)
    }
}

/// Probes the read path on `records` (RNG streams `base + q`): route,
/// online embed under the served budget, centroid match, the whole
/// `GraficsFleet::serve`, JSON decode/encode, and `dispatch` on the
/// server's own state.
pub fn online(
    state: &FleetState,
    records: &[SignalRecord],
    seed: u64,
    base: u64,
    spans: &mut Spans,
) -> OnlineLayers {
    let fleet = state.fleet();
    let mut out = OnlineLayers::default();
    let mut trainers: HashMap<u32, ElineTrainer> = HashMap::new();
    let mut scratch = OnlineScratch::new();
    let mut matching = MatchScratch::new();
    for (q, record) in records.iter().enumerate() {
        let request = base + q as u64;
        let stream = request as usize;
        let parent = spans.open("probe.query", request);

        let t = Instant::now();
        let routed = fleet.route(record);
        spans.close("core.route", t, Some(parent), request);
        let route_us = micros(t);
        out.route_us.push(route_us);
        out.route_probes.push((record.len() * fleet.len()) as f64);
        let Some(id) = routed else {
            out.mismatches += 1;
            continue;
        };
        let snap = fleet.shard(id).expect("routed shard exists").snapshot();
        let model: &Grafics = &snap;
        let (budget, precision) = fleet.serving().resolve(model.config());
        let ratio = match budget {
            OnlineBudget::Adaptive { margin_ratio, .. } => margin_ratio,
            OnlineBudget::Fixed(_) => 0.0,
        };
        let trainer = trainers
            .entry(id.0)
            .or_insert_with(|| ElineTrainer::new(model.config().embedding()));
        let clusters = model.clusters();
        let mut rng = record_rng(seed, stream);
        let t = Instant::now();
        let embedded = {
            let mut decisive = |ego: &[f32]| clusters.margin_decisive(ego, ratio, &mut matching);
            trainer
                .embed_query_budgeted(
                    model.graph(),
                    model.embeddings(),
                    record,
                    model.negative_sampler(),
                    budget,
                    &mut decisive,
                    &mut scratch,
                    &mut rng,
                )
                .map(|(query, outcome)| (query.to_vec(), outcome))
        };
        spans.close("embed.online", t, Some(parent), request);
        let embed_us = micros(t);
        let Ok((query, outcome)) = embedded else {
            out.mismatches += 1;
            continue;
        };
        out.embed_us.push(embed_us);
        out.refine_samples.push(outcome.samples as f64);
        out.early_stops += usize::from(outcome.early_stop());

        let t = Instant::now();
        let matched = match precision {
            MatchPrecision::F64 => clusters.predict_with_margin(&query),
            MatchPrecision::F32Refined => clusters
                .predict_with_margin_f32(&query, &mut matching)
                .map(|(p, m, _)| (p, m)),
        };
        spans.close("cluster.match", t, Some(parent), request);
        let match_us = micros(t);
        out.match_us.push(match_us);

        // The same call untraced and traced: their difference is what
        // the span bookkeeping costs. Which goes first alternates per
        // query, so neither always finds the other's warm caches.
        let untraced = |out: &mut OnlineLayers| {
            let t = Instant::now();
            let answer = fleet.serve(record, &mut record_rng(seed, stream));
            out.serve_untraced_us.push(micros(t));
            std::hint::black_box(answer.ok());
        };
        if q % 2 == 0 {
            untraced(&mut out);
        }
        let t = Instant::now();
        let served = fleet.serve(record, &mut record_rng(seed, stream));
        spans.close("core.serve", t, Some(parent), request);
        let serve_us = micros(t);
        out.serve_us.push(serve_us);
        if q % 2 == 1 {
            untraced(&mut out);
        }
        out.stage_sum_us.push(route_us + embed_us + match_us);
        let (Ok(served), Ok((pred, _))) = (served, matched) else {
            out.mismatches += 1;
            continue;
        };
        if served.building != id
            || served.floor != pred.floor
            || served.distance.to_bits() != pred.distance.to_bits()
        {
            out.mismatches += 1;
        }

        let body = infer_body(&record_json(record), seed, request);
        let t = Instant::now();
        let decoded = serde_json::from_str::<InferRequest>(&body);
        spans.close("serve.decode", t, Some(parent), request);
        let decode_us = micros(t);
        out.decode_us.push(decode_us);
        std::hint::black_box(decoded.ok());

        let wire = PredictionBody::from(&served);
        let t = Instant::now();
        let encoded = serde_json::to_string(&wire).expect("bodies serialize");
        spans.close("serve.encode", t, Some(parent), request);
        let encode_us = micros(t);
        out.encode_us.push(encode_us);
        out.wire_sum_us.push(serve_us + decode_us + encode_us);

        let t = Instant::now();
        let (status, answer) = dispatch(state, "POST", "/v1/infer", body.as_bytes());
        spans.close("serve.dispatch", t, Some(parent), request);
        out.dispatch_us.push(micros(t));
        if status != 200 || answer != encoded {
            out.mismatches += 1;
        }
        spans.finish(parent);
    }
    out
}

/// Write-path timings on a fleet with a WAL attached.
#[derive(Default)]
pub struct DurableLayers {
    pub absorb_us: Vec<f64>,
    pub accepted: u64,
    pub wal_appends: u64,
    pub wal_fsyncs: u64,
    pub drain_ms: f64,
    pub publish_ms: Vec<f64>,
    pub checkpoint_bytes: u64,
    pub recover_replayed: u64,
    /// WAL appends == accepted absorbs, and the recovered fleet holds
    /// what the live one does.
    pub consistent: bool,
}

/// Absorbs `records` durably (streams `base + k`), drains the WAL,
/// publishes every shard (the checkpoint), absorbs a short tail that only
/// the WAL holds, then recovers a copy of `dir`.
pub fn durable(
    fleet: &GraficsFleet,
    dir: &Path,
    records: &[SignalRecord],
    seed: u64,
    base: u64,
    spans: &mut Spans,
) -> DurableLayers {
    let mut out = DurableLayers::default();
    let before = fleet.wal_stats();
    let tail = (records.len() / 8).max(1);
    let (body, tail_records) = records.split_at(records.len() - tail);
    let absorb = |k: usize, record: &SignalRecord, out: &mut DurableLayers, spans: &mut Spans| {
        let request = base + k as u64;
        let t = Instant::now();
        let ok = fleet.absorb_durable(record, seed, request).is_ok();
        spans.close("core.absorb", t, None, request);
        out.absorb_us.push(micros(t));
        out.accepted += u64::from(ok);
    };
    for (k, record) in body.iter().enumerate() {
        absorb(k, record, &mut out, spans);
    }
    let t = Instant::now();
    fleet.drain_wal().expect("WAL drains");
    spans.close("core.drain_wal", t, None, base);
    out.drain_ms = 1e3 * secs(t);
    for shard in fleet.shards() {
        let t = Instant::now();
        shard.publish();
        spans.close("core.publish", t, None, base);
        out.publish_ms.push(1e3 * secs(t));
    }
    out.checkpoint_bytes = checkpoint_bytes(dir);
    for (k, record) in tail_records.iter().enumerate() {
        absorb(body.len() + k, record, &mut out, spans);
    }
    fleet.drain_wal().expect("WAL drains");
    let after = fleet.wal_stats();
    out.wal_appends = after.appends - before.appends;
    out.wal_fsyncs = after.fsyncs - before.fsyncs;

    let copy = dir.with_extension("probe-copy");
    copy_dir(dir, &copy).expect("copy durable dir");
    let t = Instant::now();
    let (recovered, report) = GraficsFleet::recover(&copy).expect("recovery succeeds");
    spans.close("core.recover", t, None, base);
    out.recover_replayed = report.total_replayed();
    out.consistent = out.wal_appends == out.accepted
        && out.recover_replayed == tail_records.len() as u64
        && recovered.stats().total_resident_records() == fleet.stats().total_resident_records();
    drop(recovered);
    std::fs::remove_dir_all(&copy).ok();
    out
}

/// Bytes of every checkpoint file under `dir`.
pub fn checkpoint_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("checkpoint-"))
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Copies the regular files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// What the traced run probes, all taken from the workload's own inputs.
pub struct TraceInputs<'a> {
    pub workload: &'a str,
    pub seed: u64,
    /// The server's state: its fleet answers the read-path probes.
    pub state: &'a FleetState,
    pub probe_records: &'a [SignalRecord],
    /// A training corpus for the offline stages, and how often to run them.
    pub offline_train: &'a Dataset,
    pub offline_reps: usize,
    pub config: &'a GraficsConfig,
    /// A fleet with a WAL attached, and its directory.
    pub durable_fleet: &'a GraficsFleet,
    pub durable_dir: &'a Path,
    pub absorb_records: &'a [SignalRecord],
    /// Open-loop `/v1/infer` phases: request latency and generator lag.
    pub http: &'a [&'a crate::loadgen::Phase],
}

/// Stream indices of the probes, clear of every phase's.
const PROBE_STREAMS: u64 = 900_000_000;

/// Runs every probe and adds the per-layer metrics, the stage-sum
/// reconciliation and the tracing overhead to `outcome`; writes the span
/// log under `.perfbench_out/`.
pub fn collect(inputs: &TraceInputs<'_>, outcome: &mut crate::harness::Outcome) {
    use crate::harness::INFER;
    let mut spans = Spans::new();
    let offline_runs: Vec<OfflineLayers> = (0..inputs.offline_reps.max(1))
        .map(|r| {
            offline(
                inputs.offline_train,
                inputs.config,
                inputs.seed ^ 0x5eed,
                &mut spans,
                r as u64,
            )
        })
        .collect();
    let off =
        |f: &dyn Fn(&OfflineLayers) -> f64| median(&offline_runs.iter().map(f).collect::<Vec<_>>());
    let online = online(
        inputs.state,
        inputs.probe_records,
        inputs.seed,
        PROBE_STREAMS,
        &mut spans,
    );
    let wal = durable(
        inputs.durable_fleet,
        inputs.durable_dir,
        inputs.absorb_records,
        inputs.seed,
        PROBE_STREAMS + 1_000_000,
        &mut spans,
    );

    let request_us: Vec<f64> = inputs
        .http
        .iter()
        .flat_map(|p| p.latency_us[INFER].iter().copied())
        .collect();
    let gen_late: Vec<f64> = inputs
        .http
        .iter()
        .flat_map(|p| p.gen_late_us.iter().copied())
        .collect();
    let sent: u64 = inputs.http.iter().map(|p| p.total_sent()).sum();
    let dispatch_p50 = median(&online.dispatch_us);
    let stage_sum = off(&|o| o.graph_ms / 1e3 + o.eline_s + o.fit_s);
    let train_s = off(&|o| o.train_s);

    outcome.check(
        "stage path reproduces serve, dispatch and train",
        online.mismatches == 0 && offline_runs.iter().all(|o| o.identical),
        format!(
            "{} online mismatches over {} probes",
            online.mismatches,
            inputs.probe_records.len()
        ),
    );
    outcome.check(
        "probe WAL appends == accepted absorbs, recovery matches",
        wal.consistent,
        format!(
            "appends {} accepted {} replayed {}",
            wal.wal_appends, wal.accepted, wal.recover_replayed
        ),
    );
    outcome.account_ops("probe absorbs", wal.absorb_us.len() as u64, wal.accepted);

    outcome.layers = vec![
        ("graph.build_ms", off(&|o| o.graph_ms), "ms"),
        ("graph.edges", off(&|o| o.edges), "count"),
        ("embed.eline_s", off(&|o| o.eline_s), "s"),
        (
            "embed.eline_samples_per_s",
            off(&|o| o.eline_samples_per_s),
            "1/s",
        ),
        ("cluster.dissim_ms", off(&|o| o.dissim_ms), "ms"),
        ("cluster.fit_s", off(&|o| o.fit_s), "s"),
        ("cluster.agglomerate_s", off(&|o| o.agglomerate_s), "s"),
        ("cluster.fit_peak_rss_mb", off(&|o| o.fit_peak_rss_mb), "MB"),
        ("cluster.points", off(&|o| o.points), "count"),
        ("cluster.clusters", off(&|o| o.clusters), "count"),
        ("embed.online_us", median(&online.embed_us), "us"),
        (
            "embed.refine_samples_per_query",
            crate::stats::mean(&online.refine_samples),
            "count",
        ),
        ("embed.early_stop_ratio", online.early_stop_ratio(), "ratio"),
        ("cluster.match_us", median(&online.match_us), "us"),
        ("core.route_us", median(&online.route_us), "us"),
        (
            "core.route_probes",
            crate::stats::mean(&online.route_probes),
            "count",
        ),
        ("core.serve_us", median(&online.serve_us), "us"),
        ("serve.decode_us", median(&online.decode_us), "us"),
        ("serve.encode_us", median(&online.encode_us), "us"),
        ("serve.dispatch_us", dispatch_p50, "us"),
        (
            "serve.http_overhead_us",
            median(&request_us) - dispatch_p50,
            "us",
        ),
        ("core.absorb_us", median(&wal.absorb_us), "us"),
        ("core.wal_appends", wal.wal_appends as f64, "count"),
        ("core.wal_fsyncs", wal.wal_fsyncs as f64, "count"),
        (
            "core.wal_appends_per_fsync",
            wal.wal_appends as f64 / wal.wal_fsyncs.max(1) as f64,
            "ratio",
        ),
        ("core.drain_wal_ms", wal.drain_ms, "ms"),
        ("core.publish_p50_ms", median(&wal.publish_ms), "ms"),
        (
            "core.publish_max_ms",
            percentile(&wal.publish_ms, 1.0),
            "ms",
        ),
        (
            "core.checkpoint_bytes",
            wal.checkpoint_bytes as f64,
            "bytes",
        ),
        (
            "core.recover_replayed",
            wal.recover_replayed as f64,
            "count",
        ),
        ("bench.gen_late_p99_us", percentile(&gen_late, 0.99), "us"),
        ("bench.sent", sent as f64, "count"),
        ("recon.serve_err_pct", online.serve_recon_pct(), "%"),
        ("recon.dispatch_err_pct", online.dispatch_recon_pct(), "%"),
        (
            "recon.train_err_pct",
            100.0 * (stage_sum / train_s - 1.0),
            "%",
        ),
        ("trace.overhead_pct", online.overhead_pct(), "%"),
        ("trace.spans", spans.len() as f64, "count"),
    ];
    outcome.report.push(format!(
        "reconcile route+embed+match {:.1} us vs serve {:.1} us; serve+decode+encode {:.1} us vs dispatch {:.1} us; graph+eline+fit {:.3} s vs train {:.3} s",
        median(&online.stage_sum_us),
        median(&online.serve_us),
        median(&online.wire_sum_us),
        dispatch_p50,
        stage_sum,
        train_s,
    ));
    let path = Path::new(".perfbench_out")
        .join(format!("trace-{}-{}.jsonl", inputs.workload, inputs.seed));
    match spans.write(&path) {
        Ok(()) => outcome.report.push(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => outcome.report.push(format!("spans: not written ({e})")),
    }
}
