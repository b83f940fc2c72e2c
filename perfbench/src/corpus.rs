//! Seeded inputs and the offline steps every workload shares: simulate
//! buildings, split and label them the paper's way, train one shard per
//! building, and score held-out scans.

use crate::stats::timed;
use grafics_core::{record_rng, Grafics, GraficsConfig, GraficsFleet, ServingPolicy};
use grafics_data::BuildingModel;
use grafics_metrics::{ClassificationReport, ConfusionMatrix};
use grafics_types::{BuildingId, Dataset, FloorId, SignalRecord};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The paper's protocol: 70/30 split, four labelled scans per floor.
pub const TRAIN_RATIO: f64 = 0.7;
pub const LABELS_PER_FLOOR: usize = 4;
/// Seed of the fixed building layouts.
const LAYOUT_SEED: u64 = 0x06a7_f1c5;

/// One simulated building: its labelled-few training corpus and its
/// held-out scans with their true floors.
#[derive(Clone)]
pub struct Building {
    pub id: BuildingId,
    pub train: Dataset,
    pub test: Vec<(FloorId, SignalRecord)>,
}

fn building_rng(seed: u64, b: usize, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((b as u64) << 32)
            .wrapping_add(stream),
    )
}

/// Simulates every building's crowdsourced corpus from `seed` (the same
/// seed gives the same corpora) and applies the split and label budget.
/// The buildings themselves (AP positions and powers) are fixed per
/// workload: a seed draws the scans, the split and the labelled few, so
/// runs with different seeds measure the same buildings.
pub fn generate(models: &[BuildingModel], seed: u64) -> Vec<Building> {
    models
        .iter()
        .enumerate()
        .map(|(b, model)| {
            let layout = model.layout(&mut building_rng(LAYOUT_SEED, b, 0));
            let mut rng = building_rng(seed, b, 0);
            let ds = model
                .simulate_with_layout(&layout, &mut rng)
                .filter_rare_macs(2);
            let split = ds.split(TRAIN_RATIO, &mut rng).expect("valid split ratio");
            Building {
                id: BuildingId(b as u32),
                train: split.train.with_label_budget(LABELS_PER_FLOOR, &mut rng),
                test: split
                    .test
                    .samples()
                    .iter()
                    .map(|s| (s.ground_truth, s.record.clone()))
                    .collect(),
            }
        })
        .collect()
}

/// The building with draw `draw` of its labelled few: draw 0 is the one
/// [`generate`] made, later draws pick four other scans per floor from a
/// stream of their own.
pub fn redraw(building: Building, seed: u64, draw: usize) -> Building {
    if draw == 0 {
        return building;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (draw as u64).wrapping_mul(0x9e37_79b9));
    Building {
        train: building.train.with_label_budget(LABELS_PER_FLOOR, &mut rng),
        ..building
    }
}

/// Trains building `b` on its own seeded stream (serial training with a
/// fixed seed is bit-reproducible); returns the model and its wall time.
pub fn train_building(building: &Building, config: &GraficsConfig, seed: u64) -> (Grafics, f64) {
    let mut rng = building_rng(seed, building.id.0 as usize, 1);
    let (model, secs) = timed(|| Grafics::train(&building.train, config, &mut rng));
    (model.expect("the corpus trains"), secs)
}

/// Trains one shard per building into a fleet under `serving`; returns it
/// with every shard's `Grafics::train` wall time.
pub fn train_fleet(
    buildings: &[Building],
    config: &GraficsConfig,
    serving: ServingPolicy,
    seed: u64,
) -> (GraficsFleet, Vec<f64>) {
    let mut fleet = GraficsFleet::new();
    fleet.set_serving(serving);
    let mut times = Vec::with_capacity(buildings.len());
    for building in buildings {
        let (model, secs) = train_building(building, config, seed);
        times.push(secs);
        fleet.add_shard(building.id, model).expect("ids unique");
    }
    (fleet, times)
}

/// Every held-out scan of every building, in building order, with the
/// building it came from.
pub fn queries(buildings: &[Building]) -> Vec<(BuildingId, FloorId, SignalRecord)> {
    buildings
        .iter()
        .flat_map(|b| b.test.iter().map(|(f, r)| (b.id, *f, r.clone())))
        .collect()
}

/// Serves every query in process on stream `record_rng(seed, i)` and
/// scores the floors. Returns the report and how many queries were
/// answered.
pub fn score(
    fleet: &GraficsFleet,
    queries: &[(BuildingId, FloorId, SignalRecord)],
    seed: u64,
) -> (ClassificationReport, u64) {
    let mut cm = ConfusionMatrix::new();
    let mut answered = 0;
    for (i, (_, truth, record)) in queries.iter().enumerate() {
        let answer = fleet.serve(record, &mut record_rng(seed, i)).ok();
        // A refused scan counts as a miss, on a floor no building has.
        let predicted = answer.as_ref().map_or(FloorId(i16::MIN), |p| p.floor);
        cm.observe(*truth, predicted);
        answered += u64::from(answer.is_some());
    }
    (cm.report(), answered)
}

/// A record serialized once, so request bodies are built by splicing.
pub fn record_json(record: &SignalRecord) -> String {
    serde_json::to_string(record).expect("records serialize")
}

/// A `/v1/infer` body that names its RNG stream.
pub fn infer_body(record_json: &str, seed: u64, index: u64) -> String {
    format!("{{\"record\":{record_json},\"seed\":{seed},\"index\":{index}}}")
}

/// A `/v1/absorb` body.
pub fn absorb_body(record_json: &str) -> String {
    format!("{{\"record\":{record_json}}}")
}
