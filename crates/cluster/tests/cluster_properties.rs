//! Property-based tests of the clustering invariants the paper's
//! algorithm guarantees (§IV-C), plus parity proofs that the flat-matrix
//! math backbone reproduces the historical nested-`Vec` / per-candidate
//! `sqrt` paths bit for bit, and that the nearest-neighbour-cache
//! agglomeration reproduces the historical candidate-heap one.

use grafics_cluster::{dissimilarity_matrix, ClusterModel, ClusteringConfig, Linkage, MergeStep};
use grafics_types::{FloorId, RowMatrix};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Points in 3-D with a handful of labels sprinkled in.
fn arb_problem() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Option<FloorId>>)> {
    (3usize..40).prop_flat_map(|n| {
        let points = prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 3), n..=n);
        let labels = prop::collection::vec(prop::option::weighted(0.2, 0i16..4), n..=n);
        (points, labels).prop_map(|(points, labels)| {
            let mut labels: Vec<Option<FloorId>> =
                labels.into_iter().map(|l| l.map(FloorId)).collect();
            // Guarantee at least one label.
            if labels.iter().all(|l| l.is_none()) {
                labels[0] = Some(FloorId(0));
            }
            (points, labels)
        })
    })
}

/// Heap entry of the oracle: candidate merge of roots `a < b`, smallest
/// distance first, exact ties broken by `(a, b)`; stale once either
/// root's merge stamp moved on.
struct Candidate {
    dist: f64,
    a: usize,
    b: usize,
    stamp_a: u32,
    stamp_b: u32,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| (other.a, other.b).cmp(&(self.a, self.b)))
    }
}

/// The historical stamped-candidate-heap agglomeration, kept as the
/// oracle for the library's heap-free one: returns each point's root and
/// the full merge history.
fn heap_agglomerate(
    points: &RowMatrix<f64>,
    labeled: &[bool],
    config: &ClusteringConfig,
    stop_at: usize,
) -> (Vec<usize>, Vec<MergeStep>) {
    let n = labeled.len();
    let mut dist = dissimilarity_matrix(points, 1);
    let at = |a: usize, b: usize| {
        let (hi, lo) = if a > b { (a, b) } else { (b, a) };
        hi * (hi - 1) / 2 + lo
    };
    let mut parent: Vec<usize> = (0..n).collect();
    let mut size = vec![1.0f64; n];
    let mut has_label = labeled.to_vec();
    let mut active = vec![true; n];
    let mut stamp = vec![0u32; n];
    let mut n_active = n;
    let mut history = Vec::new();
    let mut heap = BinaryHeap::new();
    for a in 0..n {
        for b in (a + 1)..n {
            heap.push(Candidate {
                dist: dist[at(a, b)],
                a,
                b,
                stamp_a: 0,
                stamp_b: 0,
            });
        }
    }
    while n_active > stop_at {
        let Some(c) = heap.pop() else { break };
        let (a, b) = (c.a, c.b);
        if !active[a] || !active[b] || stamp[a] != c.stamp_a || stamp[b] != c.stamp_b {
            continue;
        }
        if config.constrained && has_label[a] && has_label[b] {
            continue;
        }
        active[b] = false;
        parent[b] = a;
        has_label[a] = has_label[a] || has_label[b];
        stamp[a] += 1;
        n_active -= 1;
        history.push(MergeStep {
            kept: a,
            absorbed: b,
            distance: c.dist,
        });
        for k in 0..n {
            if k == a || k == b || !active[k] {
                continue;
            }
            let (dka, dkb) = (dist[at(k, a)], dist[at(k, b)]);
            let new = match config.linkage {
                Linkage::Average => (size[a] * dka + size[b] * dkb) / (size[a] + size[b]),
                Linkage::Single => dka.min(dkb),
                Linkage::Complete => dka.max(dkb),
                _ => unreachable!("oracle covers the three linkages"),
            };
            dist[at(k, a)] = new;
            heap.push(Candidate {
                dist: new,
                a: a.min(k),
                b: a.max(k),
                stamp_a: stamp[a.min(k)],
                stamp_b: stamp[a.max(k)],
            });
        }
        size[a] += size[b];
    }
    let roots = (0..n)
        .map(|mut r| {
            while parent[r] != r {
                r = parent[r];
            }
            r
        })
        .collect();
    (roots, history)
}

/// Agglomeration inputs: continuous points, or points on a tiny integer
/// grid so that duplicates and exactly equal distances are common;
/// labelled fractions from sparse up to all-labelled (the 1-NN regime).
#[allow(clippy::type_complexity)]
fn arb_agglomeration() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<bool>, ClusteringConfig)> {
    (2usize..60, 1usize..4, any::<bool>(), 0usize..4).prop_flat_map(|(n, dim, grid, density)| {
        let coord = (-200i32..200).prop_map(move |c| {
            if grid {
                f64::from(c.rem_euclid(5) - 2)
            } else {
                f64::from(c) * 0.503
            }
        });
        let points = prop::collection::vec(prop::collection::vec(coord, dim..=dim), n..=n);
        let p_label = [0.05, 0.2, 0.5, 1.0][density];
        let labeled = prop::collection::vec(prop::option::weighted(p_label, Just(())), n..=n);
        let config = (0usize..3, any::<bool>(), any::<bool>()).prop_map(
            |(linkage, constrained, record_history)| ClusteringConfig {
                linkage: [Linkage::Average, Linkage::Single, Linkage::Complete][linkage],
                constrained,
                record_history,
                threads: 1,
            },
        );
        (points, labeled, config).prop_map(|(points, labeled, config)| {
            let mut labeled: Vec<bool> = labeled.iter().map(Option::is_some).collect();
            labeled[0] = labeled[0] || labeled.iter().all(|&l| !l);
            (points, labeled, config)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The result is a partition: every point in exactly one cluster.
    #[test]
    fn clustering_is_a_partition((points, labels) in arb_problem()) {
        let model = ClusterModel::fit_rows(&points, &labels, &ClusteringConfig::default()).unwrap();
        let mut seen = vec![false; points.len()];
        for c in model.clusters() {
            for &m in &c.members {
                prop_assert!(!seen[m]);
                seen[m] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Exactly one labelled sample per cluster; cluster count equals the
    /// number of labelled samples; each cluster carries its sample's floor.
    #[test]
    fn one_label_per_cluster((points, labels) in arb_problem()) {
        let model = ClusterModel::fit_rows(&points, &labels, &ClusteringConfig::default()).unwrap();
        let n_labeled = labels.iter().filter(|l| l.is_some()).count();
        prop_assert_eq!(model.clusters().len(), n_labeled);
        for c in model.clusters() {
            let labeled: Vec<usize> =
                c.members.iter().copied().filter(|&m| labels[m].is_some()).collect();
            prop_assert_eq!(labeled.len(), 1);
            prop_assert_eq!(labels[labeled[0]].unwrap(), c.floor);
        }
    }

    /// Centroids are member means and live in the convex hull's bounding
    /// box.
    #[test]
    fn centroids_are_means((points, labels) in arb_problem()) {
        let model = ClusterModel::fit_rows(&points, &labels, &ClusteringConfig::default()).unwrap();
        for c in model.clusters() {
            #[allow(clippy::needless_range_loop)]
            for d in 0..3 {
                let mean: f64 =
                    c.members.iter().map(|&m| points[m][d]).sum::<f64>() / c.members.len() as f64;
                prop_assert!((c.centroid[d] - mean).abs() < 1e-9);
                let lo = c.members.iter().map(|&m| points[m][d]).fold(f64::INFINITY, f64::min);
                let hi = c.members.iter().map(|&m| points[m][d]).fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(c.centroid[d] >= lo - 1e-9 && c.centroid[d] <= hi + 1e-9);
            }
        }
    }

    /// Prediction always returns a floor that exists among the labels, and
    /// the reported distance is non-negative.
    #[test]
    fn predictions_are_well_formed(
        (points, labels) in arb_problem(),
        query in prop::collection::vec(-100.0f64..100.0, 3),
    ) {
        let model = ClusterModel::fit_rows(&points, &labels, &ClusteringConfig::default()).unwrap();
        let pred = model.predict(&query).unwrap();
        prop_assert!(labels.iter().flatten().any(|&f| f == pred.floor));
        prop_assert!(pred.distance >= 0.0 && pred.distance.is_finite());
        prop_assert!(pred.cluster < model.clusters().len());
    }

    /// Virtual labels agree with cluster floors.
    #[test]
    fn virtual_labels_consistent((points, labels) in arb_problem()) {
        let model = ClusterModel::fit_rows(&points, &labels, &ClusteringConfig::default()).unwrap();
        let virt = model.virtual_labels();
        for (i, &cluster_idx) in model.assignment().iter().enumerate() {
            prop_assert_eq!(virt[i], model.clusters()[cluster_idx].floor);
        }
    }

    /// The flat-matrix, cache-blocked dissimilarity build is bit-identical
    /// to the seed's nested-`Vec` row-by-row reference on random inputs of
    /// random dimension (the tiling only reorders *which pair* is computed
    /// when, never the per-pair arithmetic).
    #[test]
    fn flat_dissimilarity_bit_identical_to_nested_seed_path(
        (dim, points) in (1usize..40).prop_flat_map(|dim| {
            (Just(dim),
             prop::collection::vec(prop::collection::vec(-100.0f64..100.0, dim), 2..150))
        }),
    ) {
        let _ = dim;
        let flat = dissimilarity_matrix(&RowMatrix::from_rows(&points), 1);
        // The pre-backbone reference: pointer-chased rows, sequential
        // Σ(x−y)² then sqrt, row-major condensed order.
        let mut reference = Vec::with_capacity(points.len() * (points.len() - 1) / 2);
        for a in 1..points.len() {
            for b in 0..a {
                let sq: f64 = points[a]
                    .iter()
                    .zip(&points[b])
                    .map(|(&x, &y)| (x - y) * (x - y))
                    .sum();
                reference.push(sq.sqrt());
            }
        }
        prop_assert_eq!(flat.len(), reference.len());
        for (i, (f, r)) in flat.iter().zip(&reference).enumerate() {
            prop_assert_eq!(f.to_bits(), r.to_bits(), "entry {} diverged", i);
        }
    }

    /// The sqrt-free matching paths (squared-distance sweeps, winners-only
    /// sqrt) agree bit for bit with a two-pass reference that pays a sqrt
    /// per candidate, across predict / predict_topk / predict_with_margin.
    #[test]
    fn sqrt_free_matching_matches_two_pass_sqrt_reference(
        (points, labels) in arb_problem(),
        query in prop::collection::vec(-100.0f64..100.0, 3),
        k in 1usize..6,
    ) {
        let model = ClusterModel::fit_rows(&points, &labels, &ClusteringConfig::default()).unwrap();
        // Reference: the historical per-candidate sqrt sweep.
        let dists: Vec<f64> = model
            .clusters()
            .iter()
            .map(|c| {
                c.centroid
                    .iter()
                    .zip(&query)
                    .map(|(&x, &y)| (x - y) * (x - y))
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        let best = dists
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;

        let pred = model.predict(&query).unwrap();
        prop_assert_eq!(pred.cluster, best);
        prop_assert_eq!(pred.distance.to_bits(), dists[best].to_bits());

        // Top-k: full (distance, index) ranking with per-candidate sqrt.
        let mut ranked: Vec<(usize, f64)> = dists.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        let top = model.predict_topk(&query, k).unwrap();
        prop_assert_eq!(top.len(), k.min(dists.len()));
        for (got, want) in top.iter().zip(&ranked) {
            prop_assert_eq!(got.0, model.clusters()[want.0].floor);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
        }

        // Margin: nearest different-floor distance minus best distance.
        let rival = dists
            .iter()
            .enumerate()
            .filter(|&(i, _)| model.clusters()[i].floor != pred.floor)
            .map(|(_, &d)| d)
            .fold(f64::INFINITY, f64::min);
        let (mpred, margin) = model.predict_with_margin(&query).unwrap();
        prop_assert_eq!(mpred, pred);
        prop_assert_eq!(margin.to_bits(), (rival - pred.distance).to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The heap-free agglomeration is bit-identical to the historical
    /// stamped candidate heap: same final roots and — when recorded — the
    /// same merge history, distances compared bit for bit, across every
    /// linkage, constrained and unconstrained, with exact-distance ties
    /// from duplicate and grid points hitting the `(a, b)` tie-break.
    #[test]
    fn agglomeration_matches_candidate_heap_oracle(
        (points, labeled, config) in arb_agglomeration(),
    ) {
        let matrix = RowMatrix::from_rows(&points);
        let labels: Vec<Option<FloorId>> =
            labeled.iter().map(|&l| l.then_some(FloorId(0))).collect();
        let n_labeled = labeled.iter().filter(|&&l| l).count();
        let model = ClusterModel::fit(&matrix, &labels, &config).unwrap();
        let (want_roots, want_history) = heap_agglomerate(&matrix, &labeled, &config, n_labeled);

        // Roots are the lowest member of each cluster (merges keep the
        // lower index).
        let mut roots = vec![usize::MAX; points.len()];
        for c in model.clusters() {
            let root = *c.members.iter().min().unwrap();
            for &m in &c.members {
                roots[m] = root;
            }
        }
        prop_assert_eq!(roots, want_roots);
        if config.record_history {
            prop_assert_eq!(model.history().len(), want_history.len());
            for (got, want) in model.history().iter().zip(&want_history) {
                prop_assert_eq!((got.kept, got.absorbed), (want.kept, want.absorbed));
                prop_assert_eq!(got.distance.to_bits(), want.distance.to_bits());
            }
        } else {
            prop_assert!(model.history().is_empty());
        }
    }
}
