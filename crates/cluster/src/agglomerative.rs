//! The constrained agglomerative engine: the condensed pairwise
//! dissimilarity matrix of Eq. (11) and the merge loop over it.
//!
//! The merge loop is Müllner's nearest-neighbour-list "generic" algorithm
//! (arXiv:1109.2378): every active cluster caches its nearest *eligible*
//! partner — one the one-label-per-cluster constraint lets it merge with —
//! and only caches a merge invalidates are rescanned. Memory is the
//! O(n²/2) `f64` matrix plus O(n) state; the order of merges, exact
//! ties included, is that of a min-heap over `(distance, a, b)`, so the
//! fitted model does not depend on how the minimum is found.

use grafics_types::RowMatrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Linkage criterion used for the cluster-to-cluster distance.
///
/// The paper uses group-average linkage (Eq. (11)); single and complete
/// linkage are provided for ablations. All three are maintained
/// incrementally via the Lance–Williams recurrence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Linkage {
    /// Mean pairwise distance (UPGMA) — the paper's Eq. (11).
    #[default]
    Average,
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance.
    Complete,
}

/// Configuration for [`crate::ClusterModel::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusteringConfig {
    /// Linkage criterion.
    pub linkage: Linkage,
    /// If `true` (the paper's algorithm), two clusters that both contain a
    /// labelled sample may never merge, so the final clustering has exactly
    /// one labelled sample per cluster. If `false` (ablation), merging is
    /// unconstrained and stops when the cluster count reaches the number of
    /// labelled samples; clusters are then labelled by majority vote of
    /// their labelled members.
    pub constrained: bool,
    /// Record the merge history (needed for the Fig. 8 progression plots;
    /// costs O(n) memory).
    pub record_history: bool,
    /// Worker threads for the O(n²·d) initial dissimilarity matrix
    /// (Eq. (11) seeds every merge with all pairwise ℓ2 distances). The
    /// agglomeration itself is inherently sequential and always serial, so
    /// the fitted model is **identical for any thread count** — entries
    /// are pure functions of their two points.
    pub threads: usize,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            linkage: Linkage::Average,
            constrained: true,
            record_history: false,
            threads: 1,
        }
    }
}

/// One merge event of the agglomeration, for progression visualisation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MergeStep {
    /// Surviving cluster root (an input point index).
    pub kept: usize,
    /// Absorbed cluster root.
    pub absorbed: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f64,
}

/// Errors from clustering.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// No input points were provided.
    Empty,
    /// No point carries a label, so clusters cannot be floor-labelled.
    NoLabeledSamples,
    /// Input embeddings have inconsistent dimensions.
    DimensionMismatch {
        /// Dimension of the first point.
        expected: usize,
        /// Offending dimension encountered.
        found: usize,
    },
    /// A query embedding's dimension does not match the model.
    QueryDimensionMismatch {
        /// Model dimension.
        expected: usize,
        /// Query dimension.
        found: usize,
    },
    /// An embedding coordinate was NaN or infinite.
    NonFiniteInput,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Empty => write!(f, "no points to cluster"),
            ClusterError::NoLabeledSamples => {
                write!(f, "at least one labelled sample is required")
            }
            ClusterError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "embedding dimension mismatch: expected {expected}, found {found}"
                )
            }
            ClusterError::QueryDimensionMismatch { expected, found } => {
                write!(
                    f,
                    "query dimension mismatch: expected {expected}, found {found}"
                )
            }
            ClusterError::NonFiniteInput => write!(f, "embeddings must be finite"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Result of the raw agglomeration: for each input point, the root index of
/// the cluster it ended in, plus the merge history.
pub(crate) struct Agglomeration {
    pub roots: Vec<usize>,
    pub history: Vec<MergeStep>,
}

/// "No eligible partner" in the nearest-neighbour cache.
const NONE: usize = usize::MAX;

/// Runs constrained agglomerative clustering over the condensed distance
/// matrix.
///
/// `labeled[i]` marks points that carry a floor label. A pair is
/// *eligible* while both roots are active and — in constrained mode — not
/// both labelled. Row `i` caches its nearest eligible partner `j < i`
/// (the matrix's contiguous direction; smallest `j` among exact ties).
/// Each merge takes the global minimum of `(distance, a, b)` over the
/// cache, keeps the lower index `a`, absorbs `b`, applies the
/// Lance–Williams update to `a`'s distances, and rescans row `a` plus the
/// rows whose cached partner was absorbed, moved away or became
/// ineligible. That is the pop order of the historical stamped candidate
/// heap, tie-break included, so roots and history are bit-identical to
/// it. Returns once no eligible pair is left (constrained mode) or the
/// cluster count reaches `stop_at`.
pub(crate) fn agglomerate(
    dist: &mut DistanceMatrix,
    labeled: &[bool],
    config: &ClusteringConfig,
    stop_at: usize,
) -> Agglomeration {
    let n = labeled.len();
    let mut parent: Vec<usize> = (0..n).collect();
    let mut size: Vec<f64> = vec![1.0; n];
    let mut has_label: Vec<bool> = labeled.to_vec();
    let mut active: Vec<bool> = vec![true; n];
    // Row i's nearest eligible partner j < i and its distance.
    let mut nn: Vec<usize> = vec![NONE; n];
    let mut nn_dist: Vec<f64> = vec![f64::INFINITY; n];
    let mut n_active = n;
    let mut history = Vec::new();

    let scan = |dist: &DistanceMatrix, active: &[bool], has_label: &[bool], i: usize| {
        let blocked_row = config.constrained && has_label[i];
        let (mut best, mut best_d) = (NONE, f64::INFINITY);
        // Descending with `<=`: the smallest j wins exact ties.
        for (j, &d) in dist.row(i).iter().enumerate().rev() {
            if d <= best_d && active[j] && !(blocked_row && has_label[j]) {
                (best, best_d) = (j, d);
            }
        }
        (best, best_d)
    };
    for i in 1..n {
        (nn[i], nn_dist[i]) = scan(dist, &active, &has_label, i);
    }

    while n_active > stop_at {
        // Global minimum of (distance, a, b) with a = nn[b] < b.
        let mut b = NONE;
        for i in 1..n {
            if nn[i] != NONE
                && (b == NONE
                    || nn_dist[i] < nn_dist[b]
                    || (nn_dist[i] == nn_dist[b] && nn[i] < nn[b]))
            {
                b = i;
            }
        }
        if b == NONE {
            break; // every remaining pair is blocked
        }
        let a = nn[b];
        // Merge b into a.
        active[b] = false;
        nn[b] = NONE;
        parent[b] = a;
        has_label[a] = has_label[a] || has_label[b];
        n_active -= 1;
        if config.record_history {
            history.push(MergeStep {
                kept: a,
                absorbed: b,
                distance: nn_dist[b],
            });
        }

        // Lance–Williams update of a's distances to every other active
        // root; rows above a hold their entry for a, so their caches are
        // refreshed here, row a's own once its prefix is updated.
        for k in 0..n {
            if k == a || !active[k] {
                continue;
            }
            let dka = dist.get(k, a);
            let dkb = dist.get(k, b);
            let new = match config.linkage {
                Linkage::Average => (size[a] * dka + size[b] * dkb) / (size[a] + size[b]),
                Linkage::Single => dka.min(dkb),
                Linkage::Complete => dka.max(dkb),
            };
            dist.set(k, a, new);
            if k < a {
                continue;
            }
            let eligible = !(config.constrained && has_label[k] && has_label[a]);
            if nn[k] == b || (nn[k] == a && !(eligible && new <= nn_dist[k])) {
                (nn[k], nn_dist[k]) = scan(dist, &active, &has_label, k);
            } else if eligible
                && (nn[k] == a || new < nn_dist[k] || (new == nn_dist[k] && a < nn[k]))
            {
                (nn[k], nn_dist[k]) = (a, new);
            }
        }
        size[a] += size[b];
        (nn[a], nn_dist[a]) = scan(dist, &active, &has_label, a);
    }

    // Merges keep the lower index, so parent[i] <= i and one ascending
    // pass resolves every root.
    let mut roots = parent;
    for i in 0..n {
        roots[i] = roots[roots[i]];
    }
    Agglomeration { roots, history }
}

/// Offset of row `a`'s first entry in the condensed matrix.
#[inline]
fn condensed_offset(a: usize) -> usize {
    a * (a - 1) / 2
}

/// Rows of the b-axis kept resident per tile: 64 rows × 64 dims × 8 B =
/// 32 KiB at the largest benched dimension — sized so one transposed
/// b-tile stays L1-hot while every a-row above it streams past once.
const TILE_B: usize = 64;

/// Fills rows `row_range` of the condensed lower-triangular matrix,
/// cache-blocked and lane-parallel: the b-axis is processed in
/// [`TILE_B`]-row tiles that are **transposed to coordinate-major**
/// scratch once per tile, so the inner loop updates `width` independent
/// per-pair accumulators from *contiguous* memory — the form the
/// autovectorizer turns into packed `f64` FMA/sqrt lanes. Per-pair math
/// is exactly the historical sequential `Σ (x−y)²` (ascending `d`)
/// followed by one `sqrt` — the lanes are different *pairs*, never a
/// reassociated reduction — so every entry is bit-identical to the
/// row-by-row build (and to any thread count).
/// `chunk` must start at the condensed offset of `row_range.start`.
fn fill_rows(points: &RowMatrix<f64>, row_range: std::ops::Range<usize>, chunk: &mut [f64]) {
    let dim = points.cols();
    let base = condensed_offset(row_range.start);
    // Transposed tile: trans[d * w + j] = points[b0 + j][d].
    let mut trans = vec![0.0f64; TILE_B * dim];
    let mut acc = [0.0f64; TILE_B];
    let mut b0 = 0;
    // Entries (a, b) require b < a <= row_range.end - 1.
    while b0 < row_range.end - 1 {
        let w = TILE_B.min(row_range.end - 1 - b0);
        let a_start = row_range.start.max(b0 + 1);
        for (j, b) in (b0..b0 + w).enumerate() {
            let row = points.row(b);
            for d in 0..dim {
                trans[d * w + j] = row[d];
            }
        }
        for a in a_start..row_range.end {
            let width = (b0 + w).min(a) - b0;
            let row_a = points.row(a);
            acc[..width].fill(0.0);
            for (d, &x) in row_a.iter().enumerate() {
                let lane = &trans[d * w..d * w + width];
                for (slot, &t) in acc[..width].iter_mut().zip(lane) {
                    let diff = x - t;
                    *slot += diff * diff;
                }
            }
            let start = condensed_offset(a) - base + b0;
            for (slot, &sq) in chunk[start..start + width].iter_mut().zip(&acc[..width]) {
                *slot = sq.sqrt();
            }
        }
        b0 += w;
    }
}

/// The condensed (lower-triangular, row-major) pairwise ℓ2 dissimilarity
/// matrix of Eq. (11): entry `a*(a-1)/2 + b` holds `‖points[a] −
/// points[b]‖₂` for `b < a`. The input is the workspace's contiguous
/// [`RowMatrix`] (one flat buffer, no per-row pointer chasing), and the
/// build is cache-blocked (see [`fill_rows`]) — per-pair math unchanged,
/// so entries are bit-identical to the historical row-by-row build.
///
/// With `threads >= 2` the rows are partitioned into contiguous bands of
/// roughly equal entry counts and computed on a scoped worker pool. Every
/// entry is a pure function of its two points, so the output is identical
/// for any thread count.
#[must_use]
pub fn dissimilarity_matrix(points: &RowMatrix<f64>, threads: usize) -> Vec<f64> {
    let n = points.rows();
    if n < 2 {
        return Vec::new();
    }
    let mut data = vec![0.0; n * (n - 1) / 2];
    // Below ~128 points the matrix is a few thousand entries and thread
    // spawn overhead dominates; keep it serial.
    if threads <= 1 || n < 128 {
        fill_rows(points, 1..n, &mut data);
        return data;
    }

    // Partition rows so every band has ~equal entries. Row `a` contributes
    // `a` entries, so band boundaries follow sqrt-spaced row indices.
    let workers = threads.min(n - 1);
    let total = data.len();
    let mut bands: Vec<(std::ops::Range<usize>, &mut [f64])> = Vec::with_capacity(workers);
    let mut rest = data.as_mut_slice();
    let mut row = 1usize;
    for w in 0..workers {
        let target = total * (w + 1) / workers;
        let mut end_row = row;
        // First row of band w starts at offset row*(row-1)/2; advance until
        // the cumulative entry count reaches this band's share.
        while end_row < n && end_row * (end_row + 1) / 2 <= target {
            end_row += 1;
        }
        let end_row = if w == workers - 1 {
            n
        } else {
            end_row.max(row)
        };
        let band_len = end_row * (end_row - 1) / 2 - row * (row - 1) / 2;
        let (chunk, tail) = rest.split_at_mut(band_len);
        rest = tail;
        bands.push((row..end_row, chunk));
        row = end_row;
    }

    rayon::scope(|scope| {
        for (rows, chunk) in bands {
            scope.spawn(move |_| fill_rows(points, rows, chunk));
        }
    });
    data
}

/// Lower-triangular dense distance matrix over `n` points, `f64`.
pub(crate) struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Computes all pairwise Euclidean distances on `threads` workers.
    pub(crate) fn from_points(points: &RowMatrix<f64>, threads: usize) -> Self {
        DistanceMatrix {
            n: points.rows(),
            data: dissimilarity_matrix(points, threads),
        }
    }

    #[inline]
    fn offset(&self, a: usize, b: usize) -> usize {
        debug_assert!(a != b && a < self.n && b < self.n);
        let (hi, lo) = if a > b { (a, b) } else { (b, a) };
        hi * (hi - 1) / 2 + lo
    }

    #[inline]
    pub(crate) fn get(&self, a: usize, b: usize) -> f64 {
        self.data[self.offset(a, b)]
    }

    #[inline]
    pub(crate) fn set(&mut self, a: usize, b: usize, v: f64) {
        let o = self.offset(a, b);
        self.data[o] = v;
    }

    /// Row `a`'s entries against every `b < a`, contiguous (empty for 0).
    #[inline]
    fn row(&self, a: usize) -> &[f64] {
        let start = a * a.saturating_sub(1) / 2;
        &self.data[start..start + a]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafics_types::kernels::euclidean_f64;

    fn pts(coords: &[(f64, f64)]) -> RowMatrix<f64> {
        let mut m = RowMatrix::with_cols(2);
        for &(x, y) in coords {
            m.push_row(&[x, y]);
        }
        m
    }

    #[test]
    fn distance_matrix_symmetric_access() {
        let p = pts(&[(0.0, 0.0), (3.0, 4.0), (6.0, 8.0)]);
        let m = DistanceMatrix::from_points(&p, 1);
        assert!((m.get(0, 1) - 5.0).abs() < 1e-12);
        assert!((m.get(1, 0) - 5.0).abs() < 1e-12);
        assert!((m.get(0, 2) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn constrained_two_blobs() {
        let p = pts(&[(0.0, 0.0), (0.1, 0.0), (10.0, 0.0), (10.1, 0.0)]);
        let labeled = vec![true, false, true, false];
        let mut dist = DistanceMatrix::from_points(&p, 1);
        let agg = agglomerate(&mut dist, &labeled, &ClusteringConfig::default(), 0);
        assert_eq!(agg.roots[0], agg.roots[1]);
        assert_eq!(agg.roots[2], agg.roots[3]);
        assert_ne!(agg.roots[0], agg.roots[2]);
    }

    #[test]
    fn labeled_pair_never_merges_even_when_close() {
        let p = pts(&[(0.0, 0.0), (0.001, 0.0)]);
        let labeled = vec![true, true];
        let mut dist = DistanceMatrix::from_points(&p, 1);
        let agg = agglomerate(&mut dist, &labeled, &ClusteringConfig::default(), 0);
        assert_ne!(agg.roots[0], agg.roots[1]);
    }

    #[test]
    fn unconstrained_stops_at_target_count() {
        let p = pts(&[(0.0, 0.0), (0.1, 0.0), (5.0, 0.0), (5.1, 0.0), (10.0, 0.0)]);
        let labeled = vec![true, true, false, false, false];
        let cfg = ClusteringConfig {
            constrained: false,
            ..Default::default()
        };
        let mut dist = DistanceMatrix::from_points(&p, 1);
        let agg = agglomerate(&mut dist, &labeled, &cfg, 2);
        let mut roots: Vec<usize> = agg.roots.clone();
        roots.sort_unstable();
        roots.dedup();
        assert_eq!(roots.len(), 2);
    }

    #[test]
    fn history_recorded_in_merge_order() {
        let p = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (50.0, 0.0)]);
        let labeled = vec![true, false, false, true];
        let cfg = ClusteringConfig {
            record_history: true,
            ..Default::default()
        };
        let mut dist = DistanceMatrix::from_points(&p, 1);
        let agg = agglomerate(&mut dist, &labeled, &cfg, 0);
        assert_eq!(agg.history.len(), 2);
        assert!(agg.history[0].distance <= agg.history[1].distance);
    }

    #[test]
    fn average_linkage_lance_williams_matches_naive() {
        // Irregular points; verify the incrementally maintained average
        // linkage equals the brute-force mean pairwise distance at the
        // first non-trivial merge.
        let p = pts(&[(0.0, 0.0), (1.0, 0.0), (4.0, 0.0), (9.0, 3.0)]);
        let labeled = vec![false; 4];
        let cfg = ClusteringConfig {
            record_history: true,
            constrained: false,
            ..Default::default()
        };
        let mut dist = DistanceMatrix::from_points(&p, 1);
        let agg = agglomerate(&mut dist, &labeled, &cfg, 2);
        // First merge: {0},{1} at distance 1. Second merge candidates:
        // d({0,1},{2}) = (4+3)/2 = 3.5 ; d({0,1},{3}) = (sqrt(90)+sqrt(73))/2 ≈ 9.02
        // d({2},{3}) = sqrt(25+9) ≈ 5.83 → expect {0,1}+{2} at 3.5.
        assert_eq!(agg.history[0].distance, 1.0);
        assert!((agg.history[1].distance - 3.5).abs() < 1e-9);
    }

    #[test]
    fn parallel_dissimilarity_matches_serial_exactly() {
        // Deterministic pseudo-random points, enough to cross the n >= 128
        // parallel threshold.
        let points = RowMatrix::from_rows(
            &(0..200)
                .map(|i| {
                    (0..8)
                        .map(|d| (((i * 31 + d * 17) % 97) as f64).sin() * 10.0)
                        .collect()
                })
                .collect::<Vec<Vec<f64>>>(),
        );
        let serial = dissimilarity_matrix(&points, 1);
        for threads in [2, 3, 4, 7] {
            let parallel = dissimilarity_matrix(&points, threads);
            assert_eq!(serial, parallel, "threads={threads} diverged from serial");
        }
        assert_eq!(serial.len(), 200 * 199 / 2);
    }

    /// The cache-blocked build must be bit-identical to the plain
    /// row-by-row reference at every size that exercises tile
    /// boundaries (partial tiles, exact multiples, and the 4-pair tail).
    #[test]
    fn blocked_build_matches_rowwise_reference_bitwise() {
        for (n, dim) in [
            (3usize, 2usize),
            (17, 3),
            (64, 8),
            (65, 8),
            (130, 33),
            (200, 5),
        ] {
            let points = RowMatrix::from_rows(
                &(0..n)
                    .map(|i| {
                        (0..dim)
                            .map(|d| (((i * 29 + d * 13) % 89) as f64 * 0.37).sin() * 4.0)
                            .collect()
                    })
                    .collect::<Vec<Vec<f64>>>(),
            );
            let blocked = dissimilarity_matrix(&points, 1);
            let mut reference = vec![0.0; n * (n - 1) / 2];
            let mut idx = 0;
            for a in 1..n {
                for b in 0..a {
                    reference[idx] = euclidean_f64(points.row(a), points.row(b));
                    idx += 1;
                }
            }
            assert_eq!(blocked, reference, "n={n} dim={dim}");
        }
    }

    #[test]
    fn dissimilarity_degenerate_inputs() {
        assert!(dissimilarity_matrix(&RowMatrix::from_rows(&[]), 4).is_empty());
        assert!(dissimilarity_matrix(&RowMatrix::from_rows(&[vec![1.0, 2.0]]), 4).is_empty());
        let two = dissimilarity_matrix(&RowMatrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0]]), 4);
        assert_eq!(two, vec![5.0]);
    }

    #[test]
    fn single_and_complete_linkage() {
        let p = pts(&[(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]);
        let labeled = vec![false; 3];
        for (linkage, expected_second) in [(Linkage::Single, 2.0), (Linkage::Complete, 3.0)] {
            let cfg = ClusteringConfig {
                linkage,
                constrained: false,
                record_history: true,
                ..Default::default()
            };
            let mut dist = DistanceMatrix::from_points(&p, 1);
            let agg = agglomerate(&mut dist, &labeled, &cfg, 1);
            assert_eq!(agg.history[0].distance, 1.0);
            assert!(
                (agg.history[1].distance - expected_second).abs() < 1e-9,
                "{linkage:?}: got {}",
                agg.history[1].distance
            );
        }
    }
}
