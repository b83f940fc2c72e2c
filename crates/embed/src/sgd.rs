//! Low-level SGD primitives shared by offline training and online
//! embedding: one skip-gram-with-negative-sampling step over a directed
//! (source → target) pair, plus the sigmoid lookup table reused by both
//! the serial and the Hogwild trainers.
//!
//! The dot / axpy kernels themselves live in the workspace-wide
//! [`grafics_types::kernels`] layer (one copy shared with the cluster
//! and `nn` crates); this module re-exports them under the historical
//! names so the trainers keep reading naturally:
//!
//! - [`dot`] / [`axpy`] — sequential-exact, pinned by the serial
//!   trainer's bit-stability guarantee;
//! - [`dot_fixed`] — fixed-lane FMA for the monomorphised 4/8/16 paths;
//! - [`dot_lanes`] / [`axpy_lanes`] — the lane-blocked FMA path for
//!   every other dimension (bit-identical to the fixed kernels at equal
//!   lengths), which is what `d > 16` models now train and serve on.

use crate::model::{EmbeddingModel, Space};
use grafics_graph::NodeIdx;
use rand::Rng;
use std::sync::OnceLock;

pub(crate) use grafics_types::kernels::{
    axpy_f32 as axpy, axpy_lanes_f32 as axpy_lanes, dot_f32 as dot, dot_fixed_f32 as dot_fixed,
    dot_lanes_f32 as dot_lanes,
};

/// Numerically safe logistic function.
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    // Clamp to the range where the gradient is meaningfully non-zero; this
    // mirrors LINE's sigmoid lookup-table bounds and prevents exp overflow.
    let x = x.clamp(-8.0, 8.0);
    1.0 / (1.0 + (-x).exp())
}

/// Entries in the precomputed sigmoid table over `[-SIGMOID_BOUND, +SIGMOID_BOUND)`.
pub(crate) const SIGMOID_TABLE_SIZE: usize = 1024;
/// Clamp bound shared by [`sigmoid`] and the table.
pub(crate) const SIGMOID_BOUND: f32 = 8.0;

static SIGMOID_TABLE: OnceLock<[f32; SIGMOID_TABLE_SIZE]> = OnceLock::new();

/// The shared 1024-entry sigmoid lookup table (built once per process).
/// Each entry holds `σ(midpoint)` of its cell, so the absolute error is
/// bounded by `σ'max · cellwidth / 2 = 0.25 · (16/1024) / 2 ≈ 2e-3` —
/// LINE trains with the same table and converges identically, because SGD
/// noise dwarfs the quantisation.
pub(crate) fn sigmoid_table() -> &'static [f32; SIGMOID_TABLE_SIZE] {
    SIGMOID_TABLE.get_or_init(|| {
        let mut table = [0.0f32; SIGMOID_TABLE_SIZE];
        let cell = 2.0 * SIGMOID_BOUND / SIGMOID_TABLE_SIZE as f32;
        for (i, slot) in table.iter_mut().enumerate() {
            let x = -SIGMOID_BOUND + (i as f32 + 0.5) * cell;
            *slot = sigmoid(x);
        }
        table
    })
}

/// Table-based sigmoid used on the Hogwild hot path.
#[inline(always)]
pub(crate) fn fast_sigmoid(table: &[f32; SIGMOID_TABLE_SIZE], x: f32) -> f32 {
    let scaled = (x + SIGMOID_BOUND) * (SIGMOID_TABLE_SIZE as f32 / (2.0 * SIGMOID_BOUND));
    // Saturated values behave like the clamp in `sigmoid`.
    let idx = (scaled as i32).clamp(0, SIGMOID_TABLE_SIZE as i32 - 1) as usize;
    table[idx]
}

/// Fills `out` with up to `k` values accepted by `draw` (`None` =
/// rejected/unavailable), giving up after `20 · max(k, 1)` attempts —
/// the single rejection policy shared by the serial, Hogwild, and online
/// negative samplers, so the guard bound and semantics can never drift
/// apart between them.
#[inline(always)]
pub(crate) fn fill_rejecting<T>(k: usize, out: &mut Vec<T>, mut draw: impl FnMut() -> Option<T>) {
    out.clear();
    let mut guard = 0;
    while out.len() < k && guard < 20 * k.max(1) {
        if let Some(v) = draw() {
            out.push(v);
        }
        guard += 1;
    }
}

/// A row selector: which matrix, which node.
pub(crate) type RowSel = (Space, NodeIdx);

/// Reusable scratch buffers for pair updates (avoids per-step allocation).
pub(crate) struct Sgd {
    dim: usize,
    src_copy: Vec<f32>,
    src_grad: Vec<f32>,
}

impl Sgd {
    pub(crate) fn new(dim: usize) -> Self {
        Sgd {
            dim,
            src_copy: vec![0.0; dim],
            src_grad: vec![0.0; dim],
        }
    }

    /// One directed step: positive pair `src → tgt` plus `negatives` in
    /// `neg_space`, with learning rate `lr`.
    ///
    /// `update_source` / `update_targets` control which side's vectors are
    /// written — online inference freezes everything except the new node
    /// (§V-A). `dropout` zeroes each *source-gradient* coordinate with the
    /// given probability (the paper trains E-LINE with dropout 0.1).
    ///
    /// Dimensions 4, 8 and 16 run a body monomorphised over `[f32; D]`
    /// rows (no bounds checks, fully unrolled loops); every other
    /// dimension runs the slice body. Both do the same sequential
    /// ascending-order arithmetic, exact [`sigmoid`] and dropout draws, so
    /// the model they leave is bit-identical.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<R: Rng + ?Sized>(
        &mut self,
        model: &mut EmbeddingModel,
        src: RowSel,
        tgt: RowSel,
        neg_space: Space,
        negatives: &[NodeIdx],
        lr: f32,
        update_source: bool,
        update_targets: bool,
        dropout: f32,
        rng: &mut R,
    ) {
        debug_assert_eq!(model.dim(), self.dim);
        let args = (src, tgt, neg_space, negatives, lr);
        let flags = (update_source, update_targets, dropout);
        match self.dim {
            4 => step_fixed::<4, R>(model, args, flags, rng),
            8 => step_fixed::<8, R>(model, args, flags, rng),
            16 => step_fixed::<16, R>(model, args, flags, rng),
            _ => self.step_slice(model, args, flags, rng),
        }
    }

    /// The slice body of [`Sgd::step`], for any dimension.
    fn step_slice<R: Rng + ?Sized>(
        &mut self,
        model: &mut EmbeddingModel,
        (src, tgt, neg_space, negatives, lr): StepArgs<'_>,
        (update_source, update_targets, dropout): StepFlags,
        rng: &mut R,
    ) {
        self.src_copy.copy_from_slice(model.row(src.0, src.1));
        self.src_grad.fill(0.0);

        self.one_target(model, tgt, 1.0, lr, update_targets);
        for &z in negatives {
            self.one_target(model, (neg_space, z), 0.0, lr, update_targets);
        }

        if update_source {
            apply_source_grad(model.row_mut(src.0, src.1), &self.src_grad, dropout, rng);
        }
    }

    #[inline]
    fn one_target(
        &mut self,
        model: &mut EmbeddingModel,
        tgt: RowSel,
        label: f32,
        lr: f32,
        update_target: bool,
    ) {
        let trow = model.row_mut(tgt.0, tgt.1);
        let g = lr * (label - sigmoid(dot(&self.src_copy, trow)));
        // Gradient read precedes the in-place target update per coordinate
        // in the historical loop; two sequential axpy passes preserve that
        // order exactly (each coordinate's read happens before its write).
        axpy(&mut self.src_grad, g, trow);
        if update_target {
            axpy(trow, g, &self.src_copy);
        }
    }
}

/// Rows, negatives and learning rate of one [`Sgd::step`].
type StepArgs<'a> = (RowSel, RowSel, Space, &'a [NodeIdx], f32);
/// `(update_source, update_targets, dropout)` of one [`Sgd::step`].
type StepFlags = (bool, bool, f32);

/// [`Sgd::step`] over `[f32; D]` rows: the slice body's arithmetic, with
/// the row width known at compile time.
#[inline(always)]
fn step_fixed<const D: usize, R: Rng + ?Sized>(
    model: &mut EmbeddingModel,
    (src, tgt, neg_space, negatives, lr): StepArgs<'_>,
    (update_source, update_targets, dropout): StepFlags,
    rng: &mut R,
) {
    let src_copy: [f32; D] = *model.row_fixed::<D>(src.0, src.1);
    let mut src_grad = [0.0f32; D];
    let mut one_target = |trow: &mut [f32; D], label: f32| {
        let g = lr * (label - sigmoid(dot(&src_copy, trow)));
        axpy(&mut src_grad, g, trow);
        if update_targets {
            axpy(trow, g, &src_copy);
        }
    };
    one_target(model.row_fixed_mut::<D>(tgt.0, tgt.1), 1.0);
    for &z in negatives {
        one_target(model.row_fixed_mut::<D>(neg_space, z), 0.0);
    }
    if update_source {
        apply_source_grad(
            model.row_fixed_mut::<D>(src.0, src.1),
            &src_grad,
            dropout,
            rng,
        );
    }
}

/// Adds the source gradient to its row, dropping each coordinate with
/// probability `dropout` (one draw per coordinate, ascending).
#[inline(always)]
fn apply_source_grad<R: Rng + ?Sized>(srow: &mut [f32], grad: &[f32], dropout: f32, rng: &mut R) {
    if dropout > 0.0 {
        for (slot, &g) in srow.iter_mut().zip(grad) {
            if rng.gen::<f32>() >= dropout {
                *slot += g;
            }
        }
    } else {
        for (slot, &g) in srow.iter_mut().zip(grad) {
            *slot += g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fast_sigmoid_tracks_exact_sigmoid() {
        let table = sigmoid_table();
        let mut x = -12.0f32;
        while x < 12.0 {
            let exact = sigmoid(x);
            let approx = fast_sigmoid(table, x);
            assert!(
                (exact - approx).abs() < 3e-3,
                "x={x}: exact {exact} vs table {approx}"
            );
            x += 0.013;
        }
        assert!((fast_sigmoid(table, 0.0) - 0.5).abs() < 3e-3);
        assert!(fast_sigmoid(table, 1e30) > 0.999);
        assert!(fast_sigmoid(table, -1e30) < 0.001);
    }

    #[test]
    fn dot_kernels_agree() {
        let a: Vec<f32> = (0..13).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..13).map(|i| (i as f32 * 0.7).cos()).collect();
        let seq = dot(&a, &b);
        let lanes = dot_lanes(&a, &b);
        assert!((seq - lanes).abs() < 1e-5, "{seq} vs {lanes}");
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot_lanes(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates_in_place() {
        let mut acc = vec![1.0f32, 2.0, 3.0];
        axpy(&mut acc, 2.0, &[10.0, 20.0, 30.0]);
        assert_eq!(acc, vec![21.0, 42.0, 63.0]);
    }

    #[test]
    fn sigmoid_bounds_and_midpoint() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 0.001);
        assert!(sigmoid(f32::MAX).is_finite());
    }

    #[test]
    fn positive_pair_increases_dot() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut model = EmbeddingModel::init(3, 4, &mut rng);
        let (i, j) = (NodeIdx(0), NodeIdx(1));
        let dot_before: f32 = model
            .ego(i)
            .iter()
            .zip(model.context(j))
            .map(|(&a, &b)| a * b)
            .sum();
        let mut sgd = Sgd::new(4);
        for _ in 0..200 {
            sgd.step(
                &mut model,
                (Space::Ego, i),
                (Space::Context, j),
                Space::Context,
                &[],
                0.1,
                true,
                true,
                0.0,
                &mut rng,
            );
        }
        let dot_after: f32 = model
            .ego(i)
            .iter()
            .zip(model.context(j))
            .map(|(&a, &b)| a * b)
            .sum();
        assert!(
            dot_after > dot_before,
            "{dot_after} should exceed {dot_before}"
        );
        assert!(model.all_finite());
    }

    #[test]
    fn negative_pair_decreases_dot() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut model = EmbeddingModel::init(3, 4, &mut rng);
        let (i, z) = (NodeIdx(0), NodeIdx(2));
        let mut sgd = Sgd::new(4);
        for _ in 0..200 {
            sgd.step(
                &mut model,
                (Space::Ego, i),
                (Space::Context, NodeIdx(1)),
                Space::Context,
                &[z],
                0.1,
                true,
                true,
                0.0,
                &mut rng,
            );
        }
        let dot_neg: f32 = model
            .ego(i)
            .iter()
            .zip(model.context(z))
            .map(|(&a, &b)| a * b)
            .sum();
        assert!(
            dot_neg < 0.0,
            "negative dot should be pushed below zero, got {dot_neg}"
        );
    }

    #[test]
    fn frozen_target_is_not_written() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut model = EmbeddingModel::init(2, 4, &mut rng);
        let before: Vec<f32> = model.context(NodeIdx(1)).to_vec();
        let mut sgd = Sgd::new(4);
        sgd.step(
            &mut model,
            (Space::Ego, NodeIdx(0)),
            (Space::Context, NodeIdx(1)),
            Space::Context,
            &[],
            0.5,
            true,
            false, // targets frozen
            0.0,
            &mut rng,
        );
        assert_eq!(model.context(NodeIdx(1)), before.as_slice());
    }

    #[test]
    fn frozen_source_is_not_written() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut model = EmbeddingModel::init(2, 4, &mut rng);
        let before: Vec<f32> = model.ego(NodeIdx(0)).to_vec();
        let mut sgd = Sgd::new(4);
        sgd.step(
            &mut model,
            (Space::Ego, NodeIdx(0)),
            (Space::Context, NodeIdx(1)),
            Space::Context,
            &[],
            0.5,
            false, // source frozen
            true,
            0.0,
            &mut rng,
        );
        assert_eq!(model.ego(NodeIdx(0)), before.as_slice());
    }

    /// The `[f32; D]` bodies for D = 4/8/16 leave a model bit-identical to
    /// the slice body's after hundreds of steps — dropout on, negatives
    /// repeated and aliasing the source row — and consume the RNG alike.
    #[test]
    fn fixed_dim_step_matches_slice_step_bitwise() {
        use rand::RngCore;
        for dim in [4usize, 8, 16] {
            let rows = 7;
            let init = EmbeddingModel::init(rows, dim, &mut ChaCha8Rng::seed_from_u64(dim as u64));
            let (mut fixed, mut slice) = (init.clone(), init);
            let (mut rng_fixed, mut rng_slice) =
                (ChaCha8Rng::seed_from_u64(9), ChaCha8Rng::seed_from_u64(9));
            let mut plan = ChaCha8Rng::seed_from_u64(dim as u64 + 100);
            let mut sgd = Sgd::new(dim);
            for t in 0..400 {
                let node = |plan: &mut ChaCha8Rng| NodeIdx(plan.gen_range(0..rows as u32));
                let space = |plan: &mut ChaCha8Rng| {
                    if plan.gen::<bool>() {
                        Space::Ego
                    } else {
                        Space::Context
                    }
                };
                let src = (space(&mut plan), node(&mut plan));
                let tgt = (space(&mut plan), node(&mut plan));
                let neg_space = space(&mut plan);
                // Repeats are likely over 7 rows; force one every step.
                let mut negatives: Vec<NodeIdx> = (0..4).map(|_| node(&mut plan)).collect();
                negatives.push(negatives[0]);
                let lr = 0.025 * (1.0 - t as f32 / 400.0);
                let (update_source, update_targets) = (t % 5 != 0, t % 7 != 0);
                let dropout = if t % 3 == 0 { 0.0 } else { 0.1 };
                sgd.step(
                    &mut fixed,
                    src,
                    tgt,
                    neg_space,
                    &negatives,
                    lr,
                    update_source,
                    update_targets,
                    dropout,
                    &mut rng_fixed,
                );
                sgd.step_slice(
                    &mut slice,
                    (src, tgt, neg_space, &negatives, lr),
                    (update_source, update_targets, dropout),
                    &mut rng_slice,
                );
            }
            let (fe, fc) = fixed.matrices();
            let (se, sc) = slice.matrices();
            let bits = |m: &[f32]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(fe), bits(se), "dim {dim}: ego diverged");
            assert_eq!(bits(fc), bits(sc), "dim {dim}: context diverged");
            assert_eq!(rng_fixed.next_u64(), rng_slice.next_u64(), "dim {dim}");
        }
    }

    #[test]
    fn full_dropout_blocks_source_update() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut model = EmbeddingModel::init(2, 4, &mut rng);
        let before: Vec<f32> = model.ego(NodeIdx(0)).to_vec();
        let mut sgd = Sgd::new(4);
        sgd.step(
            &mut model,
            (Space::Ego, NodeIdx(0)),
            (Space::Context, NodeIdx(1)),
            Space::Context,
            &[],
            0.5,
            true,
            true,
            0.999_999, // effectively drop every coordinate
            &mut rng,
        );
        assert_eq!(model.ego(NodeIdx(0)), before.as_slice());
    }
}
