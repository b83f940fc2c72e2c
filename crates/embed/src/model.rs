//! The learned embedding matrices.

use grafics_graph::NodeIdx;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Ego and context embeddings for every node of a bipartite graph.
///
/// Rows are indexed by [`NodeIdx`]; the matrix has one row per node *slot*
/// of the graph it was trained on (including tombstones, whose rows are
/// simply never read). Vectors are `f32`: embedding quality is insensitive
/// to the extra precision of `f64`, and halving memory traffic matters when
/// sampling millions of edges.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbeddingModel {
    dim: usize,
    ego: Vec<f32>,
    context: Vec<f32>,
}

impl EmbeddingModel {
    /// Allocates `rows` embeddings of dimension `dim`, initialised uniformly
    /// in `[-0.5/dim, 0.5/dim]` (the word2vec/LINE convention).
    #[must_use]
    pub fn init<R: Rng + ?Sized>(rows: usize, dim: usize, rng: &mut R) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        let bound = 0.5 / dim as f32;
        let mut sample = |_: usize| rng.gen_range(-bound..=bound);
        EmbeddingModel {
            dim,
            ego: (0..rows * dim).map(&mut sample).collect(),
            context: (0..rows * dim).map(&mut sample).collect(),
        }
    }

    /// Embedding dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows (node slots).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.ego.len() / self.dim
    }

    /// The ego embedding `u_i` — the representation used for clustering
    /// and floor prediction.
    #[must_use]
    pub fn ego(&self, node: NodeIdx) -> &[f32] {
        let i = node.index() * self.dim;
        &self.ego[i..i + self.dim]
    }

    /// The context embedding `u'_i`.
    #[must_use]
    pub fn context(&self, node: NodeIdx) -> &[f32] {
        let i = node.index() * self.dim;
        &self.context[i..i + self.dim]
    }

    /// Mutable ego row.
    pub fn ego_mut(&mut self, node: NodeIdx) -> &mut [f32] {
        let i = node.index() * self.dim;
        &mut self.ego[i..i + self.dim]
    }

    /// Mutable context row.
    pub fn context_mut(&mut self, node: NodeIdx) -> &mut [f32] {
        let i = node.index() * self.dim;
        &mut self.context[i..i + self.dim]
    }

    /// Mutable ego and context rows of the *same* node, borrowed together.
    pub fn rows_mut(&mut self, node: NodeIdx) -> (&mut [f32], &mut [f32]) {
        let i = node.index() * self.dim;
        (
            &mut self.ego[i..i + self.dim],
            &mut self.context[i..i + self.dim],
        )
    }

    /// Grows the matrices to `rows` rows (no-op if already large enough),
    /// initialising new rows like [`EmbeddingModel::init`]. Used when new
    /// records/MACs are appended to the graph online (§V-A).
    pub fn grow<R: Rng + ?Sized>(&mut self, rows: usize, rng: &mut R) {
        let target = rows * self.dim;
        if self.ego.len() >= target {
            return;
        }
        let add = target - self.ego.len();
        let (ego, context) = Self::draw_rows(self.dim, add, rng);
        self.ego.reserve(add);
        self.context.reserve(add);
        self.ego.extend(ego);
        self.context.extend(context);
    }

    /// Draws initial values for `elements` fresh coordinates of each
    /// matrix, in the historical interleaved `(ego, context)` element
    /// order — one sized allocation per matrix instead of per-element
    /// `push`es. [`EmbeddingModel::grow`] and the read-only serving path
    /// both initialise new rows through this function, so a query embedded
    /// against a frozen model consumes the caller's RNG exactly like the
    /// graph-extending path at the same seed.
    pub(crate) fn draw_rows<R: Rng + ?Sized>(
        dim: usize,
        elements: usize,
        rng: &mut R,
    ) -> (Vec<f32>, Vec<f32>) {
        let bound = 0.5 / dim as f32;
        let mut draws: Vec<f32> = Vec::new();
        draws.resize_with(2 * elements, || rng.gen_range(-bound..=bound));
        let ego = draws.iter().copied().step_by(2).collect();
        let context = draws.iter().copied().skip(1).step_by(2).collect();
        (ego, context)
    }

    /// Splits both matrices three ways around `node`: the frozen prefix
    /// (rows `< node`), the node's own mutable rows, and the read-only
    /// tail (rows `> node` — the fresh rows of MACs first seen together
    /// with the node). The online SGD writes only the middle part.
    pub(crate) fn split_at_node(&mut self, node: NodeIdx) -> SplitRows<'_> {
        let dim = self.dim;
        let start = node.index() * dim;
        let (frozen_ego, rest) = self.ego.split_at_mut(start);
        let (node_ego, tail_ego) = rest.split_at_mut(dim);
        let (frozen_context, rest) = self.context.split_at_mut(start);
        let (node_context, tail_context) = rest.split_at_mut(dim);
        SplitRows {
            frozen_ego,
            frozen_context,
            node_ego,
            node_context,
            tail_ego,
            tail_context,
        }
    }

    /// Both full matrices, read-only — the serving path's frozen view.
    pub(crate) fn matrices(&self) -> (&[f32], &[f32]) {
        (&self.ego, &self.context)
    }

    /// Squared Euclidean distance between two ego embeddings.
    #[must_use]
    pub fn ego_distance_sq(&self, a: NodeIdx, b: NodeIdx) -> f64 {
        self.ego(a)
            .iter()
            .zip(self.ego(b))
            .map(|(&x, &y)| {
                let d = (x - y) as f64;
                d * d
            })
            .sum()
    }

    /// Euclidean (ℓ2) distance between two ego embeddings (Eq. (11)).
    #[must_use]
    pub fn ego_distance(&self, a: NodeIdx, b: NodeIdx) -> f64 {
        self.ego_distance_sq(a, b).sqrt()
    }

    /// Copies the ego embedding of `node` into an owned `f64` vector.
    #[must_use]
    pub fn ego_vec(&self, node: NodeIdx) -> Vec<f64> {
        self.ego(node).iter().map(|&x| x as f64).collect()
    }

    /// `true` if every coordinate of every row is finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.ego
            .iter()
            .chain(self.context.iter())
            .all(|x| x.is_finite())
    }

    pub(crate) fn row(&self, space: Space, node: NodeIdx) -> &[f32] {
        match space {
            Space::Ego => self.ego(node),
            Space::Context => self.context(node),
        }
    }

    pub(crate) fn row_mut(&mut self, space: Space, node: NodeIdx) -> &mut [f32] {
        match space {
            Space::Ego => self.ego_mut(node),
            Space::Context => self.context_mut(node),
        }
    }

    /// Row of a compile-time width `D` (which must equal the model's
    /// dimension) — the monomorphised serial SGD step's view.
    #[inline(always)]
    pub(crate) fn row_fixed<const D: usize>(&self, space: Space, node: NodeIdx) -> &[f32; D] {
        let i = node.index() * D;
        let rows = match space {
            Space::Ego => &self.ego,
            Space::Context => &self.context,
        };
        rows[i..i + D]
            .try_into()
            .expect("row width is the model dimension")
    }

    /// Mutable [`EmbeddingModel::row_fixed`].
    #[inline(always)]
    pub(crate) fn row_fixed_mut<const D: usize>(
        &mut self,
        space: Space,
        node: NodeIdx,
    ) -> &mut [f32; D] {
        let i = node.index() * D;
        let rows = match space {
            Space::Ego => &mut self.ego,
            Space::Context => &mut self.context,
        };
        (&mut rows[i..i + D])
            .try_into()
            .expect("row width is the model dimension")
    }

    /// Both full matrices, mutably — the Hogwild trainer's entry point for
    /// building its shared atomic view over the storage.
    pub(crate) fn matrices_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.ego, &mut self.context)
    }
}

/// Which of the two embedding matrices a row selector refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Space {
    Ego,
    Context,
}

/// The three-way split of both matrices produced by
/// [`EmbeddingModel::split_at_node`].
pub(crate) struct SplitRows<'a> {
    pub frozen_ego: &'a [f32],
    pub frozen_context: &'a [f32],
    pub node_ego: &'a mut [f32],
    pub node_context: &'a mut [f32],
    pub tail_ego: &'a [f32],
    pub tail_context: &'a [f32],
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn init_shape_and_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let m = EmbeddingModel::init(10, 8, &mut rng);
        assert_eq!(m.rows(), 10);
        assert_eq!(m.dim(), 8);
        let bound = 0.5 / 8.0;
        for i in 0..10 {
            for &x in m.ego(NodeIdx(i)) {
                assert!(x.abs() <= bound);
            }
        }
    }

    #[test]
    fn grow_preserves_existing_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut m = EmbeddingModel::init(3, 4, &mut rng);
        let row0: Vec<f32> = m.ego(NodeIdx(0)).to_vec();
        m.grow(10, &mut rng);
        assert_eq!(m.rows(), 10);
        assert_eq!(m.ego(NodeIdx(0)), row0.as_slice());
        m.grow(5, &mut rng); // shrink request is a no-op
        assert_eq!(m.rows(), 10);
    }

    #[test]
    fn distance_zero_to_self_and_symmetric() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let m = EmbeddingModel::init(4, 6, &mut rng);
        assert_eq!(m.ego_distance(NodeIdx(2), NodeIdx(2)), 0.0);
        let ab = m.ego_distance(NodeIdx(0), NodeIdx(1));
        let ba = m.ego_distance(NodeIdx(1), NodeIdx(0));
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab >= 0.0);
    }

    #[test]
    fn rows_mut_same_node() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut m = EmbeddingModel::init(2, 3, &mut rng);
        {
            let (ego, ctx) = m.rows_mut(NodeIdx(1));
            ego[0] = 1.0;
            ctx[0] = -1.0;
        }
        assert_eq!(m.ego(NodeIdx(1))[0], 1.0);
        assert_eq!(m.context(NodeIdx(1))[0], -1.0);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut m = EmbeddingModel::init(2, 2, &mut rng);
        assert!(m.all_finite());
        m.ego_mut(NodeIdx(0))[0] = f32::NAN;
        assert!(!m.all_finite());
    }
}
