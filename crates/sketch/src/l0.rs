//! ℓ0-sampling sketches over graph incidence vectors \[36\], specialized to
//! the AGM edge-sampling use (Appendix C.1 of the paper).

use crate::field::{self, PowTable};
use crate::hashing::KWiseHash;
use crate::onesparse::{OneSparse, OneSparseDecode};
use mpc_graph::VertexId;
use mpc_runtime::Payload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Buckets per level (three independent one-sparse cells per subsampling
/// level; a level decodes if any cell isolates a single item).
const BUCKETS: usize = 3;

/// Edge slots live below this bit: the level tag of the bucket hash is
/// XORed in at bit 48 (`slot ^ (level << 48)`), so a larger slot would
/// alias another slot's tag.
const SLOT_BITS: u32 = 48;

/// Levels of the largest family: `⌈2·log₂ n⌉ + 2` with `n² < 2^SLOT_BITS`.
const MAX_LEVELS: usize = SLOT_BITS as usize + 2;

// `EdgeUpdate` stores cell indices as `u8`.
const _: () = assert!(MAX_LEVELS * BUCKETS <= 256);

/// Hash chains [`SketchFamily::prepare_slice`] keeps in flight at once.
const LANES: usize = 8;

/// A nonzero cell of a sparse sketch: `(cell index, cell)`.
pub type SparseCell = (u8, OneSparse);

const _: () = assert!(size_of::<OneSparse>() == 32 && size_of::<SparseCell>() == 40);

/// A single ℓ0-sampler: `levels × BUCKETS` one-sparse cells.
///
/// Level `ℓ` retains indices subsampled with probability `2^{−ℓ}`; whatever
/// level happens to isolate one nonzero index decodes it. Linearity is
/// inherited from [`OneSparse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct L0Sampler {
    cells: Vec<OneSparse>, // levels * BUCKETS, row-major by level
    levels: usize,
}

impl L0Sampler {
    fn new(levels: usize) -> Self {
        L0Sampler {
            cells: vec![OneSparse::new(); levels * BUCKETS],
            levels,
        }
    }

    /// Adds a prepared edge to the sketch of its endpoint `endpoint`.
    pub fn apply(&mut self, update: &EdgeUpdate, endpoint: VertexId) {
        self.merge_cells(update.sparse_cells(endpoint));
    }

    /// Merges a sketch from the same family.
    ///
    /// The cell arrays always have identical lengths within a family, so
    /// the merge runs as one batched pass over the word-level cell slices
    /// (see [`OneSparse::merge_slices`]).
    pub fn merge(&mut self, other: &L0Sampler) {
        debug_assert_eq!(self.levels, other.levels);
        OneSparse::merge_slices(&mut self.cells, &other.cells);
    }

    /// Adds sparse cells of a sketch from the same family.
    pub fn merge_cells(&mut self, cells: impl IntoIterator<Item = SparseCell>) {
        for (idx, cell) in cells {
            self.cells[usize::from(idx)].merge(&cell);
        }
    }

    /// Resets every cell to zero, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.cells.fill(OneSparse::new());
    }

    fn decode(&self, z: &PowTable) -> Option<u64> {
        // Prefer sparse (high) levels where isolation is likely.
        for l in (0..self.levels).rev() {
            for b in 0..BUCKETS {
                if let OneSparseDecode::One(idx, _) = self.cells[l * BUCKETS + b].decode(z) {
                    return Some(idx);
                }
            }
        }
        None
    }

    /// Whether every cell is zero (no nonzero coordinates survive).
    pub fn is_zero(&self) -> bool {
        self.cells.iter().all(OneSparse::is_zero)
    }
}

impl Payload for L0Sampler {
    fn words(&self) -> usize {
        3 * self.cells.len()
    }
}

#[derive(Clone, Debug)]
struct LevelHashes {
    level: KWiseHash,
    bucket: KWiseHash,
    /// Powers of the phase's fingerprint base, for exponents in `0..n²`.
    z: PowTable,
}

/// One edge's contribution to one phase, computed once and applied to the
/// sketches of both endpoints ([`L0Sampler::apply`], [`SparseSketch::apply`],
/// [`SketchFamily::partial_batches`]).
///
/// Everything that depends only on the edge slot — the subsampling level,
/// the cell hit at each level, and the fingerprint power `z^slot` — is the
/// same for the two endpoints; only the sign differs.
#[derive(Clone, Copy, Debug)]
pub struct EdgeUpdate {
    slot: u64,
    /// The larger endpoint: the smaller one adds the slot, this one removes it.
    hi: VertexId,
    /// `z^slot (mod P)`.
    term: u64,
    /// Cell index hit at level `l`, for `l < levels`.
    cells: [u8; MAX_LEVELS],
    levels: u8,
}

impl EdgeUpdate {
    /// A placeholder for [`SketchFamily::prepare_slice`] to overwrite.
    pub const EMPTY: EdgeUpdate = EdgeUpdate {
        slot: 0,
        hi: 0,
        term: 0,
        cells: [0; MAX_LEVELS],
        levels: 0,
    };

    /// The cell index hit at each level the edge reaches, strictly
    /// ascending.
    pub(crate) fn hits(&self) -> &[u8] {
        &self.cells[..self.levels as usize]
    }

    /// The value this edge adds to every cell it hits in `endpoint`'s
    /// sketch. The lower endpoint adds the slot (`+z^slot`), the higher one
    /// removes it, so the two contributions cancel when their sketches
    /// merge.
    pub(crate) fn value(&self, endpoint: VertexId) -> OneSparse {
        self.value_with_term(endpoint, self.term)
    }

    /// [`value`](Self::value) of the same edge in the phase whose
    /// fingerprint term `z^slot` is `term`.
    pub(crate) fn value_with_term(&self, endpoint: VertexId, term: u64) -> OneSparse {
        let mut cell = OneSparse::new();
        if endpoint < self.hi {
            cell.update_term(self.slot, 1, term);
        } else {
            cell.update_term(self.slot, -1, field::sub(0, term));
        }
        cell
    }

    /// The fingerprint term `z^slot (mod P)`.
    pub(crate) fn term(&self) -> u64 {
        self.term
    }

    /// This edge alone as a sparse sketch of `endpoint`: its cells, strictly
    /// ascending by index, all holding [`value`](Self::value).
    pub(crate) fn sparse_cells(&self, endpoint: VertexId) -> impl Iterator<Item = SparseCell> + '_ {
        let value = self.value(endpoint);
        self.hits().iter().map(move |&idx| (idx, value))
    }
}

/// `hash` at each of `points` (at most [`LANES`]), in place, in the narrowest
/// block of 1, 2, 4 or [`LANES`] lanes that holds them.
fn eval_block(hash: &KWiseHash, points: &mut [u64]) {
    fn run<const L: usize>(hash: &KWiseHash, points: &mut [u64]) {
        let mut block = [0; L];
        block[..points.len()].copy_from_slice(points);
        points.copy_from_slice(&hash.eval_lanes(block)[..points.len()]);
    }
    match points.len() {
        1 => run::<1>(hash, points),
        2 => run::<2>(hash, points),
        3 | 4 => run::<4>(hash, points),
        _ => run::<LANES>(hash, points),
    }
}

/// A family of vertex sketches with shared hash functions.
///
/// One machine draws the seeds (`O(polylog n)` bits) and disseminates them;
/// every machine then builds identical-family sketches from its local edges
/// (Property 1 / Theorem C.1 in the paper). `phases` independent copies are
/// drawn so the sketch-Borůvka loop can consume fresh randomness each phase.
#[derive(Clone, Debug)]
pub struct SketchFamily {
    n: u64,
    levels: usize,
    hashes: Vec<LevelHashes>,
}

/// A vertex's sketch for one phase. See [`SketchFamily`].
pub type VertexSketch = L0Sampler;

impl SketchFamily {
    /// Creates a family for graphs on `n` vertices with `phases` independent
    /// copies, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n² ≥ 2^48`: edge slots must stay below the level tag.
    pub fn new(n: usize, phases: usize, seed: u64) -> Self {
        let n = n as u64;
        assert!(
            n < 1 << (SLOT_BITS / 2),
            "sketch family supports n² < 2^{SLOT_BITS}, got n = {n}"
        );
        let domain_bits = (2.0 * (n.max(2) as f64).log2()).ceil() as usize + 2;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA6A6_5EED);
        let independence = ((n.max(2) as f64).log2().ceil() as usize + 2).max(4);
        let hashes = (0..phases)
            .map(|_| LevelHashes {
                level: KWiseHash::new(independence, rng.random()),
                bucket: KWiseHash::new(independence, rng.random()),
                z: PowTable::new(rng.random_range(1..field::P), n * n),
            })
            .collect();
        SketchFamily {
            n,
            levels: domain_bits,
            hashes,
        }
    }

    /// Number of independent phases.
    pub fn phases(&self) -> usize {
        self.hashes.len()
    }

    /// A fresh, empty sketch for `phase`.
    pub fn empty(&self, phase: usize) -> VertexSketch {
        assert!(phase < self.phases(), "phase {phase} out of range");
        L0Sampler::new(self.levels)
    }

    /// Prepares edge `{u, v}` for `phase`: one level hash, one bucket hash
    /// per level hit, one fingerprint exponentiation — shared by both
    /// endpoints. Both orientations map to the same slot.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not a vertex of the family's graph.
    pub fn prepare(&self, phase: usize, u: VertexId, v: VertexId) -> EdgeUpdate {
        let mut update = [EdgeUpdate::EMPTY];
        self.prepare_slice(phase, &[(u, v)], &mut update);
        update[0]
    }

    /// [`prepare`](Self::prepare) for every edge of `edges`, into `out`: the
    /// level hashes of `LANES` (8) edges at a time, then their bucket
    /// hashes, queued until `LANES` are ready — each the chain of one edge alone.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not a vertex of the family's graph or the
    /// lengths differ.
    pub fn prepare_slice(
        &self,
        phase: usize,
        edges: &[(VertexId, VertexId)],
        out: &mut [EdgeUpdate],
    ) {
        assert_eq!(edges.len(), out.len(), "one update per edge");
        let hashes = &self.hashes[phase];
        let (mut points, mut jobs, mut queued) = ([0; LANES], [(0, 0); LANES], 0);
        for first in (0..edges.len()).step_by(LANES) {
            let block = first..edges.len().min(first + LANES);
            let mut hs = [0; LANES];
            for (e, h) in block.clone().zip(&mut hs) {
                let (u, v) = edges[e];
                let (lo, hi) = if u < v { (u, v) } else { (v, u) };
                assert!((hi as u64) < self.n, "vertex {hi} out of range");
                *h = lo as u64 * self.n + hi as u64;
                (out[e].slot, out[e].hi, out[e].term) = (*h, hi, hashes.z.pow(*h));
            }
            eval_block(&hashes.level, &mut hs[..block.len()]);
            for (e, h) in block.zip(hs) {
                // Level ℓ keeps the slots whose hash has ≥ ℓ trailing zeros.
                let lvl = (h.trailing_zeros() as usize).min(self.levels - 1);
                out[e].levels = lvl as u8 + 1;
                for l in 0..=lvl {
                    points[queued] = out[e].slot ^ (l as u64) << SLOT_BITS;
                    jobs[queued] = (e, l);
                    queued += 1;
                    // A full block, or the slice's last pair.
                    if queued == LANES || (e + 1, l) == (edges.len(), lvl) {
                        eval_block(&hashes.bucket, &mut points[..queued]);
                        for (&h, &(e, l)) in points.iter().zip(&jobs[..queued]) {
                            out[e].cells[l] = (l * BUCKETS + (h % BUCKETS as u64) as usize) as u8;
                        }
                        queued = 0;
                    }
                }
            }
        }
    }

    /// Records edge `{u, v}` in `u`'s sketch for `phase`.
    ///
    /// Call once per endpoint: `add_edge_phase(s_u, p, u, v)` and
    /// `add_edge_phase(s_v, p, v, u)` — or [`prepare`](Self::prepare) once
    /// and [`apply`](L0Sampler::apply) twice, which is the same thing at
    /// half the hashing. The ±1 orientation means the two contributions
    /// cancel when the sketches of `u` and `v` are merged — the AGM trick
    /// that makes merged sketches see only *outgoing* edges.
    pub fn add_edge_phase(
        &self,
        sketch: &mut VertexSketch,
        phase: usize,
        u: VertexId,
        v: VertexId,
    ) {
        sketch.apply(&self.prepare(phase, u, v), u);
    }

    /// [`add_edge_phase`](Self::add_edge_phase) for phase 0 (convenience).
    pub fn add_edge(&self, sketch: &mut VertexSketch, u: VertexId, v: VertexId) {
        self.add_edge_phase(sketch, 0, u, v);
    }

    /// Decodes one surviving edge from a (merged) sketch of `phase`.
    pub fn decode_phase(
        &self,
        sketch: &VertexSketch,
        phase: usize,
    ) -> Option<(VertexId, VertexId)> {
        // One-sparse recovery only returns slots in `0..n²`.
        let slot = sketch.decode(&self.hashes[phase].z)?;
        let u = (slot / self.n) as VertexId;
        let v = (slot % self.n) as VertexId;
        Some((u, v))
    }

    /// [`decode_phase`](Self::decode_phase) for phase 0 (convenience).
    pub fn decode(&self, sketch: &VertexSketch) -> Option<(VertexId, VertexId)> {
        self.decode_phase(sketch, 0)
    }

    /// Words per vertex sketch (for memory accounting).
    pub fn sketch_words(&self) -> usize {
        3 * BUCKETS * self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge_decodes() {
        let fam = SketchFamily::new(10, 1, 1);
        let mut s = fam.empty(0);
        fam.add_edge(&mut s, 3, 7);
        assert_eq!(fam.decode(&s), Some((3, 7)));
    }

    #[test]
    fn internal_edges_cancel() {
        let fam = SketchFamily::new(10, 1, 2);
        let mut su = fam.empty(0);
        let mut sv = fam.empty(0);
        fam.add_edge(&mut su, 2, 5);
        fam.add_edge(&mut sv, 5, 2);
        su.merge(&sv);
        assert!(su.is_zero());
        assert_eq!(fam.decode(&su), None);
    }

    #[test]
    fn decodes_an_outgoing_edge_from_dense_neighborhoods() {
        // Vertex 0 with 100 incident edges: decode must return one of them.
        let fam = SketchFamily::new(200, 1, 3);
        let mut s = fam.empty(0);
        for v in 1..=100 {
            fam.add_edge(&mut s, 0, v);
        }
        let (u, v) = fam.decode(&s).expect("should isolate some edge");
        assert_eq!(u, 0);
        assert!((1..=100).contains(&v));
    }

    #[test]
    fn decode_success_rate_is_high() {
        // Across many random multi-edge sketches, decoding succeeds almost
        // always (constant success per level, ~log n levels, 3 buckets).
        let fam = SketchFamily::new(300, 1, 9);
        let mut ok = 0;
        let trials = 200;
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..trials {
            let mut s = fam.empty(0);
            let deg = rng.random_range(1..80);
            for _ in 0..deg {
                let v = rng.random_range(1..300) as VertexId;
                fam.add_edge(&mut s, 0, v.max(1));
            }
            if fam.decode(&s).is_some() {
                ok += 1;
            }
        }
        assert!(
            ok * 100 >= trials * 90,
            "decode succeeded only {ok}/{trials}"
        );
    }

    #[test]
    fn phases_are_independent() {
        let fam = SketchFamily::new(50, 2, 5);
        let mut a = fam.empty(0);
        let mut b = fam.empty(1);
        fam.add_edge_phase(&mut a, 0, 1, 2);
        fam.add_edge_phase(&mut b, 1, 1, 2);
        assert_ne!(a, b, "different phases hash differently (w.o.p.)");
        assert_eq!(fam.decode_phase(&a, 0), Some((1, 2)));
        assert_eq!(fam.decode_phase(&b, 1), Some((1, 2)));
    }

    #[test]
    fn sketch_words_are_polylog() {
        let fam = SketchFamily::new(4096, 1, 0);
        // 3 buckets * (2*12+2) levels * 3 words.
        assert!(
            fam.sketch_words() <= 3 * 3 * 30,
            "words = {}",
            fam.sketch_words()
        );
        assert_eq!(fam.empty(0).words(), fam.sketch_words());
    }

    /// The update as it was before edges were prepared: every endpoint
    /// hashes the slot and exponentiates by square-and-multiply, once per
    /// level. Kept as the oracle the prepare kernel is held to.
    fn reference_update(fam: &SketchFamily, sketch: &mut L0Sampler, phase: usize, u: u32, v: u32) {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let slot = a as u64 * fam.n + b as u64;
        let sign = if u < v { 1 } else { -1 };
        let hashes = &fam.hashes[phase];
        let z = hashes.z.pow(1);
        let lvl = (hashes.level.eval(slot).trailing_zeros() as usize).min(fam.levels - 1);
        for l in 0..=lvl {
            let b = (hashes.bucket.eval(slot ^ (l as u64) << 48) % BUCKETS as u64) as usize;
            let term = field::mul(field::from_i64(sign), field::pow(z, slot));
            sketch.cells[l * BUCKETS + b].update_term(slot, sign, term);
        }
    }

    proptest::proptest! {
        /// Prepared pair update == two single-endpoint updates == the
        /// unprepared reference, cell for cell, dense and sparse, whichever
        /// way round the endpoints are named.
        #[test]
        fn prepared_update_matches_reference(
            n in 2usize..5000,
            phase in 0usize..3,
            (a, b) in (0u32..5000, 0u32..5000),
            seed in proptest::any::<u64>(),
        ) {
            let (u, v) = (a % n as u32, b % n as u32);
            let fam = SketchFamily::new(n, 3, seed);
            let (mut want_u, mut want_v) = (fam.empty(phase), fam.empty(phase));
            reference_update(&fam, &mut want_u, phase, u, v);
            reference_update(&fam, &mut want_v, phase, v, u);

            let (mut single_u, mut single_v) = (fam.empty(phase), fam.empty(phase));
            fam.add_edge_phase(&mut single_u, phase, u, v);
            fam.add_edge_phase(&mut single_v, phase, v, u);
            assert_eq!((&single_u, &single_v), (&want_u, &want_v));

            let update = fam.prepare(phase, v, u);
            let (mut pair_u, mut pair_v) = (fam.empty(phase), fam.empty(phase));
            pair_u.apply(&update, u);
            pair_v.apply(&update, v);
            assert_eq!((&pair_u, &pair_v), (&want_u, &want_v));

            let (mut sparse_u, mut sparse_v) = (SparseSketch::default(), SparseSketch::default());
            sparse_u.apply(&update, u);
            sparse_v.apply(&update, v);
            let (mut dense_u, mut dense_v) = (fam.empty(phase), fam.empty(phase));
            dense_u.merge_cells(sparse_u.cells().iter().copied());
            dense_v.merge_cells(sparse_v.cells().iter().copied());
            assert_eq!((&dense_u, &dense_v), (&want_u, &want_v));
        }

        /// The slice kernel == one edge at a time == the unprepared
        /// reference, cell for cell and endpoint by endpoint, for every
        /// phase of the family and every slice length from 0 to three full
        /// blocks and one more edge (so every tail shape), with self-loops
        /// and reversed duplicates, small `n` and the largest family.
        #[test]
        fn slice_kernel_matches_reference(
            (n, largest) in (2usize..5000, 0u8..8),
            picks in proptest::collection::vec(
                (proptest::any::<u32>(), proptest::any::<u32>(), 0u8..4),
                3 * LANES + 1..3 * LANES + 2,
            ),
            seed in proptest::any::<u64>(),
        ) {
            let n = if largest == 0 { (1 << 24) - 1 } else { n };
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for (a, b, shape) in picks {
                let (a, b) = (a % n as u32, b % n as u32);
                edges.push(match (shape, edges.last()) {
                    (0, _) => (a, a),
                    (1, Some(&(u, v))) => (v, u),
                    _ => (a, b),
                });
            }
            let fam = SketchFamily::new(n, 3, seed);
            for phase in 0..3 {
                // Both endpoints' sketches of the edge alone.
                let of = |update: &EdgeUpdate, (u, v): (u32, u32)| {
                    [u, v].map(|x| {
                        let mut s = fam.empty(phase);
                        s.apply(update, x);
                        s
                    })
                };
                let want: Vec<_> = (edges.iter())
                    .map(|&(u, v)| {
                        [(u, v), (v, u)].map(|(x, y)| {
                            let mut s = fam.empty(phase);
                            reference_update(&fam, &mut s, phase, x, y);
                            s
                        })
                    })
                    .collect();
                for (&edge, want) in edges.iter().zip(&want) {
                    assert_eq!(&of(&fam.prepare(phase, edge.0, edge.1), edge), want);
                }
                for len in 0..=edges.len() {
                    let mut slice = vec![EdgeUpdate::EMPTY; len];
                    fam.prepare_slice(phase, &edges[..len], &mut slice);
                    for ((&edge, update), want) in edges.iter().zip(&slice).zip(&want) {
                        assert_eq!(&of(update, edge), want, "n = {n}, phase {phase}, {edge:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "n² < 2^48")]
    fn family_rejects_slots_that_alias_the_level_tag() {
        SketchFamily::new(1 << 24, 1, 0);
    }

    #[test]
    fn largest_family_fits_the_prepared_update() {
        let fam = SketchFamily::new((1 << 24) - 1, 1, 0);
        assert_eq!(fam.levels, MAX_LEVELS);
        assert!(fam.levels * BUCKETS <= usize::from(u8::MAX));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn empty_checks_the_phase() {
        SketchFamily::new(10, 2, 0).empty(2);
    }

    #[test]
    #[should_panic(expected = "vertex 10 out of range")]
    fn prepare_rejects_unknown_vertices() {
        SketchFamily::new(10, 1, 0).prepare(0, 3, 10);
    }

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
}

/// A sparse ℓ0-sampler: only nonzero cells are materialized.
///
/// Small machines build *partial* sketches from a handful of local edges, so
/// almost all of the `levels × BUCKETS` cells are zero; shipping and storing
/// them sparsely keeps the per-machine footprint proportional to the local
/// edge count (times `O(log n)`) instead of the dense sketch size. Linear:
/// merging sparse sketches adds cells pointwise. Decoding happens on dense
/// sums ([`L0Sampler::merge_cells`]). This is the one-key form, kept as the
/// reference the tests hold the batched kernels to; the engine ships many
/// keys at once as a [`PartialBatch`](crate::PartialBatch).
///
/// Cells live in one contiguous vector sorted by cell index (canonical: no
/// zero cells), so equal sums are equal values whatever order the updates
/// and merges ran in.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SparseSketch {
    /// `(cell index, cell)`, strictly ascending by index, no zero cells.
    cells: Vec<SparseCell>,
}

impl SparseSketch {
    /// The sketch holding `cells`: strictly ascending by index, nonzero
    /// (one row of a [`PartialBatch`](crate::PartialBatch)).
    pub fn from_sorted_cells(cells: impl IntoIterator<Item = SparseCell>) -> Self {
        let cells: Vec<_> = cells.into_iter().collect();
        debug_assert!(cells.windows(2).all(|w| w[0].0 < w[1].0));
        SparseSketch { cells }
    }

    /// The nonzero cells, strictly ascending by index.
    pub fn cells(&self) -> &[SparseCell] {
        &self.cells
    }

    /// Adds a prepared edge to the sketch of its endpoint `endpoint` (the
    /// sparse counterpart of [`L0Sampler::apply`]).
    pub fn apply(&mut self, update: &EdgeUpdate, endpoint: VertexId) {
        let cells = update.sparse_cells(endpoint).collect();
        self.merge(&SparseSketch { cells });
    }

    /// Merges another sparse sketch (linearity): appends its cells, sorts
    /// by index, sums cells of equal index and drops zero sums, so
    /// cancellation keeps the representation minimal.
    pub fn merge(&mut self, other: &SparseSketch) {
        self.cells.extend_from_slice(&other.cells);
        self.cells.sort_unstable_by_key(|c| c.0);
        // Folds each cell into the kept one of equal index before it.
        self.cells.dedup_by(|next, sum| {
            let same = next.0 == sum.0;
            if same {
                sum.1.merge(&next.1);
            }
            same
        });
        self.cells.retain(|c| !c.1.is_zero());
    }
}

impl Payload for SparseSketch {
    fn words(&self) -> usize {
        // 1 index word + 3 payload words per nonzero cell.
        4 * self.cells.len()
    }
}

#[cfg(test)]
mod sparse_tests {
    use super::*;

    fn dense_of(fam: &SketchFamily, sparse: &SparseSketch) -> L0Sampler {
        let mut dense = fam.empty(0);
        dense.merge_cells(sparse.cells().iter().copied());
        dense
    }

    #[test]
    fn sparse_matches_dense() {
        let fam = SketchFamily::new(60, 1, 3);
        let mut dense = fam.empty(0);
        let mut sparse = SparseSketch::default();
        for v in 1..20 {
            fam.add_edge(&mut dense, 0, v);
            sparse.apply(&fam.prepare(0, 0, v), 0);
        }
        assert_eq!(dense_of(&fam, &sparse), dense);
    }

    #[test]
    fn sparse_merge_cancels() {
        let fam = SketchFamily::new(30, 1, 5);
        let mut a = SparseSketch::default();
        let mut b = SparseSketch::default();
        let edge = fam.prepare(0, 2, 7);
        a.apply(&edge, 2);
        b.apply(&edge, 7);
        a.merge(&b);
        assert_eq!(a.cells().len(), 0);
        assert!(fam.decode(&dense_of(&fam, &a)).is_none());
    }

    /// The merge as it was before cells were gathered and summed in place:
    /// a two-pointer join into a freshly allocated vector. Kept as the oracle.
    fn reference_merge(a: &SparseSketch, b: &SparseSketch) -> SparseSketch {
        let mut out = Vec::with_capacity(a.cells.len() + b.cells.len());
        let (a, b) = (&a.cells, &b.cells);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let mut cell = a[i].1;
                    cell.merge(&b[j].1);
                    if !cell.is_zero() {
                        out.push((a[i].0, cell));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        SparseSketch { cells: out }
    }

    proptest::proptest! {
        /// `merge` == allocate-and-join merge on sketches of random edge
        /// sets around one vertex and its neighbours, including empty
        /// operands, partial cancellation and full cancellation.
        #[test]
        fn in_place_merge_matches_reference(
            ours in proptest::collection::vec(1u32..40, 0..30),
            theirs in proptest::collection::vec(1u32..40, 0..30),
            seed in proptest::any::<u64>(),
        ) {
            let fam = SketchFamily::new(40, 1, seed);
            // `a` sketches vertex 0's side of its edges; `b` the far side of
            // another edge set, so shared edges cancel and the rest survive.
            let mut a = SparseSketch::default();
            for &v in &ours {
                a.apply(&fam.prepare(0, 0, v), 0);
            }
            let mut b = SparseSketch::default();
            for &v in &theirs {
                b.apply(&fam.prepare(0, 0, v), v);
            }
            let want = reference_merge(&a, &b);
            let mut got = a.clone();
            got.merge(&b);
            assert_eq!(got, want);
            assert!(got.cells.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(got.cells.iter().all(|c| !c.1.is_zero()));

            // Many operands, in another order.
            let mut all = SparseSketch::default();
            for operand in [&b, &SparseSketch::default(), &a, &b, &a] {
                all.merge(operand);
            }
            assert_eq!(all, reference_merge(&want, &want));

            // Full cancellation: the far sides of exactly `a`'s edges.
            let mut mirror = SparseSketch::default();
            for &v in &ours {
                mirror.apply(&fam.prepare(0, 0, v), v);
            }
            assert_eq!(reference_merge(&a, &mirror).cells().len(), 0);
            a.merge(&mirror);
            assert_eq!(a.cells().len(), 0);
        }
    }

    #[test]
    fn sparse_words_track_nnz() {
        let fam = SketchFamily::new(100, 1, 1);
        let mut s = SparseSketch::default();
        assert_eq!(s.words(), 0);
        s.apply(&fam.prepare(0, 1, 2), 1);
        assert!(s.words() >= 4);
        assert_eq!(s.words(), 4 * s.cells().len());
    }
}
