//! The input prefix of a network: its leading layers that carry no state and
//! report no spike density (conv1 + BN1 in both scaled models).
//!
//! In [`Mode::Eval`] such layers are row-wise pure functions of their input
//! and parameters (the [`crate::Layer`] contract), and under direct encoding
//! a static sample feeds the same frame at every timestep (Sec. II), so a
//! row's prefix output is a constant of its window. [`PrefixCache`] keeps
//! it, per batch row, next to the input that produced it: a step reuses a
//! row whose input is bit-identical and whose entry is not stale, and runs
//! only the other rows through the prefix — as one gathered sub-batch whose
//! outputs are written back into their rows. Reuse does the same arithmetic
//! once instead of again, so every output is bitwise what a cache-free
//! forward computes.
//!
//! The cached rows are carried state: `Snn::compact_batch` gathers them
//! ([`PrefixCache::compact`]) and `Snn::admit_batch_rows` appends stale rows
//! ([`PrefixCache::admit`]). Everything that may change a prefix layer's
//! parameters or Eval behaviour drops them ([`PrefixCache::clear`]).
//!
//! The rows live in buffers the cache owns and keeps when its entries are
//! dropped, never in arena buffers: held across a window, arena buffers
//! would change which parked buffer later takes find, and cost warmed loops
//! arena misses.

use crate::layer::Mode;
use crate::layers::copy_through;
use crate::network::LayerNode;
use crate::Result;
use dtsnn_tensor::{AlignedVec, Tensor, Workspace};

/// Prefix rows a network reused and recomputed, counted since the last
/// [`crate::Snn::reset_workspace_stats`]: the hit rate of the cache behind
/// [`crate::Snn::forward_timestep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixStats {
    /// Rows whose cached prefix output a step reused.
    pub reused: u64,
    /// Rows a step ran through the prefix.
    pub recomputed: u64,
}

/// One cached `[rows, ..]` tensor, or none, in a buffer the cache owns:
/// kept, capacity and all, when the rows are dropped, so a warmed loop never
/// reallocates it.
#[derive(Debug, Default)]
struct Rows {
    tensor: Option<Tensor>,
    spare: AlignedVec,
}

impl Rows {
    fn clear(&mut self) {
        if let Some(t) = self.tensor.take() {
            self.spare = t.into_aligned();
        }
    }

    /// Replaces the rows with a copy of `src`.
    fn set(&mut self, src: &Tensor) {
        self.clear();
        let mut buf = std::mem::take(&mut self.spare);
        buf.clear();
        buf.extend_from_slice(src.data());
        self.tensor = Some(Tensor::from_aligned(buf, src.dims()).expect("copied from src"));
    }

    /// Rebuilds the rows at `rows` axis-0 rows: `edit(buffer, row_len)`
    /// leaves exactly that many rows in the buffer.
    fn edit(&mut self, rows: usize, edit: impl FnOnce(&mut AlignedVec, usize)) {
        let Some(t) = self.tensor.take() else { return };
        let mut dims = t.dims().to_vec();
        let row_len: usize = dims[1..].iter().product();
        let mut buf = t.into_aligned();
        edit(&mut buf, row_len);
        dims[0] = rows;
        self.tensor = Some(Tensor::from_aligned(buf, &dims).expect("edit leaves `rows` rows"));
    }
}

/// Per-row prefix outputs and the inputs that produced them: `input` and
/// `output` both hold one axis-0 row per batch row and `stale` one flag per
/// row, or nothing is cached.
#[derive(Debug, Default)]
pub(crate) struct PrefixCache {
    /// `[rows, ..]` inputs the cached outputs were computed from.
    input: Rows,
    /// `[rows, ..]` prefix outputs.
    output: Rows,
    /// Per row: the entry must be recomputed whatever the input is (an
    /// admitted row, whose padding is not a prefix output).
    stale: Vec<bool>,
    /// Scratch: the rows this step recomputes.
    missed: Vec<usize>,
    stats: PrefixStats,
}

impl PrefixCache {
    /// Drops every cached row (the buffers are kept for the next entries).
    pub(crate) fn clear(&mut self) {
        self.input.clear();
        self.output.clear();
        self.stale.clear();
    }

    /// Cached rows, `None` when nothing is cached.
    pub(crate) fn rows(&self) -> Option<usize> {
        self.input.tensor.as_ref().map(|t| t.dims()[0])
    }

    /// Keeps the cached `rows`, in order (indices checked by the caller).
    pub(crate) fn compact(&mut self, rows: &[usize]) {
        if self.rows().is_none() {
            return;
        }
        for cached in [&mut self.input, &mut self.output] {
            cached.edit(rows.len(), |buf, row_len| {
                buf.set_len(buf.len().max(rows.len() * row_len));
                gather(buf, row_len, rows);
                buf.set_len(rows.len() * row_len);
            });
        }
        self.stale.resize(self.stale.len().max(rows.len()), false);
        gather(&mut self.stale, 1, rows);
        self.stale.truncate(rows.len());
    }

    /// Appends `extra` stale rows.
    pub(crate) fn admit(&mut self, extra: usize) {
        let Some(rows) = self.rows() else { return };
        for cached in [&mut self.input, &mut self.output] {
            cached.edit(rows + extra, |buf, row_len| buf.resize(buf.len() + extra * row_len, 0.0));
        }
        self.stale.resize(rows + extra, true);
    }

    pub(crate) fn stats(&self) -> PrefixStats {
        self.stats
    }

    pub(crate) fn reset_stats(&mut self) {
        self.stats = PrefixStats::default();
    }

    /// The prefix output of every row of `input` (`[rows, ..]`, `rows > 0`):
    /// cached rows reused, the rest recomputed through `prefix` and cached.
    pub(crate) fn forward(
        &mut self,
        prefix: &mut [LayerNode],
        input: &Tensor,
        ws: &mut Workspace,
    ) -> Result<&Tensor> {
        let rows = input.dims()[0];
        let row_len = input.len() / rows;
        self.missed.clear();
        let cached = match (&mut self.input.tensor, &mut self.output.tensor) {
            (Some(cin), Some(cout)) if cin.dims() == input.dims() => {
                let (xs, cs) = (input.data(), cin.data());
                let pairs = xs.chunks_exact(row_len).zip(cs.chunks_exact(row_len));
                for (r, ((x, c), &stale)) in pairs.zip(&self.stale).enumerate() {
                    if stale || !same_bits(x, c) {
                        self.missed.push(r);
                    }
                }
                Some((cin, cout))
            }
            // nothing cached, or a new batch shape: every row misses
            _ => None,
        };
        let missed = if cached.is_some() { self.missed.len() } else { rows };
        self.stats.reused += (rows - missed) as u64;
        self.stats.recomputed += missed as u64;
        match cached {
            Some(_) if missed == 0 => {}
            Some((cin, cout)) if missed < rows => {
                // the missed rows as one sub-batch, written back row by row
                let mut dims = input.dims().to_vec();
                dims[0] = missed;
                let mut sub = ws.take_overwrite(missed * row_len);
                for (dst, &r) in sub.chunks_exact_mut(row_len).zip(&self.missed) {
                    dst.copy_from_slice(&input.data()[r * row_len..][..row_len]);
                }
                let sub = Tensor::from_aligned(sub, &dims)?;
                // same layers, same parameters, same input row dims: the
                // rows have the cached rows' dims
                let out = run(prefix, input, Some(sub), ws)?;
                let out_len = out.len() / missed;
                for (i, &r) in self.missed.iter().enumerate() {
                    cout.data_mut()[r * out_len..][..out_len]
                        .copy_from_slice(&out.data()[i * out_len..][..out_len]);
                    cin.data_mut()[r * row_len..][..row_len]
                        .copy_from_slice(&input.data()[r * row_len..][..row_len]);
                    self.stale[r] = false;
                }
                ws.recycle_tensor(out);
            }
            _ => {
                // every row: the batch itself, no gather
                let out = run(prefix, input, None, ws)?;
                self.input.set(input);
                self.output.set(&out);
                ws.recycle_tensor(out);
                self.stale.clear();
                self.stale.resize(rows, false);
            }
        }
        Ok(self.output.tensor.as_ref().expect("every row cached above"))
    }
}

/// Moves rows `rows[i]` of `data` (rows of `row_len`) to row `i`, for a
/// `data` at least `rows.len()` rows long. In place when `rows` ascends
/// strictly (every source at or after its destination), which is what the
/// window drivers pass; through a copy otherwise.
fn gather<T: Copy>(data: &mut [T], row_len: usize, rows: &[usize]) {
    let old = (!rows.windows(2).all(|w| w[0] < w[1])).then(|| data.to_vec());
    for (i, &r) in rows.iter().enumerate() {
        let src = r * row_len..(r + 1) * row_len;
        match &old {
            None => data.copy_within(src, i * row_len),
            Some(old) => data[i * row_len..][..row_len].copy_from_slice(&old[src]),
        }
    }
}

/// Whether two rows hold the same bits (`-0.0` and `0.0` differ, a NaN
/// equals its own bits). No early exit, so the loop vectorizes.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).fold(0, |diff, (x, y)| diff | (x.to_bits() ^ y.to_bits())) == 0
}

/// `x` (or, when `None`, the caller's `input`) through the prefix layers in
/// Eval, each intermediate — an owned `x` included — parked as soon as the
/// next layer has consumed it, which keeps a gathered sub-batch from
/// outliving the first layer.
fn run(
    prefix: &mut [LayerNode],
    input: &Tensor,
    mut x: Option<Tensor>,
    ws: &mut Workspace,
) -> Result<Tensor> {
    for node in prefix {
        let y = node.layer.forward_ws(x.as_ref().unwrap_or(input), Mode::Eval, ws)?;
        if let Some(prev) = x.replace(y) {
            ws.recycle_tensor(prev);
        }
    }
    x.map_or_else(|| copy_through(input, input.dims(), ws), Ok)
}

/// Number of leading layers that visit no carried slot and report no spike
/// density: the input prefix, row-wise pure in Eval (see [`crate::Layer`]).
pub(crate) fn prefix_len(layers: &mut [LayerNode]) -> usize {
    let total = layers.len();
    let stateful = layers.iter_mut().position(|node| {
        let mut carries = false;
        node.layer.visit_carried(&mut |_| carries = true);
        carries || node.layer.last_spike_density().is_some()
    });
    stateful.unwrap_or(total)
}
