//! Tiled (sliding-window) inference for frames larger than memory or
//! latency budgets allow in one pass.
//!
//! The paper's frames are 3840x2160; even deterministic inference on such
//! frames is best done in tiles. Predictions are computed on overlapping
//! tiles and stitched by keeping each tile's *interior* (the overlap
//! margin absorbs convolution edge effects, so stitched output matches
//! whole-image inference away from the frame border).
//!
//! Since the audit PR the tiler is **batched**: consecutive tiles are
//! grouped under a cache budget and pushed through the stacked-GEMM
//! engine ([`MsdNet::forward_eval_batch`]) — one column-stacked im2col
//! GEMM per branch convolution and one GEMM per 1x1 head for the whole
//! group, bit-identical to the per-tile loop (which survives as
//! [`segment_tiled_reference`]).

use el_geom::{Grid, LabelMap, Rect, SemanticClass};
use el_nn::layers::Window;
use el_nn::{Tensor, Workspace};
use el_scene::Image;

use crate::data::{argmax_labels, image_to_tensor};
use crate::infer::segment_ws;
use crate::msdnet::MsdNet;

/// Tiling configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileConfig {
    /// Tile side length (pixels).
    pub tile: usize,
    /// Overlap margin on each side (pixels); should be at least the
    /// network's receptive-field radius.
    pub margin: usize,
}

impl TileConfig {
    /// Defaults: 128 px tiles with an 8 px margin (enough for dilation-4
    /// 3x3 branches whose receptive radius is 4).
    pub fn default_128() -> Self {
        TileConfig {
            tile: 128,
            margin: 8,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.tile == 0 {
            return Err("tile must be positive".into());
        }
        if self.margin * 2 >= self.tile {
            return Err("margin must be smaller than half the tile".into());
        }
        Ok(())
    }
}

/// One planned tile: the crop rectangle plus the interior this tile is
/// responsible for in the stitched output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// The crop rectangle, in image coordinates.
    pub rect: Rect,
    /// Kept interior, crop-local: `[keep_x0, keep_x1) x [keep_y0, keep_y1)`.
    pub keep_x0: usize,
    /// See [`Tile::keep_x0`].
    pub keep_y0: usize,
    /// Exclusive end of the kept columns.
    pub keep_x1: usize,
    /// Exclusive end of the kept rows.
    pub keep_y1: usize,
}

impl Tile {
    /// The kept interior as a rectangle in **image** coordinates.
    pub fn keep_rect(&self) -> Rect {
        Rect::new(
            self.rect.x + self.keep_x0 as i64,
            self.rect.y + self.keep_y0 as i64,
            (self.keep_x1 - self.keep_x0) as i64,
            (self.keep_y1 - self.keep_y0) as i64,
        )
    }

    /// The kept interior as a crop-local output window — the only
    /// pixels the batched tilers compute for this tile.
    pub fn keep_window(&self) -> Window {
        Window {
            y0: self.keep_y0,
            x0: self.keep_x0,
            h: self.keep_y1 - self.keep_y0,
            w: self.keep_x1 - self.keep_x0,
        }
    }
}

/// The tile origins along one axis: `step = tile - 2·margin` strides,
/// with the last origin clamped so the final tile ends at the border.
fn axis_cuts(span: usize, config: TileConfig) -> Vec<usize> {
    let step = config.tile - 2 * config.margin;
    let mut cuts = Vec::new();
    let mut c0 = 0usize;
    loop {
        let c = c0.min(span.saturating_sub(config.tile));
        cuts.push(c);
        if c + config.tile >= span {
            return cuts;
        }
        c0 += step;
    }
}

/// The kept interval (crop-local, half-open) of each tile along one axis:
/// everything but the margin, extended to the frame border on boundary
/// tiles, and trimmed so consecutive keeps are **disjoint** — where the
/// clamped last tile would overlap its neighbour, the later tile owns the
/// overlap (the overwrite order of the streaming stitcher).
fn axis_keeps(
    cuts: &[usize],
    span: usize,
    extent: usize,
    config: TileConfig,
) -> Vec<(usize, usize)> {
    let mut keeps: Vec<(usize, usize)> = cuts
        .iter()
        .map(|&c| {
            let k0 = if c == 0 { 0 } else { config.margin };
            let k1 = if c + config.tile >= span {
                extent
            } else {
                extent - config.margin
            };
            (k0, k1)
        })
        .collect();
    for i in 0..keeps.len().saturating_sub(1) {
        let next_start = cuts[i + 1] + keeps[i + 1].0;
        if cuts[i] + keeps[i].1 > next_start {
            keeps[i].1 = next_start - cuts[i];
        }
    }
    keeps
}

/// Plans the overlapping tile grid for a `width x height` frame: each
/// pixel is kept by **exactly one** tile, every kept pixel sits at least
/// `margin` pixels from its tile's cut edges (frame borders excepted),
/// and tiles are emitted in row-major order.
///
/// This planner is shared by deterministic tiling ([`segment_tiled`]) and
/// the Bayesian tiled driver in `el-monitor`, whose partial-coverage
/// accounting relies on disjoint keeps.
///
/// # Panics
///
/// Panics if the configuration fails [`TileConfig::validate`] or the
/// frame is empty.
pub fn plan_tiles(width: usize, height: usize, config: TileConfig) -> Vec<Tile> {
    if let Err(e) = config.validate() {
        panic!("invalid tile configuration: {e}");
    }
    assert!(width > 0 && height > 0, "frame must be non-empty");
    let (cw, ch) = (config.tile.min(width), config.tile.min(height));
    let xs = axis_cuts(width, config);
    let ys = axis_cuts(height, config);
    let keep_x = axis_keeps(&xs, width, cw, config);
    let keep_y = axis_keeps(&ys, height, ch, config);
    let mut tiles = Vec::with_capacity(xs.len() * ys.len());
    for (&ty, &(ky0, ky1)) in ys.iter().zip(&keep_y) {
        for (&tx, &(kx0, kx1)) in xs.iter().zip(&keep_x) {
            tiles.push(Tile {
                rect: Rect::new(tx as i64, ty as i64, cw as i64, ch as i64),
                keep_x0: kx0,
                keep_y0: ky0,
                keep_x1: kx1,
                keep_y1: ky1,
            });
        }
    }
    tiles
}

/// Orders tile indices so tiles whose kept interior intersects any
/// priority rectangle come first; order is otherwise stable (row-major),
/// so a latency-budgeted consumer covers the priority regions before
/// spending budget on background tiles.
pub fn prioritize_tiles(tiles: &[Tile], priority: &[Rect]) -> Vec<usize> {
    let is_priority = |t: &Tile| {
        let keep = t.keep_rect();
        priority.iter().any(|r| keep.intersects(*r))
    };
    let mut order: Vec<usize> = (0..tiles.len()).collect();
    order.sort_by_key(|&i| usize::from(!is_priority(&tiles[i])));
    order
}

/// Pixel-column budget of one batched tile group in [`segment_tiled`]:
/// consecutive tiles whose combined kept-pixel count (the columns actually
/// computed) stays within it share one batched engine invocation. The group's working set (im2col rows,
/// stacked prefix, head activations — roughly 120 f32 per pixel at the
/// paper config) must stay L2-resident: wider groups stream every pass
/// through outer cache levels and lose to the cache-local per-tile loop
/// (measured in `perf_audit`). Grouping is a pure performance knob: any
/// partition produces bit-identical labels, so large tiles simply degrade
/// to one engine call each.
const EVAL_GROUP_COLUMNS: usize = 4 * 1024;

/// Segments an image tile by tile, stitching interior predictions.
///
/// Produces the same labels as [`segment`] except possibly within
/// `margin` pixels of internal tile seams where convolution padding
/// differs; with `margin >= receptive-field radius` the outputs are
/// identical (verified by tests).
///
/// Tiles are processed in cache-budgeted groups through the stacked-GEMM
/// engine, which pays off twice over the per-tile loop
/// ([`segment_tiled_reference`]):
///
/// - each branch convolution of a group lowers into one column-stacked
///   im2col GEMM across all its tiles instead of one im2col per tile;
/// - only the **kept interiors** are computed: the prefix at each
///   tile's kept window ([`MsdNet::mc_prefix_batch_windowed`]), then
///   the 1x1 head GEMMs and the softmax/argmax over the column-stacked
///   keeps ([`MsdNet::eval_head_columns`]). Margin pixels — which the
///   stitcher discards anyway — feed the branch convolutions' taps (where
///   the receptive field needs them) but are never computed themselves.
///   The per-tile loop spends full passes on them.
///
/// Labels are **bit-identical** to the per-tile loop (property-tested):
/// stacked GEMM columns reduce in the same strict order as per-tile
/// GEMMs, and softmax/argmax are per-pixel operations.
///
/// # Panics
///
/// Panics if the configuration fails [`TileConfig::validate`].
pub fn segment_tiled(net: &MsdNet, image: &Image, config: TileConfig) -> LabelMap {
    // One workspace across all groups: tiles share buffer shapes, so only
    // the first group's pass allocates.
    let mut ws = Workspace::new();
    let (w, h) = (image.width(), image.height());
    if w <= config.tile && h <= config.tile {
        if let Err(e) = config.validate() {
            panic!("invalid tile configuration: {e}");
        }
        return segment_ws(net, image, &mut ws).labels;
    }
    let mut out: LabelMap = Grid::new(w, h, SemanticClass::Clutter);
    let tiles = plan_tiles(w, h, config);
    let cfg = net.config();
    let fc = cfg.branch_channels * cfg.dilations.len();
    let classes = cfg.classes;
    let mut start = 0usize;
    while start < tiles.len() {
        // Grow the group while it fits the column budget (always at
        // least one tile).
        let mut end = start + 1;
        let mut cols = tiles[start].keep_window().area();
        while end < tiles.len() {
            let hw = tiles[end].keep_window().area();
            if cols + hw > EVAL_GROUP_COLUMNS {
                break;
            }
            cols += hw;
            end += 1;
        }
        let group = &tiles[start..end];
        let inputs: Vec<Tensor> = group
            .iter()
            .map(|t| image_to_tensor(&image.crop(t.rect).expect("tile within image")))
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let windows: Vec<Window> = group.iter().map(Tile::keep_window).collect();
        let fused = net.mc_prefix_batch_windowed(&refs, &windows, &mut ws);
        // Column-stack the kept interiors for the pointwise heads.
        let n_keep: usize = windows.iter().map(Window::area).sum();
        let mut x = ws.take(fc * n_keep);
        let mut off = 0usize;
        for f in fused {
            let hw = f.height() * f.width();
            for c in 0..fc {
                x[c * n_keep + off..c * n_keep + off + hw].copy_from_slice(f.channel(c));
            }
            off += hw;
            ws.recycle(f);
        }
        let logits = net.eval_head_columns(&x, n_keep, &mut ws);
        ws.give(x);
        // Same per-pixel softmax-then-argmax as `segment_ws`, over the
        // stacked kept columns (both are per-pixel operations, so the
        // stacked layout changes nothing — including tie-breaks).
        let mut stacked = Tensor::from_vec(classes, 1, n_keep, logits)
            .expect("stacked buffer sized to the logits");
        el_nn::loss::softmax_in_place(&mut stacked);
        let pred = argmax_labels(&stacked);
        ws.recycle(stacked);
        let mut off = 0usize;
        for t in group {
            let (tx, ty) = (t.rect.x as usize, t.rect.y as usize);
            for yy in t.keep_y0..t.keep_y1 {
                for xx in t.keep_x0..t.keep_x1 {
                    out[(tx + xx, ty + yy)] = pred[(off, 0)];
                    off += 1;
                }
            }
        }
        start = end;
    }
    out
}

/// The sequential per-tile reference tiler — one full engine pass per
/// tile, retained as the ground truth [`segment_tiled`] must reproduce
/// bit for bit (property-tested) and as the `perf_audit` benchmark
/// baseline.
///
/// # Panics
///
/// Panics if the configuration fails [`TileConfig::validate`].
pub fn segment_tiled_reference(net: &MsdNet, image: &Image, config: TileConfig) -> LabelMap {
    let mut ws = Workspace::new();
    let (w, h) = (image.width(), image.height());
    if w <= config.tile && h <= config.tile {
        if let Err(e) = config.validate() {
            panic!("invalid tile configuration: {e}");
        }
        return segment_ws(net, image, &mut ws).labels;
    }
    let mut out: LabelMap = Grid::new(w, h, SemanticClass::Clutter);
    for tile in plan_tiles(w, h, config) {
        let crop = image.crop(tile.rect).expect("tile within image");
        let pred = segment_ws(net, &crop, &mut ws).labels;
        let (tx, ty) = (tile.rect.x as usize, tile.rect.y as usize);
        for yy in tile.keep_y0..tile.keep_y1 {
            for xx in tile.keep_x0..tile.keep_x1 {
                out[(tx + xx, ty + yy)] = pred[(xx, yy)];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::segment;
    use crate::msdnet::MsdNetConfig;
    use el_scene::{Conditions, Scene, SceneParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net() -> MsdNet {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        MsdNet::new(&MsdNetConfig::tiny(), &mut rng)
    }

    fn image(w: usize, h: usize) -> Image {
        let mut p = SceneParams::small();
        p.width = w;
        p.height = h;
        Scene::generate(&p, 3).render(&Conditions::nominal(), 3)
    }

    #[test]
    fn small_image_single_tile() {
        let mut n = net();
        let img = image(48, 48);
        let tiled = segment_tiled(
            &n,
            &img,
            TileConfig {
                tile: 64,
                margin: 4,
            },
        );
        let whole = segment(&mut n, &img).labels;
        assert_eq!(tiled, whole);
    }

    #[test]
    fn tiled_matches_whole_image_with_sufficient_margin() {
        let mut n = net();
        // tiny config: max dilation 2 on 3x3 -> receptive radius 2 per
        // branch, plus the 1x1 head: total radius 2. margin 4 suffices.
        let img = image(96, 80);
        let tiled = segment_tiled(
            &n,
            &img,
            TileConfig {
                tile: 48,
                margin: 4,
            },
        );
        let whole = segment(&mut n, &img).labels;
        let mismatches = tiled
            .iter()
            .zip(whole.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(mismatches, 0, "{mismatches} mismatching pixels");
    }

    #[test]
    fn non_divisible_sizes_covered() {
        let mut n = net();
        let img = image(70, 53);
        let tiled = segment_tiled(
            &n,
            &img,
            TileConfig {
                tile: 32,
                margin: 4,
            },
        );
        assert_eq!(tiled.width(), 70);
        assert_eq!(tiled.height(), 53);
        let whole = segment(&mut n, &img).labels;
        assert_eq!(tiled, whole);
    }

    #[test]
    fn plan_partitions_frame_with_margins() {
        for (w, h, tile, margin) in [
            (96usize, 80usize, 48usize, 4usize),
            (70, 53, 32, 4),
            (30, 30, 48, 4),
            (128, 31, 32, 8),
        ] {
            let cfg = TileConfig { tile, margin };
            let tiles = plan_tiles(w, h, cfg);
            // Every pixel kept exactly once.
            let mut owners = Grid::new(w, h, 0usize);
            for t in &tiles {
                assert!(
                    Rect::new(0, 0, w as i64, h as i64).contains_rect(t.rect),
                    "tile {t:?} overruns the frame"
                );
                for p in t.keep_rect().pixels() {
                    owners[(p.x as usize, p.y as usize)] += 1;
                }
                // Kept pixels are at least `margin` from the cut edges of
                // the crop (image borders excepted).
                if t.rect.x > 0 {
                    assert!(t.keep_x0 >= margin);
                }
                if t.rect.right() < w as i64 {
                    assert!(t.keep_x1 + margin <= t.rect.w as usize);
                }
                if t.rect.y > 0 {
                    assert!(t.keep_y0 >= margin);
                }
                if t.rect.bottom() < h as i64 {
                    assert!(t.keep_y1 + margin <= t.rect.h as usize);
                }
            }
            assert!(
                owners.iter().all(|&n| n == 1),
                "{w}x{h} tile {tile} margin {margin}: coverage not a partition"
            );
        }
    }

    #[test]
    fn batched_tiler_matches_reference_bitwise() {
        // Small tiles force multi-tile groups through the stacked-GEMM
        // path; odd sizes exercise clamped boundary tiles.
        let n = net();
        for (w, h, tile, margin) in [
            (96usize, 80usize, 24usize, 4usize),
            (70, 53, 16, 4),
            (81, 81, 32, 8),
        ] {
            let img = image(w, h);
            let cfg = TileConfig { tile, margin };
            let batched = segment_tiled(&n, &img, cfg);
            let reference = segment_tiled_reference(&n, &img, cfg);
            assert_eq!(
                batched, reference,
                "{w}x{h} tile {tile} margin {margin}: batched tiler diverges"
            );
        }
    }

    #[test]
    fn plan_tiles_fuzz_partition_and_disjoint_keeps() {
        // Randomized frame sizes and tile configurations: kept interiors
        // must be pairwise-disjoint and exactly cover the frame, with
        // every tile inside the frame and keeps inside their tile.
        use rand::Rng;
        let mut r = ChaCha8Rng::seed_from_u64(0xF1E1D);
        let mut cases = 0usize;
        while cases < 250 {
            let w = r.gen_range(1usize..180);
            let h = r.gen_range(1usize..180);
            let tile = r.gen_range(1usize..64);
            let margin = r.gen_range(0usize..32);
            let cfg = TileConfig { tile, margin };
            if cfg.validate().is_err() {
                continue;
            }
            cases += 1;
            let tiles = plan_tiles(w, h, cfg);
            let bounds = Rect::new(0, 0, w as i64, h as i64);
            let mut owners = Grid::new(w, h, 0usize);
            for t in &tiles {
                assert!(
                    bounds.contains_rect(t.rect),
                    "{w}x{h} tile {tile} margin {margin}: {t:?} overruns the frame"
                );
                assert!(t.keep_x0 <= t.keep_x1 && t.keep_x1 <= t.rect.w as usize);
                assert!(t.keep_y0 <= t.keep_y1 && t.keep_y1 <= t.rect.h as usize);
                for p in t.keep_rect().pixels() {
                    owners[(p.x as usize, p.y as usize)] += 1;
                }
            }
            assert!(
                owners.iter().all(|&n| n == 1),
                "{w}x{h} tile {tile} margin {margin}: keeps are not a partition"
            );
        }
    }

    #[test]
    fn prioritized_tiles_come_first() {
        let cfg = TileConfig {
            tile: 32,
            margin: 4,
        };
        let tiles = plan_tiles(96, 96, cfg);
        let target = Rect::new(60, 60, 10, 10);
        let order = prioritize_tiles(&tiles, &[target]);
        assert_eq!(order.len(), tiles.len());
        let k = order
            .iter()
            .take_while(|&&i| tiles[i].keep_rect().intersects(target))
            .count();
        assert!(k >= 1, "at least one tile must cover the target");
        // After the priority block, no tile touches the target.
        assert!(order[k..]
            .iter()
            .all(|&i| !tiles[i].keep_rect().intersects(target)));
        // And the full order is a permutation.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..tiles.len()).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "invalid tile configuration")]
    fn oversized_margin_rejected() {
        let n = net();
        let img = image(32, 32);
        let _ = segment_tiled(
            &n,
            &img,
            TileConfig {
                tile: 16,
                margin: 8,
            },
        );
    }
}
