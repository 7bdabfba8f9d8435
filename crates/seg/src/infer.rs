//! Deterministic full-image inference.

use el_geom::LabelMap;
use el_nn::{Tensor, Workspace};
use el_scene::Image;

use crate::data::{argmax_labels, image_to_tensor};
use crate::msdnet::MsdNet;

/// The result of segmenting an image.
#[derive(Debug, Clone)]
pub struct SegResult {
    /// Per-pixel softmax probabilities, shape `(classes, h, w)`.
    pub probs: Tensor,
    /// Per-pixel argmax prediction.
    pub labels: LabelMap,
}

/// Segments an image with the standard (deterministic) network — the
/// paper's *core function*.
///
/// Runs the network in [`Phase::Eval`], so dropout is inactive; the
/// Bayesian stochastic mode lives in the `el-monitor` crate.
pub fn segment(net: &mut MsdNet, image: &Image) -> SegResult {
    let input = image_to_tensor(image);
    segment_tensor(net, &input)
}

/// Segments a pre-converted input tensor (shape `(3, h, w)`).
pub fn segment_tensor(net: &mut MsdNet, input: &Tensor) -> SegResult {
    let mut ws = Workspace::new();
    segment_tensor_ws(net, input, &mut ws)
}

/// Workspace-reusing variant of [`segment`]: repeated calls with a warm
/// workspace allocate no activation buffer in the network forward pass.
///
/// The forward pass runs band-major ([`MsdNet::forward_eval`]): one
/// cache-resident row band of at most [`crate::BAND_COLUMNS`] pixels at
/// a time, bit-identical to a whole-frame pass; softmax and argmax then
/// run once over the whole logits tensor. Deterministic Eval inference
/// never mutates the network, hence `&MsdNet`.
pub fn segment_ws(net: &MsdNet, image: &Image, ws: &mut Workspace) -> SegResult {
    segment_tensor_ws(net, &image_to_tensor(image), ws)
}

/// Workspace-reusing variant of [`segment_tensor`].
pub fn segment_tensor_ws(net: &MsdNet, input: &Tensor, ws: &mut Workspace) -> SegResult {
    let mut probs = net.forward_eval(input, ws);
    el_nn::loss::softmax_in_place(&mut probs);
    let labels = argmax_labels(&probs);
    SegResult { probs, labels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msdnet::MsdNetConfig;
    use el_scene::{Conditions, Scene, SceneParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn segmentation_shapes_match() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let scene = Scene::generate(&SceneParams::small(), 0);
        let image = scene.render(&Conditions::nominal(), 0);
        let res = segment(&mut net, &image);
        assert_eq!(res.labels.width(), image.width());
        assert_eq!(res.labels.height(), image.height());
        assert_eq!(res.probs.shape(), (8, image.height(), image.width()));
    }

    #[test]
    fn probabilities_normalised() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let scene = Scene::generate(&SceneParams::small(), 1);
        let image = scene.render(&Conditions::nominal(), 1);
        let res = segment(&mut net, &image);
        let (c, h, w) = res.probs.shape();
        for i in 0..(h * w).min(64) {
            let s: f32 = (0..c).map(|k| res.probs.as_slice()[k * h * w + i]).sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn repeated_inference_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let scene = Scene::generate(&SceneParams::small(), 2);
        let image = scene.render(&Conditions::nominal(), 2);
        let a = segment(&mut net, &image);
        let b = segment(&mut net, &image);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.probs, b.probs);
    }
}
