//! The six zoo models every workload runs, their seeded inputs and the
//! reference interpreter's outputs for them.

use torch2chip::core::intmodel::IntOp;
use torch2chip::core::{zoo, IntModel};
use torch2chip::tensor::Tensor;

use crate::stats::Rng;

/// Benchmark names of the zoo models, in the order [`build`] returns
/// them; metric names use these. The first [`MLP_FAMILY`] are the MLP
/// family, the rest the trained CNN/ViT models.
pub const NAMES: [&str; 6] =
    ["tiny-mlp", "mlp-pruned80", "mlp-nm24", "mobilenet-ptq", "resnet-qat", "vit-ptq"];
pub const MLP_FAMILY: usize = 3;

/// Share of serving requests that go to the MLP family.
const MLP_SHARE: f64 = 0.7;

pub struct ZooModel {
    pub name: &'static str,
    pub model: IntModel,
    /// Single-sample input shape (batch axis 1).
    pub dims: Vec<usize>,
}

/// Trains, calibrates and converts the zoo (fixed internal seeds: the
/// models are the same in every run; only the inputs follow `--seed`).
pub fn build() -> Vec<ZooModel> {
    let built = [
        zoo::tiny_mlp(),
        zoo::tiny_mlp_pruned(0.8),
        zoo::tiny_mlp_nm(2, 4),
        zoo::mobilenet_ptq(),
        zoo::resnet_qat(),
        zoo::vit_ptq(),
    ];
    NAMES.iter().zip(built).map(|(&name, (model, dims))| ZooModel { name, model, dims }).collect()
}

impl ZooModel {
    /// A batch of input codes drawn uniformly from the model's input grid.
    pub fn input(&self, batch: usize, rng: &mut Rng) -> Tensor<i32> {
        let Some(IntOp::Quantize { spec, .. }) = self.model.nodes.first().map(|n| &n.op) else {
            panic!("zoo model {} does not start with a Quantize node", self.name);
        };
        let (lo, hi) = (spec.qmin(), spec.qmax());
        let span = (hi - lo + 1) as usize;
        let mut dims = self.dims.clone();
        dims[0] = batch;
        Tensor::from_fn(&dims, |_| lo + rng.below(span) as i32)
    }

    /// The reference interpreter's output for `x`.
    pub fn reference(&self, x: &Tensor<i32>) -> Vec<i32> {
        self.model.run_quantized(x).expect("reference interpreter run").as_slice().to_vec()
    }
}

/// Picks a serving request's model: [`MLP_SHARE`] of requests go to the
/// MLP family, the rest to the CNN/ViT models, in equal thirds each.
pub fn pick_model(rng: &mut Rng) -> usize {
    if rng.unit() < MLP_SHARE {
        rng.below(MLP_FAMILY)
    } else {
        MLP_FAMILY + rng.below(NAMES.len() - MLP_FAMILY)
    }
}

/// Per model, a pool of seeded batch-1 inputs and their reference outputs.
pub struct InputPool {
    pub inputs: Vec<Vec<Tensor<i32>>>,
    pub refs: Vec<Vec<Vec<i32>>>,
}

/// Inputs per model in a serving pool.
pub const POOL: usize = 16;

impl InputPool {
    /// Draws the pool from `seed` and computes the reference outputs
    /// (callers keep this out of set-up and timing).
    pub fn new(zoo: &[ZooModel], seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let inputs: Vec<Vec<Tensor<i32>>> =
            zoo.iter().map(|m| (0..POOL).map(|_| m.input(1, &mut rng)).collect()).collect();
        let refs = zoo
            .iter()
            .zip(&inputs)
            .map(|(m, xs)| xs.iter().map(|x| m.reference(x)).collect())
            .collect();
        InputPool { inputs, refs }
    }
}
