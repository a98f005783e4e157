//! Everything a workload needs before its measured phase: smoke-scale
//! models trained afresh in a new directory, the images under
//! attack, the replay corpus and the serving stack.
//!
//! Models always train on the scale's fixed seed; the benchmark seed picks
//! only which images are used and in what order.

use crate::trace;
use crate::wrap::{TracedModel, TracedPipeline};
use adv_attacks::{Attack, DecisionRule};
use adv_eval::experiment::select_attack_set;
use adv_eval::sweep::AttackKind;
use adv_eval::zoo::{Scenario, Variant, Zoo};
use adv_eval::Scale;
use adv_magnet::{DefenseScheme, MagnetDefense, Verdict};
use adv_net::{NetServer, NetServerConfig, TenantPolicy};
use adv_nn::Sequential;
use adv_serve::{ServeConfig, DEFAULT_VARIANT};
use adv_tensor::{Shape, Tensor};
use adv_zoo::{ModelZoo, NullLoader, ZooConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, BoxError>;

/// Images per victim the craft workload cycles through.
const CRAFT_POOL: usize = 32;
/// Clean test images in the serving corpus.
const CORPUS_CLEAN: usize = 64;
/// Images attacked with each of EAD and C&W for the serving corpus.
const CORPUS_PER_ATTACK: usize = 8;
/// Shared secret of the wire workload's derived-key tenants.
pub const SECRET: u64 = 0xBE7C_4A11_0F0D_2018;

/// The two attacks of the paper's contrast, at the smoke attack config and
/// κ = 0. EAD uses the elastic-net rule at β = 1e-3: at this iteration
/// budget β = 0.1 succeeds on no image at all.
pub fn attacks(scale: &Scale) -> Result<[(&'static str, Box<dyn Attack>); 2]> {
    let ead = AttackKind::Ead {
        rule: DecisionRule::ElasticNet,
        beta: 1e-3,
    };
    Ok([
        ("ead", ead.build(0.0, scale)?),
        ("cw", AttackKind::Cw.build(0.0, scale)?),
    ])
}

/// A per-process temporary directory inside the working directory; removed
/// with everything under it when dropped.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create(root: &Path) -> Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = root.join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory for one set-up.
    pub fn fresh(&self, name: &str) -> Result<PathBuf> {
        let dir = self.path.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// splitmix64: the benchmark's own seeded stream, so inputs depend on the
/// seed and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Time spent in the set-up phases the traced run reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Whole set-up, from its start until the workload is ready.
    pub total: Duration,
    /// Inside `Zoo::classifier` / `Zoo::defense` (training + calibration).
    pub train: Duration,
    /// Crafting the serving corpus.
    pub corpus: Duration,
}

fn timed<T>(name: &'static str, acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let _span = trace::span(name, 0);
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed();
    out
}

/// An image under attack, one item (`[1, C, H, W]`) with its true label.
pub struct Target {
    pub image: Tensor,
    pub label: usize,
}

/// One victim of the craft workload.
pub struct Victim {
    pub net: Sequential,
    pub pool: Vec<Target>,
}

pub struct CraftEnv {
    pub victims: [Victim; 2],
    pub attacks: [(&'static str, Box<dyn Attack>); 2],
}

/// `n` correctly classified test images of `scenario`, chosen by `seed`.
fn targets(
    zoo: &Zoo,
    net: &mut Sequential,
    scenario: Scenario,
    n: usize,
    seed: u64,
) -> Result<Vec<Target>> {
    let data = zoo.data(scenario);
    let set = select_attack_set(net, &data.test, n, seed)?;
    set.labels
        .iter()
        .enumerate()
        .map(|(i, &label)| {
            Ok(Target {
                image: item(&set.images, i)?,
                label,
            })
        })
        .collect()
}

/// Item `i` of a batch as a one-item batch `[1, …]`.
pub fn item(batch: &Tensor, i: usize) -> Result<Tensor> {
    let one = batch.index_axis0(i)?;
    let mut dims = vec![1];
    dims.extend_from_slice(one.shape().dims());
    Ok(Tensor::from_vec(one.as_slice().to_vec(), Shape::new(dims))?)
}

/// Trains both victims afresh in `dir` and picks their images. The
/// pool is the same for every seed (the seed orders it, see `craft::run`):
/// crafting cost varies from image to image, and a seed must not change
/// how much work a run does.
pub fn craft(dir: &Path, times: &mut SetupTimes) -> Result<CraftEnv> {
    let scale = Scale::smoke();
    let zoo = Zoo::new(dir, scale);
    let mut victim = |scenario: Scenario| -> Result<Victim> {
        let mut net = timed("eval.classifier", &mut times.train, || {
            zoo.classifier(scenario)
        })?;
        let pool = targets(&zoo, &mut net, scenario, CRAFT_POOL, scale.seed)?;
        Ok(Victim { net, pool })
    };
    let victims = [victim(Scenario::Mnist)?, victim(Scenario::Cifar)?];
    Ok(CraftEnv {
        victims,
        attacks: attacks(&scale)?,
    })
}

/// The serving stack and what it replays.
pub struct ServeEnv {
    pub defense: Arc<MagnetDefense>,
    pub pipeline: Arc<TracedPipeline>,
    pub zoo: Arc<ModelZoo>,
    /// Per-item inputs (`[C, H, W]`): clean images, then EAD and C&W
    /// examples crafted against the undefended victim.
    pub corpus: Vec<Tensor>,
    /// The network front door, for the wire workload only.
    pub server: Option<NetServer>,
}

/// The engine configuration `serve_probe` and `loadgen` serve with: one
/// worker, batches of up to 32, 2 ms linger.
pub fn shard_config() -> ServeConfig {
    ServeConfig {
        max_batch: 32,
        max_wait: Duration::from_millis(2),
        queue_capacity: 1024,
        workers: 1,
        scheme: DefenseScheme::Full,
        ..ServeConfig::default()
    }
}

/// Trains the MNIST D+JSD defense afresh in `dir`, crafts the replay
/// corpus, and starts a `ModelZoo` (plus a `NetServer` when `wire`).
pub fn serve(dir: &Path, seed: u64, wire: bool, times: &mut SetupTimes) -> Result<ServeEnv> {
    let scale = Scale::smoke();
    let zoo = Zoo::new(dir.join("models"), scale);
    let defense = timed("eval.defense", &mut times.train, || {
        zoo.defense(Scenario::Mnist, Variant::DefaultJsd)
    })?;
    let mut net = timed("eval.classifier", &mut times.train, || {
        zoo.classifier(Scenario::Mnist)
    })?;
    let corpus = timed("eval.corpus", &mut times.corpus, || {
        corpus(&zoo, &mut net, &scale, seed)
    })?;

    let defense = Arc::new(defense);
    let pipeline = Arc::new(TracedPipeline::new(defense.clone()));
    let mut cfg = ZooConfig::new(dir.join("zoo"));
    cfg.shard = shard_config();
    let registry = Arc::new(ModelZoo::open(Arc::new(NullLoader), cfg)?);
    registry.install(DEFAULT_VARIANT, pipeline.clone())?;
    let server = if wire {
        Some(NetServer::start(
            registry.clone(),
            "127.0.0.1:0",
            NetServerConfig {
                max_connections: 8,
                tenants: TenantPolicy::Derived {
                    secret: SECRET,
                    rate_per_sec: 1e6,
                    burst: 1e6,
                },
                ..NetServerConfig::default()
            },
        )?)
    } else {
        None
    };
    Ok(ServeEnv {
        defense,
        pipeline,
        zoo: registry,
        corpus,
        server,
    })
}

/// Clean test images plus EAD and C&W examples crafted one image per
/// `Attack::run`, as the sweeps craft them.
fn corpus(zoo: &Zoo, net: &mut Sequential, scale: &Scale, seed: u64) -> Result<Vec<Tensor>> {
    let data = zoo.data(Scenario::Mnist);
    let mut rng = Rng::new(seed ^ 3);
    let mut out = Vec::new();
    for i in rng
        .permutation(data.test.len())
        .into_iter()
        .take(CORPUS_CLEAN)
    {
        out.push(data.test.images().index_axis0(i)?);
    }
    let pool = targets(zoo, net, Scenario::Mnist, CORPUS_PER_ATTACK, seed ^ 4)?;
    for (_, attack) in attacks(scale)? {
        for t in &pool {
            let mut model = TracedModel {
                inner: net,
                request: 0,
            };
            let crafted = attack.run(&mut model, &t.image, &[t.label])?;
            out.push(crafted.adversarial.index_axis0(0)?);
        }
    }
    Ok(out)
}

/// Serial in-process truth: one `MagnetDefense::classify` per input.
pub fn serial_verdicts(defense: &MagnetDefense, corpus: &[Tensor]) -> Result<Vec<Verdict>> {
    corpus
        .iter()
        .map(|x| {
            let batch = Tensor::stack(std::slice::from_ref(x))?;
            let mut v = defense.classify(&batch, DefenseScheme::Full)?;
            v.pop().ok_or_else(|| "classify returned no verdict".into())
        })
        .collect()
}
