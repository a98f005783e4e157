//! `craft`: one thread crafts one image per `Attack::run` call, cycling
//! round-robin through EAD and C&W on the MNIST and CIFAR victims.

use crate::host::Probe;
use crate::outcome::Outcome;
use crate::setup::{CraftEnv, Result, Rng};
use crate::trace;
use crate::wrap::TracedModel;
use adv_attacks::loss::adversarial_margins;
use adv_attacks::AttackOutcome;
use adv_nn::{Differentiable, Sequential};
use adv_tensor::Tensor;
use std::time::Instant;

/// (victim, attack) pairs in round-robin order.
const PAIRS: [(usize, usize); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];

/// Crafts per second the work count is sized by. A constant, so a faster
/// build does the same work in less time.
pub const NOMINAL_RATE: f64 = 35.0;

/// One craft: which pair and which image of that victim's pool.
#[derive(Debug, Clone, Copy)]
struct Job {
    victim: usize,
    attack: usize,
    image: usize,
}

/// The first `total` crafts, rounded down to whole passes over the image
/// pools (at least one) so every seed crafts every image equally often;
/// the seed picks only the order.
fn jobs(env: &CraftEnv, seed: u64, total: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 5);
    let orders: Vec<Vec<usize>> = env
        .victims
        .iter()
        .map(|v| rng.permutation(v.pool.len()))
        .collect();
    let pass = PAIRS.len() * orders.iter().map(Vec::len).max().unwrap_or(1);
    let total = if total < pass {
        total
    } else {
        total - total % pass
    };
    (0..total)
        .map(|i| {
            let (victim, attack) = PAIRS[i % PAIRS.len()];
            let order = &orders[victim];
            Job {
                victim,
                attack,
                image: order[(i / PAIRS.len()) % order.len()],
            }
        })
        .collect()
}

fn run_job(env: &mut CraftEnv, job: Job, request: u64) -> Result<AttackOutcome> {
    let (name, attack) = &env.attacks[job.attack];
    let victim = &mut env.victims[job.victim];
    let target = &victim.pool[job.image];
    let _span = trace::span(
        if *name == "ead" {
            "attacks.ead"
        } else {
            "attacks.cw"
        },
        request,
    );
    let mut model = TracedModel {
        inner: &mut victim.net,
        request,
    };
    Ok(attack.run(&mut model, &target.image, &[target.label])?)
}

/// Crafts one image of each pair so lazy set-up is out of the timing.
pub fn warm_up(env: &mut CraftEnv, seed: u64) -> Result<()> {
    for job in jobs(env, seed, PAIRS.len()) {
        run_job(env, job, 0)?;
    }
    Ok(())
}

/// The measured phase: `total` crafts, then `end_of_timing` (which stops
/// any recording, so the checks stay out of the layer figures), then the
/// output checks.
pub fn run(
    env: &mut CraftEnv,
    seed: u64,
    total: usize,
    end_of_timing: &dyn Fn(),
) -> Result<Outcome> {
    let jobs = jobs(env, seed, total);
    let total = jobs.len();
    let mut crafted = Vec::with_capacity(total);
    let mut out = Outcome::default();
    let probe = Probe::default();
    let started = Instant::now();
    // A request is one round: one craft under each (victim, attack) pair.
    // Per-craft times mix two victims of very different cost, so their
    // median sits on the gap between the two modes.
    let mut round = (started, true);
    for (i, &job) in jobs.iter().enumerate() {
        if i % PAIRS.len() == 0 {
            round = (Instant::now(), true);
        }
        let result = run_job(env, job, trace::next_id());
        if result.is_ok() {
            out.done.push(Instant::now());
        }
        round.1 &= result.is_ok();
        if i % PAIRS.len() == PAIRS.len() - 1 {
            out.latencies.push(round.1.then(|| round.0.elapsed()));
            probe.read();
        }
        crafted.push(result);
    }
    out.started = Some(started);
    out.elapsed = started.elapsed();
    out.attempted = total;
    out.readings = probe.take();
    end_of_timing();

    let mut successes = 0usize;
    for (i, (job, result)) in jobs.iter().zip(&crafted).enumerate() {
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.mismatch(format!("craft {i}: attack failed: {e}"));
                continue;
            }
        };
        out.completed += 1;
        successes += usize::from(result.success.first() == Some(&true));
        check(env, *job, result, i, &mut out)?;
    }
    // Re-crafting the same (attack, image) must reproduce the first craft
    // bit for bit: the first job of each pair is crafted again.
    for (i, &job) in jobs.iter().enumerate().take(PAIRS.len()) {
        let (Ok(first), Ok(again)) = (&crafted[i], run_job(env, job, 0)) else {
            continue;
        };
        let same_bits = first
            .adversarial
            .as_slice()
            .iter()
            .zip(again.adversarial.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_bits || first.success != again.success {
            out.mismatch(format!("craft {i}: re-crafting gave a different image"));
        }
    }
    out.extra.insert(
        "attacks.success_share",
        successes as f64 / out.completed.max(1) as f64,
    );
    out.extra.insert("crafts", out.completed as f64);
    Ok(out)
}

/// Checks one crafted image: same shape as its input, pixels in [0, 1],
/// and a success flag that agrees with re-classifying it on the victim.
fn check(
    env: &mut CraftEnv,
    job: Job,
    result: &AttackOutcome,
    i: usize,
    out: &mut Outcome,
) -> Result<()> {
    let victim = &mut env.victims[job.victim];
    let target = &victim.pool[job.image];
    let adv: &Tensor = &result.adversarial;
    if adv.shape() != target.image.shape() {
        out.mismatch(format!(
            "craft {i}: shape {:?} differs from input {:?}",
            adv.shape().dims(),
            target.image.shape().dims()
        ));
        return Ok(());
    }
    if !adv.as_slice().iter().all(|v| (0.0..=1.0).contains(v)) {
        out.mismatch(format!("craft {i}: pixel outside [0, 1]"));
    }
    let success = result.success.first().copied().unwrap_or(false);
    let fooled = margin(&mut victim.net, adv, target.label)? >= 0.0;
    if success != fooled {
        out.mismatch(format!(
            "craft {i}: success flag {success} but the victim is fooled: {fooled}"
        ));
    }
    Ok(())
}

/// The attack's own success margin (κ = 0) of `x` on the victim.
fn margin(net: &mut Sequential, x: &Tensor, label: usize) -> Result<f32> {
    let logits = Differentiable::forward(net, x)?;
    Ok(adversarial_margins(&logits, &[label])?
        .first()
        .copied()
        .unwrap_or(f32::NEG_INFINITY))
}
