//! I/O chaos soak: the artifact store's durability claims under injected
//! torn writes, bit flips, and transient write errors.
//!
//! Two properties are on trial, matching the store's contract:
//!
//! 1. **No undetected corruption.** A load either fails (and quarantines)
//!    or returns bytes that were genuinely saved — never a silent mix.
//! 2. **Convergence under kills.** A journaled computation interrupted at
//!    arbitrary points (simulated kills and injected faults) still ends
//!    with exactly the records an uninterrupted run produces.
//!
//! Each test installs its plan for its own directory, so the tests can run
//! in parallel.

use adv_store::{install_fault_hook, IoFaultPlan, Journal, StoreError};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adv_store_io_soak_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn artifact_soak_no_undetected_corruption() {
    let dir = scratch("artifacts");
    let plan = Arc::new(IoFaultPlan::new(0xD15C_FA17).rates(0.15, 0.15, 0.10));
    let _hook = install_fault_hook(&dir, plan.clone());

    // Rotate a handful of paths so loads also exercise files whose last
    // write was rounds ago, and remember every payload ever saved per path.
    let mut saved: Vec<HashSet<Vec<u8>>> = vec![HashSet::new(); 4];
    let mut detected = 0u64;
    for round in 0u64..400 {
        let slot = (round % 4) as usize;
        let path = dir.join(format!("artifact_{slot}.bin"));
        let payload: Vec<u8> = (0..64)
            .map(|i| (round as u8).wrapping_mul(31).wrapping_add(i))
            .collect();
        match adv_store::save_artifact(&path, &payload) {
            Ok(()) => {
                // Reported success — though a silent fault may have landed.
                saved[slot].insert(payload);
            }
            Err(StoreError::InjectedWriteFault { .. }) => {}
            Err(e) => panic!("unexpected save error: {e}"),
        }
        match adv_store::load_artifact(&path) {
            Ok(bytes) => assert!(
                saved[slot].contains(&bytes),
                "round {round}: load returned bytes that were never saved"
            ),
            Err(StoreError::Corrupt { .. }) => {
                // Detected — exactly what the envelope is for. The store
                // quarantined the file; the path is free to be rewritten.
                detected += 1;
            }
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                // First write to this slot was torn and then quarantined.
            }
            Err(e) => panic!("unexpected load error: {e}"),
        }
    }

    let stats = plan.stats();
    assert!(
        stats.injected() > 30,
        "soak injected too few faults to mean anything: {stats:?}"
    );
    // Every silent fault that survived to a load was caught by validation.
    assert!(
        detected > 0,
        "with {} silent faults injected, some loads must detect corruption",
        stats.torn + stats.bit_flips
    );
}

#[test]
fn journal_soak_converges_despite_kills_and_faults() {
    let dir = scratch("journal");
    let plan = Arc::new(IoFaultPlan::new(0x4B11_5EED).rates(0.08, 0.04, 0.08));
    let _hook = install_fault_hook(&dir, plan.clone());

    // The work: 40 deterministic records. The reference is what an
    // uninterrupted, fault-free run would journal.
    const TOTAL: usize = 40;
    let record = |i: usize| -> Vec<u8> { (i as u64 * i as u64).to_le_bytes().to_vec() };
    let path = dir.join("work.jrnl");
    let context = 0x00C0_FFEE;

    let mut finished = false;
    'attempts: for attempt in 0u64..400 {
        // Each attempt is one process life: open (recovering the valid
        // prefix), do some work, then "die" — at an attempt-derived point,
        // or earlier if a transient fault kills an append.
        let mut journal = match Journal::open(&path, context) {
            Ok(j) => j,
            Err(_) => continue,
        };
        if journal.len() >= TOTAL {
            finished = true;
            break;
        }
        let kill_after = 1 + (attempt % 7) as usize;
        for step in 0..kill_after {
            let i = journal.len();
            if i >= TOTAL {
                break;
            }
            if journal.append(&record(i)).is_err() {
                // Transient write error: this life ends here.
                continue 'attempts;
            }
            let _ = step;
        }
    }
    assert!(finished, "journal never reached {TOTAL} records");

    // Final state must be byte-identical to the uninterrupted run.
    let journal = Journal::open(&path, context).unwrap();
    assert_eq!(journal.len(), TOTAL);
    for (i, rec) in journal.records().iter().enumerate() {
        assert_eq!(rec, &record(i), "record {i} diverged");
    }
    assert!(
        plan.stats().injected() > 0,
        "soak ran without injecting any faults: {:?}",
        plan.stats()
    );
}

#[test]
fn checkpointed_training_converges_bit_identically_under_write_faults() {
    let dir = scratch("training");

    // Reference: an uninterrupted, fault-free training run.
    use adv_nn::optim::Sgd;
    use adv_nn::train::{fit_classifier, TrainConfig};
    use adv_nn::{LayerSpec, Sequential};
    use adv_tensor::{Shape, Tensor};

    let specs = [
        LayerSpec::Dense {
            inputs: 8,
            outputs: 8,
        },
        LayerSpec::Activation(adv_nn::Activation::Relu),
        LayerSpec::Dense {
            inputs: 8,
            outputs: 2,
        },
    ];
    let images = Tensor::from_fn(Shape::new(vec![12, 8]), |i| (i % 9) as f32 / 9.0);
    let labels: Vec<usize> = (0..12).map(|i| i % 2).collect();
    let cfg = |ckpt| TrainConfig {
        epochs: 6,
        batch_size: 4,
        seed: 11,
        label_smoothing: 0.0,
        verbose: false,
        checkpoint: ckpt,
    };
    let mut clean_net = Sequential::from_specs(&specs, 5).unwrap();
    let mut opt = Sgd::new(0.05, 0.0);
    fit_classifier(&mut clean_net, &mut opt, &images, &labels, &cfg(None)).unwrap();

    // Chaos run: checkpoint every epoch while every checkpoint write risks
    // a silent tear or bit flip. Re-run the fit repeatedly (each run
    // resumes from the last checkpoint that survived validation); the final
    // weights must match the fault-free run bit for bit.
    let plan = Arc::new(IoFaultPlan::new(0x7EA2).rates(0.25, 0.15, 0.10));
    let hook = install_fault_hook(&dir, plan.clone());

    let ckpt = adv_nn::CheckpointCfg::every_epoch(dir.join("fit.ckpt"));
    let mut chaos_net = Sequential::from_specs(&specs, 5).unwrap();
    let mut result = None;
    for _attempt in 0..50 {
        let mut net = Sequential::from_specs(&specs, 5).unwrap();
        let mut opt = Sgd::new(0.05, 0.0);
        match fit_classifier(
            &mut net,
            &mut opt,
            &images,
            &labels,
            &cfg(Some(ckpt.clone())),
        ) {
            Ok(_) => {
                chaos_net = net;
                result = Some(());
                break;
            }
            Err(e) => {
                // A transient fault aborted this run mid-fit — like a kill,
                // the next attempt resumes from the last valid checkpoint.
                let _ = e;
            }
        }
    }
    drop(hook);
    assert!(result.is_some(), "training never completed under chaos");

    for (a, b) in clean_net.params().iter().zip(chaos_net.params()) {
        assert_eq!(
            a.value.as_slice(),
            b.value.as_slice(),
            "weights diverged from the fault-free run"
        );
    }
}
