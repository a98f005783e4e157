//! Pins the seeded fault schedules bit for bit.
//!
//! The CI soak seeds replay a failure only while every plan draws the same
//! decisions from the same seed. This test hashes three decision streams
//! per soak seed with FNV-64 and compares them against constants: the
//! serving injector over the `magnet/*`, `serve/poll` and `zoo/*` sites,
//! the socket plan over three connections, and the store's write plan.
//! A change to the seeded draw, a plan's rate derivation or the order of
//! its fault thresholds moves a hash.

use adv_net::{NetFault, NetFaultPlan};
use adv_serve::{FaultAction, FaultInjector, FaultPlan};
use adv_store::codec::fnv64;
use adv_store::{IoFaultHook, IoFaultPlan, WriteFault};
use std::path::Path;

/// The `CHAOS_SEEDS` / `NET_CHAOS_SEEDS` matrix of the CI chaos job.
const SOAK_SEEDS: [u64; 5] = [3, 17, 1031, 9001, 424242];

/// Every site the serving stack consults an injector at.
const SITES: [&str; 7] = [
    "magnet/detect",
    "magnet/reform",
    "magnet/classify",
    "serve/poll",
    "zoo/stage",
    "zoo/warm",
    "zoo/flip",
];

/// One FNV-64 per stream, for each seed of [`SOAK_SEEDS`] in order:
/// `(injector, net, io)`.
const PINNED: [(u64, u64, u64); 5] = [
    (
        0xe6a9_5b25_71eb_f6c6,
        0x9593_0e6a_a155_d52e,
        0x9c4f_58d4_5ede_3d9d,
    ),
    (
        0x3b11_5187_3367_4aaa,
        0x5fff_e98a_1854_7089,
        0xf6cc_762e_55df_a10b,
    ),
    (
        0xffce_42e0_425f_e49a,
        0x7885_f923_1525_720d,
        0x9a63_b095_7a7d_0406,
    ),
    (
        0xb7b4_f5a1_645f_eb90,
        0xc5f7_a113_7dbf_d1d7,
        0xc2cb_9f76_6ec7_5fb8,
    ),
    (
        0x9596_84f6_b600_38b9,
        0xc9f4_fbcf_e39c_cac7,
        0x0ceb_4ae8_ea85_898f,
    ),
];

fn push(out: &mut Vec<u8>, tag: u8, value: u64) {
    out.push(tag);
    out.extend_from_slice(&value.to_le_bytes());
}

fn injector_stream(seed: u64) -> u64 {
    let injector = FaultInjector::new(FaultPlan::randomized(seed, &SITES)).unwrap();
    let mut out = Vec::new();
    for site in SITES {
        for _ in 0..1000 {
            let (action, hit) = injector.decide(site);
            let (tag, value) = match action {
                FaultAction::None => (0, 0),
                FaultAction::Delay(d) => (1, d.as_nanos() as u64),
                FaultAction::Error => (2, 0),
                FaultAction::Panic => (3, 0),
            };
            push(&mut out, tag, value);
            push(&mut out, 4, hit);
        }
    }
    fnv64(&out)
}

fn net_fault(out: &mut Vec<u8>, fault: NetFault) {
    let (tag, value) = match fault {
        NetFault::None => (0, 0),
        NetFault::Torn { keep } => (1, keep as u64),
        NetFault::BitFlip { bit } => (2, bit as u64),
        NetFault::Stall { delay } => (3, delay.as_nanos() as u64),
        NetFault::Disconnect => (4, 0),
    };
    push(out, tag, value);
}

fn net_stream(seed: u64) -> u64 {
    let plan = NetFaultPlan::randomized(seed);
    let mut out = Vec::new();
    for conn in 0..3 {
        for op in 0..500 {
            net_fault(&mut out, plan.on_write(conn, op, 64 + op as usize));
            net_fault(&mut out, plan.on_read(conn, op));
        }
    }
    fnv64(&out)
}

fn io_stream(seed: u64) -> u64 {
    let plan = IoFaultPlan::new(seed).rates(0.2, 0.2, 0.2);
    let mut out = Vec::new();
    for n in 0..1000 {
        let (tag, value) = match plan.on_write(Path::new("/pinned/file"), 24 + n) {
            WriteFault::None => (0, 0),
            WriteFault::TornWrite(k) => (1, k as u64),
            WriteFault::BitFlip(b) => (2, b as u64),
            WriteFault::TransientError => (3, 0),
        };
        push(&mut out, tag, value);
    }
    fnv64(&out)
}

#[test]
fn soak_seed_fault_schedules_are_pinned() {
    let got: Vec<(u64, u64, u64)> = SOAK_SEEDS
        .iter()
        .map(|&seed| (injector_stream(seed), net_stream(seed), io_stream(seed)))
        .collect();
    for (seed, (inj, net, io)) in SOAK_SEEDS.iter().zip(&got) {
        eprintln!("seed {seed}: (0x{inj:016x}, 0x{net:016x}, 0x{io:016x})");
    }
    assert_eq!(got, PINNED, "a fault schedule moved");
}
