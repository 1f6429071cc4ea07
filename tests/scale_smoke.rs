//! Scale smoke tests: the quasilinear verifiers handle tens of thousands
//! of operations in debug builds, agree with each other, and their
//! witnesses check out. (Criterion benches measure the asymptotics; these
//! tests pin down correctness at scale.)

use k_atomicity::verify::{check_witness, Fzf, GkOneAv, Lbt, Verifier};
use k_atomicity::workloads::{random_k_atomic, staircase, RandomHistoryConfig};

#[test]
fn verifiers_agree_on_20k_operations() {
    let h = random_k_atomic(RandomHistoryConfig {
        ops: 20_000,
        k: 2,
        spread: 4,
        seed: 77,
        ..Default::default()
    });
    let fzf = Fzf.verify(&h);
    let lbt = Lbt::new().verify(&h);
    assert!(fzf.is_k_atomic() && lbt.is_k_atomic());
    check_witness(&h, fzf.witness().unwrap(), 2).unwrap();
    check_witness(&h, lbt.witness().unwrap(), 2).unwrap();
}

#[test]
fn staircase_2000_steps_verifies_everywhere() {
    let h = staircase(2_000);
    assert_eq!(h.len(), 4_000);
    let gk = GkOneAv.verify(&h);
    check_witness(&h, gk.witness().expect("staircase is 1-atomic"), 1).unwrap();
    let fzf = Fzf.verify(&h);
    check_witness(&h, fzf.witness().expect("hence 2-atomic"), 2).unwrap();
    let lbt = Lbt::new().verify(&h);
    check_witness(&h, lbt.witness().expect("LBT agrees"), 2).unwrap();
}

#[test]
fn batch_verification_over_many_registers() {
    let batch: Vec<_> = (0..24)
        .map(|seed| {
            random_k_atomic(RandomHistoryConfig {
                ops: 1_500,
                k: if seed % 2 == 0 { 1 } else { 2 },
                seed,
                ..Default::default()
            })
        })
        .collect();
    for h in &batch {
        let v = Fzf.verify(h);
        assert!(v.is_k_atomic());
        check_witness(h, v.witness().unwrap(), 2).unwrap();
    }
}

#[test]
fn k1_only_histories_stay_atomic_at_scale() {
    let h = random_k_atomic(RandomHistoryConfig {
        ops: 30_000,
        k: 1,
        spread: 2,
        seed: 3,
        ..Default::default()
    });
    let gk = GkOneAv.verify(&h);
    assert!(gk.is_k_atomic());
    check_witness(&h, gk.witness().unwrap(), 1).unwrap();
}
