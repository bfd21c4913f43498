//! What each substrate can do: a tree-backed network refuses the CAN-only
//! installs (fault plan, partition, load ledger) instead of silently
//! dropping them, clearing them stays a no-op, and its readers answer for
//! an uninstrumented, churn-free overlay. On CAN the same install is live.

use hyperm_cluster::Dataset;
use hyperm_core::{HypermConfig, HypermNetwork, JoinError, OverlayBackend};
use hyperm_sim::{FaultConfig, LoadLedger};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn peers() -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(5);
    (0..8)
        .map(|_| {
            let mut ds = Dataset::new(16);
            let mut row = [0.0f64; 16];
            for _ in 0..20 {
                for x in row.iter_mut() {
                    *x = rng.gen();
                }
                ds.push_row(&row);
            }
            ds
        })
        .collect()
}

fn build(backend: OverlayBackend) -> HypermNetwork {
    let cfg = HypermConfig::new(16)
        .with_levels(3)
        .with_clusters_per_peer(4)
        .with_seed(7)
        .with_backend(backend);
    HypermNetwork::build(peers(), cfg).unwrap().0
}

/// Run `install` and return its panic message (`None` if it returned).
fn panic_of(install: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(install)).err()?;
    let msg = payload.downcast_ref::<String>().cloned();
    Some(msg.unwrap_or_else(|| payload.downcast_ref::<&str>().unwrap().to_string()))
}

#[test]
fn trees_refuse_can_only_installs() {
    for backend in [OverlayBackend::Baton, OverlayBackend::Vbi] {
        let mut net = build(backend);
        let ledger = Arc::new(LoadLedger::new(net.len(), net.levels()));
        let map = vec![0u32; net.len()];
        let refusals = [
            panic_of(|| net.set_fault_plan(Some(FaultConfig::lossy(0.3)))),
            panic_of(|| net.set_partition(Some(map))),
            panic_of(|| net.set_load_ledger(Some(ledger))),
        ];
        for msg in refusals {
            let msg = msg.unwrap_or_else(|| panic!("{backend:?} accepted a CAN-only install"));
            assert!(
                msg.contains("requires the CAN substrate"),
                "{backend:?}: {msg}"
            );
        }
        assert!(!net.partition_active() && net.load_ledger().is_none());

        // Clearing is a no-op, and the readers say what a tree is.
        net.set_fault_plan(None);
        net.set_partition(None);
        net.set_load_ledger(None);
        assert_eq!(net.fault_report(), None);
        assert_eq!(net.fragment_count(), 0);
        assert!(net.overlay(0).as_can().is_none());
        let q = net.peer(2).items.row(3).to_vec();
        assert!(net.range_query(0, &q, 1e-9, None).items.contains(&(2, 3)));
        assert_eq!(
            net.join_peer(peers().swap_remove(0)).unwrap_err(),
            JoinError::UnsupportedBackend
        );
    }
}

#[test]
fn can_takes_the_same_installs() {
    let mut net = build(OverlayBackend::Can);
    net.set_fault_plan(Some(FaultConfig::lossy(0.3)));
    net.set_partition(Some(vec![0u32; net.len()]));
    net.set_load_ledger(Some(Arc::new(LoadLedger::new(net.len(), net.levels()))));
    let q = net.peer(2).items.row(3).to_vec();
    net.range_query(0, &q, 0.3, None);
    let report = net.fault_report().expect("fault plan installed");
    assert!(report.attempts > 0, "the lossy plan saw no traffic");
    assert!(net.load_ledger().unwrap().total_events() > 0);
}
