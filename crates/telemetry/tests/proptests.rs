//! Ledger properties: however scopes nest and whatever they allocate,
//! the attribution invariants hold — a child's peak never exceeds its
//! parent's, children's turnover sums into the parent's, and live
//! growth is always bounded by the bytes allocated inside the window.
//!
//! The allocator counters are process-global, and so is the region peak
//! that `LedgerScope::open` *swaps* to start its window: a scope opened
//! on another thread resets the window of every scope already open, so
//! concurrent scopes can shrink a peak as well as add turnover, and
//! `peak_delta <= allocated` stops holding. The invariants below are
//! those of one thread's nested scopes; the harness runs the two
//! properties on concurrent threads, so each runs all of its cases under
//! [`LEDGER`]. Drawing a case allocates, so a lock taken per case would
//! let one property's input generation land inside the other's windows.
//! Making the ledger itself thread-aware is ROADMAP item 1, still open.

use gepeto_telemetry::{LedgerScope, MemDelta};
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::Mutex;

/// One test at a time opens scopes on the process-global ledger.
static LEDGER: Mutex<()> = Mutex::new(());

/// Runs 32 cases of `property` on values drawn from `strategy`, seeded
/// by `test` as `proptest!` seeds a test, holding [`LEDGER`] from the
/// first draw to the last case. A property that failed while holding it
/// has corrupted nothing, so poisoning is ignored.
fn alone<S: Strategy>(test: &str, strategy: S, property: impl Fn(S::Value)) {
    let _alone = LEDGER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut rng = TestRng::for_test(test);
    for _case in 0..32 {
        property(strategy.generate(&mut rng));
    }
}

/// Allocate-and-free `sizes` inside the innermost scope, keeping every
/// other buffer alive until the end of the scope.
fn churn(sizes: &[usize]) -> Vec<Vec<u8>> {
    let mut held = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let buf = vec![0u8; size];
        if i % 2 == 0 {
            held.push(buf);
        }
    }
    held
}

fn well_formed(d: &MemDelta) {
    assert!(d.peak_delta <= d.allocated, "{d:?}");
    assert!(d.peak_bytes >= d.peak_delta, "{d:?}");
}

#[test]
fn nested_scopes_preserve_the_ledger_invariants() {
    let sizes = || prop::collection::vec(1usize..10_000, 0..8);
    alone(
        concat!(
            module_path!(),
            "::nested_scopes_preserve_the_ledger_invariants"
        ),
        (sizes(), sizes(), sizes()),
        |(parent_sizes, child_sizes, grandchild_sizes)| {
            let parent = LedgerScope::open();
            let _parent_held = churn(&parent_sizes);

            let child = LedgerScope::open();
            let _child_held = churn(&child_sizes);

            let grandchild = LedgerScope::open();
            let _grandchild_held = churn(&grandchild_sizes);
            let gd = grandchild.close();

            let cd = child.close();
            let pd = parent.close();

            for d in [&gd, &cd, &pd] {
                well_formed(d);
            }
            // A scope's window is contained in its parent's window.
            prop_assert!(gd.peak_bytes <= cd.peak_bytes, "{gd:?} vs {cd:?}");
            prop_assert!(cd.peak_bytes <= pd.peak_bytes, "{cd:?} vs {pd:?}");
            // Turnover observed by a child is a subset of the parent's.
            prop_assert!(gd.allocated <= cd.allocated, "{gd:?} vs {cd:?}");
            prop_assert!(cd.allocated <= pd.allocated, "{cd:?} vs {pd:?}");
            prop_assert!(gd.allocs <= cd.allocs, "{gd:?} vs {cd:?}");
            prop_assert!(cd.allocs <= pd.allocs, "{cd:?} vs {pd:?}");
            // The parent saw at least the bytes its own churn allocated.
            let own: u64 = parent_sizes.iter().map(|&s| s as u64).sum();
            prop_assert!(pd.allocated >= own, "{pd:?} own {own}");
        },
    );
}

#[test]
fn sequential_siblings_sum_into_the_parent() {
    let sizes = || prop::collection::vec(1usize..10_000, 0..8);
    alone(
        concat!(module_path!(), "::sequential_siblings_sum_into_the_parent"),
        (sizes(), sizes()),
        |(first, second)| {
            let parent = LedgerScope::open();

            let a = LedgerScope::open();
            let _a_held = churn(&first);
            let ad = a.close();

            let b = LedgerScope::open();
            let _b_held = churn(&second);
            let bd = b.close();

            let pd = parent.close();
            well_formed(&ad);
            well_formed(&bd);
            well_formed(&pd);
            // Sequential siblings partition disjoint slices of the parent's
            // window, so their turnover sums into (never past) the parent's.
            prop_assert!(
                ad.allocated + bd.allocated <= pd.allocated,
                "{ad:?} + {bd:?} vs {pd:?}"
            );
            prop_assert!(
                ad.allocs + bd.allocs <= pd.allocs,
                "{ad:?} + {bd:?} vs {pd:?}"
            );
            // Each sibling's peak propagated into the parent on close.
            prop_assert!(ad.peak_bytes <= pd.peak_bytes, "{ad:?} vs {pd:?}");
            prop_assert!(bd.peak_bytes <= pd.peak_bytes, "{bd:?} vs {pd:?}");
        },
    );
}
