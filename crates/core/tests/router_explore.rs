//! Schedule exploration over [`WakeRouter`] alone.
//!
//! The payload is a `u32` and the "store" is one facade mutex, so the
//! schedule space holds nothing but the protocol: epoch read → failed
//! evaluation → registration → epoch re-check on one side, store write →
//! epoch bump → wake scan on the other, plus the explicit claim a cancel
//! or disconnect makes. No executor and no engine is in the way, so a
//! failure here points at the router and these tests exhaust their
//! trees in milliseconds. The executor- and engine-level suites
//! (`exploration.rs`, `sdl-server`'s `handoff_explore.rs`) reach the
//! same router — and the same mutant switch — through their consumers.

use sdl_core::commit::{Slot, WakeRouter};
use sdl_dataspace::{shards_of_watch_key, ShardSet, WatchKey, WatchSet};
use sdl_sync::explore::Explore;
use sdl_sync::Mutex;
use sdl_tuple::Atom;

const SHARDS: usize = 2;

fn item_key() -> WatchKey {
    WatchKey::Functor(Atom::new("item"), 2)
}

fn published(key: WatchKey) -> (WatchSet, ShardSet) {
    let mut changed = WatchSet::new();
    changed.add_key(key);
    (changed, shards_of_watch_key(&key, SHARDS))
}

fn explore() -> Explore {
    Explore::new().max_schedules(50_000).max_steps(50_000)
}

/// One waiter whose evaluation (is the item there?) races one commit
/// (put the item there). However the two interleave, the waiter is
/// delivered exactly once: its evaluation succeeds, its park re-check
/// reclaims it, or the commit's wake claims it.
fn run_park_vs_commit(skip_recheck: bool) {
    let router = WakeRouter::<u32>::new(SHARDS).testing_skip_park_recheck(skip_recheck);
    let store = Mutex::new(false);
    let delivered = Mutex::new(Vec::new());
    sdl_sync::scope(|s| {
        s.spawn(|| {
            let epoch = router.epoch();
            if *store.lock() {
                delivered.lock().push(7);
                return;
            }
            let slot = Slot::new(7);
            let reclaimed = router.park(&slot, vec![item_key()], epoch);
            delivered.lock().extend(reclaimed);
        });
        s.spawn(|| {
            *store.lock() = true;
            router.bump_epoch();
            let (changed, shards) = published(item_key());
            let woken = router.wake(&changed, shards);
            delivered.lock().extend(woken.into_iter().map(|(_, p)| p));
        });
    });
    assert_eq!(
        *delivered.lock(),
        vec![7],
        "lost wakeup: still parked = {:?}",
        router.drain()
    );
    assert!(
        router.drain().is_empty(),
        "a delivered waiter stayed parked"
    );
}

#[test]
fn clean_protocol_exhausts() {
    let report = explore().run(|| run_park_vs_commit(false));
    assert!(
        report.failure.is_none(),
        "router protocol failed under exploration:\n{}",
        report.failure.unwrap()
    );
    assert!(report.complete, "exploration did not exhaust the tree");
    assert!(report.schedules > 1, "expected real branching");
}

#[test]
fn lost_wakeup_mutant_is_caught_and_replays() {
    let report = explore().run(|| run_park_vs_commit(true));
    let failure = report
        .failure
        .expect("explorer missed the seeded lost-wakeup mutant");
    assert!(
        failure.message.contains("lost wakeup"),
        "unexpected failure: {failure}"
    );
    let replayed = Explore::new()
        .replay(&failure.schedule, || run_park_vs_commit(true))
        .expect("pinned schedule no longer reproduces the lost wakeup");
    assert!(replayed.message.contains("lost wakeup"));
    // The same interleaving completes with the re-check in place.
    assert!(Explore::new()
        .replay(&failure.schedule, || run_park_vs_commit(false))
        .is_none());
}

/// Three claimants race for one slot: the parker's re-check (its
/// evaluation epoch is already stale), a commit's wake scan, and the
/// explicit claim of a cancel. Exactly one gets the payload.
#[test]
fn reclaim_wake_and_cancel_deliver_exactly_once() {
    let report = explore().run(|| {
        let router = WakeRouter::<u32>::new(SHARDS);
        let slot = Slot::new(7);
        let got = Mutex::new(Vec::new());
        let stale_epoch = router.epoch();
        router.bump_epoch();
        sdl_sync::scope(|s| {
            s.spawn(|| {
                let reclaimed = router.park(&slot, vec![item_key()], stale_epoch);
                got.lock().extend(reclaimed.map(|p| ("reclaim", p)));
            });
            s.spawn(|| {
                router.bump_epoch();
                let (changed, shards) = published(item_key());
                let woken = router.wake(&changed, shards);
                got.lock()
                    .extend(woken.into_iter().map(|(_, p)| ("wake", p)));
            });
            s.spawn(|| {
                got.lock().extend(slot.claim().map(|p| ("cancel", p)));
            });
        });
        let got = got.lock().clone();
        assert_eq!(got.len(), 1, "delivered {got:?}");
        assert_eq!(got[0].1, 7);
        assert!(router.drain().is_empty());
    });
    assert!(
        report.failure.is_none(),
        "claim race failed under exploration:\n{}",
        report.failure.unwrap()
    );
    assert!(report.complete, "exploration did not exhaust the tree");
}

/// An arity key cannot be routed, so it is registered in every shard;
/// two commits that each changed a different shard both publish it, and
/// the waiter still wakes once.
#[test]
fn arity_key_in_all_shards_wakes_once() {
    let report = explore().run(|| {
        let router = WakeRouter::<u32>::new(SHARDS);
        let key = WatchKey::Arity(2);
        let slot = Slot::new(7);
        assert!(router.park(&slot, vec![key], router.epoch()).is_none());
        let mut registrations = 0;
        router.visit(|_| registrations += 1);
        assert_eq!(registrations, SHARDS, "one registration per shard");
        let woken = Mutex::new(0usize);
        sdl_sync::scope(|s| {
            for shard in 0..SHARDS {
                let (router, woken) = (&router, &woken);
                s.spawn(move || {
                    let mut changed = WatchSet::new();
                    changed.add_key(key);
                    let mut shards = ShardSet::new();
                    shards.insert(shard);
                    router.bump_epoch();
                    *woken.lock() += router.wake(&changed, shards).len();
                });
            }
        });
        assert_eq!(*woken.lock(), 1);
        assert!(router.drain().is_empty());
    });
    assert!(
        report.failure.is_none(),
        "arity-key wake failed under exploration:\n{}",
        report.failure.unwrap()
    );
    assert!(report.complete, "exploration did not exhaust the tree");
}

/// A park with no watch key can never be woken: no commit's scan
/// returns it, the watchdog's visit still sees it, and only the final
/// drain hands it back.
#[test]
fn keyless_park_is_returned_only_by_the_drain() {
    let router = WakeRouter::<u32>::new(SHARDS);
    let slot = Slot::new(7);
    assert!(router.park(&slot, Vec::new(), router.epoch()).is_none());
    for key in [item_key(), WatchKey::Arity(0), WatchKey::Arity(2)] {
        let mut changed = WatchSet::new();
        changed.add_key(key);
        router.bump_epoch();
        assert!(router.wake(&changed, ShardSet::all(SHARDS)).is_empty());
    }
    let mut seen = Vec::new();
    router.visit(|p| seen.push(*p));
    assert_eq!(seen, vec![7]);
    assert_eq!(router.drain(), vec![7]);
    assert!(router.drain().is_empty());
}

/// A park that sweeps its shard — 64 claimed stubs already sit there —
/// races a waking commit and a cancel's claim. The sweep takes slot
/// locks under the shard lock, as a wake scan does; a cancel takes the
/// slot lock alone. Exactly one claimant gets the payload, and no lock
/// order deadlocks.
#[test]
fn sweeping_park_races_wake_and_cancel() {
    let report = explore().run(|| {
        let router = WakeRouter::<u32>::new(1);
        for i in 0..64 {
            let stale = Slot::new(i);
            let key = WatchKey::Value(Atom::new("old"), 2, 1, u64::from(i));
            assert!(router.park(&stale, vec![key], router.epoch()).is_none());
            assert_eq!(stale.claim(), Some(i));
        }
        let slot = Slot::new(7);
        let got = Mutex::new(Vec::new());
        let epoch = router.epoch();
        sdl_sync::scope(|s| {
            s.spawn(|| {
                let reclaimed = router.park(&slot, vec![item_key()], epoch);
                got.lock().extend(reclaimed.map(|p| ("reclaim", p)));
            });
            s.spawn(|| {
                router.bump_epoch();
                let mut changed = WatchSet::new();
                changed.add_key(item_key());
                let woken = router.wake(&changed, ShardSet::all(1));
                got.lock()
                    .extend(woken.into_iter().map(|(_, p)| ("wake", p)));
            });
            s.spawn(|| {
                got.lock().extend(slot.claim().map(|p| ("cancel", p)));
            });
        });
        let got = got.lock().clone();
        assert_eq!(got.len(), 1, "delivered {got:?}");
        assert_eq!(got[0].1, 7);
        assert!(router.drain().is_empty());
    });
    assert!(
        report.failure.is_none(),
        "sweeping park failed under exploration:\n{}",
        report.failure.unwrap()
    );
    assert!(report.complete, "exploration did not exhaust the tree");
}
