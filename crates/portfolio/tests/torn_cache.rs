//! The torn-write contract of the on-disk result cache: whatever races a
//! store — cancellation of the solving run, a concurrent reader, a crash
//! simulated by pre-placing a torn file — the cache serves either nothing
//! or a fully valid entry for the key, never a partial or wrong one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use troy_dfg::benchmarks;
use troy_portfolio::{cache_key, synthesize_isolated, Backend, PortfolioResult, ResultCache};
use troyhls::{
    validate, Cancellation, Catalog, Mode, SolveOptions, SynthesisError, SynthesisProblem,
};

fn fig5() -> SynthesisProblem {
    SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
        .mode(Mode::DetectionRecovery)
        .detection_latency(4)
        .recovery_latency(3)
        .area_limit(22_000)
        .build()
        .expect("figure 5 instance is well-formed")
}

/// One exact solve, wrapped as the CLI and the batch pool store it.
fn solve(p: &SynthesisProblem, options: &SolveOptions) -> Result<PortfolioResult, SynthesisError> {
    synthesize_isolated(Backend::Exact, p, options)
        .map(|s| PortfolioResult::fresh(Backend::Exact, s, Duration::ZERO))
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("troy-torn-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A run cancelled while its result is being stored must leave the cache
/// either without the entry or with a fully valid one. The store path is
/// atomic (temp file + rename), so a reader hammering the key during the
/// write observes only miss-or-valid — this test races them for real.
#[test]
fn cancellation_racing_a_store_leaves_miss_or_valid() {
    let dir = scratch("race");
    let cache = ResultCache::on_disk(&dir).expect("create cache dir");
    let p = fig5();
    let options = SolveOptions::quick();
    let key = cache_key(&p, "exact", &options);

    // Solve once up front so the stores below are instant and the loop
    // exercises the write path, not the solver.
    let solved = solve(&p, &options).expect("figure 5 is feasible");
    assert_eq!(solved.synthesis.cost, 4160);

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Writer: store the entry over and over; a mid-run cancellation
        // arriving between any two instructions is indistinguishable from
        // the interleavings this loop produces against the reader.
        scope.spawn(|| {
            for _ in 0..200 {
                cache.store(&key, &solved);
            }
            done.store(true, Ordering::Release);
        });
        // Reader: every observation through a *fresh* handle (cold memory
        // layer, so the disk file is what is read) is miss-or-valid.
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let fresh = ResultCache::on_disk(&dir).expect("reopen cache dir");
                if let Some(hit) = fresh.lookup(&key, &p) {
                    assert_eq!(hit.synthesis.cost, 4160);
                    assert!(validate(&p, &hit.synthesis.implementation).is_empty());
                }
                assert_eq!(fresh.quarantined(), 0, "atomic writes never tear");
            }
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cancelled run that errors out stores nothing; the next, uncancelled
/// run populates the cache normally.
#[test]
fn cancelled_run_stores_nothing_and_recovers() {
    let dir = scratch("cancelled");
    let cache = ResultCache::on_disk(&dir).expect("create cache dir");
    let p = fig5();

    // An already-cancelled token: the solver may stop with or without an
    // incumbent; whatever comes back, only a *successful* result is
    // stored — mirroring how `solve_one`/the CLI wire cache stores.
    let cancelled = Cancellation::new();
    cancelled.cancel();
    let options = SolveOptions {
        cancel: cancelled,
        time_limit: Duration::from_millis(1),
        ..SolveOptions::quick()
    };
    let key = cache_key(&p, "exact", &options);
    if let Ok(r) = solve(&p, &options) {
        assert!(validate(&p, &r.synthesis.implementation).is_empty());
        cache.store(&key, &r);
        let hit = cache.lookup(&key, &p).expect("stored entry hits");
        assert!(validate(&p, &hit.synthesis.implementation).is_empty());
    } else {
        assert!(cache.lookup(&key, &p).is_none(), "no store on error");
    }

    // Clean run under the same cache: stores and round-trips.
    let clean = SolveOptions::quick();
    let clean_key = cache_key(&p, "exact", &clean);
    let r = solve(&p, &clean).expect("figure 5 is feasible");
    cache.store(&clean_key, &r);
    assert_eq!(
        cache
            .lookup(&clean_key, &p)
            .expect("clean entry hits")
            .synthesis
            .cost,
        4160
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash mid-write under the *old* non-atomic scheme would leave a torn
/// prefix under the live key. Simulate exactly that file state and check
/// the cache quarantines it instead of serving or re-reading it.
#[test]
fn preexisting_torn_file_is_quarantined() {
    let dir = scratch("prefix");
    std::fs::create_dir_all(&dir).unwrap();
    let p = fig5();
    let options = SolveOptions::quick();
    let key = cache_key(&p, "exact", &options);

    let solved = solve(&p, &options).expect("figure 5 is feasible");
    // Write a torn prefix directly (bypassing the atomic path), as a
    // crashed non-atomic writer would have.
    let full = serialize(&solved, &p);
    std::fs::write(dir.join(format!("{key}.json")), &full[..full.len() / 3]).unwrap();

    let cache = ResultCache::on_disk(&dir).expect("open over torn state");
    assert!(cache.lookup(&key, &p).is_none());
    assert_eq!(cache.quarantined(), 1);
    assert!(dir.join(format!("{key}.json.corrupt")).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Round-trips a result through a throwaway disk cache to obtain the
/// exact on-disk byte representation.
fn serialize(result: &PortfolioResult, p: &SynthesisProblem) -> String {
    let dir = scratch("serialize");
    let cache = ResultCache::on_disk(&dir).expect("create cache dir");
    let key = cache_key(p, "serialize", &SolveOptions::quick());
    cache.store(&key, result);
    let text = std::fs::read_to_string(dir.join(format!("{key}.json"))).expect("entry written");
    let _ = std::fs::remove_dir_all(&dir);
    text
}
