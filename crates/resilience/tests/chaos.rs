//! The chaos property suite: the supervisor's contract under injected
//! faults.
//!
//! For **any** seeded fault schedule — solver panics, artificial stalls,
//! spurious cancellations — a supervised run must (a) terminate within
//! its deadline bound plus the documented grace slack, (b) return either
//! a validator-clean implementation with an honest cost or a typed,
//! actionable error, and (c) never let a panic escape. A final test
//! checks the storage-side fault family: a chaos-corrupted result cache
//! quarantines damaged entries instead of serving them.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

use troy_dfg::benchmarks;
use troy_portfolio::{cache_key, synthesize_isolated, Backend, PortfolioResult, ResultCache};
use troy_resilience::{
    supervise, AttemptOutcome, Chaos, Supervised, SupervisorConfig, SupervisorError,
    CHAOS_PANIC_MARKER, GRACE_BUDGET, LADDER,
};
use troyhls::{validate, Catalog, Mode, SolveOptions, SynthesisProblem};

/// How many fault schedules the sweep covers (acceptance floor: 100).
const SWEEP_SEEDS: u64 = 128;

/// Installs a panic hook that silences *injected* panics (their payloads
/// carry [`CHAOS_PANIC_MARKER`]) while forwarding real ones, so a green
/// chaos run has a readable log. Process-global, hence `Once`.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(CHAOS_PANIC_MARKER))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(CHAOS_PANIC_MARKER));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// The sweep's workload: `polynom` in detection mode at the critical
/// path — small enough that every rung solves it in milliseconds, so the
/// 128-seed sweep exercises fault handling, not solver runtime.
fn tiny() -> SynthesisProblem {
    SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
        .mode(Mode::DetectionOnly)
        .build()
        .expect("well-formed")
}

/// The paper's Figure 5 instance (polynom, λ_det=4, λ_rec=3, area ≤
/// 22000): minimum license cost $4160.
fn fig5() -> SynthesisProblem {
    SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
        .mode(Mode::DetectionRecovery)
        .detection_latency(4)
        .recovery_latency(3)
        .area_limit(22_000)
        .build()
        .expect("figure 5 instance is well-formed")
}

fn sweep_config() -> SupervisorConfig {
    SupervisorConfig {
        deadline: Duration::from_secs(2),
        ..SupervisorConfig::default()
    }
}

/// Checks the Ok side of the contract: the design is validator-clean for
/// the (possibly relaxed) problem the supervisor reports, and the stated
/// cost is the recomputed license cost — never silently wrong.
fn assert_sound(sup: &Supervised, seed: u64) {
    assert!(
        validate(&sup.problem, &sup.synthesis.implementation).is_empty(),
        "seed {seed}: returned design fails validation\n{}",
        sup.degradation.summary()
    );
    assert_eq!(
        sup.synthesis.implementation.license_cost(&sup.problem),
        sup.synthesis.cost,
        "seed {seed}: reported cost disagrees with the recomputed license cost"
    );
}

/// The core property: every fault schedule in the sweep terminates in
/// bound and yields a valid implementation or a typed error — zero
/// escaped panics, zero silently wrong costs.
#[test]
fn every_fault_schedule_yields_valid_or_typed_error() {
    quiet_injected_panics();
    let problem = tiny();
    let config = sweep_config();
    // The deadline bound: the run may legitimately spend the deadline,
    // the grace pass, and bounded slop (final solver wind-down, backoff
    // sleeps clamped to the remaining budget, stalls ≤ 16 ms each).
    let bound = config.deadline + GRACE_BUDGET + Duration::from_secs(2);

    let (mut oks, mut errs, mut faulted, mut demotions, mut retries) = (0u64, 0u64, 0u64, 0, 0);
    for seed in 0..SWEEP_SEEDS {
        let chaos = Chaos::seeded(seed);
        let t0 = Instant::now();
        let outcome =
            panic::catch_unwind(AssertUnwindSafe(|| supervise(&problem, &config, &chaos)));
        let elapsed = t0.elapsed();
        let result: Result<Supervised, SupervisorError> =
            outcome.unwrap_or_else(|_| panic!("seed {seed}: a panic escaped the supervisor"));
        assert!(
            elapsed <= bound,
            "seed {seed}: run took {elapsed:?}, bound is {bound:?}"
        );
        match result {
            Ok(sup) => {
                assert_sound(&sup, seed);
                demotions += sup.degradation.demoted.len();
                retries += sup.degradation.retries();
                if sup.degradation.attempts() > 1 || sup.degraded() {
                    faulted += 1;
                }
                oks += 1;
            }
            Err(err) => {
                // Typed and actionable: the error names its category and
                // renders a non-empty hint, and carries the full report.
                assert!(!err.to_string().is_empty(), "seed {seed}");
                assert!(
                    !err.degradation.rungs.is_empty(),
                    "seed {seed}: error without a degradation report"
                );
                demotions += err.degradation.demoted.len();
                retries += err.degradation.retries();
                faulted += 1;
                errs += 1;
            }
        }
    }

    // The sweep must have *exercised* the machinery, not dodged it: the
    // tiny problem is feasible, so most schedules should still produce a
    // design, and the ~45% fault rate must have left visible scars.
    assert!(oks > 0, "no schedule produced a design ({errs} errors)");
    // Stalls leave no scar in the report (the attempt still succeeds),
    // so only panic/cancel schedules are observable here: ~30% of seeds.
    assert!(
        faulted > SWEEP_SEEDS / 8,
        "only {faulted}/{SWEEP_SEEDS} schedules showed fault handling"
    );
    assert!(demotions > 0, "no schedule demoted a panicking back end");
    assert!(retries > 0, "no schedule retried a transient fault");
}

/// One seed denotes one fault story: replaying a seed reproduces the
/// exact same sequence of rungs, attempts and outcomes (wall-clock
/// fields aside), regardless of machine load ordering.
#[test]
fn same_seed_replays_the_same_fault_story() {
    quiet_injected_panics();
    let problem = tiny();
    let config = sweep_config();

    // Project a run onto its timing-free skeleton.
    fn skeleton(
        result: &Result<Supervised, SupervisorError>,
    ) -> Vec<(String, usize, bool, Vec<&'static str>)> {
        let degradation = match result {
            Ok(sup) => &sup.degradation,
            Err(err) => &err.degradation,
        };
        degradation
            .rungs
            .iter()
            .map(|r| {
                (
                    r.backend.to_string(),
                    r.relaxation,
                    r.skipped,
                    r.attempts.iter().map(|a| a.outcome.tag()).collect(),
                )
            })
            .collect()
    }

    for seed in [3, 11, 42, 97] {
        let chaos = Chaos::seeded(seed);
        let first = supervise(&problem, &config, &chaos);
        let second = supervise(&problem, &config, &chaos);
        assert_eq!(
            skeleton(&first),
            skeleton(&second),
            "seed {seed}: replay diverged"
        );
    }
}

/// Injected panics carry the chaos marker and surface as `Panicked`
/// outcomes with demotion — the firewall works and attribution is clear.
#[test]
fn injected_panics_are_marked_and_demote_the_backend() {
    quiet_injected_panics();
    let problem = tiny();
    let config = sweep_config();
    let mut seen = false;
    for seed in 0..SWEEP_SEEDS {
        let chaos = Chaos::seeded(seed);
        let degradation = match supervise(&problem, &config, &chaos) {
            Ok(sup) => sup.degradation,
            Err(err) => err.degradation,
        };
        for rung in &degradation.rungs {
            for attempt in &rung.attempts {
                if let AttemptOutcome::Panicked(msg) = &attempt.outcome {
                    assert!(
                        msg.contains(CHAOS_PANIC_MARKER),
                        "seed {seed}: unmarked panic {msg:?}"
                    );
                    assert!(
                        degradation.demoted.iter().any(|(b, _)| *b == rung.backend),
                        "seed {seed}: panicking {} was not demoted",
                        rung.backend
                    );
                    seen = true;
                }
            }
        }
    }
    assert!(seen, "no injected panic in {SWEEP_SEEDS} schedules");
}

/// With chaos off, the supervised pipeline still reproduces the paper's
/// Figure 5 oracle — and every rung of the ladder can carry the problem
/// on its own: the exact solver to the proven $4160 optimum, the
/// heuristics to a validator-clean design no cheaper than it.
#[test]
fn chaos_off_reproduces_fig5_through_the_full_ladder() {
    let problem = fig5();
    let config = SupervisorConfig {
        deadline: Duration::from_secs(8),
        ..SupervisorConfig::default()
    };
    let sup = supervise(&problem, &config, &Chaos::disabled()).expect("figure 5 is feasible");
    assert_eq!(sup.synthesis.cost, 4160);
    assert_eq!(sup.backend, LADDER[0]);
    assert!(
        sup.synthesis.proven_optimal,
        "the primary rung proves Fig. 5"
    );
    assert!(!sup.degraded(), "{}", sup.degradation.summary());
    assert_eq!(sup.fallback(), None);

    for backend in LADDER {
        let s = synthesize_isolated(backend, &problem, &SolveOptions::quick())
            .unwrap_or_else(|e| panic!("rung {backend} failed on figure 5: {e}"));
        assert!(
            validate(&problem, &s.implementation).is_empty(),
            "rung {backend} returned an invalid design"
        );
        if backend.can_prove() {
            assert_eq!(s.cost, 4160, "prover rung {backend} missed the optimum");
        } else {
            assert!(s.cost >= 4160, "rung {backend} under-reported cost");
        }
    }
}

/// The storage fault family: after chaos corrupts an on-disk result
/// cache (truncation, bit flips, partial JSON), lookups serve only
/// misses or fully valid entries and quarantine the damage — garbage is
/// never returned.
#[test]
fn corrupted_cache_is_quarantined_never_served() {
    let dir = std::env::temp_dir().join(format!("troy-chaos-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let problem = fig5();
    let options = SolveOptions::quick();
    let solved = synthesize_isolated(Backend::Exact, &problem, &options)
        .map(|s| PortfolioResult::fresh(Backend::Exact, s, Duration::ZERO))
        .expect("figure 5 is feasible");

    // Populate several distinct keys so each corruption mode gets a shot.
    let cache = ResultCache::on_disk(&dir).expect("create cache dir");
    let keys: Vec<_> = (0..12)
        .map(|i| cache_key(&problem, &format!("chaos-{i}"), &options))
        .collect();
    for key in &keys {
        cache.store(key, &solved);
    }

    for seed in 0..16 {
        let damaged = Chaos::seeded(seed).corrupt_cache_dir(&dir);
        // Fresh handle: the in-memory layer is cold, so the disk bytes
        // (including the damage) are what lookups actually read.
        let fresh = ResultCache::on_disk(&dir).expect("reopen cache dir");
        let mut served = 0;
        for key in &keys {
            if let Some(hit) = fresh.lookup(key, &problem) {
                assert_eq!(hit.synthesis.cost, 4160, "seed {seed}: wrong cost served");
                assert!(
                    validate(&problem, &hit.synthesis.implementation).is_empty(),
                    "seed {seed}: invalid design served"
                );
                served += 1;
            }
        }
        assert!(
            served + fresh.quarantined() >= keys.len().saturating_sub(damaged),
            "seed {seed}: entries vanished without quarantine"
        );
        // Heal for the next round: quarantined files were renamed away;
        // re-store every key through the atomic path.
        for key in &keys {
            fresh.store(key, &solved);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deliberately hostile run — every rung's first attempts spoiled by a
/// high-fault seed and a short deadline — still ends in bound with a
/// valid design or a typed error, and `--no-degrade` semantics hold: no
/// rung below the primary ever runs.
#[test]
fn no_degrade_never_descends_even_under_chaos() {
    quiet_injected_panics();
    let problem = tiny();
    let config = SupervisorConfig {
        degrade: false,
        deadline: Duration::from_secs(2),
        ..SupervisorConfig::default()
    };
    for seed in 0..32 {
        let chaos = Chaos::seeded(seed);
        let result = supervise(&problem, &config, &chaos);
        let degradation = match &result {
            Ok(sup) => {
                assert_eq!(sup.backend, LADDER[0], "seed {seed}");
                assert_eq!(sup.relaxation, 0, "seed {seed}");
                assert!(!sup.degradation.grace, "seed {seed}");
                &sup.degradation
            }
            Err(err) => &err.degradation,
        };
        for rung in &degradation.rungs {
            assert!(
                rung.skipped || rung.backend == LADDER[0],
                "seed {seed}: rung {} ran under --no-degrade",
                rung.backend
            );
        }
    }
}
