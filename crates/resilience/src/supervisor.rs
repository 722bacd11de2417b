//! The resilient synthesis supervisor.
//!
//! [`supervise`] wraps solver invocations in the same graceful-degradation
//! discipline the paper demands of the synthesized hardware: a deadline
//! is enforced through the [`Cancellation`] chain, transient faults are
//! retried with jittered exponential backoff, a panicking back end is
//! caught and demoted instead of aborting the run, and when a rung fails
//! outright the supervisor descends a fixed **degradation ladder** —
//! exact → ILP → annealing → greedy, then constraint relaxation (latency
//! +1 per step up to a cap) — so the caller always receives the best
//! implementation the machine could produce, annotated with a structured
//! [`Degradation`] report saying exactly which rungs ran and why.
//!
//! The rungs are ordered by the measured cost of reaching a proof: the
//! exact license-lattice solver proves the paper's Fig. 5 in about 10 ms,
//! the ILP needs over a minute for the same proof. An answer is
//! *degraded* by what it is, not by which rung produced it: a relaxed
//! answer, a grace-pass answer, or one only a heuristic rung found (see
//! [`Supervised::degraded`]).
//!
//! The invariant the chaos suite pins down: for *any* injected fault
//! schedule, [`supervise`] terminates within its deadline bound (plus the
//! documented grace slack) and returns either a validator-clean
//! implementation or a typed [`SupervisorError`] — never a panic, never a
//! silently wrong cost.

use std::fmt;
use std::time::{Duration, Instant};

use troy_ilp::Cancellation;
use troy_portfolio::{panic_message, synthesize_isolated, Backend};
use troyhls::{SolveOptions, Synthesis, SynthesisError, SynthesisProblem};

use crate::backoff::Backoff;
use crate::chaos::Chaos;

/// The degradation ladder, best rung first: provers before heuristics,
/// ordered by the cost of reaching a proof — the exact solver as the
/// primary, the ILP (the paper's own engine) as the second prover.
pub const LADDER: [Backend; 4] = [
    Backend::Exact,
    Backend::Ilp,
    Backend::Annealing,
    Backend::Greedy,
];

/// Budget of the final grace pass (fresh token, greedy): the bounded
/// slack past the deadline a supervised run may spend to keep the
/// promise that feasible problems yield *some* valid design.
pub const GRACE_BUDGET: Duration = Duration::from_secs(1);
const GRACE_NODES: usize = 50_000;

/// Floor for a single attempt's deadline slice; below this a solver
/// cannot do useful work and the slice only adds scheduling noise.
const MIN_SLICE: Duration = Duration::from_millis(10);

/// How the supervisor runs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Overall wall-clock budget across every rung, retry and relaxation.
    pub deadline: Duration,
    /// Extra attempts per rung for *transient* faults (spurious
    /// cancellation); deterministic failures descend immediately.
    pub max_retries: usize,
    /// `false` pins the run to the first rung not `disabled`: no ladder
    /// descent, no relaxation, no grace pass — first failure is the
    /// answer — and that rung gets the whole deadline.
    pub degrade: bool,
    /// Latency relaxation cap: constraints are retried with both phase
    /// latencies increased by `1..=max_relaxation` cycles.
    pub max_relaxation: usize,
    /// Retry backoff policy (deterministic jitter).
    pub backoff: Backoff,
    /// Back ends excluded for the whole run before it starts — the hook
    /// the service layer's circuit breakers use to shed a flapping rung
    /// without burning its retry budget. Excluded rungs appear in the
    /// [`Degradation`] report as skipped, and a run that had to bypass its
    /// primary rung reports it through [`Supervised::fallback`].
    pub disabled: Vec<Backend>,
    /// Base solver options; `cancel` is the parent of every attempt
    /// token, `node_limit` is inherited per attempt, and `time_limit` is
    /// superseded by the supervisor's deadline slices.
    pub options: SolveOptions,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline: Duration::from_secs(60),
            max_retries: 2,
            degrade: true,
            max_relaxation: 2,
            backoff: Backoff::default(),
            disabled: Vec::new(),
            options: SolveOptions::default(),
        }
    }
}

/// How one attempt of one rung ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// A validator-clean design of this cost (`proven` per the backend).
    Success {
        /// License cost of the design.
        cost: u64,
        /// Whether the backend proved it optimal.
        proven: bool,
    },
    /// The back end panicked (payload message); the backend is demoted.
    Panicked(String),
    /// The attempt's token was cancelled while the run had time left —
    /// the transient class (chaos, or a caller cancelling the parent
    /// token); retried with backoff.
    SpuriousCancel,
    /// The attempt's deadline slice expired with no design.
    Timeout,
    /// The back end reported infeasibility.
    Infeasible,
    /// The back end returned a design that failed re-validation; the
    /// backend is demoted (a miscosting solver cannot be trusted again).
    InvalidDesign,
    /// Any other typed failure.
    Failed(String),
}

impl AttemptOutcome {
    /// Short stable tag used in reports.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            AttemptOutcome::Success { .. } => "ok",
            AttemptOutcome::Panicked(_) => "panicked",
            AttemptOutcome::SpuriousCancel => "cancelled",
            AttemptOutcome::Timeout => "timeout",
            AttemptOutcome::Infeasible => "infeasible",
            AttemptOutcome::InvalidDesign => "invalid-design",
            AttemptOutcome::Failed(_) => "failed",
        }
    }
}

/// One attempt of one rung.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attempt {
    /// 0-based attempt number within the rung.
    pub attempt: usize,
    /// How it ended.
    pub outcome: AttemptOutcome,
    /// Wall-clock time the attempt took.
    pub elapsed: Duration,
    /// Backoff slept *after* this attempt, when it was retried.
    pub backoff: Option<Duration>,
}

/// Everything that happened on one rung of the ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungReport {
    /// The back end this rung ran.
    pub backend: Backend,
    /// Latency relaxation (cycles added to both phases) in effect.
    pub relaxation: usize,
    /// `true` when the rung was skipped because the backend had been
    /// demoted by an earlier panic or invalid design.
    pub skipped: bool,
    /// The attempts, in order.
    pub attempts: Vec<Attempt>,
}

/// Structured account of a supervised run: which rungs ran, which faults
/// occurred, what was demoted, how far constraints were relaxed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Rung reports in execution order (including skipped rungs).
    pub rungs: Vec<RungReport>,
    /// Back ends demoted for the rest of the run, with the reason.
    pub demoted: Vec<(Backend, String)>,
    /// `true` when the final grace pass produced the result.
    pub grace: bool,
}

impl Degradation {
    /// Total attempts that actually ran.
    #[must_use]
    pub fn attempts(&self) -> usize {
        self.rungs.iter().map(|r| r.attempts.len()).sum()
    }

    /// Total retries (attempts beyond the first) across all rungs.
    #[must_use]
    pub fn retries(&self) -> usize {
        self.rungs
            .iter()
            .map(|r| r.attempts.len().saturating_sub(1))
            .sum()
    }

    /// Human-readable multi-line summary, one line per rung/attempt.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for rung in &self.rungs {
            let relax = if rung.relaxation == 0 {
                String::new()
            } else {
                format!(" (latency +{})", rung.relaxation)
            };
            if rung.skipped {
                let _ = writeln!(s, "  rung {}{relax}: skipped (demoted)", rung.backend);
                continue;
            }
            for a in &rung.attempts {
                let detail = match &a.outcome {
                    AttemptOutcome::Success { cost, proven } => {
                        format!(
                            "${cost}{}",
                            if *proven {
                                " (proven)"
                            } else {
                                " (best effort)"
                            }
                        )
                    }
                    AttemptOutcome::Panicked(msg) | AttemptOutcome::Failed(msg) => msg.clone(),
                    _ => String::new(),
                };
                let backoff = a
                    .backoff
                    .map(|d| format!(", retried after {d:?}"))
                    .unwrap_or_default();
                let _ = writeln!(
                    s,
                    "  rung {}{relax} attempt {}: {} {detail}{backoff}",
                    rung.backend,
                    a.attempt + 1,
                    a.outcome.tag(),
                );
            }
        }
        if self.grace {
            let _ = writeln!(s, "  grace pass: greedy with a fresh token");
        }
        s
    }
}

/// The supervised result: a validated design plus its provenance.
#[derive(Debug, Clone)]
pub struct Supervised {
    /// The winning design (validator-clean for [`Supervised::problem`]).
    pub synthesis: Synthesis,
    /// The rung that produced it.
    pub backend: Backend,
    /// The problem the design actually satisfies: the input problem, or
    /// its latency-relaxed variant when [`Supervised::relaxation`] > 0.
    pub problem: SynthesisProblem,
    /// Cycles of latency relaxation applied (0 = original constraints).
    pub relaxation: usize,
    /// Full rung/attempt/fault account.
    pub degradation: Degradation,
    /// Wall-clock time of the whole supervised run.
    pub elapsed: Duration,
}

impl Supervised {
    /// `true` when the result is *degraded* — the CLI's exit-3 condition
    /// and the daemon's `degraded` status. That is decided by what the
    /// answer is: it meets latency-relaxed constraints, it came from the
    /// grace pass, or it was won by a rung that cannot prove optimality
    /// (annealing, greedy). A prover's answer on the original constraints
    /// is not degraded, whichever prover ran and whether it finished its
    /// proof; [`Synthesis::proven_optimal`] says the latter.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.relaxation > 0 || self.degradation.grace || !self.backend.can_prove()
    }

    /// Why the design did not come from the primary rung (`LADDER[0]`),
    /// or `None` when it did — the `TR001` diagnostic's message, shared
    /// by the CLI's `--lint` report and the daemon's response codes.
    #[must_use]
    pub fn fallback(&self) -> Option<String> {
        let via = if self.degradation.grace {
            "the grace pass".to_owned()
        } else if self.backend != LADDER[0] {
            format!("fallback back end `{}`", self.backend)
        } else {
            return None;
        };
        Some(format!(
            "design produced by {via}, not the primary `{}` rung",
            LADDER[0]
        ))
    }
}

/// Why a supervised run produced no design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorErrorKind {
    /// A proving rung showed the constraints unsatisfiable, still at
    /// `relaxation_steps` cycles of latency relaxation (the cap, unless
    /// degradation was disabled).
    Infeasible {
        /// Relaxation in effect when infeasibility was last proven.
        relaxation_steps: usize,
    },
    /// The deadline expired before any rung produced a design (and the
    /// grace pass, when allowed, found nothing either).
    DeadlineExhausted {
        /// The configured deadline.
        deadline: Duration,
    },
    /// Every rung failed or was demoted with budget to spare.
    Exhausted,
}

/// Typed, actionable failure of a supervised run, carrying the full
/// [`Degradation`] report for diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorError {
    /// What category of failure this is.
    pub kind: SupervisorErrorKind,
    /// Everything that was tried before giving up.
    pub degradation: Degradation,
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            SupervisorErrorKind::Infeasible { relaxation_steps } => write!(
                f,
                "no design satisfies the constraints (proven, after {relaxation_steps} \
                 cycle(s) of latency relaxation); relax --lambda-det/--lambda-rec, raise \
                 --area, or extend the catalog"
            ),
            SupervisorErrorKind::DeadlineExhausted { deadline } => write!(
                f,
                "deadline of {deadline:?} exhausted before any rung produced a design; \
                 raise --deadline or lower the problem size"
            ),
            SupervisorErrorKind::Exhausted => write!(
                f,
                "every ladder rung failed; see the degradation report (a panicking or \
                 miscosting back end is demoted for the whole run)"
            ),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Builds the latency-relaxed variant of `problem` (+`step` cycles on
/// both phases). `None` only if the relaxed problem fails validation,
/// which loosening latencies cannot cause in practice.
fn relaxed(problem: &SynthesisProblem, step: usize) -> Option<SynthesisProblem> {
    let mut builder = SynthesisProblem::builder(problem.dfg().clone(), problem.catalog().clone())
        .mode(problem.mode())
        .detection_latency(problem.detection_latency() + step)
        .recovery_latency(problem.recovery_latency() + step)
        .area_limit(problem.area_limit());
    for &(a, b) in problem.related_pairs() {
        builder = builder.related_pair(a, b);
    }
    builder.build().ok()
}

/// Re-validates a back end's claimed design: validator-clean and the
/// reported cost equal to the recomputed license cost.
fn is_sound(problem: &SynthesisProblem, s: &Synthesis) -> bool {
    troyhls::validate(problem, &s.implementation).is_empty()
        && s.implementation.license_cost(problem) == s.cost
}

/// What a finished rung tells the ladder driver to do next.
enum RungVerdict {
    Won(Synthesis),
    Descend,
    ProvenInfeasible,
    OutOfTime,
}

/// Runs the full supervision protocol on `problem`.
///
/// Per relaxation step (0, then +1 latency up to the cap while
/// degradation is allowed), each non-demoted ladder rung gets a slice of
/// the remaining deadline (an even share over the rungs of its kind still
/// ahead: the provers split it, see `runnable_rungs`), enforced as a
/// [`Cancellation::child_with_deadline`]
/// token chained under `config.options.cancel`; within a rung, transient
/// faults retry up to `config.max_retries` times with jittered
/// exponential backoff. A panicking or miscosting back end is demoted for
/// the rest of the run. If the deadline expires with no design and
/// degradation is allowed, one bounded greedy *grace pass* (fresh token,
/// [`GRACE_BUDGET`]) still tries for a best-effort design.
///
/// Chaos faults from `chaos` (when enabled) are injected at the attempt
/// boundaries; pass [`Chaos::disabled`] for production behavior.
///
/// # Errors
///
/// A [`SupervisorError`] carrying the degradation report: proven
/// infeasibility, deadline exhaustion, or every rung failing.
pub fn supervise(
    problem: &SynthesisProblem,
    config: &SupervisorConfig,
    chaos: &Chaos,
) -> Result<Supervised, SupervisorError> {
    let t0 = Instant::now();
    let root = config.options.cancel.child_with_deadline(config.deadline);
    let mut degradation = Degradation::default();
    let mut demoted: Vec<Backend> = config.disabled.clone();
    let mut out_of_time = false;
    let max_relaxation = if config.degrade {
        config.max_relaxation
    } else {
        0
    };

    'relax: for step in 0..=max_relaxation {
        let variant = if step == 0 {
            problem.clone()
        } else {
            match relaxed(problem, step) {
                Some(p) => p,
                None => continue,
            }
        };
        for (rung_no, &backend) in LADDER.iter().enumerate() {
            if demoted.contains(&backend) {
                degradation.rungs.push(RungReport {
                    backend,
                    relaxation: step,
                    skipped: true,
                    attempts: Vec::new(),
                });
                continue;
            }
            let rungs_left = runnable_rungs(&LADDER[rung_no..], &demoted, config.degrade);
            let verdict = run_rung(
                backend,
                step,
                rungs_left,
                &variant,
                config,
                chaos,
                &root,
                t0,
                &mut degradation,
            );
            match verdict {
                RungVerdict::Won(synthesis) => {
                    return Ok(Supervised {
                        synthesis,
                        backend,
                        problem: variant,
                        relaxation: step,
                        degradation,
                        elapsed: t0.elapsed(),
                    });
                }
                RungVerdict::Descend => {
                    if !config.degrade {
                        return Err(SupervisorError {
                            kind: SupervisorErrorKind::Exhausted,
                            degradation,
                        });
                    }
                }
                RungVerdict::ProvenInfeasible => {
                    if step == max_relaxation {
                        return Err(SupervisorError {
                            kind: SupervisorErrorKind::Infeasible {
                                relaxation_steps: step,
                            },
                            degradation,
                        });
                    }
                    continue 'relax;
                }
                RungVerdict::OutOfTime => {
                    out_of_time = true;
                    break 'relax;
                }
            }
            // Demotions recorded inside run_rung; refresh the local view,
            // keeping the caller's pre-disabled back ends excluded.
            demoted.clone_from(&config.disabled);
            demoted.extend(degradation.demoted.iter().map(|(b, _)| *b));
        }
    }

    // Grace pass: the ladder produced nothing within the deadline. One
    // bounded greedy run on the original constraints with a *fresh*
    // token keeps the promise that feasible problems yield some design.
    if config.degrade {
        let grace = SolveOptions {
            time_limit: GRACE_BUDGET,
            node_limit: config.options.node_limit.min(GRACE_NODES),
            cancel: Cancellation::with_deadline(GRACE_BUDGET),
            ..config.options.clone()
        };
        if let Ok(s) = synthesize_isolated(Backend::Greedy, problem, &grace) {
            if is_sound(problem, &s) {
                degradation.grace = true;
                return Ok(Supervised {
                    synthesis: Synthesis {
                        proven_optimal: false,
                        ..s
                    },
                    backend: Backend::Greedy,
                    problem: problem.clone(),
                    relaxation: 0,
                    degradation,
                    elapsed: t0.elapsed(),
                });
            }
        }
    }

    let kind = if out_of_time {
        SupervisorErrorKind::DeadlineExhausted {
            deadline: config.deadline,
        }
    } else {
        SupervisorErrorKind::Exhausted
    };
    Err(SupervisorError { kind, degradation })
}

/// How many rungs of `ahead` (the current rung first) share its part of
/// the deadline: the rungs of the same kind (prover or heuristic) that
/// are not demoted, or just the current one when descent is off —
/// `--no-degrade` never runs a second rung, so it must not budget one.
///
/// The provers split the deadline between them, so the ILP, the last
/// prover, keeps whatever the exact solver leaves. Nothing is held back
/// for the heuristic rungs: when the ILP runs out of time it still
/// answers with at least its greedy warm start, so they matter only
/// after a prover fails outright (a panic, an invalid design, a typed
/// error), which leaves them the time it did not use.
fn runnable_rungs(ahead: &[Backend], demoted: &[Backend], degrade: bool) -> usize {
    if degrade {
        let proves = ahead[0].can_prove();
        ahead
            .iter()
            .filter(|b| b.can_prove() == proves && !demoted.contains(b))
            .count()
    } else {
        1
    }
}

/// One attempt's deadline slice: an even share of the `remaining`
/// deadline over the `rungs_left` rungs that share it (this one
/// included, see [`runnable_rungs`]), floored at [`MIN_SLICE`] so a
/// slice is never uselessly small. With the provers first, the exact
/// solver gets half of a fresh deadline, so its node-limited searches
/// on the hardest paper rows finish inside a 1 s request's slice with
/// room to spare instead of racing a quarter of it.
fn attempt_slice(remaining: Duration, rungs_left: usize) -> Duration {
    (remaining / rungs_left.max(1) as u32).max(MIN_SLICE)
}

/// Runs one rung (all its attempts) and records it into `degradation`.
#[allow(clippy::too_many_arguments)]
fn run_rung(
    backend: Backend,
    relaxation: usize,
    rungs_left: usize,
    problem: &SynthesisProblem,
    config: &SupervisorConfig,
    chaos: &Chaos,
    root: &Cancellation,
    t0: Instant,
    degradation: &mut Degradation,
) -> RungVerdict {
    let mut report = RungReport {
        backend,
        relaxation,
        skipped: false,
        attempts: Vec::new(),
    };
    let rung_index = relaxation * LADDER.len() + backend.priority();
    let mut verdict = RungVerdict::Descend;

    for attempt in 0..=config.max_retries {
        if root.is_expired() {
            verdict = RungVerdict::OutOfTime;
            break;
        }
        // The child token clamps the slice to the root deadline.
        let slice = attempt_slice(config.deadline.saturating_sub(t0.elapsed()), rungs_left);
        let token = root.child_with_deadline(slice);
        let attempt_options = SolveOptions {
            time_limit: slice,
            node_limit: config.options.node_limit,
            cancel: token.clone(),
            ..config.options.clone()
        };

        let fault = chaos.fault_for_attempt(backend, relaxation, attempt);
        chaos.apply_before_attempt(fault, &token);

        let a0 = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chaos.maybe_panic(fault, backend);
            synthesize_isolated(backend, problem, &attempt_options)
        }))
        .unwrap_or_else(|payload| Err(SynthesisError::Panicked(panic_message(payload.as_ref()))));
        let elapsed = a0.elapsed();

        let (outcome, next) = classify(backend, result, problem, &token, root);
        let retryable = matches!(outcome, AttemptOutcome::SpuriousCancel);
        let will_retry = retryable && attempt < config.max_retries;
        let backoff = will_retry.then(|| {
            let delay = config
                .backoff
                .delay(rung_index, attempt + 1)
                .min(config.deadline.saturating_sub(t0.elapsed()));
            std::thread::sleep(delay);
            delay
        });
        report.attempts.push(Attempt {
            attempt,
            outcome: outcome.clone(),
            elapsed,
            backoff,
        });
        match &outcome {
            AttemptOutcome::Panicked(msg) => {
                degradation.demoted.push((backend, msg.clone()));
            }
            AttemptOutcome::InvalidDesign => {
                degradation.demoted.push((
                    backend,
                    "returned an invalid or miscosted design".to_owned(),
                ));
            }
            _ => {}
        }
        if let Some(v) = next {
            verdict = v;
            break;
        }
        if !will_retry {
            break;
        }
    }

    degradation.rungs.push(report);
    verdict
}

/// Classifies one attempt's raw result into an [`AttemptOutcome`] and,
/// when the rung is decided, the rung verdict (`None` = retry).
fn classify(
    backend: Backend,
    result: Result<Synthesis, SynthesisError>,
    problem: &SynthesisProblem,
    token: &Cancellation,
    root: &Cancellation,
) -> (AttemptOutcome, Option<RungVerdict>) {
    match result {
        Ok(s) if is_sound(problem, &s) => (
            AttemptOutcome::Success {
                cost: s.cost,
                proven: s.proven_optimal,
            },
            Some(RungVerdict::Won(s)),
        ),
        Ok(_) => (AttemptOutcome::InvalidDesign, Some(RungVerdict::Descend)),
        Err(SynthesisError::Panicked(msg)) => {
            (AttemptOutcome::Panicked(msg), Some(RungVerdict::Descend))
        }
        Err(SynthesisError::Infeasible) if backend.can_prove() => (
            AttemptOutcome::Infeasible,
            Some(RungVerdict::ProvenInfeasible),
        ),
        Err(SynthesisError::Infeasible) => (AttemptOutcome::Infeasible, Some(RungVerdict::Descend)),
        Err(SynthesisError::BudgetExhausted) => {
            if token.is_cancelled() && !root.is_expired() {
                // Someone cancelled this attempt's own token while the
                // run still has budget: the transient class — retry.
                (AttemptOutcome::SpuriousCancel, None)
            } else if root.is_expired() {
                (AttemptOutcome::Timeout, Some(RungVerdict::OutOfTime))
            } else {
                (AttemptOutcome::Timeout, Some(RungVerdict::Descend))
            }
        }
        Err(other) => (
            AttemptOutcome::Failed(other.to_string()),
            Some(RungVerdict::Descend),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use troy_dfg::benchmarks;
    use troyhls::{Catalog, Mode};

    fn tiny_problem() -> SynthesisProblem {
        let dfg = benchmarks::polynom();
        let cp = dfg.critical_path_len();
        SynthesisProblem::builder(dfg, Catalog::table1())
            .mode(Mode::DetectionOnly)
            .detection_latency(cp + 1)
            .build()
            .expect("well-formed")
    }

    #[test]
    fn clean_run_wins_on_the_primary_rung_not_degraded() {
        let sup = supervise(
            &tiny_problem(),
            &SupervisorConfig::default(),
            &Chaos::disabled(),
        )
        .expect("feasible");
        assert_eq!(sup.backend, LADDER[0]);
        assert_eq!(sup.relaxation, 0);
        assert!(!sup.degraded());
        assert_eq!(sup.fallback(), None);
        assert!(sup.synthesis.proven_optimal);
        assert!(is_sound(&sup.problem, &sup.synthesis));
        assert_eq!(sup.degradation.attempts(), 1);
        assert_eq!(sup.degradation.retries(), 0);
        assert!(!sup.degradation.grace);
    }

    #[test]
    fn disabled_primary_rung_is_skipped_and_the_fallback_is_reported() {
        // A circuit breaker opening on the primary rung pre-disables it;
        // the run must fall through to the next prover, report the skip
        // and the fallback, and still count as an undegraded answer — a
        // prover's design on the original constraints is what was asked.
        let config = SupervisorConfig {
            disabled: vec![LADDER[0]],
            ..SupervisorConfig::default()
        };
        let sup = supervise(&tiny_problem(), &config, &Chaos::disabled()).expect("feasible");
        assert_eq!(sup.backend, LADDER[1]);
        assert!(!sup.degraded(), "{}", sup.degradation.summary());
        let why = sup
            .fallback()
            .expect("bypassing the primary rung is a fallback");
        assert!(
            why.contains(&format!("not the primary `{}` rung", LADDER[0])),
            "{why}"
        );
        assert!(is_sound(&sup.problem, &sup.synthesis));
        let primary = sup
            .degradation
            .rungs
            .iter()
            .find(|r| r.backend == LADDER[0])
            .expect("primary rung reported");
        assert!(primary.skipped);
        assert!(primary.attempts.is_empty());

        // With both provers out, only a heuristic can answer: degraded.
        let config = SupervisorConfig {
            disabled: vec![Backend::Exact, Backend::Ilp],
            ..SupervisorConfig::default()
        };
        let sup = supervise(&tiny_problem(), &config, &Chaos::disabled()).expect("feasible");
        assert!(!sup.backend.can_prove());
        assert!(sup.degraded(), "a heuristic-only answer is degradation");
        assert!(sup.fallback().is_some());
        assert!(is_sound(&sup.problem, &sup.synthesis));
    }

    #[test]
    fn slices_share_the_deadline_over_rungs_that_may_still_run() {
        let second = Duration::from_secs(1);
        // Descent on: the provers share the deadline, and so do the
        // heuristics that run after a prover failed outright.
        assert_eq!(runnable_rungs(&LADDER, &[], true), 2);
        assert_eq!(runnable_rungs(&LADDER[1..], &[], true), 1);
        assert_eq!(runnable_rungs(&LADDER[2..], &[], true), 2);
        assert_eq!(runnable_rungs(&LADDER[3..], &[], true), 1);
        // A demoted prover leaves the other one the whole deadline.
        assert_eq!(runnable_rungs(&LADDER, &[LADDER[1]], true), 1);
        assert_eq!(runnable_rungs(&LADDER[2..], &[LADDER[3]], true), 1);
        // A 1 s deadline: the exact solver gets 500 ms, the ILP the rest.
        let exact = attempt_slice(second, runnable_rungs(&LADDER, &[], true));
        assert_eq!(exact, Duration::from_millis(500));
        let left = second.saturating_sub(exact);
        let ilp = attempt_slice(left, runnable_rungs(&LADDER[1..], &[], true));
        assert_eq!(ilp, Duration::from_millis(500));
        // Descent off: only the current rung can ever run, so it gets
        // the whole deadline, not a share of it.
        assert_eq!(runnable_rungs(&LADDER, &[], false), 1);
        assert_eq!(runnable_rungs(&LADDER[1..], &[LADDER[0]], false), 1);
        assert_eq!(attempt_slice(second, 1), second);
        // The floor: a slice is never uselessly small, nor a division by 0.
        assert_eq!(attempt_slice(Duration::from_millis(12), 4), MIN_SLICE);
        assert_eq!(attempt_slice(Duration::ZERO, 0), MIN_SLICE);
    }

    #[test]
    fn no_degrade_gives_the_primary_rung_the_whole_deadline() {
        // With descent off no share of the deadline may be budgeted for
        // rungs that never run. diff2 at λ=14 under a 20000 area cap is
        // undecidable for the exact solver in far more than the deadline
        // (it neither finds a design nor proves there is none), so its
        // one attempt must run until the whole deadline expires.
        let problem = SynthesisProblem::builder(benchmarks::diff2(), Catalog::paper8())
            .mode(Mode::DetectionOnly)
            .detection_latency(14)
            .area_limit(20_000)
            .build()
            .expect("well-formed");
        let deadline = Duration::from_millis(400);
        let config = SupervisorConfig {
            deadline,
            degrade: false,
            ..SupervisorConfig::default()
        };
        let err = supervise(&problem, &config, &Chaos::disabled()).unwrap_err();
        assert_eq!(
            err.kind,
            SupervisorErrorKind::DeadlineExhausted { deadline }
        );
        let ran: Vec<&Attempt> = err
            .degradation
            .rungs
            .iter()
            .flat_map(|r| &r.attempts)
            .collect();
        assert_eq!(ran.len(), 1, "{}", err.degradation.summary());
        assert!(
            ran[0].elapsed >= deadline * 3 / 4,
            "the primary rung gave up after {:?} of a {deadline:?} deadline",
            ran[0].elapsed
        );
    }

    #[test]
    fn all_rungs_disabled_is_a_typed_exhaustion() {
        let config = SupervisorConfig {
            disabled: LADDER.to_vec(),
            degrade: false, // no grace pass: exhaustion must surface
            ..SupervisorConfig::default()
        };
        let err = supervise(&tiny_problem(), &config, &Chaos::disabled()).unwrap_err();
        assert_eq!(err.kind, SupervisorErrorKind::Exhausted);
        assert!(err.degradation.rungs.iter().all(|r| r.skipped));
    }

    #[test]
    fn expired_parent_token_yields_a_typed_error_or_grace_design() {
        // The parent token is already cancelled: every slice dies at its
        // first poll; only the grace pass (fresh token) can produce a
        // design, and disabling degradation removes even that.
        let cancelled = Cancellation::new();
        cancelled.cancel();
        let config = SupervisorConfig {
            deadline: Duration::from_millis(50),
            degrade: false,
            options: SolveOptions {
                cancel: cancelled.clone(),
                ..SolveOptions::quick()
            },
            ..SupervisorConfig::default()
        };
        let err = supervise(&tiny_problem(), &config, &Chaos::disabled()).unwrap_err();
        assert!(
            matches!(
                err.kind,
                SupervisorErrorKind::Exhausted | SupervisorErrorKind::DeadlineExhausted { .. }
            ),
            "{err}"
        );
        assert!(!err.degradation.rungs.is_empty());

        // With degradation allowed, the grace pass still finds a design.
        let config = SupervisorConfig {
            degrade: true,
            ..config
        };
        let sup = supervise(&tiny_problem(), &config, &Chaos::disabled()).expect("grace");
        assert!(sup.degradation.grace);
        assert!(sup.degraded());
        assert!(!sup.synthesis.proven_optimal);
        assert!(is_sound(&sup.problem, &sup.synthesis));
    }

    #[test]
    fn no_degrade_stops_at_the_first_failed_rung() {
        let cancelled = Cancellation::new();
        cancelled.cancel();
        let config = SupervisorConfig {
            deadline: Duration::from_millis(50),
            degrade: false,
            max_retries: 0,
            options: SolveOptions {
                cancel: cancelled,
                ..SolveOptions::quick()
            },
            ..SupervisorConfig::default()
        };
        let err = supervise(&tiny_problem(), &config, &Chaos::disabled()).unwrap_err();
        let ran: Vec<&RungReport> = err
            .degradation
            .rungs
            .iter()
            .filter(|r| !r.skipped)
            .collect();
        assert_eq!(ran.len(), 1, "{:?}", err.degradation);
        assert_eq!(ran[0].backend, LADDER[0]);
    }

    #[test]
    fn relaxation_recovers_an_area_infeasible_latency() {
        // polynom/table1/detection at the critical path with a tight area
        // cap: the forced concurrency makes λ=cp infeasible, λ+1 feasible
        // — the exact shape the relaxation rung exists for. The bound is
        // found empirically: pick the tightest area that λ=cp proves
        // infeasible but λ+1 solves.
        let dfg = benchmarks::polynom();
        let cp = dfg.critical_path_len();
        let mut chosen = None;
        for area in [9_000, 10_000, 11_000, 12_000, 14_000] {
            let tight = SynthesisProblem::builder(dfg.clone(), Catalog::table1())
                .mode(Mode::DetectionOnly)
                .detection_latency(cp)
                .area_limit(area)
                .build()
                .expect("well-formed");
            let at_cp = synthesize_isolated(Backend::Exact, &tight, &SolveOptions::quick());
            if !matches!(at_cp, Err(SynthesisError::Infeasible)) {
                continue;
            }
            let loose = relaxed(&tight, 1).expect("relaxable");
            if synthesize_isolated(Backend::Exact, &loose, &SolveOptions::quick()).is_ok() {
                chosen = Some(tight);
                break;
            }
        }
        let Some(problem) = chosen else {
            // No area in the probe set separates cp from cp+1 — the
            // relaxation path is still covered by the chaos suite.
            return;
        };
        let sup = supervise(&problem, &SupervisorConfig::default(), &Chaos::disabled())
            .expect("relaxation recovers feasibility");
        assert!(sup.relaxation >= 1);
        assert!(sup.degraded());
        assert!(is_sound(&sup.problem, &sup.synthesis));
        assert_eq!(
            sup.problem.detection_latency(),
            problem.detection_latency() + sup.relaxation
        );
    }

    #[test]
    fn proven_infeasibility_without_degradation_is_typed() {
        // Area below any single multiplier: infeasible at every latency.
        let problem = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionOnly)
            .area_limit(10)
            .build()
            .expect("well-formed");
        let config = SupervisorConfig {
            max_relaxation: 1,
            ..SupervisorConfig::default()
        };
        let err = supervise(&problem, &config, &Chaos::disabled()).unwrap_err();
        assert!(
            matches!(
                err.kind,
                SupervisorErrorKind::Infeasible {
                    relaxation_steps: 1
                }
            ),
            "{:?}",
            err.kind
        );
        assert!(err.to_string().contains("relax"), "{err}");
    }

    #[test]
    fn deadline_cancelled_runs_never_claim_infeasibility() {
        // Regression for the LP outcome split: a deadline tripping in the
        // middle of branch-and-bound used to be indistinguishable from a
        // failed LP and could poison the infeasibility proof. Whatever a
        // feasible problem under an aggressive deadline produces — a win,
        // a degraded design, or typed exhaustion — it must never be the
        // supervisor's proven-infeasible verdict.
        let problem = tiny_problem();
        for micros in [0u64, 100, 500, 2_000, 10_000] {
            let config = SupervisorConfig {
                degrade: false,
                options: SolveOptions {
                    cancel: Cancellation::with_deadline(Duration::from_micros(micros)),
                    ..SolveOptions::quick()
                },
                ..SupervisorConfig::default()
            };
            match supervise(&problem, &config, &Chaos::disabled()) {
                Ok(sup) => assert!(is_sound(&sup.problem, &sup.synthesis)),
                Err(err) => assert!(
                    !matches!(err.kind, SupervisorErrorKind::Infeasible { .. }),
                    "deadline trip misreported as infeasibility at {micros}us: {err}"
                ),
            }
        }
    }

    #[test]
    fn summary_names_every_rung_that_ran() {
        let sup = supervise(
            &tiny_problem(),
            &SupervisorConfig::default(),
            &Chaos::disabled(),
        )
        .expect("feasible");
        let text = sup.degradation.summary();
        assert!(
            text.contains(&format!("rung {} attempt 1: ok", LADDER[0])),
            "{text}"
        );
    }
}
