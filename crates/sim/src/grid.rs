//! The campaign grid engine: fans `(benchmark, mode, trojan, trace)` cells
//! over the `troy-portfolio` work-stealing pool and aggregates a
//! deterministic [`CampaignReport`].
//!
//! Every cell runs one planted [`crate::corpus::TrojanSpec`] against one
//! synthesized design for a whole input trace, with Trojan state (latches,
//! sequential counters) persisting across the trace's steps — the Fig. 3
//! mission-time behavior. All randomness derives from the master seed and
//! the cell's identity, so the report is bit-identical under any `jobs`
//! setting, and any escape is replayable from its `(seed, cell-id)`
//! witness alone.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use troy_dfg::Fnv1a;
use troyhls::{Implementation, Mode, Role, SolveOptions, SynthesisProblem, Synthesizer};

use crate::corpus::{derive_seed, generate_corpus, plant, CorpusConfig, TrojanSpec};
use crate::datapath::Datapath;
use crate::semantics::{golden_eval, sink_outputs, InputVector};

/// One synthesized design a campaign grid exercises.
#[derive(Debug)]
pub struct DesignUnderTest {
    /// Benchmark name (a `troy_dfg::benchmarks` entry).
    pub name: String,
    /// The synthesis problem the implementation solves.
    pub problem: SynthesisProblem,
    /// The vendor/cycle binding under test.
    pub implementation: Implementation,
}

impl DesignUnderTest {
    /// Synthesizes a built-in benchmark for `mode` with one cycle of
    /// latency slack over its critical path (the paper-8 catalog).
    ///
    /// # Errors
    ///
    /// Returns a message when the benchmark name is unknown or synthesis
    /// fails.
    pub fn synthesize(
        name: &str,
        mode: Mode,
        solver: &dyn Synthesizer,
        options: &SolveOptions,
    ) -> Result<Self, String> {
        let dfg = troy_dfg::benchmarks::by_name(name)
            .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
        let slack = dfg.critical_path_len() + 1;
        let problem = troyhls::SynthesisProblem::builder(dfg, troyhls::Catalog::paper8())
            .mode(mode)
            .detection_latency(slack)
            .recovery_latency(slack)
            .build()
            .map_err(|e| format!("{name}: {e}"))?;
        let solved = solver
            .synthesize(&problem, options)
            .map_err(|e| format!("{name}: {e}"))?;
        Ok(DesignUnderTest {
            name: name.to_owned(),
            problem,
            implementation: solved.implementation,
        })
    }

    /// Short mode tag used in cell identifiers (`det` / `rec`).
    #[must_use]
    pub fn mode_tag(&self) -> &'static str {
        mode_tag(self.problem.mode())
    }
}

/// Short mode tag (`det` / `rec`).
#[must_use]
pub fn mode_tag(mode: Mode) -> &'static str {
    match mode {
        Mode::DetectionOnly => "det",
        Mode::DetectionRecovery => "rec",
    }
}

/// Campaign grid parameters.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Master seed: the single knob that determines the whole report.
    pub seed: u64,
    /// Trojan-corpus strata planted into every design.
    pub corpus: CorpusConfig,
    /// Mission steps per cell (one trace = `steps` consecutive inputs
    /// against persistent Trojan state).
    pub steps: usize,
    /// Input traces per (design, trojan) pair.
    pub traces: usize,
    /// Probability (percent) that a step's inputs are crafted to hit the
    /// trigger on the planted victim op, rather than fully random.
    pub targeted_percent: u8,
    /// Minimum `rarity_bits` for the hard detection guarantee: a
    /// `DetectionRecovery` cell with a memory-less payload, coalition 1
    /// and at least this rarity must detect *every* corrupting activation
    /// — an escape there is a campaign failure, not a data point. Below
    /// this threshold common triggers can corrupt NC and RC identically
    /// by chance, which the paper's rare-trigger assumption excludes.
    pub guarantee_rarity: u32,
    /// Deterministic cap on the number of grid cells (`None` = full grid).
    pub max_cells: Option<usize>,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            seed: 0x000D_AC14,
            corpus: CorpusConfig::default(),
            steps: 16,
            traces: 1,
            targeted_percent: 60,
            guarantee_rarity: 8,
            max_cells: None,
        }
    }
}

/// Everything measured in one grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// Stable identifier: `benchmark/mode/tNNN-stratum/xTRACE`.
    pub id: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Design mode.
    pub mode: Mode,
    /// Trojan spec the cell planted.
    pub spec: TrojanSpec,
    /// Trace index.
    pub trace: usize,
    /// Mission steps executed.
    pub steps: usize,
    /// Steps where any op-level output deviated from golden (the Trojan
    /// demonstrably fired somewhere).
    pub activations: usize,
    /// Steps whose *sink* outputs were corrupted in NC or RC.
    pub corrupted: usize,
    /// Corrupted steps flagged by the NC/RC monitor.
    pub detected: usize,
    /// Corrupted steps that escaped the monitor.
    pub missed: usize,
    /// Steps where the Trojan fired internally but the corruption masked
    /// out before reaching a sink (invisible to the monitor, harmless).
    pub silent_internal: usize,
    /// Steps where the monitor fired without sink corruption — must stay 0
    /// for a sound comparator (pinned by the clean negative control).
    pub false_alarms: usize,
    /// Detected steps whose recovery re-execution delivered golden.
    pub recovered: usize,
    /// Detected steps whose recovery outputs were still wrong.
    pub recovery_failed: usize,
    /// Whether this cell is in the hard-guarantee slice (see
    /// [`GridConfig::guarantee_rarity`]).
    pub guarantee: bool,
    /// Step indices of every missed corrupting activation.
    pub escape_steps: Vec<usize>,
    /// Wall-clock for the cell (informational; excluded from the
    /// deterministic report sections).
    pub elapsed_us: u64,
}

/// A replayable witness for an escaped corrupting activation in the
/// guarantee slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscapeWitness {
    /// Master seed of the campaign that observed the escape.
    pub seed: u64,
    /// Cell identifier (re-run with [`replay_cell`] to reproduce).
    pub cell: String,
    /// Step index within the cell's trace.
    pub step: usize,
}

/// Deterministic aggregate of one campaign grid run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Master seed the grid ran under.
    pub seed: u64,
    /// Per-cell outcomes, in grid order.
    pub cells: Vec<CellOutcome>,
}

impl CampaignReport {
    fn sum(&self, f: impl Fn(&CellOutcome) -> usize) -> usize {
        self.cells.iter().map(f).sum()
    }

    /// Total mission steps executed.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.sum(|c| c.steps)
    }

    /// Fraction of corrupting activations the monitor caught, over cells
    /// matching `mode` (`None` = all cells). `1.0` when nothing corrupted.
    #[must_use]
    pub fn detection_rate(&self, mode: Option<Mode>) -> f64 {
        let (mut corrupted, mut detected) = (0usize, 0usize);
        for c in self
            .cells
            .iter()
            .filter(|c| mode.is_none_or(|m| c.mode == m))
        {
            corrupted += c.corrupted;
            detected += c.detected;
        }
        if corrupted == 0 {
            1.0
        } else {
            detected as f64 / corrupted as f64
        }
    }

    /// Fraction of recovery re-executions that delivered golden outputs.
    /// `1.0` when recovery never ran.
    #[must_use]
    pub fn recovery_rate(&self) -> f64 {
        let recovered = self.sum(|c| c.recovered);
        let failed = self.sum(|c| c.recovery_failed);
        if recovered + failed == 0 {
            1.0
        } else {
            recovered as f64 / (recovered + failed) as f64
        }
    }

    /// Monitor firings without sink corruption, per executed step.
    #[must_use]
    pub fn false_alarm_rate(&self) -> f64 {
        let steps = self.steps();
        if steps == 0 {
            0.0
        } else {
            self.sum(|c| c.false_alarms) as f64 / steps as f64
        }
    }

    /// Replayable witnesses for *every* missed corrupting activation, any
    /// mode or stratum. Each witness is `(seed, cell-id, step)`; feeding
    /// the cell id back through [`replay_cell`] under the same seed
    /// reproduces the cell bit-for-bit.
    #[must_use]
    pub fn escapes(&self) -> Vec<EscapeWitness> {
        self.witnesses(|_| true)
    }

    /// Replayable witnesses for every escape inside the guarantee slice —
    /// an empty list is the campaign's pass condition.
    #[must_use]
    pub fn guarantee_escapes(&self) -> Vec<EscapeWitness> {
        self.witnesses(|c| c.guarantee)
    }

    fn witnesses(&self, keep: impl Fn(&CellOutcome) -> bool) -> Vec<EscapeWitness> {
        self.cells
            .iter()
            .filter(|c| keep(c))
            .flat_map(|c| {
                c.escape_steps.iter().map(|&step| EscapeWitness {
                    seed: self.seed,
                    cell: c.id.clone(),
                    step,
                })
            })
            .collect()
    }

    /// Human-readable summary (per-mode rates plus the guarantee verdict).
    #[must_use]
    pub fn summary_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign: seed {:#x}, {} cells, {} steps",
            self.seed,
            self.cells.len(),
            self.steps()
        );
        let _ = writeln!(
            out,
            "  activations {}  corrupted {}  detected {}  missed {}  silent {}",
            self.sum(|c| c.activations),
            self.sum(|c| c.corrupted),
            self.sum(|c| c.detected),
            self.sum(|c| c.missed),
            self.sum(|c| c.silent_internal),
        );
        let _ = writeln!(
            out,
            "  detection rate: {:.4} overall, {:.4} detection-only, {:.4} detection+recovery",
            self.detection_rate(None),
            self.detection_rate(Some(Mode::DetectionOnly)),
            self.detection_rate(Some(Mode::DetectionRecovery)),
        );
        let _ = writeln!(
            out,
            "  recovery rate: {:.4} ({} recovered, {} failed)  false-alarm rate: {:.4}",
            self.recovery_rate(),
            self.sum(|c| c.recovered),
            self.sum(|c| c.recovery_failed),
            self.false_alarm_rate(),
        );
        let guard = self.cells.iter().filter(|c| c.guarantee).count();
        let escapes = self.guarantee_escapes();
        let _ = writeln!(
            out,
            "  guarantee slice: {guard} cells, {} escapes",
            escapes.len()
        );
        out
    }

    /// Renders the report as JSON. With `include_timing` false the output
    /// is a pure function of the seed and grid — the determinism property
    /// tests and the committed benchmark compare exactly that form.
    #[must_use]
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": 1,\n");
        out.push_str(
            "  \"note\": \"all counts and rates are deterministic in the seed; \
             latency_us is informational only\",\n",
        );
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        out.push_str("  \"summary\": {\n");
        let _ = writeln!(out, "    \"cells\": {},", self.cells.len());
        let _ = writeln!(out, "    \"steps\": {},", self.steps());
        let _ = writeln!(out, "    \"activations\": {},", self.sum(|c| c.activations));
        let _ = writeln!(out, "    \"corrupted\": {},", self.sum(|c| c.corrupted));
        let _ = writeln!(out, "    \"detected\": {},", self.sum(|c| c.detected));
        let _ = writeln!(out, "    \"missed\": {},", self.sum(|c| c.missed));
        let _ = writeln!(
            out,
            "    \"silent_internal\": {},",
            self.sum(|c| c.silent_internal)
        );
        let _ = writeln!(
            out,
            "    \"false_alarms\": {},",
            self.sum(|c| c.false_alarms)
        );
        let _ = writeln!(out, "    \"recovered\": {},", self.sum(|c| c.recovered));
        let _ = writeln!(
            out,
            "    \"recovery_failed\": {},",
            self.sum(|c| c.recovery_failed)
        );
        let _ = writeln!(
            out,
            "    \"detection_rate\": {:.4},",
            self.detection_rate(None)
        );
        let _ = writeln!(
            out,
            "    \"detection_rate_detection_only\": {:.4},",
            self.detection_rate(Some(Mode::DetectionOnly))
        );
        let _ = writeln!(
            out,
            "    \"detection_rate_recovery\": {:.4},",
            self.detection_rate(Some(Mode::DetectionRecovery))
        );
        let _ = writeln!(out, "    \"recovery_rate\": {:.4},", self.recovery_rate());
        let _ = writeln!(
            out,
            "    \"false_alarm_rate\": {:.4},",
            self.false_alarm_rate()
        );
        let _ = writeln!(
            out,
            "    \"guarantee_cells\": {},",
            self.cells.iter().filter(|c| c.guarantee).count()
        );
        let _ = writeln!(
            out,
            "    \"guarantee_escapes\": {}",
            self.guarantee_escapes().len()
        );
        out.push_str("  },\n  \"escapes\": [");
        let escapes = self.guarantee_escapes();
        for (i, e) in escapes.iter().enumerate() {
            let sep = if i + 1 < escapes.len() { "," } else { "" };
            let _ = write!(
                out,
                "\n    {{ \"cell\": \"{}\", \"step\": {}, \"seed\": {} }}{sep}",
                e.cell, e.step, e.seed
            );
        }
        if escapes.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"rows\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "    {{ \"id\": \"{}\", \"benchmark\": \"{}\", \"mode\": \"{}\", \
                 \"rarity_bits\": {}, \"payload\": \"{}\", \"coalition\": {}, \
                 \"sequential\": {}, \"steps\": {}, \"activations\": {}, \
                 \"corrupted\": {}, \"detected\": {}, \"missed\": {}, \
                 \"silent_internal\": {}, \"false_alarms\": {}, \"recovered\": {}, \
                 \"recovery_failed\": {}, \"guarantee\": {}",
                c.id,
                c.benchmark,
                mode_tag(c.mode),
                c.spec.rarity_bits,
                c.spec.kind.tag(),
                c.spec.coalition,
                c.spec.sequential,
                c.steps,
                c.activations,
                c.corrupted,
                c.detected,
                c.missed,
                c.silent_internal,
                c.false_alarms,
                c.recovered,
                c.recovery_failed,
                c.guarantee,
            );
            if include_timing {
                let _ = write!(out, ", \"latency_us\": {}", c.elapsed_us);
            }
            let _ = writeln!(
                out,
                " }}{}",
                if i + 1 < self.cells.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One planned grid cell (a design × corpus entry × trace index).
#[derive(Debug, Clone)]
struct CellPlan {
    design: usize,
    spec: TrojanSpec,
    trace: usize,
}

fn plan_cells(designs: &[DesignUnderTest], config: &GridConfig) -> Vec<CellPlan> {
    let specs = generate_corpus(&config.corpus, derive_seed(config.seed, 0x00C0_5015));
    let mut plans = Vec::with_capacity(specs.len() * designs.len() * config.traces);
    // Corpus-entry-major order: truncation under `max_cells` keeps whole
    // strata covered across every design before starting the next stratum.
    for spec in &specs {
        for design in 0..designs.len() {
            for trace in 0..config.traces {
                plans.push(CellPlan {
                    design,
                    spec: *spec,
                    trace,
                });
            }
        }
    }
    if let Some(cap) = config.max_cells {
        plans.truncate(cap);
    }
    plans
}

fn cell_id(design: &DesignUnderTest, spec: &TrojanSpec, trace: usize) -> String {
    format!(
        "{}/{}/t{:03}-{}/x{}",
        design.name,
        design.mode_tag(),
        spec.index,
        spec.stratum(),
        trace
    )
}

/// A cell's seed depends only on the master seed and the cell's identity
/// — and deliberately *not* on the design's mode, so the same benchmark
/// in Detection vs DetectionRecovery sees the same traces (a paired
/// Fig. 3 contrast).
fn cell_seed(master: u64, entry_seed: u64, trace: usize, design: &str) -> u64 {
    derive_seed(
        derive_seed(master, entry_seed),
        derive_seed(trace as u64, Fnv1a::hash(design.as_bytes())),
    )
}

fn run_cell(design: &DesignUnderTest, config: &GridConfig, plan: &CellPlan) -> CellOutcome {
    let t0 = Instant::now();
    let spec = plan.spec;
    let planted = plant(&spec, &design.problem, &design.implementation);
    let dfg = design.problem.dfg();
    let mode = design.problem.mode();
    let mut datapath = Datapath::new(&design.problem, &design.implementation, &planted.library);
    let seed = cell_seed(config.seed, spec.entry_seed, plan.trace, &design.name);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut outcome = CellOutcome {
        id: cell_id(design, &spec, plan.trace),
        benchmark: design.name.clone(),
        mode,
        spec,
        trace: plan.trace,
        steps: config.steps,
        activations: 0,
        corrupted: 0,
        detected: 0,
        missed: 0,
        silent_internal: 0,
        false_alarms: 0,
        recovered: 0,
        recovery_failed: 0,
        guarantee: mode == Mode::DetectionRecovery
            && spec.kind.is_memoryless()
            && spec.coalition <= 1
            && spec.rarity_bits >= config.guarantee_rarity,
        escape_steps: Vec::new(),
        elapsed_us: 0,
    };

    for step in 0..config.steps {
        let mut inputs = InputVector::from_seed(dfg, rng.random());
        if let Some(victim) = planted.victim {
            if rng.random_range(0..100) < u64::from(config.targeted_percent) {
                let crafted = (rng.random::<u64>() & !planted.mask) | planted.pattern;
                inputs.set(victim, 0, crafted);
            }
        }

        let golden_all = golden_eval(dfg, &inputs);
        let nc_all = datapath.execute(Role::Nc, &inputs).outputs;
        let rc_all = datapath.execute(Role::Rc, &inputs).outputs;
        let activated = nc_all != golden_all || rc_all != golden_all;
        let golden = sink_outputs(dfg, &golden_all);
        let nc = sink_outputs(dfg, &nc_all);
        let rc = sink_outputs(dfg, &rc_all);
        let mismatch = nc != rc;
        let corrupting = nc != golden || rc != golden;

        if activated {
            outcome.activations += 1;
        }
        if corrupting {
            outcome.corrupted += 1;
            if mismatch {
                outcome.detected += 1;
            } else {
                outcome.missed += 1;
                outcome.escape_steps.push(step);
            }
        } else if activated {
            outcome.silent_internal += 1;
        }
        if mismatch && !corrupting {
            outcome.false_alarms += 1;
        }
        if mismatch && mode == Mode::DetectionRecovery {
            let rec = sink_outputs(dfg, &datapath.execute(Role::Recovery, &inputs).outputs);
            if rec == golden {
                outcome.recovered += 1;
            } else {
                outcome.recovery_failed += 1;
            }
        }
    }
    outcome.elapsed_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    outcome
}

/// Runs the full campaign grid over `jobs` pool workers.
///
/// The report is identical for any `jobs` value: cells derive their
/// randomness from `(seed, cell identity)` and results come back in plan
/// order from [`troy_portfolio::run_indexed`].
#[must_use]
pub fn run_grid(designs: &[DesignUnderTest], config: &GridConfig, jobs: usize) -> CampaignReport {
    let plans = plan_cells(designs, config);
    let cells = troy_portfolio::run_indexed(jobs, plans.len(), |i| {
        let plan = &plans[i];
        run_cell(&designs[plan.design], config, plan)
    });
    CampaignReport {
        seed: config.seed,
        cells,
    }
}

/// Re-runs the single grid cell named by `cell_id` (as found in a
/// [`CellOutcome::id`] or an [`EscapeWitness`]) and returns its outcome,
/// or `None` when the id names no cell of this grid.
///
/// Together with the master seed this makes every witness replayable in
/// isolation: the outcome is bit-identical to the full run's.
#[must_use]
pub fn replay_cell(
    designs: &[DesignUnderTest],
    config: &GridConfig,
    cell: &str,
) -> Option<CellOutcome> {
    let plans = plan_cells(designs, config);
    plans
        .iter()
        .find(|p| cell_id(&designs[p.design], &p.spec, p.trace) == cell)
        .map(|p| run_cell(&designs[p.design], config, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::PayloadKind;
    use troyhls::{ExactSolver, GreedySolver};

    #[test]
    fn cell_seeds_match_their_golden_value() {
        // Recorded before the campaign's name hash moved to `Fnv1a`:
        // every campaign replays the traces it always did.
        assert_eq!(cell_seed(2014, 7, 3, "polynom"), 0xd356_8cab_eeeb_69c9);
    }

    fn designs(modes: &[Mode]) -> Vec<DesignUnderTest> {
        modes
            .iter()
            .map(|&m| {
                DesignUnderTest::synthesize("diff2", m, &ExactSolver::new(), &SolveOptions::quick())
                    .unwrap()
            })
            .collect()
    }

    fn small_config() -> GridConfig {
        GridConfig {
            seed: 0xFEED,
            steps: 6,
            ..GridConfig::default()
        }
    }

    /// Zeroes the wall-clock field: cell equality in these tests is about
    /// the deterministic observations, never about timing.
    fn strip_timing(c: &CellOutcome) -> CellOutcome {
        CellOutcome {
            elapsed_us: 0,
            ..c.clone()
        }
    }

    #[test]
    fn grid_covers_every_cell_and_ids_are_unique() {
        let d = designs(&[Mode::DetectionRecovery, Mode::DetectionOnly]);
        let cfg = small_config();
        let report = run_grid(&d, &cfg, 2);
        assert_eq!(report.cells.len(), 37 * 2);
        let mut ids: Vec<&str> = report.cells.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), report.cells.len());
        assert!(report.steps() > 0);
    }

    #[test]
    fn max_cells_truncates_deterministically() {
        let d = designs(&[Mode::DetectionRecovery]);
        let cfg = GridConfig {
            max_cells: Some(5),
            ..small_config()
        };
        let report = run_grid(&d, &cfg, 3);
        assert_eq!(report.cells.len(), 5);
        let full = run_grid(&d, &small_config(), 1);
        for (a, b) in report.cells.iter().zip(&full.cells) {
            assert_eq!(
                strip_timing(a),
                strip_timing(b),
                "truncation is a prefix of the full grid"
            );
        }
    }

    #[test]
    fn detection_mode_cells_never_run_recovery() {
        let d = designs(&[Mode::DetectionOnly]);
        let report = run_grid(&d, &small_config(), 2);
        for c in &report.cells {
            assert_eq!(c.recovered + c.recovery_failed, 0, "{}", c.id);
            assert!(!c.guarantee, "guarantee slice is recovery-mode only");
        }
    }

    #[test]
    fn clean_cells_are_spotless() {
        let d = designs(&[Mode::DetectionRecovery]);
        let report = run_grid(&d, &small_config(), 2);
        let clean: Vec<&CellOutcome> = report
            .cells
            .iter()
            .filter(|c| c.spec.kind == PayloadKind::Clean)
            .collect();
        assert!(!clean.is_empty());
        for c in clean {
            assert_eq!(
                (c.activations, c.corrupted, c.false_alarms, c.recovered),
                (0, 0, 0, 0),
                "{}",
                c.id
            );
        }
    }

    #[test]
    fn replayed_cell_matches_the_grid_outcome() {
        let d = designs(&[Mode::DetectionRecovery]);
        let cfg = small_config();
        let report = run_grid(&d, &cfg, 4);
        // Replay an interesting cell (one that saw corruption) plus the
        // first cell regardless.
        let interesting = report
            .cells
            .iter()
            .find(|c| c.corrupted > 0)
            .unwrap_or(&report.cells[0]);
        let replayed = replay_cell(&d, &cfg, &interesting.id).expect("cell exists");
        assert_eq!(strip_timing(&replayed), strip_timing(interesting));
        assert!(replay_cell(&d, &cfg, "no/such/cell").is_none());
    }

    #[test]
    fn greedy_designs_also_run() {
        let d = vec![DesignUnderTest::synthesize(
            "polynom",
            Mode::DetectionRecovery,
            &GreedySolver::new(),
            &SolveOptions::quick(),
        )
        .unwrap()];
        let cfg = GridConfig {
            max_cells: Some(8),
            ..small_config()
        };
        let report = run_grid(&d, &cfg, 2);
        assert_eq!(report.cells.len(), 8);
    }

    #[test]
    fn json_is_deterministic_without_timing() {
        let d = designs(&[Mode::DetectionRecovery]);
        let cfg = GridConfig {
            max_cells: Some(6),
            ..small_config()
        };
        let a = run_grid(&d, &cfg, 1).to_json(false);
        let b = run_grid(&d, &cfg, 4).to_json(false);
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": 1"));
        assert!(a.contains("\"rows\": ["));
        assert!(!a.contains("latency_us\":"));
        let timed = run_grid(&d, &cfg, 1).to_json(true);
        assert!(timed.contains("\"latency_us\":"));
    }

    #[test]
    fn unknown_benchmark_is_a_typed_error() {
        let e = DesignUnderTest::synthesize(
            "nope",
            Mode::DetectionOnly,
            &ExactSolver::new(),
            &SolveOptions::quick(),
        )
        .unwrap_err();
        assert!(e.contains("unknown benchmark"));
    }
}
