//! The benchmark's inputs: the 25 paper problems, the tiny inline DFGs,
//! their reference costs, and the request frames and CLI argument lists
//! built from them.
//!
//! A reference cost is the exact solver's answer under
//! [`troy_bench::harness_options`], tagged `proven` when the solver
//! proved it optimal and `best_known` when it stopped at its node limit.
//! Fig. 5 is the paper's own $4160. An answer below a proven reference
//! is wrong; an answer above it is merely worse, and shows up in the
//! `cost_ratio` metric.

use troy_dfg::{benchmarks, write_dfg};
use troy_service::escape;
use troyhls::{Mode, SynthesisProblem};

/// Text of the 3-op DFG the cluster suites and `cluster-bench` use.
pub const TINY_DFG: &str = "dfg tiny\nop a add\nop b add\nop c mul\nedge a b\nedge b c\n";

/// `(λ_det, λ_rec)` of the six tiny variants, one cache key each.
pub const TINY_LATENCIES: [(usize, usize); 6] = [(6, 5), (7, 5), (8, 5), (6, 4), (7, 4), (8, 4)];

/// The Fig. 5 optimum the paper reports.
pub const FIG5_COST: u64 = 4160;

/// Reference cost per problem id: `(id, cost, proven)`.
pub const REFERENCES: [(&str, u64, bool); 31] = [
    ("fig5", FIG5_COST, true),
    ("t3.polynom.3", 2520, true),
    ("t3.polynom.6", 2520, true),
    ("t3.diff2.4", 4320, true),
    ("t3.diff2.14", 4380, false),
    ("t3.dtmf.4", 3500, true),
    ("t3.dtmf.8", 3500, true),
    ("t3.mof2.7", 2520, true),
    ("t3.mof2.14", 2520, true),
    ("t3.ellipticicass.8", 3010, true),
    ("t3.ellipticicass.16", 3010, true),
    ("t3.fir16.6", 3070, true),
    ("t3.fir16.12", 3120, false),
    ("t4.polynom.6", 3850, true),
    ("t4.polynom.12", 3850, true),
    ("t4.diff2.8", 5350, true),
    ("t4.diff2.14", 5350, true),
    ("t4.dtmf.8", 5350, true),
    ("t4.dtmf.15", 5350, true),
    ("t4.mof2.14", 3850, true),
    ("t4.mof2.24", 3890, false),
    ("t4.ellipticicass.16", 3850, true),
    ("t4.ellipticicass.24", 3850, true),
    ("t4.fir16.12", 3850, true),
    ("t4.fir16.16", 3850, true),
    ("tiny.0", 4160, true),
    ("tiny.1", 4160, true),
    ("tiny.2", 4160, true),
    ("tiny.3", 4160, true),
    ("tiny.4", 4160, true),
    ("tiny.5", 4160, true),
];

/// One synthesis problem the benchmark sends, in every form a path needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Stable id: `fig5`, `t3.<benchmark>.<λ>`, `t4.<benchmark>.<λ>` or
    /// `tiny.<n>`.
    pub id: String,
    /// Built-in benchmark name, or `None` for the tiny inline DFG.
    pub benchmark: Option<&'static str>,
    /// Wire/CLI catalog name.
    pub catalog: &'static str,
    /// Protection mode.
    pub mode: Mode,
    /// Detection latency.
    pub lambda_det: usize,
    /// Recovery latency (recovery mode only).
    pub lambda_rec: Option<usize>,
    /// Area cap, when there is one.
    pub area: Option<u64>,
    /// Reference cost.
    pub reference: u64,
    /// Whether [`Spec::reference`] is proven optimal.
    pub proven: bool,
}

impl Spec {
    fn new(
        id: String,
        benchmark: Option<&'static str>,
        catalog: &'static str,
        mode: Mode,
        lambdas: (usize, Option<usize>),
        area: Option<u64>,
    ) -> Spec {
        let &(_, reference, proven) = REFERENCES
            .iter()
            .find(|(rid, _, _)| *rid == id)
            .unwrap_or_else(|| panic!("no reference cost for `{id}`"));
        Spec {
            id,
            benchmark,
            catalog,
            mode,
            lambda_det: lambdas.0,
            lambda_rec: lambdas.1,
            area,
            reference,
            proven,
        }
    }

    /// Name of the DFG as the solver sees it (before any renaming).
    #[must_use]
    pub fn dfg_name(&self) -> &'static str {
        self.benchmark.unwrap_or("tiny")
    }

    /// `true` for the Fig. 5 instance, which must come out at $4160.
    #[must_use]
    pub fn is_fig5(&self) -> bool {
        self.id == "fig5"
    }

    /// The DFG as inline text, with its graph renamed when `rename` is
    /// given: the problem is unchanged, but its cache key is new.
    #[must_use]
    pub fn dfg_text(&self, rename: Option<&str>) -> String {
        let text = match self.benchmark {
            Some(name) => write_dfg(&benchmarks::by_name(name).expect("built-in benchmark")),
            None => TINY_DFG.to_owned(),
        };
        match rename {
            None => text,
            Some(new) => {
                let body = text.split_once('\n').map_or("", |(_, body)| body);
                format!("dfg {new}\n{body}")
            }
        }
    }

    /// One `synth` request line. Built-in benchmarks go by name unless
    /// `rename` asks for an inline, renamed DFG; the tiny DFG is always
    /// inline.
    #[must_use]
    pub fn frame(&self, id: &str, rename: Option<&str>, deadline_ms: u64) -> String {
        use std::fmt::Write as _;
        let mut s = format!("{{\"id\":{},\"cmd\":\"synth\",", escape(id));
        match (self.benchmark, rename) {
            (Some(name), None) => {
                let _ = write!(s, "\"benchmark\":{},", escape(name));
            }
            _ => {
                let _ = write!(s, "\"dfg\":{},", escape(&self.dfg_text(rename)));
            }
        }
        let mode = match self.mode {
            Mode::DetectionOnly => "detection",
            Mode::DetectionRecovery => "recovery",
        };
        let _ = write!(
            s,
            "\"catalog\":\"{}\",\"mode\":\"{mode}\",\"lambda_det\":{}",
            self.catalog, self.lambda_det
        );
        if let Some(rec) = self.lambda_rec {
            let _ = write!(s, ",\"lambda_rec\":{rec}");
        }
        if let Some(area) = self.area {
            let _ = write!(s, ",\"area\":{area}");
        }
        let _ = write!(s, ",\"deadline_ms\":{deadline_ms}}}");
        s
    }

    /// Arguments of `troyhls-cli synth` for this problem, with the
    /// security prover engaged.
    ///
    /// # Panics
    /// On the tiny DFG, which the CLI path does not use.
    #[must_use]
    pub fn cli_args(&self) -> Vec<String> {
        let name = self
            .benchmark
            .expect("the CLI path solves built-in benchmarks");
        let mode = match self.mode {
            Mode::DetectionOnly => "detection",
            Mode::DetectionRecovery => "recovery",
        };
        let mut args: Vec<String> = ["synth", name, "--catalog", self.catalog, "--mode", mode]
            .map(str::to_owned)
            .into();
        args.extend(["--lambda-det".to_owned(), self.lambda_det.to_string()]);
        if let Some(rec) = self.lambda_rec {
            args.extend(["--lambda-rec".to_owned(), rec.to_string()]);
        }
        if let Some(area) = self.area {
            args.extend(["--area".to_owned(), area.to_string()]);
        }
        args.push("--prove".to_owned());
        args
    }

    /// The problem exactly as the daemon builds it from [`Spec::frame`].
    ///
    /// # Panics
    /// If the frame does not describe a valid problem (the specs here are
    /// known-good).
    #[must_use]
    pub fn problem(&self, rename: Option<&str>) -> SynthesisProblem {
        let request = troy_service::parse_request(&self.frame("p", rename, 1000))
            .expect("benchmark frames parse");
        troy_service::build_problem(&request).expect("benchmark frames build")
    }
}

/// The 25 paper problems: Fig. 5, then Table 3 and Table 4 in order.
#[must_use]
pub fn paper_problems() -> Vec<Spec> {
    let mut specs = vec![Spec::new(
        "fig5".to_owned(),
        Some("polynom"),
        "table1",
        Mode::DetectionRecovery,
        (4, Some(3)),
        Some(22_000),
    )];
    for (table, rows) in [
        (3, troy_bench::table3_specs()),
        (4, troy_bench::table4_specs()),
    ] {
        for row in rows {
            // Recovery rows split λ the way `ProblemBuilder::total_latency`
            // does, so the wire problem equals the harness problem.
            let lambdas = match row.mode {
                Mode::DetectionOnly => (row.lambda, None),
                Mode::DetectionRecovery => (row.lambda - row.lambda / 2, Some(row.lambda / 2)),
            };
            specs.push(Spec::new(
                format!("t{table}.{}.{}", row.benchmark, row.lambda),
                Some(row.benchmark),
                "paper8",
                row.mode,
                lambdas,
                Some(row.area),
            ));
        }
    }
    specs
}

/// The six tiny inline-DFG variants.
#[must_use]
pub fn tiny_problems() -> Vec<Spec> {
    TINY_LATENCIES
        .iter()
        .enumerate()
        .map(|(i, &(det, rec))| {
            Spec::new(
                format!("tiny.{i}"),
                None,
                "table1",
                Mode::DetectionRecovery,
                (det, Some(rec)),
                None,
            )
        })
        .collect()
}

/// Looks up problems by id among the paper and tiny problems.
///
/// # Panics
/// On an unknown id (the workload tables are fixed).
#[must_use]
pub fn by_ids(ids: &[&str]) -> Vec<Spec> {
    let all: Vec<Spec> = paper_problems()
        .into_iter()
        .chain(tiny_problems())
        .collect();
    ids.iter()
        .map(|id| {
            all.iter()
                .find(|s| s.id == *id)
                .unwrap_or_else(|| panic!("unknown problem `{id}`"))
                .clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use troy_portfolio::cache_key;
    use troyhls::{ExactSolver, SolveOptions, Synthesizer};

    fn serve_key(p: &SynthesisProblem) -> troy_portfolio::CacheKey {
        cache_key(p, "serve", &SolveOptions::default())
    }

    #[test]
    fn every_problem_has_one_reference() {
        let specs: Vec<Spec> = paper_problems()
            .into_iter()
            .chain(tiny_problems())
            .collect();
        assert_eq!(specs.len(), REFERENCES.len());
        for (id, _, _) in REFERENCES {
            assert_eq!(specs.iter().filter(|s| s.id == id).count(), 1, "{id}");
        }
    }

    #[test]
    fn fig5_reference_is_the_paper_optimum() {
        let fig5 = &paper_problems()[0];
        assert!(fig5.is_fig5());
        assert_eq!((fig5.reference, fig5.proven), (4160, true));
        assert_eq!(
            serve_key(&fig5.problem(None)),
            serve_key(&troy_bench::motivational_problem())
        );
    }

    #[test]
    fn wire_problems_equal_the_harness_problems() {
        let rows = troy_bench::table3_specs()
            .into_iter()
            .chain(troy_bench::table4_specs());
        for (spec, row) in paper_problems()[1..].iter().zip(rows) {
            let harness = troy_bench::problem_for(&row);
            assert_eq!(
                serve_key(&spec.problem(None)),
                serve_key(&harness),
                "{}",
                spec.id
            );
        }
    }

    /// The rows the exact solver proves in milliseconds; the three
    /// `best_known` rows run to the node limit and are left to the
    /// workloads' own checks.
    #[test]
    fn exact_solver_reproduces_every_proven_reference() {
        let options = troy_bench::harness_options();
        for spec in paper_problems().into_iter().chain(tiny_problems()) {
            if !spec.proven {
                continue;
            }
            let s = ExactSolver::new()
                .synthesize(&spec.problem(None), &options)
                .expect("reference rows are feasible");
            assert!(s.proven_optimal, "{}", spec.id);
            assert_eq!(s.cost, spec.reference, "{}", spec.id);
        }
    }

    #[test]
    fn renamed_inline_dfg_is_a_new_key_for_the_same_problem() {
        let options = troy_bench::harness_options();
        for spec in by_ids(&["fig5", "t3.fir16.6", "t4.mof2.14", "tiny.3"]) {
            let plain = spec.problem(None);
            let renamed = spec.problem(Some("bench_0042"));
            assert_eq!(renamed.dfg().name(), "bench_0042");
            assert_ne!(serve_key(&plain), serve_key(&renamed), "{}", spec.id);
            // The text round trip itself is lossless: same name, same key.
            let name = spec.dfg_name();
            assert_eq!(serve_key(&spec.problem(Some(name))), serve_key(&plain));
            let solve = |p: &SynthesisProblem| ExactSolver::new().synthesize(p, &options);
            let (a, b) = (
                solve(&plain).expect("feasible"),
                solve(&renamed).expect("feasible"),
            );
            assert_eq!((a.cost, a.proven_optimal), (b.cost, b.proven_optimal));
            assert_eq!(a.cost, spec.reference, "{}", spec.id);
        }
    }

    #[test]
    fn frames_and_cli_args_carry_every_constraint() {
        let [fig5, det_row] = &by_ids(&["fig5", "t3.polynom.3"])[..] else {
            unreachable!()
        };
        let frame = fig5.frame("r1", None, 1000);
        assert!(frame.contains("\"benchmark\":\"polynom\""), "{frame}");
        assert!(frame.contains("\"lambda_rec\":3") && frame.contains("\"area\":22000"));
        assert!(fig5
            .frame("r1", Some("p_1"), 1000)
            .contains("\"dfg\":\"dfg p_1\\n"));
        assert_eq!(
            fig5.cli_args().join(" "),
            "synth polynom --catalog table1 --mode recovery --lambda-det 4 --lambda-rec 3 \
             --area 22000 --prove"
        );
        assert!(!det_row.cli_args().contains(&"--lambda-rec".to_owned()));
    }
}
