//! Generated systems: the set of runs of the full-information protocol.

use crate::builder::{self, SystemBuilder, RUN_CAPACITY};
use crate::points::PointStore;
use crate::symmetry::{self, SymmetryInfo};
use crate::view::{ViewId, ViewTable};
use eba_model::symmetry::Perm;
use eba_model::{
    sample, FailurePattern, InitialConfig, ModelError, ProcSet, ProcessorId, Scenario, Time,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a run within a [`GeneratedSystem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RunId(u32);

impl RunId {
    /// The index of this run.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a run id from an index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit a `u32`; for untrusted indices use
    /// [`RunId::try_new`].
    #[must_use]
    pub fn new(index: usize) -> Self {
        RunId::try_new(index).expect("run id overflow")
    }

    /// Fallible [`RunId::new`], reporting id-space exhaustion as a
    /// [`ModelError::CapacityExceeded`] instead of panicking.
    pub fn try_new(index: usize) -> Result<Self, ModelError> {
        u32::try_from(index)
            .map(RunId)
            .map_err(|_| ModelError::capacity_exceeded("run ids", RUN_CAPACITY))
    }
}

/// The defining data of one run: runs are uniquely determined by an
/// initial configuration and a failure pattern (Section 2.3).
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The run's initial configuration.
    pub config: InitialConfig,
    /// The run's failure pattern.
    pub pattern: FailurePattern,
    /// The set of processors nonfaulty throughout the run (the value of
    /// the nonrigid set `N` on this run).
    pub nonfaulty: ProcSet,
}

/// The set of runs of the full-information protocol for a scenario, with
/// every processor's view interned at every time.
///
/// This is the paper's system `R_P` (restricted to the FIP and a finite
/// horizon) — the structure over which all knowledge formulas are
/// evaluated. Since all full-information protocols have the same states at
/// corresponding points (Section 2.4, Corollary A.5), a single generated
/// system serves every `FIP(Z, O)` over it: decision pairs are just view
/// predicates layered on top.
///
/// # Example
///
/// ```
/// use eba_model::{FailureMode, Scenario};
/// use eba_sim::GeneratedSystem;
///
/// # fn main() -> Result<(), eba_model::ModelError> {
/// let scenario = Scenario::new(3, 1, FailureMode::Crash, 2)?;
/// let system = GeneratedSystem::exhaustive(&scenario);
/// // 8 configurations × 25 patterns.
/// assert_eq!(system.num_runs(), 200);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct GeneratedSystem {
    scenario: Scenario,
    runs: Vec<RunRecord>,
    /// Flattened `views[run][time][proc]`.
    views: Vec<ViewId>,
    table: ViewTable,
    lookup: HashMap<(u128, FailurePattern), RunId>,
    /// The columnar point store over the same views, built once at system
    /// construction and shared by every clone of the system.
    store: Arc<PointStore>,
    /// Orbit accounting of a symmetry-quotiented build; `None` for
    /// unreduced systems (the default).
    symmetry: Option<Arc<SymmetryInfo>>,
}

impl GeneratedSystem {
    /// Generates the system containing **every** run of the scenario:
    /// every initial configuration crossed with every canonical failure
    /// pattern.
    ///
    /// Delegates to [`SystemBuilder`] with its default worker count; use
    /// the builder directly to control threads and shards or to handle
    /// capacity overflow as an error. The size is
    /// `2^n × count_patterns(scenario)`; check
    /// [`eba_model::enumerate::count_patterns`] (or
    /// [`eba_model::ScenarioSpace::total_runs`]) before calling this on
    /// large scenarios.
    ///
    /// # Panics
    ///
    /// Panics if the scenario overflows the run or view id space.
    #[must_use]
    pub fn exhaustive(scenario: &Scenario) -> Self {
        SystemBuilder::new(scenario)
            .build()
            .expect("scenario exceeds id capacity")
    }

    /// Generates a sampled system: `num_runs` random (configuration,
    /// pattern) pairs drawn with the given seed, deduplicated, plus the
    /// failure-free run of every sampled configuration (so corresponding
    /// failure-free behavior is always present).
    #[must_use]
    pub fn sampled(scenario: &Scenario, num_runs: usize, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = sample::PatternSampler::new(*scenario);
        let mut runs = Vec::with_capacity(num_runs * 2);
        for _ in 0..num_runs {
            let config = sample::random_config(scenario.n(), &mut rng);
            let pattern = sampler.sample(&mut rng);
            runs.push((config.clone(), FailurePattern::failure_free(scenario.n())));
            runs.push((config, pattern));
        }
        Self::from_runs(scenario, runs)
    }

    /// Builds a system from an explicit list of runs. Duplicate
    /// (configuration, pattern) pairs are kept only once.
    ///
    /// # Panics
    ///
    /// Panics if a pattern fails validation against the scenario, or if
    /// the runs overflow the run or view id space.
    #[must_use]
    pub fn from_runs(scenario: &Scenario, run_specs: Vec<(InitialConfig, FailurePattern)>) -> Self {
        builder::system_of_runs(scenario, run_specs)
    }

    /// Assembles a system from parts the [`SystemBuilder`] has already
    /// validated (runs in enumeration order, views remapped to `table`),
    /// finishing with the columnar [`PointStore`] — this is the single
    /// point where the store is built, so every construction path
    /// (exhaustive, sampled, sharded, budget-partial) carries one.
    pub(crate) fn from_parts(
        scenario: Scenario,
        runs: Vec<RunRecord>,
        views: Vec<ViewId>,
        table: ViewTable,
        lookup: HashMap<(u128, FailurePattern), RunId>,
        symmetry: Option<Arc<SymmetryInfo>>,
    ) -> Self {
        let times = scenario.horizon().index() + 1;
        let store = Arc::new(PointStore::build(
            scenario.n(),
            times,
            runs.len(),
            &views,
            &table,
        ));
        GeneratedSystem {
            scenario,
            runs,
            views,
            table,
            lookup,
            store,
            symmetry,
        }
    }

    /// The scenario this system was generated for.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Number of processors.
    #[must_use]
    pub fn n(&self) -> usize {
        self.scenario.n()
    }

    /// The horizon: every run covers times `0..=horizon`.
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.scenario.horizon()
    }

    /// Number of runs.
    #[must_use]
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of (run, time) points.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.num_runs() * (self.horizon().index() + 1)
    }

    /// Approximate resident heap bytes of the system: run records, the
    /// flattened view matrix, the interned view table, the run-lookup
    /// index, and the columnar point store. Like
    /// [`PointStore::approx_bytes`] this counts lengths, not allocator
    /// capacities — it is a relative figure for memory budgeting (the
    /// serve pool evicts least-recently-used sessions against it), not
    /// an exact heap profile.
    #[must_use]
    pub fn approx_resident_bytes(&self) -> usize {
        use eba_model::FaultyBehavior;
        use std::mem::size_of;
        let n = self.n();
        let pattern_heap = |pat: &FailurePattern| -> usize {
            ProcessorId::all(n)
                .map(|p| match pat.behavior(p) {
                    Some(FaultyBehavior::Omission { omissions }) => {
                        omissions.len() * size_of::<ProcSet>()
                    }
                    _ => 0,
                })
                .sum::<usize>()
                + n * size_of::<Option<FaultyBehavior>>()
        };
        let runs: usize = self
            .runs
            .iter()
            .map(|r| {
                size_of::<RunRecord>()
                    + r.config.n() * size_of::<eba_model::Value>()
                    + pattern_heap(&r.pattern)
            })
            .sum();
        // Lookup keys hold a second clone of each pattern.
        let lookup: usize = self
            .lookup
            .keys()
            .map(|(_, pattern)| size_of::<u128>() + pattern_heap(pattern) + size_of::<RunId>())
            .sum();
        runs + lookup
            + self.views.len() * size_of::<ViewId>()
            + self.table.approx_bytes()
            + self.store.approx_bytes()
    }

    /// Iterates over all run ids.
    pub fn run_ids(&self) -> impl DoubleEndedIterator<Item = RunId> + Clone {
        (0..self.runs.len()).map(RunId::new)
    }

    /// The record of run `r`.
    #[must_use]
    pub fn run(&self, r: RunId) -> &RunRecord {
        &self.runs[r.index()]
    }

    /// The set of nonfaulty processors of run `r`.
    #[must_use]
    pub fn nonfaulty(&self, r: RunId) -> ProcSet {
        self.runs[r.index()].nonfaulty
    }

    /// The view (FIP local state) of processor `p` at time `time` of run
    /// `r`.
    #[must_use]
    pub fn view(&self, r: RunId, p: ProcessorId, time: Time) -> ViewId {
        let n = self.n();
        let slots_per_run = (self.horizon().index() + 1) * n;
        self.views[r.index() * slots_per_run + time.index() * n + p.index()]
    }

    /// The flattened view row of run `r`: `(horizon + 1) × n` entries,
    /// time-major then processor-major. The horizon-extension path copies
    /// these rows verbatim into the extended system (the extended table
    /// starts as a clone of this system's table, so the ids stay valid).
    pub(crate) fn views_row(&self, r: RunId) -> &[ViewId] {
        let slots_per_run = (self.horizon().index() + 1) * self.n();
        &self.views[r.index() * slots_per_run..(r.index() + 1) * slots_per_run]
    }

    /// A one-line description of the point `(run, time)`: the run's id,
    /// configuration, failure pattern and nonfaulty set. This is the text
    /// `eba-check` prints and `eba-serve` returns for counterexamples and
    /// witnesses.
    #[must_use]
    pub fn describe_point(&self, run: RunId, time: Time) -> String {
        let record = self.run(run);
        format!(
            "run {} at {time}: config {} under [{}] (nonfaulty {})",
            run.index(),
            record.config,
            record.pattern,
            record.nonfaulty,
        )
    }

    /// The view table holding all interned views.
    #[must_use]
    pub fn table(&self) -> &ViewTable {
        &self.table
    }

    /// The columnar point store: per-processor view columns and CSR
    /// bucket partitions over this system's points (see
    /// [`PointStore`]).
    #[must_use]
    pub fn points(&self) -> &PointStore {
        &self.store
    }

    /// Finds the run with the given configuration and pattern, if present
    /// (used to pair *corresponding runs* across protocols).
    #[must_use]
    pub fn find_run(&self, config: &InitialConfig, pattern: &FailurePattern) -> Option<RunId> {
        self.lookup
            .get(&(config.to_bits(), pattern.clone()))
            .copied()
    }

    /// The orbit accounting of a symmetry-quotiented build, or `None`
    /// for an unreduced system.
    #[must_use]
    pub fn symmetry(&self) -> Option<&SymmetryInfo> {
        self.symmetry.as_deref()
    }

    /// Resolves a `(config, pattern)` query through the symmetry
    /// quotient: the run itself when present, otherwise the
    /// representative run of the pattern's orbit together with the
    /// witness permutation `σ` carrying the query onto it
    /// (`σ·(config, pattern)` is the representative; the answer about
    /// processor `p` of the queried run lives at processor `σ(p)` of the
    /// representative). Returns `None` when the orbit is absent (sampled
    /// or budget-partial systems).
    #[must_use]
    pub fn resolve_run(
        &self,
        config: &InitialConfig,
        pattern: &FailurePattern,
    ) -> Option<(RunId, Perm)> {
        symmetry::resolve_run(|c, q| self.find_run(c, q), self.n(), config, pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_model::{enumerate, FailureMode, Value};

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn exhaustive_size_matches_enumeration() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let system = GeneratedSystem::exhaustive(&scenario);
        let expected = 8 * enumerate::count_patterns(&scenario) as usize;
        assert_eq!(system.num_runs(), expected);
        assert_eq!(system.num_points(), expected * 3);
    }

    #[test]
    fn views_are_consistent_with_records() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let system = GeneratedSystem::exhaustive(&scenario);
        for r in system.run_ids() {
            let record = system.run(r);
            for q in ProcessorId::all(3) {
                let v0 = system.view(r, q, Time::ZERO);
                assert_eq!(system.table().own_value(v0), record.config.value(q));
                assert_eq!(system.table().time(v0), Time::ZERO);
                assert_eq!(system.table().proc(v0), q);
            }
        }
    }

    #[test]
    fn find_run_locates_corresponding_runs() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let system = GeneratedSystem::exhaustive(&scenario);
        let config = InitialConfig::uniform(3, Value::One);
        let pattern = FailurePattern::failure_free(3);
        let r = system.find_run(&config, &pattern).unwrap();
        assert_eq!(system.run(r).config, config);
        assert_eq!(system.nonfaulty(r), ProcSet::full(3));
    }

    #[test]
    fn from_runs_deduplicates() {
        let scenario = Scenario::new(2, 1, FailureMode::Crash, 1).unwrap();
        let config = InitialConfig::uniform(2, Value::Zero);
        let pattern = FailurePattern::failure_free(2);
        let system = GeneratedSystem::from_runs(
            &scenario,
            vec![(config.clone(), pattern.clone()), (config, pattern)],
        );
        assert_eq!(system.num_runs(), 1);
    }

    #[test]
    fn empty_partial_base_extends_pinned_to_an_empty_system() {
        use eba_model::{RunBudget, ScenarioSpace};
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 1).unwrap();
        let extended_scenario = scenario.with_horizon(3).unwrap();
        for symmetric in [false, true] {
            let base = SystemBuilder::new(&scenario)
                .threads(2)
                .symmetry(symmetric)
                .budget(RunBudget::unlimited().with_max_runs(0))
                .build_governed()
                .unwrap()
                .into_system();
            assert_eq!(base.num_runs(), 0);
            // No runs means no blocks: the merge folds zero parts.
            let (extended, report) = SystemBuilder::new(&extended_scenario)
                .threads(2)
                .extend_pinned(&base)
                .unwrap();
            assert_eq!(extended.horizon(), extended_scenario.horizon());
            assert_eq!(extended.num_runs(), 0);
            assert_eq!(extended.table().len(), 0);
            assert_eq!(extended.points().num_points(), 0);
            assert_eq!(report, crate::ExtendReport::default());
            match (base.symmetry(), extended.symmetry()) {
                (None, None) => assert!(!symmetric),
                (Some(before), Some(after)) => {
                    assert!(symmetric);
                    assert_eq!(after.orbit_sizes(), before.orbit_sizes());
                    assert_eq!(after.raw_patterns_covered(), 0);
                    assert_eq!(
                        after.raw_pattern_total(),
                        ScenarioSpace::new(extended_scenario).num_patterns()
                    );
                }
                _ => panic!("symmetry accounting must carry over"),
            }
        }
    }

    #[test]
    fn sampled_systems_are_reproducible() {
        let scenario = Scenario::new(6, 2, FailureMode::Omission, 4).unwrap();
        let a = GeneratedSystem::sampled(&scenario, 50, 9);
        let b = GeneratedSystem::sampled(&scenario, 50, 9);
        assert_eq!(a.num_runs(), b.num_runs());
        for (ra, rb) in a.run_ids().zip(b.run_ids()) {
            assert_eq!(a.run(ra).config, b.run(rb).config);
            assert_eq!(a.run(ra).pattern, b.run(rb).pattern);
        }
    }

    #[test]
    fn interning_shares_views_across_runs() {
        // In a failure-free world every run's views depend only on the
        // configuration, so the table stays small relative to the run
        // count.
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let system = GeneratedSystem::exhaustive(&scenario);
        assert!(system.table().len() < system.num_points() * system.n());
        // p0's time-0 view appears in many runs but is interned once per
        // initial value.
        let zeros = system
            .run_ids()
            .map(|r| system.view(r, p(0), Time::ZERO))
            .collect::<std::collections::HashSet<_>>();
        assert_eq!(zeros.len(), 2);
    }
}
