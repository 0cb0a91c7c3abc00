//! Seeded input generators. The engine only ever sees what these
//! produce: formula text, scenario choices and request lines.

/// SplitMix64: a small, fast, seedable generator whose stream is fixed
/// by the seed on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a `stream` label, so independent
    /// consumers of one seed (e.g. two clients) draw independent streams.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Modal operators over a body, in the `eba-check` grammar: everyone
/// and someone knowledge, common and continual common knowledge,
/// always, eventually, sometime in the run. All are indexed by the
/// nonfaulty set, so all are processor-symmetric. Distributed knowledge
/// (`D`) is drawn separately, at a fixed rate: see [`QueryStream`].
const SYMMETRIC_MODALS: [&str; 7] = ["E", "SK", "C", "CC", "G", "F", "S"];

/// Connectives joining two subformulas.
const CONNECTIVES: [&str; 4] = ["&", "|", "->", "<->"];

/// Random formulas for one scenario, drawn from a small pool of
/// subformulas so that queries share knowledge closures and
/// reachability sets the way a user's related questions do.
#[derive(Clone, Debug)]
pub struct FormulaGen {
    pool: Vec<String>,
    modals: Vec<String>,
}

impl FormulaGen {
    /// A generator for `n` processors. With `symmetric_only`, every
    /// formula is invariant under relabeling processors (no `K_i`,
    /// `B_i`, `init(i)` or `N(i)`), which is what a symmetry-quotiented
    /// session answers without falling back to an unreduced build.
    #[must_use]
    pub fn new(n: usize, symmetric_only: bool) -> Self {
        let mut atoms: Vec<String> = ["E0", "E1", "true", "false"].map(String::from).to_vec();
        let mut modals: Vec<String> = SYMMETRIC_MODALS.map(String::from).to_vec();
        if !symmetric_only {
            for i in 1..=n {
                atoms.push(format!("init({i})=0"));
                atoms.push(format!("N({i})"));
                modals.push(format!("K_{i}"));
                modals.push(format!("B_{i}"));
            }
        }
        // The pool: every atom, plus every modal applied to ∃0 and ∃1.
        let mut pool = atoms;
        for m in &modals {
            pool.push(format!("{m}(E0)"));
            pool.push(format!("{m}(E1)"));
        }
        FormulaGen { pool, modals }
    }

    /// One formula of nesting depth at most `depth`.
    pub fn formula(&self, rng: &mut Rng, depth: usize) -> String {
        let roll = rng.below(100);
        if depth == 0 || roll < 35 {
            return rng.pick(&self.pool).clone();
        }
        if roll < 60 {
            let m = rng.pick(&self.modals);
            return format!("{m}({})", self.formula(rng, depth - 1));
        }
        if roll < 70 {
            return format!("!({})", self.formula(rng, depth - 1));
        }
        let op = rng.pick(&CONNECTIVES);
        format!(
            "({} {op} {})",
            self.formula(rng, depth - 1),
            self.formula(rng, depth - 1)
        )
    }

    /// Distributed knowledge of a formula of depth at most `depth`.
    pub fn distributed(&self, rng: &mut Rng, depth: usize) -> String {
        format!("D({})", self.formula(rng, depth))
    }
}

/// Base decision pairs an optimize query starts the Theorem 5.2
/// construction from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Base {
    /// `F^Λ`: nobody ever decides.
    FLambda,
    /// The 0-chain pair `FIP(Z⁰, O⁰)` (omission mode).
    ZeroChain,
    /// The crash-mode rule `(Z^cr, O^cr)` of Theorem 6.1.
    CrashRule,
}

/// One warm-query query: which session, and what to ask it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Query {
    /// Evaluate a formula (text) on session `session`.
    Check { session: usize, formula: String },
    /// Optimize a base pair and check the result's optimality.
    Optimize { session: usize, base: Base },
}

/// Per-session facts the warm-query generator needs.
#[derive(Clone, Copy, Debug)]
pub struct SessionShape {
    /// Processors.
    pub n: usize,
    /// Whether the session is symmetry-quotiented.
    pub quotient: bool,
    /// The mode-specific base pair (`ZeroChain` or `CrashRule`).
    pub base: Base,
}

/// Queries per block of the warm-query stream.
pub const BLOCK: usize = 20;

/// Every this many blocks, one formula check asks distributed knowledge.
pub const D_EVERY: usize = 5;

/// The warm-query stream: an endless seeded sequence over two sessions,
/// in shuffled blocks of [`BLOCK`] queries with a fixed make-up, so that
/// seeds change the formulas and their order but not the mix:
///
/// * per session, 1 optimization (alternating `F^Λ` and the session's
///   mode-specific base from block to block) and 9 formula checks;
/// * every [`D_EVERY`] blocks, one of the checks (alternating sessions)
///   is a distributed-knowledge formula `D(…)`. On the quotiented
///   session `D` costs hundreds of times what the other operators do,
///   so at the grammar's natural rate it would fill the loop; at 1 query
///   in 100 it stays in the mix and shows in the tail.
#[derive(Debug)]
pub struct QueryStream {
    rng: Rng,
    shapes: Vec<SessionShape>,
    gens: Vec<FormulaGen>,
    block: Vec<Query>,
    blocks: usize,
}

impl QueryStream {
    /// The stream for `seed` over `shapes`.
    #[must_use]
    pub fn new(seed: u64, shapes: &[SessionShape]) -> Self {
        let gens = shapes
            .iter()
            .map(|s| FormulaGen::new(s.n, s.quotient))
            .collect();
        QueryStream {
            rng: Rng::new(seed, 1),
            shapes: shapes.to_vec(),
            gens,
            block: Vec::new(),
            blocks: 0,
        }
    }

    fn fill_block(&mut self) {
        let per_session = BLOCK / self.shapes.len();
        for (session, shape) in self.shapes.iter().enumerate() {
            let base = if self.blocks.is_multiple_of(2) {
                Base::FLambda
            } else {
                shape.base
            };
            self.block.push(Query::Optimize { session, base });
            for _ in 1..per_session {
                let formula = self.gens[session].formula(&mut self.rng, 2);
                self.block.push(Query::Check { session, formula });
            }
        }
        if self.blocks.is_multiple_of(D_EVERY) {
            let session = (self.blocks / D_EVERY) % self.shapes.len();
            let formula = self.gens[session].distributed(&mut self.rng, 1);
            let slot = self
                .block
                .iter()
                .position(|q| matches!(q, Query::Check { session: s, .. } if *s == session))
                .expect("every session has checks in a block");
            self.block[slot] = Query::Check { session, formula };
        }
        self.rng.shuffle(&mut self.block);
        self.blocks += 1;
    }

    /// The next query.
    pub fn next_query(&mut self) -> Query {
        if self.block.is_empty() {
            self.fill_block();
        }
        self.block.pop().expect("a filled block is not empty")
    }
}

/// One scenario of the serve mix, as request-frame fields.
#[derive(Clone, Copy, Debug)]
pub struct ServeScenario {
    /// Processors.
    pub n: usize,
    /// Failure bound.
    pub t: usize,
    /// `crash` or `omission`.
    pub mode: &'static str,
    /// Horizon.
    pub horizon: u16,
    /// Symmetry-quotiented session.
    pub symmetry: bool,
}

impl ServeScenario {
    fn fields(&self) -> String {
        let mut s = format!(
            r#""n":{},"t":{},"mode":"{}","horizon":{}"#,
            self.n, self.t, self.mode, self.horizon
        );
        if self.symmetry {
            s.push_str(r#","symmetry":true"#);
        }
        s
    }
}

/// The scenarios a serve-mixed run spreads its requests over.
pub const SERVE_SCENARIOS: [ServeScenario; 4] = [
    ServeScenario {
        n: 4,
        t: 1,
        mode: "omission",
        horizon: 3,
        symmetry: false,
    },
    ServeScenario {
        n: 5,
        t: 2,
        mode: "crash",
        horizon: 3,
        symmetry: true,
    },
    ServeScenario {
        n: 4,
        t: 1,
        mode: "crash",
        horizon: 3,
        symmetry: false,
    },
    ServeScenario {
        n: 3,
        t: 1,
        mode: "omission",
        horizon: 3,
        symmetry: false,
    },
];

/// Distinct check formulas per scenario in one serve run. Kept small:
/// every distinct request line costs one cold oracle answer when the
/// responses are checked.
pub const SERVE_FORMULAS: usize = 4;

/// The request mix of a serve-mixed run: per scenario a seeded pool of
/// check formulas, plus optimize, sweep and stats requests.
#[derive(Clone, Debug)]
pub struct RequestMix {
    checks: Vec<Vec<String>>,
    sweeps: Vec<String>,
}

impl RequestMix {
    /// The mix for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 2);
        let checks: Vec<Vec<String>> = SERVE_SCENARIOS
            .iter()
            .map(|sc| {
                let gen = FormulaGen::new(sc.n, sc.symmetry);
                (0..SERVE_FORMULAS)
                    .map(|_| {
                        format!(
                            r#"{{"op":"check",{},"formula":"{}"}}"#,
                            sc.fields(),
                            gen.formula(&mut rng, 2)
                        )
                    })
                    .collect()
            })
            .collect();
        let sweep_gen = FormulaGen::new(4, false);
        let sweeps = (0..2)
            .map(|_| {
                format!(
                    r#"{{"op":"sweep","n":4,"t":1,"mode":"omission","from":2,"to":3,"formula":"{}"}}"#,
                    sweep_gen.formula(&mut rng, 2)
                )
            })
            .collect();
        RequestMix { checks, sweeps }
    }

    /// The set-up's warm-up requests: `CC(E0) -> C(E0)` on every
    /// scenario of the mix.
    #[must_use]
    pub fn warm_up() -> Vec<String> {
        SERVE_SCENARIOS
            .iter()
            .map(|sc| {
                format!(
                    r#"{{"op":"check",{},"formula":"CC(E0) -> C(E0)"}}"#,
                    sc.fields()
                )
            })
            .collect()
    }

    /// One client's request stream: `client` picks an independent seeded
    /// stream of the same mix.
    #[must_use]
    pub fn client(&self, seed: u64, client: usize) -> ClientStream<'_> {
        ClientStream {
            mix: self,
            rng: Rng::new(seed, 10 + client as u64),
            block: Vec::new(),
            blocks: 0,
        }
    }
}

/// Requests per block of a client stream.
pub const SERVE_BLOCK: usize = 20;

/// One client's endless request stream, in shuffled blocks of
/// [`SERVE_BLOCK`] with a fixed make-up, so that seeds change formulas
/// and order but not the mix: 14 checks spread evenly over the
/// scenarios, 3 `optimize` on rotating scenarios, 2 sweeps, 1 `stats`.
#[derive(Debug)]
pub struct ClientStream<'a> {
    mix: &'a RequestMix,
    rng: Rng,
    block: Vec<String>,
    blocks: usize,
}

impl ClientStream<'_> {
    fn fill_block(&mut self) {
        let scenarios = SERVE_SCENARIOS.len();
        for i in 0..14 {
            let sc = (self.blocks + i) % scenarios;
            self.block.push(self.rng.pick(&self.mix.checks[sc]).clone());
        }
        for i in 0..3 {
            let sc = &SERVE_SCENARIOS[(self.blocks + i) % scenarios];
            self.block
                .push(format!(r#"{{"op":"optimize",{}}}"#, sc.fields()));
        }
        for _ in 0..2 {
            self.block.push(self.rng.pick(&self.mix.sweeps).clone());
        }
        self.block.push(r#"{"op":"stats"}"#.to_owned());
        debug_assert_eq!(self.block.len(), SERVE_BLOCK);
        self.rng.shuffle(&mut self.block);
        self.blocks += 1;
    }

    /// The next request line.
    pub fn next_line(&mut self) -> String {
        if self.block.is_empty() {
            self.fill_block();
        }
        self.block.pop().expect("a filled block is not empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_kripke::parse::parse_formula;
    use eba_serve::Request;

    const SHAPES: [SessionShape; 2] = [
        SessionShape {
            n: 4,
            quotient: false,
            base: Base::ZeroChain,
        },
        SessionShape {
            n: 5,
            quotient: true,
            base: Base::CrashRule,
        },
    ];

    fn queries(seed: u64, count: usize) -> Vec<Query> {
        let mut stream = QueryStream::new(seed, &SHAPES);
        (0..count).map(|_| stream.next_query()).collect()
    }

    fn lines(seed: u64, count: usize) -> Vec<String> {
        let mix = RequestMix::new(seed);
        let mut stream = mix.client(seed, 0);
        (0..count).map(|_| stream.next_line()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_stream_and_another_seed_another() {
        assert_eq!(
            format!("{:?}", queries(7, 500)),
            format!("{:?}", queries(7, 500))
        );
        assert_ne!(queries(7, 500), queries(8, 500));
        assert_eq!(
            lines(7, 500).concat().as_bytes(),
            lines(7, 500).concat().as_bytes()
        );
        assert_ne!(lines(7, 500), lines(8, 500));
    }

    #[test]
    fn every_generated_formula_parses() {
        for seed in 0..20 {
            for query in queries(seed, 300) {
                if let Query::Check { formula, .. } = query {
                    assert!(parse_formula(&formula).is_ok(), "{formula}");
                }
            }
        }
    }

    #[test]
    fn quotient_sessions_only_get_symmetric_formulas() {
        let mut asymmetric_elsewhere = 0;
        for seed in 0..20 {
            for query in queries(seed, 300) {
                if let Query::Check { session, formula } = query {
                    let f = parse_formula(&formula).expect("generated formulas parse");
                    let symmetric = f.symmetric_under_relabeling(&mut |_| true);
                    if SHAPES[session].quotient {
                        assert!(symmetric, "{formula}");
                    } else if !symmetric {
                        asymmetric_elsewhere += 1;
                    }
                }
            }
        }
        // The unreduced session does get processor-naming formulas.
        assert!(asymmetric_elsewhere > 0);
    }

    #[test]
    fn blocks_fix_the_mix() {
        let qs = queries(5, BLOCK * D_EVERY * 2);
        let optimize = qs
            .iter()
            .filter(|q| matches!(q, Query::Optimize { .. }))
            .count();
        assert_eq!(optimize * 10, qs.len());
        let distributed: Vec<usize> = qs
            .iter()
            .filter_map(|q| match q {
                Query::Check { session, formula } if formula.starts_with("D(") => Some(*session),
                _ => None,
            })
            .collect();
        assert_eq!(distributed.len(), 2);
        assert_ne!(distributed[0], distributed[1]);
    }

    #[test]
    fn optimize_bases_match_their_session() {
        for query in queries(3, 2000) {
            if let Query::Optimize { session, base } = query {
                assert!(base == Base::FLambda || base == SHAPES[session].base);
            }
        }
    }

    #[test]
    fn every_request_line_parses_and_quotient_checks_are_symmetric() {
        for seed in 0..10 {
            for line in lines(seed, 300) {
                let req = Request::from_line(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
                if let Request::Check(check) = req {
                    let f = parse_formula(&check.formula).expect("generated formulas parse");
                    if check.spec.symmetry {
                        assert!(f.symmetric_under_relabeling(&mut |_| true), "{line}");
                    }
                }
            }
        }
    }
}
