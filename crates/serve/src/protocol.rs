//! The `eba-serve` wire protocol: line-delimited JSON frames.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Success frames start with `"ok":true`,
//! error frames with `"ok":false` plus a typed `"error"` kind from the
//! closed taxonomy below (see README for the full grammar):
//!
//! | kind               | meaning                                        |
//! |--------------------|------------------------------------------------|
//! | `bad-frame`        | not JSON, not an object, oversize, missing op  |
//! | `bad-request`      | unknown op, bad field, unparsable formula      |
//! | `invalid-scenario` | the scenario parameters are rejected by model  |
//! | `budget-exhausted` | budget ran out before any shard completed      |
//! | `overloaded`       | admission queue full; `retry_after_ms` hints   |
//! | `engine-fault`     | an engine fault survived the retry budget      |
//! | `shutting-down`    | the server is draining; reconnect elsewhere    |
//! | `internal-panic`   | a worker panicked; the panic was isolated      |
//!
//! Responses carry **no timing or host information**: a response is a
//! pure function of the request, which is what lets the chaos suite
//! assert byte-identity between the concurrent daemon and the
//! single-threaded oracle.

use crate::json::Json;
use eba_model::{ExchangeKind, FailureMode, Scenario};
use std::fmt;

/// Default deadline hint returned with `overloaded` frames.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 100;

/// A parsed request frame.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Evaluate a formula over every point of a scenario's system.
    Check(CheckRequest),
    /// Run the Theorem 5.2 construction and the Theorem 5.3 optimality
    /// check on a scenario's exhaustive system.
    Optimize(ScenarioSpec),
    /// Check a formula at every horizon of a range out of one warm
    /// incremental session.
    Sweep(SweepRequest),
    /// Server/pool statistics.
    Stats,
    /// Evict pooled sessions: all of them, or one scenario's.
    Evict(Option<ScenarioSpec>),
}

/// The scenario selection shared by all engine-touching ops.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ScenarioSpec {
    /// Number of processors.
    pub n: usize,
    /// Failure bound.
    pub t: usize,
    /// Failure mode.
    pub mode: FailureMode,
    /// Information exchange.
    pub exchange: ExchangeKind,
    /// Horizon (rounds simulated); defaults to `t + 2`.
    pub horizon: u16,
    /// `Some((runs, seed))` for a sampled system instead of the
    /// exhaustive one.
    pub sampled: Option<(usize, u64)>,
    /// Build the symmetry-quotiented system: one representative failure
    /// pattern per `Sym(n)` orbit, with knowledge evaluated through
    /// orbit-canonical view classes. Part of the pool key, so quotiented
    /// and unreduced sessions for the same scenario never alias.
    pub symmetry: bool,
}

impl ScenarioSpec {
    /// Resolves the spec into a validated [`Scenario`].
    ///
    /// # Errors
    ///
    /// Returns the model's error text when the parameters are rejected.
    pub fn scenario(&self) -> Result<Scenario, ServeError> {
        Scenario::new(self.n, self.t, self.mode, self.horizon)
            .and_then(|s| s.with_exchange(self.exchange))
            .map_err(|e| ServeError::InvalidScenario(e.to_string()))
    }
}

/// A `check` request: scenario + formula + optional budget.
#[derive(Clone, PartialEq, Debug)]
pub struct CheckRequest {
    /// The scenario to build (or fetch from the pool).
    pub spec: ScenarioSpec,
    /// Formula text, in the `eba-check` grammar.
    pub formula: String,
    /// Wall-clock budget in milliseconds; budgeted checks bypass the
    /// pool and may return a `partial` verdict.
    pub deadline_ms: Option<u64>,
    /// Run-count budget; honored at shard granularity, deterministic.
    pub max_runs: Option<u64>,
    /// Explicit shard count for exhaustive generation. The generated
    /// system is identical for any value; a budgeted query's
    /// `completed_shards`/`total_shards` figures are only deterministic
    /// (and oracle-comparable) when this is pinned.
    pub shards: Option<usize>,
    /// Also report a point where the formula holds.
    pub witness: bool,
}

/// A `sweep` request: one formula checked at every horizon `from..=to`.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepRequest {
    /// Scenario shape; `spec.horizon` is ignored (`from` is used) and
    /// `spec.sampled` must be `None` (sweeps are exhaustive-only).
    pub spec: ScenarioSpec,
    /// Formula text.
    pub formula: String,
    /// First horizon (inclusive).
    pub from: u16,
    /// Last horizon (inclusive).
    pub to: u16,
}

/// Typed failures; each maps to one error-frame kind.
#[derive(Clone, PartialEq, Debug)]
pub enum ServeError {
    /// The frame itself is unusable (not JSON / not an object / no op /
    /// oversize).
    BadFrame(String),
    /// The frame is well-formed but the request is not (unknown op, bad
    /// field type, unparsable formula, conflicting options).
    BadRequest(String),
    /// The model rejected the scenario parameters.
    InvalidScenario(String),
    /// A budget expired before any shard completed; nothing to report.
    BudgetExhausted(String),
    /// Admission control shed this query.
    Overloaded {
        /// Suggested client backoff.
        retry_after_ms: u64,
    },
    /// An [`eba_sim::chaos::EngineFault`] survived the retry budget.
    EngineFault(String),
    /// The server is draining.
    ShuttingDown,
    /// A worker panicked; the connection survived, the query did not.
    Panic(String),
}

impl ServeError {
    /// The wire kind of this error.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadFrame(_) => "bad-frame",
            ServeError::BadRequest(_) => "bad-request",
            ServeError::InvalidScenario(_) => "invalid-scenario",
            ServeError::BudgetExhausted(_) => "budget-exhausted",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::EngineFault(_) => "engine-fault",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::Panic(_) => "internal-panic",
        }
    }

    /// Renders the error frame.
    #[must_use]
    pub fn to_frame(&self) -> Json {
        let message = match self {
            ServeError::BadFrame(m)
            | ServeError::BadRequest(m)
            | ServeError::InvalidScenario(m)
            | ServeError::BudgetExhausted(m)
            | ServeError::EngineFault(m)
            | ServeError::Panic(m) => m.clone(),
            ServeError::Overloaded { .. } => "admission queue full".to_owned(),
            ServeError::ShuttingDown => "server is draining".to_owned(),
        };
        let mut fields = vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str(self.kind().to_owned())),
            ("message", Json::Str(message)),
        ];
        if let ServeError::Overloaded { retry_after_ms } = self {
            fields.push(("retry_after_ms", Json::Int(*retry_after_ms as i64)));
        }
        Json::obj(fields)
    }
}

impl fmt::Display for ServeError {
    /// The wire frame *is* the canonical textual form of a protocol
    /// error.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_frame().to_line())
    }
}

impl std::error::Error for ServeError {}

fn field_usize(frame: &Json, key: &str, default: usize) -> Result<usize, ServeError> {
    match frame.get(key) {
        None => Ok(default),
        Some(Json::Int(i)) if *i >= 0 => Ok(*i as usize),
        Some(_) => Err(ServeError::BadRequest(format!(
            "field `{key}` must be a non-negative integer"
        ))),
    }
}

fn field_u64(frame: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    match frame.get(key) {
        None => Ok(None),
        Some(Json::Int(i)) if *i > 0 => Ok(Some(*i as u64)),
        Some(_) => Err(ServeError::BadRequest(format!(
            "field `{key}` must be a positive integer"
        ))),
    }
}

fn field_bool(frame: &Json, key: &str) -> Result<bool, ServeError> {
    match frame.get(key) {
        None => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(ServeError::BadRequest(format!(
            "field `{key}` must be a boolean"
        ))),
    }
}

fn field_str<'a>(frame: &'a Json, key: &str) -> Result<Option<&'a str>, ServeError> {
    match frame.get(key) {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s)),
        Some(_) => Err(ServeError::BadRequest(format!(
            "field `{key}` must be a string"
        ))),
    }
}

fn parse_spec(frame: &Json) -> Result<ScenarioSpec, ServeError> {
    let n = field_usize(frame, "n", 3)?;
    let t = field_usize(frame, "t", 1)?;
    let mode = match field_str(frame, "mode")?.unwrap_or("crash") {
        "crash" => FailureMode::Crash,
        "omission" => FailureMode::Omission,
        "general-omission" => FailureMode::GeneralOmission,
        other => {
            return Err(ServeError::BadRequest(format!("unknown mode `{other}`")));
        }
    };
    let exchange = match field_str(frame, "exchange")? {
        None => ExchangeKind::FullInformation,
        Some(spec) => {
            ExchangeKind::parse(spec).map_err(|e| ServeError::BadRequest(e.to_string()))?
        }
    };
    let horizon = match frame.get("horizon") {
        None => u16::try_from(t + 2)
            .map_err(|_| ServeError::BadRequest("t too large for a horizon".into()))?,
        Some(Json::Int(i)) if (1..=i64::from(u16::MAX)).contains(i) => *i as u16,
        Some(_) => {
            return Err(ServeError::BadRequest(
                "field `horizon` must be a positive integer".into(),
            ));
        }
    };
    let sampled = match frame.get("sampled") {
        None => None,
        Some(Json::Arr(pair)) => match pair.as_slice() {
            [Json::Int(runs), Json::Int(seed)] if *runs > 0 && *seed >= 0 => {
                Some((*runs as usize, *seed as u64))
            }
            _ => {
                return Err(ServeError::BadRequest(
                    "field `sampled` must be [runs, seed] with runs >= 1".into(),
                ));
            }
        },
        Some(_) => {
            return Err(ServeError::BadRequest(
                "field `sampled` must be an array [runs, seed]".into(),
            ));
        }
    };
    let symmetry = field_bool(frame, "symmetry")?;
    if symmetry {
        if sampled.is_some() {
            return Err(ServeError::BadRequest(
                "the symmetry quotient needs the exhaustive system; drop `sampled`".into(),
            ));
        }
        if !exchange.is_full() {
            return Err(ServeError::BadRequest(format!(
                "the symmetry quotient requires the full exchange; `{exchange}` bakes \
                 processor labels into its bounded states"
            )));
        }
    }
    Ok(ScenarioSpec {
        n,
        t,
        mode,
        exchange,
        horizon,
        sampled,
        symmetry,
    })
}

impl Request {
    /// Parses one frame into a request.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadFrame`] when the frame is not an object with an
    /// `op` string, [`ServeError::BadRequest`] for everything else.
    pub fn from_frame(frame: &Json) -> Result<Request, ServeError> {
        if !matches!(frame, Json::Obj(_)) {
            return Err(ServeError::BadFrame("frame must be a JSON object".into()));
        }
        let op = frame
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::BadFrame("missing string field `op`".into()))?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "evict" => {
                if frame.get("n").is_some() {
                    Ok(Request::Evict(Some(parse_spec(frame)?)))
                } else {
                    Ok(Request::Evict(None))
                }
            }
            "check" => {
                let spec = parse_spec(frame)?;
                let formula = field_str(frame, "formula")?
                    .ok_or_else(|| ServeError::BadRequest("missing field `formula`".into()))?
                    .to_owned();
                let deadline_ms = field_u64(frame, "deadline_ms")?;
                let max_runs = field_u64(frame, "max_runs")?;
                if (deadline_ms.is_some() || max_runs.is_some()) && spec.sampled.is_some() {
                    return Err(ServeError::BadRequest(
                        "budgets govern exhaustive generation; drop `sampled`".into(),
                    ));
                }
                let shards = match field_u64(frame, "shards")? {
                    Some(s) => Some(usize::try_from(s).map_err(|_| {
                        ServeError::BadRequest("field `shards` is too large".into())
                    })?),
                    None => None,
                };
                Ok(Request::Check(CheckRequest {
                    spec,
                    formula,
                    deadline_ms,
                    max_runs,
                    shards,
                    witness: field_bool(frame, "witness")?,
                }))
            }
            "optimize" => {
                let spec = parse_spec(frame)?;
                Ok(Request::Optimize(spec))
            }
            "sweep" => {
                let spec = parse_spec(frame)?;
                if spec.sampled.is_some() {
                    return Err(ServeError::BadRequest(
                        "sweeps need the exhaustive system; drop `sampled`".into(),
                    ));
                }
                if !spec.exchange.supports_session_extension() {
                    return Err(ServeError::BadRequest(format!(
                        "sweeps need an exchange supporting session extension; `{}` is rebuild-only",
                        spec.exchange
                    )));
                }
                let formula = field_str(frame, "formula")?
                    .ok_or_else(|| ServeError::BadRequest("missing field `formula`".into()))?
                    .to_owned();
                let from = match frame.get("from").and_then(Json::as_i64) {
                    Some(i) if (1..=i64::from(u16::MAX)).contains(&i) => i as u16,
                    _ => {
                        return Err(ServeError::BadRequest(
                            "field `from` must be a positive integer".into(),
                        ));
                    }
                };
                let to = match frame.get("to").and_then(Json::as_i64) {
                    Some(i) if i >= i64::from(from) && i <= i64::from(u16::MAX) => i as u16,
                    _ => {
                        return Err(ServeError::BadRequest(
                            "field `to` must be an integer >= `from`".into(),
                        ));
                    }
                };
                Ok(Request::Sweep(SweepRequest {
                    spec,
                    formula,
                    from,
                    to,
                }))
            }
            other => Err(ServeError::BadRequest(format!("unknown op `{other}`"))),
        }
    }

    /// Parses a raw line (convenience for tests and the stdin mode).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadFrame`] on malformed JSON, else as
    /// [`Request::from_frame`].
    pub fn from_line(line: &str) -> Result<Request, ServeError> {
        let frame = crate::json::parse(line).map_err(|e| ServeError::BadFrame(e.to_string()))?;
        Request::from_frame(&frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::tests::fuzz_line;

    #[test]
    fn parses_a_full_check_frame() {
        let req = Request::from_line(
            r#"{"op":"check","formula":"CC(E0) -> C(E0)","n":3,"t":1,"mode":"omission",
               "exchange":"digest:0","horizon":3,"max_runs":50,"witness":true}"#,
        )
        .unwrap();
        let Request::Check(check) = req else {
            panic!("wrong op");
        };
        assert_eq!(check.spec.n, 3);
        assert_eq!(check.spec.mode, FailureMode::Omission);
        assert_eq!(check.spec.horizon, 3);
        assert_eq!(check.max_runs, Some(50));
        assert!(check.witness);
        assert!(check.spec.scenario().is_ok());

        // Unknown fields are ignored. `set_repr` named a storage backend
        // that no longer exists; a frame still carrying it parses and
        // answers exactly like the frame without it.
        let plain = r#"{"op":"check","formula":"CC(E0) -> C(E0)","mode":"omission","horizon":2}"#;
        let legacy = plain.replace('}', r#","set_repr":"shared"}"#);
        let plain = Request::from_line(plain).unwrap();
        let legacy = Request::from_line(&legacy).unwrap();
        assert_eq!(plain, legacy);
        assert_eq!(crate::oracle(&plain), crate::oracle(&legacy));
    }

    #[test]
    fn defaults_match_the_cli() {
        let Request::Check(check) =
            Request::from_line(r#"{"op":"check","formula":"true"}"#).unwrap()
        else {
            panic!("wrong op");
        };
        assert_eq!((check.spec.n, check.spec.t), (3, 1));
        assert_eq!(check.spec.mode, FailureMode::Crash);
        assert_eq!(check.spec.horizon, 3, "horizon defaults to t + 2");
        assert_eq!(check.spec.exchange, ExchangeKind::FullInformation);
    }

    #[test]
    fn typed_errors_have_stable_kinds() {
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::BadFrame("x".into()), "bad-frame"),
            (ServeError::BadRequest("x".into()), "bad-request"),
            (ServeError::InvalidScenario("x".into()), "invalid-scenario"),
            (ServeError::BudgetExhausted("x".into()), "budget-exhausted"),
            (ServeError::Overloaded { retry_after_ms: 5 }, "overloaded"),
            (ServeError::EngineFault("x".into()), "engine-fault"),
            (ServeError::ShuttingDown, "shutting-down"),
            (ServeError::Panic("x".into()), "internal-panic"),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind);
            let frame = err.to_frame();
            assert_eq!(frame.get("ok"), Some(&Json::Bool(false)));
            assert_eq!(frame.get("error").and_then(Json::as_str), Some(kind));
        }
        let frame = ServeError::Overloaded { retry_after_ms: 7 }.to_frame();
        assert_eq!(frame.get("retry_after_ms").and_then(Json::as_i64), Some(7));
    }

    #[test]
    fn rejects_bad_requests_with_the_right_kind() {
        let bad_frame = Request::from_line("not json").unwrap_err();
        assert_eq!(bad_frame.kind(), "bad-frame");
        let no_op = Request::from_line(r#"{"x":1}"#).unwrap_err();
        assert_eq!(no_op.kind(), "bad-frame");
        let unknown = Request::from_line(r#"{"op":"fry"}"#).unwrap_err();
        assert_eq!(unknown.kind(), "bad-request");
        let bad_field =
            Request::from_line(r#"{"op":"check","formula":"true","n":"three"}"#).unwrap_err();
        assert_eq!(bad_field.kind(), "bad-request");
        let sampled_sweep = Request::from_line(
            r#"{"op":"sweep","formula":"true","from":2,"to":3,"sampled":[5,1]}"#,
        )
        .unwrap_err();
        assert_eq!(sampled_sweep.kind(), "bad-request");
        let rebuild_only = Request::from_line(
            r#"{"op":"sweep","formula":"true","from":2,"to":3,"exchange":"digest:32"}"#,
        )
        .unwrap_err();
        assert_eq!(rebuild_only.kind(), "bad-request");
        let sampled_symmetry = Request::from_line(
            r#"{"op":"check","formula":"true","symmetry":true,"sampled":[5,1]}"#,
        )
        .unwrap_err();
        assert_eq!(sampled_symmetry.kind(), "bad-request");
        let digest_symmetry = Request::from_line(
            r#"{"op":"check","formula":"true","symmetry":true,"exchange":"digest:0"}"#,
        )
        .unwrap_err();
        assert_eq!(digest_symmetry.kind(), "bad-request");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// No byte string panics the frame parser: it yields a request
        /// or one of the two parse-time error kinds.
        #[test]
        fn arbitrary_lines_parse_or_fail_typed(
            seed in proptest::num::u64::ANY,
            len in 0usize..48,
            wrap in proptest::bool::ANY,
        ) {
            let body = fuzz_line(seed, len);
            let line = if wrap { format!("{{\"op\":{body}}}") } else { body };
            if let Err(e) = Request::from_line(&line) {
                proptest::prop_assert!(
                    matches!(e.kind(), "bad-frame" | "bad-request"),
                    "{:?} -> {}",
                    line,
                    e
                );
            }
        }
    }
}
