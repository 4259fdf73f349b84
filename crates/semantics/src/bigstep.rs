//! Environment-based big-step evaluation of SPCF (the fast path).
//!
//! Implements the standard trace semantics of §2.3: evaluating a program
//! `P` against a trace `s` yields the value `val_P(s)` and weight
//! `wt_P(s)`. Weights are tracked in log space so that long products of
//! densities neither under- nor overflow.

use gubpi_lang::{Expr, ExprKind, Program};
use rand::{Rng, RngExt};

use crate::trace::{Trace, TraceSource};
use crate::value::{Env, Value};

/// Why evaluation failed to produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// The replayed trace ran out of samples — `s` is not long enough.
    TraceExhausted,
    /// A terminating run left part of the trace unconsumed; per §2.3 such
    /// traces do not count as terminating.
    TraceNotConsumed,
    /// `score` was applied to a negative number (the reduction is stuck).
    NegativeScore(f64),
    /// The fuel budget was exceeded (used to cut off divergence).
    OutOfFuel,
    /// The evaluator's recursion-depth limit was exceeded (guards the
    /// Rust call stack against deeply recursive object programs).
    TooDeep,
    /// A runtime type error (applying a number, branching on a closure…).
    /// Unreachable for simply-typed programs.
    Stuck(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::TraceExhausted => write!(f, "trace exhausted"),
            EvalError::TraceNotConsumed => write!(f, "trace not fully consumed"),
            EvalError::NegativeScore(w) => write!(f, "score of negative value {w}"),
            EvalError::OutOfFuel => write!(f, "fuel budget exceeded"),
            EvalError::TooDeep => write!(f, "recursion depth limit exceeded"),
            EvalError::Stuck(m) => write!(f, "stuck: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The result of a terminating run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The returned real value `val_P(s)`.
    pub value: f64,
    /// The natural log of the weight `ln wt_P(s)` (`−∞` for weight 0).
    pub log_weight: f64,
    /// The trace that was consumed (replayed or freshly sampled).
    pub trace: Trace,
}

impl Outcome {
    /// The weight `wt_P(s)` in linear space.
    pub fn weight(&self) -> f64 {
        self.log_weight.exp()
    }
}

/// Evaluator configuration.
#[derive(Copy, Clone, Debug)]
pub struct EvalOptions {
    /// Maximum number of big-step calls before giving up; guards against
    /// non-terminating programs.
    pub fuel: u64,
    /// Maximum evaluator recursion depth (keeps deeply recursive object
    /// programs from overflowing the Rust call stack).
    pub max_depth: u32,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            fuel: 10_000_000,
            max_depth: 3_000,
        }
    }
}

/// Runs `program` on a fixed trace (the paper's `(P, s, 1) →* (r, ⟨⟩, w)`).
///
/// # Errors
///
/// See [`EvalError`]; in particular the trace must be exactly consumed.
pub fn run_on_trace(program: &Program, trace: &[f64]) -> Result<Outcome, EvalError> {
    run_on_trace_with(program, trace, EvalOptions::default())
}

/// [`run_on_trace`] with explicit options.
pub fn run_on_trace_with(
    program: &Program,
    trace: &[f64],
    opts: EvalOptions,
) -> Result<Outcome, EvalError> {
    let mut src = TraceSource::replay(trace);
    let mut ev = Evaluator {
        fuel: opts.fuel,
        depth: 0,
        max_depth: opts.max_depth,
        log_weight: 0.0,
        src: &mut src,
    };
    let v = ev.eval(&program.root, &Env::empty())?;
    let log_weight = ev.log_weight;
    if !src.fully_consumed() {
        return Err(EvalError::TraceNotConsumed);
    }
    match v {
        Value::Real(value) => Ok(Outcome {
            value,
            log_weight,
            trace: trace.to_vec(),
        }),
        other => Err(EvalError::Stuck(format!(
            "program returned a non-real value {other:?}"
        ))),
    }
}

/// Like [`run_on_trace_with`], but tolerates an unconsumed suffix: the
/// program reads a *prefix* of `trace` and the leftover entries are
/// ignored. Returns the outcome together with the number of entries
/// consumed. Used by fixed-dimension samplers (HMC) that embed a
/// variable-length model into `[0,1]^N`.
///
/// # Errors
///
/// Same as [`run_on_trace_with`] except `TraceNotConsumed`.
pub fn run_on_trace_prefix_with(
    program: &Program,
    trace: &[f64],
    opts: EvalOptions,
) -> Result<(Outcome, usize), EvalError> {
    let mut src = TraceSource::replay(trace);
    let mut ev = Evaluator {
        fuel: opts.fuel,
        depth: 0,
        max_depth: opts.max_depth,
        log_weight: 0.0,
        src: &mut src,
    };
    let v = ev.eval(&program.root, &Env::empty())?;
    let log_weight = ev.log_weight;
    let consumed = src.drawn();
    match v {
        Value::Real(value) => Ok((
            Outcome {
                value,
                log_weight,
                trace: trace[..consumed].to_vec(),
            },
            consumed,
        )),
        other => Err(EvalError::Stuck(format!(
            "program returned a non-real value {other:?}"
        ))),
    }
}

/// Runs `program` with fresh randomness (ancestral sampling), recording
/// the trace — one likelihood-weighted sample.
///
/// # Errors
///
/// Fails only on fuel exhaustion or runtime type errors.
pub fn sample_run<R: Rng>(program: &Program, rng: &mut R) -> Result<Outcome, EvalError> {
    sample_run_with(program, rng, EvalOptions::default())
}

/// [`sample_run`] with explicit options.
pub fn sample_run_with<R: Rng>(
    program: &Program,
    rng: &mut R,
    opts: EvalOptions,
) -> Result<Outcome, EvalError> {
    let gen = move |r: &mut R| r.random::<f64>();
    let mut closure = {
        let rng_ref = rng;
        move || gen(rng_ref)
    };
    let mut src = TraceSource::Random {
        rng: &mut closure,
        recorded: Vec::new(),
    };
    let mut ev = Evaluator {
        fuel: opts.fuel,
        depth: 0,
        max_depth: opts.max_depth,
        log_weight: 0.0,
        src: &mut src,
    };
    let v = ev.eval(&program.root, &Env::empty())?;
    let log_weight = ev.log_weight;
    let trace = match src {
        TraceSource::Random { recorded, .. } => recorded,
        _ => unreachable!(),
    };
    match v {
        Value::Real(value) => Ok(Outcome {
            value,
            log_weight,
            trace,
        }),
        other => Err(EvalError::Stuck(format!(
            "program returned a non-real value {other:?}"
        ))),
    }
}

struct Evaluator<'a, 'b> {
    fuel: u64,
    depth: u32,
    max_depth: u32,
    log_weight: f64,
    src: &'a mut TraceSource<'b>,
}

impl Evaluator<'_, '_> {
    fn eval<'p>(&mut self, e: &'p Expr, env: &Env<'p>) -> Result<Value<'p>, EvalError> {
        self.depth += 1;
        let r = self.eval_inner(e, env);
        self.depth -= 1;
        r
    }

    fn eval_inner<'p>(&mut self, e: &'p Expr, env: &Env<'p>) -> Result<Value<'p>, EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::OutOfFuel);
        }
        if self.depth > self.max_depth {
            return Err(EvalError::TooDeep);
        }
        self.fuel -= 1;
        match &e.kind {
            ExprKind::Var(x) => env
                .lookup(x)
                .cloned()
                .ok_or_else(|| EvalError::Stuck(format!("unbound variable `{x}`"))),
            ExprKind::Const(r) => Ok(Value::Real(*r)),
            ExprKind::Lam(param, body) => Ok(Value::Closure {
                param,
                body,
                env: env.clone(),
            }),
            ExprKind::Fix(fname, param, body) => Ok(Value::FixClosure {
                fname,
                param,
                body,
                env: env.clone(),
            }),
            ExprKind::App(f, a) => {
                let fv = self.eval(f, env)?;
                let av = self.eval(a, env)?;
                self.apply(fv, av)
            }
            ExprKind::If(c, t, els) => {
                let cv = self.eval(c, env)?;
                match cv {
                    Value::Real(r) if r <= 0.0 => self.eval(t, env),
                    Value::Real(_) => self.eval(els, env),
                    other => Err(EvalError::Stuck(format!("if-guard is {other:?}"))),
                }
            }
            ExprKind::Prim(op, args) => {
                let mut xs = Vec::with_capacity(args.len());
                for a in args {
                    match self.eval(a, env)? {
                        Value::Real(r) => xs.push(r),
                        other => {
                            return Err(EvalError::Stuck(format!(
                                "primitive argument is {other:?}"
                            )))
                        }
                    }
                }
                Ok(Value::Real(op.eval(&xs)))
            }
            ExprKind::Sample => {
                let v = self.src.next_sample().ok_or(EvalError::TraceExhausted)?;
                Ok(Value::Real(v))
            }
            ExprKind::Score(m) => {
                let mv = self.eval(m, env)?;
                match mv {
                    Value::Real(r) if r >= 0.0 => {
                        self.log_weight += r.ln(); // ln(0) = −∞ kills the path
                        Ok(Value::Real(r))
                    }
                    Value::Real(r) => Err(EvalError::NegativeScore(r)),
                    other => Err(EvalError::Stuck(format!("score of {other:?}"))),
                }
            }
        }
    }

    fn apply<'p>(&mut self, f: Value<'p>, a: Value<'p>) -> Result<Value<'p>, EvalError> {
        match f {
            Value::Closure { param, body, env } => {
                let env2 = env.bind(param, a);
                self.eval(body, &env2)
            }
            Value::FixClosure {
                fname,
                param,
                body,
                env,
            } => {
                let rec = Value::FixClosure {
                    fname,
                    param,
                    body,
                    env: env.clone(),
                };
                let env2 = env.bind(fname, rec).bind(param, a);
                self.eval(body, &env2)
            }
            other => Err(EvalError::Stuck(format!("applying non-function {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gubpi_lang::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(src: &str, trace: &[f64]) -> Outcome {
        run_on_trace(&parse(src).unwrap(), trace).unwrap()
    }

    #[test]
    fn deterministic_arithmetic() {
        let out = run("1 + 2 * 3", &[]);
        assert_eq!(out.value, 7.0);
        assert_eq!(out.log_weight, 0.0);
    }

    #[test]
    fn sample_consumes_trace() {
        let out = run("sample + sample", &[0.25, 0.5]);
        assert_eq!(out.value, 0.75);
        assert!(matches!(
            run_on_trace(&parse("sample").unwrap(), &[]),
            Err(EvalError::TraceExhausted)
        ));
        assert!(matches!(
            run_on_trace(&parse("1").unwrap(), &[0.5]),
            Err(EvalError::TraceNotConsumed)
        ));
    }

    #[test]
    fn score_multiplies_weight() {
        let out = run("score(2); score(3); 1", &[]);
        assert!((out.weight() - 6.0).abs() < 1e-12);
        assert!(matches!(
            run_on_trace(&parse("score(0-1)").unwrap(), &[]),
            Err(EvalError::NegativeScore(_))
        ));
    }

    #[test]
    fn example_2_1_pedestrian_trace() {
        // Example 2.1: s = ⟨0.1, 0.2, 0.4, 0.7, 0.8⟩ gives val = 0.3 and
        // wt = pdf_{Normal(1.1,0.1)}(0.9).
        let src = "
            let start = 3 * sample uniform(0, 1) in
            let rec walk x =
              if x <= 0 then 0 else
                let step = sample uniform(0, 1) in
                if sample <= 0.5 then step + walk (x + step)
                else step + walk (x - step)
            in
            let distance = walk start in
            observe distance from normal(1.1, 0.1);
            start";
        let out = run(src, &[0.1, 0.2, 0.4, 0.7, 0.8]);
        assert!((out.value - 0.3).abs() < 1e-12);
        use gubpi_dist::ContinuousDist;
        let want = gubpi_dist::Normal::new(1.1, 0.1).pdf(0.9);
        assert!((out.weight() - want).abs() < 1e-12);
    }

    #[test]
    fn recursion_terminates_with_fuel() {
        let out = run(
            "let rec down x = if x <= 0 then 0 else down (x - 1) in down 5",
            &[],
        );
        assert_eq!(out.value, 0.0);
        // An infinite loop exhausts fuel instead of hanging.
        let p = parse("let rec spin x = spin x in spin 0").unwrap();
        // Small max_depth: test threads have small stacks, and `spin`
        // nests one evaluator frame per object-level call.
        let opts = EvalOptions {
            fuel: 10_000,
            max_depth: 400,
        };
        let err = run_on_trace_with(&p, &[], opts).unwrap_err();
        assert!(matches!(err, EvalError::OutOfFuel | EvalError::TooDeep));
    }

    #[test]
    fn higher_order_functions() {
        let out = run("let twice f x = f (f x) in twice (fn y -> y * 2) 3", &[]);
        assert_eq!(out.value, 12.0);
    }

    #[test]
    fn sampling_runs_record_traces() {
        let p = parse("sample + sample uniform(0, 2)").unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let out = sample_run(&p, &mut rng).unwrap();
        assert_eq!(out.trace.len(), 2);
        assert!(out.value >= 0.0 && out.value <= 3.0);
        // Replaying the recorded trace reproduces the value exactly.
        let replay = run_on_trace(&p, &out.trace).unwrap();
        assert_eq!(replay.value, out.value);
    }

    #[test]
    fn invalid_runtime_dist_params_give_zero_weight_not_a_panic() {
        // sample = 0.2 draws σ = −0.3: the observed density is 0, so the
        // run terminates with weight 0 instead of panicking — exactly
        // the mass the guaranteed bounds assign such traces.
        let p = parse("observe 0.4 from normal(0, sample - 0.5); 1").unwrap();
        let out = run_on_trace(&p, &[0.2]).unwrap();
        assert_eq!(out.weight(), 0.0);
        assert_eq!(out.log_weight, f64::NEG_INFINITY);
        // A run that draws a valid σ is weighted as usual.
        let out = run_on_trace(&p, &[0.9]).unwrap();
        use gubpi_dist::ContinuousDist;
        let want = gubpi_dist::Normal::new(0.0, 0.4).pdf(0.4);
        assert!((out.weight() - want).abs() < 1e-12);
        // Invalid beta shapes drawn at runtime behave the same.
        let b = parse("observe 0.5 from beta(sample - 0.5, 1); 1").unwrap();
        let out = run_on_trace(&b, &[0.25]).unwrap();
        assert_eq!(out.weight(), 0.0);
    }

    #[test]
    fn observe_weights_correctly() {
        let p = parse("observe 0.5 from normal(0, 1); 1").unwrap();
        let out = run_on_trace(&p, &[]).unwrap();
        use gubpi_dist::ContinuousDist;
        let want = gubpi_dist::Normal::standard().pdf(0.5);
        assert!((out.weight() - want).abs() < 1e-12);
    }
}
