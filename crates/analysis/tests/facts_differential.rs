//! Differential soundness for the pre-execution abstract interpreter:
//! on randomly generated fix-free programs, the static value interval of
//! the root must contain the concrete value of every terminating run of
//! the trace semantics (`run_on_trace`). This is the property the
//! symbolic executor relies on — a violation here would make
//! dead-branch pruning unsound.
//!
//! Programs are generated as *source strings* from a seeded xorshift so
//! the whole front end (parser, simple types, interval types) is in the
//! differential loop, not just the abstract interpreter.

use gubpi_analysis::ProgramFacts;
use gubpi_lang::{infer, parse};
use gubpi_semantics::bigstep::{run_on_trace_prefix_with, EvalOptions};
use gubpi_types::infer_interval_types;
use proptest::prelude::*;

fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A random fix-free expression of the real-typed fragment: constants,
/// `sample`, let-bound variables, `+`/`-`/`*`, `max`, and `if _ <= _`.
/// Division and recursion are excluded so every generated program is
/// finite-valued and terminates on any sufficiently long trace.
fn gen_expr(s: &mut u64, depth: u32, vars: &mut Vec<String>) -> String {
    if depth == 0 || next(s).is_multiple_of(4) {
        return match next(s) % 4 {
            0 => format!("{:.2}", (next(s) % 17) as f64 / 4.0),
            1 | 3 => "sample".to_owned(),
            _ if !vars.is_empty() => {
                let i = (next(s) as usize) % vars.len();
                vars[i].clone()
            }
            _ => "sample".to_owned(),
        };
    }
    match next(s) % 6 {
        0 => format!(
            "({} + {})",
            gen_expr(s, depth - 1, vars),
            gen_expr(s, depth - 1, vars)
        ),
        1 => format!(
            "({} - {})",
            gen_expr(s, depth - 1, vars),
            gen_expr(s, depth - 1, vars)
        ),
        2 => format!(
            "({} * {})",
            gen_expr(s, depth - 1, vars),
            gen_expr(s, depth - 1, vars)
        ),
        3 => format!(
            "max({}, {})",
            gen_expr(s, depth - 1, vars),
            gen_expr(s, depth - 1, vars)
        ),
        4 => format!(
            "(if {} <= {} then {} else {})",
            gen_expr(s, depth - 1, vars),
            gen_expr(s, depth - 1, vars),
            gen_expr(s, depth - 1, vars),
            gen_expr(s, depth - 1, vars)
        ),
        _ => {
            let name = format!("v{}", vars.len());
            let bound = gen_expr(s, depth - 1, vars);
            vars.push(name.clone());
            let body = gen_expr(s, depth - 1, vars);
            vars.pop();
            format!("(let {name} = {bound} in {body})")
        }
    }
}

/// Guards the property test against vacuity: most generated programs
/// must terminate on a generic trace AND have a recorded static value
/// interval, so the containment assertion below really fires.
#[test]
fn generator_produces_checkable_cases() {
    let trace: Vec<f64> = (0..48).map(|i| (i as f64 * 0.377) % 1.0).collect();
    let mut checked = 0usize;
    for seed in 1..=200u64 {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut vars = Vec::new();
        let src = gen_expr(&mut s, 4, &mut vars);
        let program = parse(&src).expect("generated program parses");
        let simple = infer(&program).expect("generated program type-checks");
        let typing = infer_interval_types(&program, &simple);
        let facts = ProgramFacts::compute(&program, &typing);
        if facts.is_aborted() {
            continue;
        }
        let run = run_on_trace_prefix_with(&program, &trace, EvalOptions::default());
        if run.is_ok() && facts.value(program.root.id).is_some() {
            checked += 1;
        }
    }
    assert!(
        checked > 120,
        "only {checked}/200 generated programs reach the containment check"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn static_value_interval_contains_every_terminating_run(
        seed in 1u64..u64::MAX,
        trace in proptest::collection::vec(0.0f64..1.0, 48),
    ) {
        let mut s = seed;
        let mut vars = Vec::new();
        let src = gen_expr(&mut s, 4, &mut vars);
        let program = parse(&src)
            .unwrap_or_else(|e| panic!("generated program must parse: {e:?}\n{src}"));
        let simple = infer(&program)
            .unwrap_or_else(|e| panic!("generated program must type-check: {e:?}\n{src}"));
        let typing = infer_interval_types(&program, &simple);
        let facts = ProgramFacts::compute(&program, &typing);
        if facts.is_aborted() {
            return;
        }
        // The program reads a prefix of the trace (branches decide how
        // many draws happen); a failed run claims nothing — the facts
        // only speak about terminating runs.
        if let Ok((out, _)) =
            run_on_trace_prefix_with(&program, &trace, EvalOptions::default())
        {
            if let Some(iv) = facts.value(program.root.id) {
                prop_assert!(
                    iv.lo() <= out.value && out.value <= iv.hi(),
                    "concrete value {} escapes static interval [{}, {}]\n{src}",
                    out.value,
                    iv.lo(),
                    iv.hi()
                );
            }
        }
    }
}
