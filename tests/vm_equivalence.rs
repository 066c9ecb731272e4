//! Differential-evaluation property suite for the guard/action bytecode
//! VM (`gamma::vm`).
//!
//! The VM's contract is that it changes *how* an expression is
//! evaluated, never *what* it evaluates to: for every expression,
//! environment, and tier, bytecode dispatch returns exactly what the
//! [`Expr`] tree walk returns — same `Ok` values, same error payloads,
//! same first-error order. This suite pins that contract three ways:
//!
//! 1. **Random trees**: proptest-driven random `Expr` trees (div/mod
//!    edge cases, boolean-shaped conjuncts, unbound variables, mixed
//!    value types) evaluated VM-vs-tree at both tiers, plus
//!    folded-vs-unfolded (`Ok` results exactly equal; an error if and
//!    only if the original errors).
//! 2. **Division edges**: `x/0`, `x%0`, `i64::MIN / -1`, `i64::MIN % -1`
//!    are *defined* (error or wrap, never a panic) and identical on
//!    every path, in guard context (condition false) and action context
//!    (surfaced `MatchError`) alike.
//! 3. **Forced mid-run tier-up**: on the sieve/cross-sum workloads, a
//!    session tiered up after its first wave (threshold 1) and a
//!    never-tiering one must both land on the workload's self-check
//!    final — and, on the sequential engines, replay the exact
//!    deterministic firing trace of the rescanning reference — across
//!    the full scheduler × engine × workers {1, 2, 8} matrix.

use gammaflow::gamma::expr::Expr;
use gammaflow::gamma::vm::{fold, Chunk};
use gammaflow::gamma::{
    Engine, GammaProgram, ParEngine, Scheduling, Selection, Session, Status, Tier,
};
use gammaflow::multiset::value::{BinOp, CmpOp, UnOp};
use gammaflow::multiset::{Element, ElementBag, FxHashMap, Symbol, Value};
use gammaflow::workloads::{cross_sum, divisor_sieve};
use proptest::prelude::*;

const VARS: [&str; 4] = ["a", "b", "c", "d"];

/// Deterministic splittable generator state (proptest supplies the seed;
/// the tree shape must not depend on recursion order staying fixed).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random expression over [`VARS`]. Literal pools deliberately include
/// `0` (division edges), negatives, `i64::MIN`, bools, and occasional
/// strings/floats so both the `i64` loop and the generic fallback run.
fn gen_expr(rng: &mut Lcg, depth: usize) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(8) {
            0 => Expr::var(VARS[rng.below(VARS.len() as u64) as usize]),
            1 => Expr::int(0),
            2 => Expr::int(rng.below(7) as i64 - 3),
            3 => Expr::int(i64::MIN),
            4 => Expr::bool(rng.below(2) == 0),
            5 => Expr::var(VARS[rng.below(VARS.len() as u64) as usize]),
            6 => Expr::str(if rng.below(2) == 0 { "s" } else { "t" }),
            _ => Expr::Lit(Value::float(rng.below(5) as f64 - 2.0)),
        };
    }
    let bins = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
    ];
    let cmps = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    match rng.below(5) {
        0 | 1 => {
            let op = bins[rng.below(bins.len() as u64) as usize];
            Expr::bin(op, gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))
        }
        2 | 3 => {
            let op = cmps[rng.below(cmps.len() as u64) as usize];
            Expr::cmp(op, gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))
        }
        _ => {
            let op = if rng.below(2) == 0 {
                UnOp::Neg
            } else {
                UnOp::Not
            };
            Expr::un(op, gen_expr(rng, depth - 1))
        }
    }
}

/// A random environment: each variable unbound or bound to an int, bool,
/// string, or float.
fn gen_env(rng: &mut Lcg) -> Vec<Option<Value>> {
    VARS.iter()
        .map(|_| match rng.below(8) {
            0 => None,
            1 => Some(Value::int(0)),
            2 => Some(Value::int(i64::MIN)),
            3 => Some(Value::bool(rng.below(2) == 0)),
            4 => Some(Value::str("s")),
            5 => Some(Value::float(1.5)),
            _ => Some(Value::int(rng.below(9) as i64 - 4)),
        })
        .collect()
}

fn var_index() -> FxHashMap<Symbol, u16> {
    VARS.iter()
        .enumerate()
        .map(|(i, n)| (Symbol::intern(n), i as u16))
        .collect()
}

fn env_map(slots: &[Option<Value>]) -> FxHashMap<Symbol, Value> {
    VARS.iter()
        .zip(slots)
        .filter_map(|(n, v)| v.clone().map(|v| (Symbol::intern(n), v)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// VM result == tree-walk result, exactly (values AND error
    /// payloads), at the baseline tier; the folded (optimised-tier)
    /// compile agrees on every `Ok` and errors iff the tree errors.
    #[test]
    fn prop_vm_matches_tree_walk(seed in 0u64..100_000, depth in 1usize..6) {
        let mut rng = Lcg(seed.wrapping_mul(2).wrapping_add(1));
        let e = gen_expr(&mut rng, depth);
        let slots = gen_env(&mut rng);
        let env = env_map(&slots);
        let index = var_index();

        let tree = e.eval(&env);
        let baseline = Chunk::compile(&e, &index);
        prop_assert_eq!(
            baseline.eval(&slots, &[]), tree.clone(),
            "baseline VM diverged on {}", e
        );

        // eval_bool must match too, including the non-truthy error.
        prop_assert_eq!(
            baseline.eval_bool(&slots, &[]), e.eval_bool(&env),
            "eval_bool diverged on {}", e
        );

        // Folded == unfolded: exact Ok equality; Err iff Err (the
        // not-negation rewrite may change which *payload* a type error
        // renders, never whether one occurs).
        let folded = fold(&e);
        let optimised = Chunk::compile(&folded, &index);
        match (tree, optimised.eval(&slots, &[])) {
            (Ok(v), got) => prop_assert_eq!(
                got.as_ref().ok(), Some(&v),
                "folded VM diverged on {} (folded: {})", e, folded
            ),
            (Err(_), got) => prop_assert!(
                got.is_err(),
                "folding lost an error on {} (folded: {})", e, folded
            ),
        }

        // Guard-context: every path agrees on whether the condition holds.
        let tree_guard = e.eval_bool(&env).unwrap_or(false);
        prop_assert_eq!(baseline.eval_guard(&slots, &[]), tree_guard);
        if e.eval(&env).is_ok() {
            prop_assert_eq!(optimised.eval_guard(&slots, &[]), tree_guard);
        }
    }

    /// The extras overlay (the Rete matcher's candidate-extension rule)
    /// behaves as if the overlaid slots were bound in the base.
    #[test]
    fn prop_extras_overlay_equals_merged_base(seed in 0u64..100_000, depth in 1usize..5) {
        let mut rng = Lcg(seed.wrapping_mul(2).wrapping_add(1));
        let e = gen_expr(&mut rng, depth);
        let slots = gen_env(&mut rng);
        let index = var_index();

        // Overlay up to three slots with fresh values.
        let mut extras: Vec<(u16, Value)> = Vec::new();
        let mut merged = slots.clone();
        for _ in 0..rng.below(4) {
            let i = rng.below(VARS.len() as u64) as u16;
            if extras.iter().any(|(j, _)| *j == i) {
                continue;
            }
            let v = Value::int(rng.below(11) as i64 - 5);
            merged[i as usize] = Some(v.clone());
            extras.push((i, v));
        }

        let chunk = Chunk::compile(&e, &index);
        prop_assert_eq!(
            chunk.eval(&slots, &extras),
            chunk.eval(&merged, &[]),
            "overlay diverged from merged base on {}", e
        );
    }
}

/// Division/modulo by zero and the `i64::MIN / -1` overflow edge are
/// defined, identical behaviour on the tree walk, the baseline VM, and
/// the folded VM: an evaluation error (never a panic) for `/0`/`%0`,
/// a wrap for `MIN / -1`.
#[test]
fn division_edges_are_defined_and_identical_everywhere() {
    let index = var_index();
    let cases = [
        Expr::bin(BinOp::Div, Expr::var("a"), Expr::int(0)),
        Expr::bin(BinOp::Rem, Expr::var("a"), Expr::int(0)),
        Expr::bin(BinOp::Div, Expr::int(1), Expr::int(0)),
        Expr::bin(BinOp::Rem, Expr::int(1), Expr::int(0)),
        Expr::bin(BinOp::Div, Expr::int(i64::MIN), Expr::int(-1)),
        Expr::bin(BinOp::Rem, Expr::int(i64::MIN), Expr::int(-1)),
        Expr::bin(BinOp::Div, Expr::var("a"), Expr::var("b")),
        Expr::bin(BinOp::Rem, Expr::var("a"), Expr::var("b")),
        // Guard shapes: the error must read as "condition false".
        Expr::cmp(
            CmpOp::Eq,
            Expr::bin(BinOp::Rem, Expr::var("a"), Expr::var("b")),
            Expr::int(0),
        ),
    ];
    let envs: Vec<Vec<Option<Value>>> = vec![
        vec![Some(Value::int(7)), Some(Value::int(0)), None, None],
        vec![Some(Value::int(i64::MIN)), Some(Value::int(-1)), None, None],
        vec![Some(Value::int(0)), Some(Value::int(0)), None, None],
        vec![Some(Value::int(12)), Some(Value::int(4)), None, None],
    ];
    for e in &cases {
        for slots in &envs {
            let env = env_map(slots);
            let tree = e.eval(&env);
            let baseline = Chunk::compile(e, &index);
            assert_eq!(baseline.eval(slots, &[]), tree, "baseline vs tree on {e}");
            let folded = Chunk::compile(&fold(e), &index);
            match &tree {
                Ok(v) => assert_eq!(folded.eval(slots, &[]).as_ref(), Ok(v), "folded on {e}"),
                Err(_) => assert!(folded.eval(slots, &[]).is_err(), "folded on {e}"),
            }
            // Guard context: defined false, all paths.
            let expect_guard = e.eval_bool(&env).unwrap_or(false);
            assert_eq!(baseline.eval_guard(slots, &[]), expect_guard, "guard {e}");
            assert_eq!(
                folded.eval_guard(slots, &[]),
                expect_guard,
                "guard folded {e}"
            );
        }
    }
}

/// Action-context division by zero surfaces through a full engine run
/// (never a panic) as exactly the error the [`Expr`] tree walk gives.
#[test]
fn action_division_by_zero_errors_match_expr_eval() {
    use gammaflow::gamma::{ElementSpec, ExecError, MatchError, Pattern, ReactionSpec};
    // `replace x by x / 0` — the action errors on the first firing.
    let program = GammaProgram::new(vec![ReactionSpec::new("bad")
        .replace(Pattern::pair("x", "n"))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Div, Expr::var("x"), Expr::int(0)),
            "m",
        )])]);
    let initial: ElementBag = [Element::pair(6, "n")].into_iter().collect();
    let mut session = Session::build(&program)
        .start(initial)
        .expect("program compiles");
    let err = session
        .run_to_stable()
        .expect_err("division by zero must surface, not panic");
    let env: FxHashMap<Symbol, Value> =
        [(Symbol::intern("x"), Value::Int(6))].into_iter().collect();
    let tree = Expr::bin(BinOp::Div, Expr::var("x"), Expr::int(0))
        .eval(&env)
        .expect_err("the tree walk errors too");
    let expected = ExecError::Match(MatchError::Action {
        reaction: "bad".to_string(),
        error: tree,
    });
    assert_eq!(format!("{err:?}"), format!("{expected:?}"));
}

/// Round-robin split of a bag into `k` injection waves.
fn split_waves(bag: &ElementBag, k: usize) -> Vec<Vec<Element>> {
    let mut waves: Vec<Vec<Element>> = vec![Vec::new(); k];
    for (i, e) in bag.sorted_elements().into_iter().enumerate() {
        waves[i % k].push(e);
    }
    waves
}

struct RunOutcome {
    multiset: ElementBag,
    trace: Option<Vec<gammaflow::gamma::FiringRecord>>,
    tier_ups: u64,
    any_optimized: bool,
}

/// Run `program` as a 3-wave session under the given engine/tiering
/// config, recording the deterministic trace on sequential engines.
fn run_waves(
    program: &GammaProgram,
    initial: &ElementBag,
    engine: Engine,
    scheduling: Scheduling,
    workers: usize,
    threshold: u64,
) -> RunOutcome {
    let seq = matches!(engine, Engine::Seq);
    let mut builder = Session::build(program)
        .engine(engine)
        .scheduling(scheduling)
        .workers(workers)
        .vm_tier_threshold(threshold);
    if seq {
        builder = builder
            .selection(Selection::Deterministic)
            .record_trace(true);
    }
    let mut session = builder.start(ElementBag::new()).expect("program compiles");
    for wave in split_waves(initial, 3) {
        assert!(session.inject(wave).is_accepted());
        let wv = session.run_to_stable().expect("wave runs");
        assert_eq!(wv.status, Status::Stable);
    }
    let tier_ups = session.vm_tier_ups();
    let any_optimized = session.vm_tiers().contains(&Tier::Optimized);
    let result = session.finish();
    RunOutcome {
        multiset: result.multiset,
        trace: result.trace,
        tier_ups,
        any_optimized,
    }
}

/// The tentpole acceptance property: a forced mid-run tier-up (threshold
/// 1, so every reaction re-compiles after the first wave) preserves
/// byte-identical finals and, on the deterministic sequential engines,
/// the exact firing trace — the never-tiering and the tiered run both
/// land on the workload's self-check and replay the rescanning
/// reference's trace — across scheduler × engine × workers {1, 2, 8}.
#[test]
fn forced_mid_run_tier_up_preserves_traces_and_finals() {
    for w in [divisor_sieve(80), cross_sum(48)] {
        let reference = run_waves(
            &w.program,
            &w.initial,
            Engine::Seq,
            Scheduling::Rescan,
            1,
            u64::MAX,
        );
        assert!(reference.trace.is_some(), "{}: no reference trace", w.name);
        let mut cells: Vec<(String, Engine, Scheduling, usize)> = Vec::new();
        for scheduling in [
            Scheduling::Rescan,
            Scheduling::Delta,
            Scheduling::Rete,
            Scheduling::Auto,
        ] {
            cells.push((format!("seq/{scheduling:?}"), Engine::Seq, scheduling, 1));
        }
        let engine = ParEngine::ShardedRete;
        for workers in [1usize, 2, 8] {
            cells.push((
                format!("parallel/{engine:?}/x{workers}"),
                Engine::Parallel(engine),
                Scheduling::Rete,
                workers,
            ));
        }
        for (cell, engine, scheduling, workers) in cells {
            let name = format!("{} {cell}", w.name);
            let run = |threshold| {
                run_waves(
                    &w.program, &w.initial, engine, scheduling, workers, threshold,
                )
            };
            let vm = run(u64::MAX);
            let tiered = run(1);

            // The tier-up genuinely happened mid-run (after wave 1 of 3).
            assert!(tiered.tier_ups > 0, "{name}: no tier-up at threshold 1");
            assert!(tiered.any_optimized, "{name}: no reaction optimised");
            assert_eq!(vm.tier_ups, 0, "{name}: threshold MAX must never tier");

            // Byte-identical finals at every tier, equal to the
            // workload's self-check.
            assert_eq!(vm.multiset, w.expected, "{name}: VM final wrong");
            assert_eq!(tiered.multiset, w.expected, "{name}: tiered final wrong");

            // Deterministic trace equality with the rescanning reference
            // on the sequential engines.
            if matches!(engine, Engine::Seq) {
                assert_eq!(vm.trace, reference.trace, "{name}: VM trace diverged");
                assert_eq!(
                    tiered.trace, reference.trace,
                    "{name}: tiered trace diverged"
                );
            }
        }
    }
}

/// Tier-up re-sorts each level's conjunct dispatch order by observed
/// rejects (most-rejecting conjunct first). A guard whose program-order-first conjunct never rejects stops
/// paying for it once the reaction tiers: the almost-always-rejecting
/// second conjunct short-circuits first, so wave-2 `guard_evals` drop
/// strictly below the never-tiering baseline — while `guard_rejects`,
/// the finals, and every wave-1 counter stay identical (rejection is a
/// property of the whole conjunction, not of the dispatch order).
#[test]
fn tier_up_reorders_guard_dispatch_by_observed_rejects() {
    use gammaflow::gamma::{ElementSpec, Pattern, ReactionSpec};

    let spec = ReactionSpec::new("pick")
        .replace(Pattern::pair("x", "n"))
        .where_(Expr::and(
            // Always true on this input: pure dispatch overhead.
            Expr::cmp(CmpOp::Ge, Expr::var("x"), Expr::int(0)),
            // Rejects 252 of every 256 candidates.
            Expr::cmp(
                CmpOp::Eq,
                Expr::bin(BinOp::Rem, Expr::var("x"), Expr::int(64)),
                Expr::int(0),
            ),
        ))
        .by(vec![ElementSpec::pair(Expr::var("x"), "m")]);
    let program = GammaProgram::new(vec![spec]);
    let wave1: Vec<Element> = (0i64..256).map(|v| Element::pair(v, "n")).collect();
    let wave2: Vec<Element> = (1000i64..1256).map(|v| Element::pair(v, "n")).collect();

    let counters = |session: &Session| -> Vec<(u64, u64)> {
        session
            .profile()
            .rows
            .iter()
            .map(|r| (r.guard_evals, r.guard_rejects))
            .collect()
    };
    let run = |threshold: u64| {
        let mut session = Session::build(&program)
            .scheduling(Scheduling::Rete)
            .selection(Selection::Deterministic)
            .vm_tier_threshold(threshold)
            .start(ElementBag::new())
            .expect("program compiles");
        assert!(session.inject(wave1.clone()).is_accepted());
        session.run_to_stable().expect("wave 1 runs");
        let mid = counters(&session);
        assert!(session.inject(wave2.clone()).is_accepted());
        session.run_to_stable().expect("wave 2 runs");
        let end = counters(&session);
        let tier_ups = session.vm_tier_ups();
        (mid, end, tier_ups, session.finish().multiset)
    };

    let (base_mid, base_end, base_tiers, base_final) = run(u64::MAX);
    let (tier_mid, tier_end, tier_ups, tier_final) = run(1);

    assert_eq!(base_tiers, 0, "threshold MAX must never tier");
    assert!(tier_ups > 0, "threshold 1 must tier after wave 1");
    assert_eq!(base_final, tier_final, "reorder changed the finals");

    // Wave 1 runs at the identity (program) order in both sessions.
    assert_eq!(base_mid, tier_mid, "pre-tier counters diverged");

    // Rejection counts are order-independent: moving the short-circuit
    // point never changes which candidates the conjunction rejects.
    let rejects = |v: &[(u64, u64)]| v.iter().map(|&(_, r)| r).sum::<u64>();
    assert_eq!(
        rejects(&base_end),
        rejects(&tier_end),
        "reorder changed a guard decision"
    );

    // ...but the re-sorted order rejects at the first conjunct, so the
    // tiered session evaluates strictly fewer conjuncts on wave 2.
    let evals = |v: &[(u64, u64)]| v.iter().map(|&(e, _)| e).sum::<u64>();
    assert!(
        evals(&tier_end) < evals(&base_end),
        "tiered wave-2 dispatch did not get cheaper: tiered={} baseline={}",
        evals(&tier_end),
        evals(&base_end)
    );
}
