//! Compiled region kernel: symbolic paths lowered to flat interval
//! tapes.
//!
//! The interval trace semantics (§6.3) evaluates four independent
//! recursive walks over the `Arc<SymVal>` trees of a path for **every**
//! grid cell: the ∃- and ∀-passes over the constraints `Δ`, the score
//! product `Π Ξ`, and the result range `V`. Each walk allocates a
//! `Vec<Interval>` per `Prim` node and re-derives shared subterms from
//! scratch. This module lowers a [`SymPath`] **once per query** into a
//! flat SSA *interval tape* and then evaluates the tape per cell with
//! zero allocations, fusing the four walks into one pass:
//!
//! * **Hash-consed CSE** — structurally identical subterms across the
//!   result, every score factor and every constraint share one tape
//!   slot (evaluation is pure, so sharing cannot change a single bit);
//! * **Constant pre-folding** — sample-free subterms are folded at
//!   lowering time with the *same* `PrimOp::eval_interval` call the
//!   tree walker would make per cell, into preloaded constant slots;
//! * **Constraint short-circuiting** — the ∃-tests run in one static
//!   order, narrowest constraint range over the unit cube first, and
//!   the evaluator bails at the first ∃-test that proves the cell
//!   definitely outside; the ∀-pass reuses the registers computed for
//!   the ∃-pass instead of re-walking the trees;
//! * **Lane-blocked evaluation** — [`Tape::eval_block`] runs the tape
//!   structure-of-arrays over up to [`LANES`] cells at once (separate
//!   contiguous `lo`/`hi` slices per register), so the straight-line
//!   arithmetic instructions autovectorize. It is the only evaluator:
//!   a single cell runs as a one-lane block ([`Tape::eval_one`]).
//!
//! # The tree-walk form
//!
//! [`Tape::tree_walk`] builds a tape without compiling anything: its
//! [`Tape::eval_block`] reads each lane's box from the same
//! [`TapeScratch`] and fills the same per-lane outputs from the four
//! walks (`SymPath::constraints_on_box`, `SymPath::weight_range_over_box`
//! and `SymVal::range_over_box`). It is the reference the compiled form
//! is tested against, and what `PathBoundOptions::use_kernel = false`
//! runs, through the very same sweep code. It is not a kernel:
//! [`kernel_stats`] counts neither its construction nor its cells.
//!
//! # Bit-identity with the tree walks
//!
//! Every reported bound is **bit-identical** to the tree walks': each
//! tape instruction computes exactly `PrimOp::eval_interval` of its
//! operand slots (the SoA fast paths replicate the corresponding
//! `Interval` operators literally, NaN repair and `0 · ∞ = 0`
//! convention included), CSE only shares values a pure recomputation
//! would reproduce, constant folding evaluates the same calls at compile
//! time that the walker makes per cell, and the short-circuit order
//! changes *which* work is skipped for excluded cells, never a value
//! that is reported. `tests/kernel_differential.rs` enforces this on
//! random trees and boxes, down to the bits.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gubpi_analysis::ProgramFacts;
use gubpi_interval::{BoxN, Interval};
use gubpi_lang::PrimOp;

use crate::path::{CmpDir, SymPath};
use crate::symval::SymVal;

/// Ignored: a tape is a function of its path alone. The type (and the
/// `_seed` parameters that take it) remains only because the benchmark
/// harness under `perfbench/` still names it; it goes when that harness
/// calls the analyzer directly.
#[derive(Clone, Debug, Default)]
pub struct KernelSeed;

impl KernelSeed {
    /// The (empty) seed of a program; `facts` is not read.
    pub fn from_facts(_facts: &ProgramFacts) -> KernelSeed {
        KernelSeed
    }
}

/// Number of cells evaluated per [`Tape::eval_block`] lane block.
pub const LANES: usize = 16;

// The scheduler floors region-chunk widths at whole lane blocks
// (`gubpi_pool::chunk_width`); the contract is compile-time checked.
const _: () = assert!(LANES == gubpi_pool::LANE_GRAIN);

/// A slot in the tape's register file during compilation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum Slot {
    /// Per-cell input `d` (a sample dimension, or a skeleton part).
    Input(u32),
    /// Pre-folded constant `consts[j]`.
    Const(u32),
    /// Output of op node `k` (index into the builder's node list).
    Node(u32),
}

/// One hash-consed primitive-application node.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
struct Node {
    op: PrimOp,
    args: [Slot; 3],
    n_args: u8,
}

/// One executable tape instruction (SSA: `dst` is written exactly once).
#[derive(Copy, Clone, Debug)]
struct Instr {
    op: PrimOp,
    dst: u32,
    args: [u32; 3],
    n_args: u8,
}

/// One constraint test: evaluate registers up to `after` instructions,
/// then test the sign of register `reg`.
#[derive(Copy, Clone, Debug)]
struct Check {
    reg: u32,
    /// `true` for `V ≤ 0`, `false` for `V > 0` (see [`CmpDir`]).
    le_zero: bool,
    /// Instructions that must have executed before the ∃-test.
    after: u32,
}

/// An interval tape for one [`SymPath`] (or one value): compiled, or
/// the path's tree-walk form ([`Tape::tree_walk`]).
///
/// Register layout: `[0, n_inputs)` are the per-cell inputs,
/// `[n_inputs, n_inputs + consts)` are pre-folded constants (loaded once
/// per scratch), and each instruction writes the next register. The
/// tree-walk form has the input registers only.
pub struct Tape {
    n_inputs: usize,
    n_regs: usize,
    consts: Vec<Interval>,
    instrs: Vec<Instr>,
    checks: Vec<Check>,
    scores: Vec<u32>,
    result: u32,
    /// Primitive-application nodes in the source trees *before* CSE
    /// (duplicates counted) — the baseline for the CSE-savings stat.
    tree_nodes: usize,
    /// The tree-walk form's path, whose four walks replace the
    /// instructions (`None` for a compiled tape).
    walk: Option<SymPath>,
}

/// The fused per-cell outputs of a tape evaluation.
#[derive(Copy, Clone, Debug)]
pub struct CellBounds {
    /// Range of the result value `V` over the cell.
    pub value: Interval,
    /// Score product `Π Ξ` over the cell (clamped non-negative).
    pub weight: Interval,
    /// Do all constraints hold *definitely* (the ∀ of `⟦Ψ⟧_lb`)?
    pub definite: bool,
}

/// Reusable evaluation scratch: the structure-of-arrays lane slabs.
/// Allocate once per worker/chunk via [`Tape::scratch`]; every
/// evaluation is then allocation-free.
pub struct TapeScratch {
    lo: Vec<f64>,
    hi: Vec<f64>,
    alive: [bool; LANES],
    definite: [bool; LANES],
    value: [Interval; LANES],
    weight: [Interval; LANES],
}

impl TapeScratch {
    /// Writes input dimension `d` of lane `lane` (batched evaluation).
    #[inline]
    pub fn set_input(&mut self, d: usize, lane: usize, iv: Interval) {
        self.lo[d * LANES + lane] = iv.lo();
        self.hi[d * LANES + lane] = iv.hi();
    }

    /// The fused outputs of lane `lane` after [`Tape::eval_block`], or
    /// `None` when the lane's cell is definitely outside the constraints.
    #[inline]
    pub fn lane(&self, lane: usize) -> Option<CellBounds> {
        if !self.alive[lane] {
            return None;
        }
        Some(CellBounds {
            value: self.value[lane],
            weight: self.weight[lane],
            definite: self.definite[lane],
        })
    }
}

// --------------------------------------------------------------------
// Compilation
// --------------------------------------------------------------------

struct Builder {
    n_inputs: usize,
    consts: Vec<Interval>,
    const_ids: HashMap<(u64, u64), u32>,
    nodes: Vec<Node>,
    node_ids: HashMap<Node, u32>,
    /// `Arc` pointer memo: shared subterms (the values are DAGs) intern
    /// in O(1) instead of re-walking the whole shared subtree.
    ptr_memo: HashMap<*const SymVal, Slot>,
}

impl Builder {
    fn new(n_inputs: usize) -> Builder {
        Builder {
            n_inputs,
            consts: Vec::new(),
            const_ids: HashMap::new(),
            nodes: Vec::new(),
            node_ids: HashMap::new(),
            ptr_memo: HashMap::new(),
        }
    }

    fn const_slot(&mut self, iv: Interval) -> Slot {
        let key = (iv.lo().to_bits(), iv.hi().to_bits());
        if let Some(&j) = self.const_ids.get(&key) {
            return Slot::Const(j);
        }
        let j = self.consts.len() as u32;
        self.consts.push(iv);
        self.const_ids.insert(key, j);
        Slot::Const(j)
    }

    fn intern(&mut self, v: &Arc<SymVal>) -> Slot {
        let ptr: *const SymVal = Arc::as_ptr(v);
        if let Some(&slot) = self.ptr_memo.get(&ptr) {
            return slot;
        }
        let slot = match &**v {
            SymVal::Const(c) => self.const_slot(Interval::point(*c)),
            SymVal::Interval(i) => self.const_slot(*i),
            SymVal::Sample(i) => {
                assert!(
                    *i < self.n_inputs,
                    "sample index {i} outside the {}-dimensional input space",
                    self.n_inputs
                );
                Slot::Input(*i as u32)
            }
            SymVal::Prim(op, args) => {
                let mut slots = [Slot::Const(0); 3];
                let mut const_args = [Interval::ZERO; 3];
                let mut all_const = true;
                for (j, a) in args.iter().enumerate() {
                    let s = self.intern(a);
                    slots[j] = s;
                    match s {
                        Slot::Const(k) => const_args[j] = self.consts[k as usize],
                        _ => all_const = false,
                    }
                }
                if all_const {
                    // Pre-fold with the exact call the tree walker makes
                    // per cell, so folded slots hold bit-identical values.
                    let folded = op.eval_interval(&const_args[..args.len()]);
                    self.const_slot(folded)
                } else {
                    let node = Node {
                        op: *op,
                        args: slots,
                        n_args: args.len() as u8,
                    };
                    if let Some(&k) = self.node_ids.get(&node) {
                        Slot::Node(k)
                    } else {
                        let k = self.nodes.len() as u32;
                        self.nodes.push(node);
                        self.node_ids.insert(node, k);
                        Slot::Node(k)
                    }
                }
            }
        };
        self.ptr_memo.insert(ptr, slot);
        slot
    }

    /// Emits (post-order, args left to right) every unemitted node
    /// reachable from `slot` into `order`.
    fn emit(&self, slot: Slot, emitted: &mut [bool], order: &mut Vec<u32>) {
        let Slot::Node(k) = slot else { return };
        if emitted[k as usize] {
            return;
        }
        let node = self.nodes[k as usize];
        for j in 0..node.n_args as usize {
            self.emit(node.args[j], emitted, order);
        }
        emitted[k as usize] = true;
        order.push(k);
    }
}

/// Op applications of one walk over the constraints, and of one walk
/// over the scores plus the result (`SymVal::prim_op_count` counts a
/// shared `Arc` once per occurrence, exactly like the walker).
fn walk_ops(path: &SymPath) -> (u64, u64) {
    let constraints = path
        .constraints
        .iter()
        .map(|c| c.value.prim_op_count())
        .sum();
    let scores: u64 = path.scores.iter().map(|v| v.prim_op_count()).sum();
    (constraints, scores + path.result.prim_op_count())
}

/// Compiles a path into a tape (shared by [`Tape::for_path`] and,
/// through [`SymPath::of_value`], [`Tape::for_value`]).
///
/// The ∃-tests run narrowest constraint first, by the width of the
/// constraint's range over the unit cube (`SymVal::crude_range`): a
/// narrow guard decides a cell cheaply and early. ∞ and NaN widths
/// (unbounded guards) sort last via `total_cmp`; the stable sort keeps
/// the path's order as the deterministic tiebreak. The order changes
/// which work is *skipped* for excluded cells, never a reported value.
fn compile(path: &SymPath) -> Tape {
    let mut b = Builder::new(path.n_samples);
    // Pre-CSE baseline: the op applications a per-cell tree walk
    // performs.
    let (constraint_ops, other_ops) = walk_ops(path);
    let constraint_slots: Vec<(Slot, CmpDir)> = path
        .constraints
        .iter()
        .map(|c| (b.intern(&c.value), c.dir))
        .collect();
    let score_slots: Vec<Slot> = path.scores.iter().map(|v| b.intern(v)).collect();
    let result_slot = b.intern(&path.result);

    let widths: Vec<f64> = path
        .constraints
        .iter()
        .map(|c| {
            let r = c.value.crude_range(path.n_samples);
            let w = r.hi() - r.lo();
            if w.is_nan() {
                f64::INFINITY
            } else {
                w
            }
        })
        .collect();
    let mut sched: Vec<usize> = (0..widths.len()).collect();
    sched.sort_by(|&i, &j| widths[i].total_cmp(&widths[j]));

    let n_nodes = b.nodes.len();
    let mut emitted = vec![false; n_nodes];
    let mut order: Vec<u32> = Vec::with_capacity(n_nodes);
    let picks: Vec<(usize, u32)> = sched
        .into_iter()
        .map(|i| {
            b.emit(constraint_slots[i].0, &mut emitted, &mut order);
            (i, order.len() as u32)
        })
        .collect();
    for &slot in &score_slots {
        b.emit(slot, &mut emitted, &mut order);
    }
    b.emit(result_slot, &mut emitted, &mut order);

    // Final register numbering: inputs, consts, then instruction
    // outputs in emission order.
    let n_inputs = b.n_inputs;
    let n_consts = b.consts.len();
    let mut node_reg = vec![u32::MAX; n_nodes];
    for (pos, &k) in order.iter().enumerate() {
        node_reg[k as usize] = (n_inputs + n_consts + pos) as u32;
    }
    let reg = |slot: Slot| -> u32 {
        match slot {
            Slot::Input(i) => i,
            Slot::Const(j) => n_inputs as u32 + j,
            Slot::Node(k) => node_reg[k as usize],
        }
    };
    let instrs: Vec<Instr> = order
        .iter()
        .map(|&k| {
            let node = b.nodes[k as usize];
            let mut args = [0u32; 3];
            for (a, &slot) in args.iter_mut().zip(&node.args[..node.n_args as usize]) {
                *a = reg(slot);
            }
            Instr {
                op: node.op,
                dst: node_reg[k as usize],
                args,
                n_args: node.n_args,
            }
        })
        .collect();
    let checks: Vec<Check> = picks
        .iter()
        .map(|&(i, after)| {
            let (slot, dir) = constraint_slots[i];
            Check {
                reg: reg(slot),
                le_zero: dir == CmpDir::LeZero,
                after,
            }
        })
        .collect();
    let tape = Tape {
        n_inputs,
        n_regs: n_inputs + n_consts + instrs.len(),
        consts: b.consts,
        instrs,
        checks,
        scores: score_slots.iter().map(|&s| reg(s)).collect(),
        result: reg(result_slot),
        tree_nodes: (constraint_ops + other_ops) as usize,
        walk: None,
    };
    STATS.tapes.fetch_add(1, Ordering::Relaxed);
    STATS
        .instrs
        .fetch_add(tape.instrs.len() as u64, Ordering::Relaxed);
    STATS
        .tree_nodes
        .fetch_add(tape.tree_nodes as u64, Ordering::Relaxed);
    tape
}

impl Tape {
    /// Lowers a whole path: constraints (with checkpoints), scores and
    /// result share one hash-consed register file.
    pub fn for_path(path: &SymPath) -> Tape {
        compile(path)
    }

    /// [`Tape::for_path`]; `_seed` is ignored (see [`KernelSeed`]).
    pub fn for_path_seeded(path: &SymPath, _seed: Option<&KernelSeed>) -> Tape {
        Tape::for_path(path)
    }

    /// Lowers a single value over an `n_inputs`-dimensional input space
    /// (used for the linear semantics' score-decomposition skeletons,
    /// whose `Sample(k)` leaves index the decomposition parts).
    pub fn for_value(n_inputs: usize, v: &Arc<SymVal>) -> Tape {
        Tape::for_path(&SymPath::of_value(n_inputs, v.clone()))
    }

    /// The tree-walk form of [`Tape::for_path`] (see the module docs):
    /// nothing is compiled, and [`Tape::eval_block`] runs the four walks
    /// on each lane's box. Its bounds are the compiled form's, bit for
    /// bit. A value's form is `Tape::tree_walk(&SymPath::of_value(n, v))`.
    pub fn tree_walk(path: &SymPath) -> Tape {
        let (constraint_ops, other_ops) = walk_ops(path);
        Tape {
            n_inputs: path.n_samples,
            n_regs: path.n_samples,
            consts: Vec::new(),
            instrs: Vec::new(),
            checks: Vec::new(),
            scores: Vec::new(),
            result: 0,
            tree_nodes: (constraint_ops + other_ops) as usize,
            walk: Some(path.clone()),
        }
    }

    /// Number of per-cell inputs (sample dimensions / skeleton parts).
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of executable instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Is the tape free of executable instructions (fully pre-folded, or
    /// the tree-walk form)?
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Primitive-application nodes in the source trees before CSE — the
    /// work a per-cell tree walk performs; `len()` is what remains after
    /// hash-consing and constant pre-folding.
    pub fn tree_nodes(&self) -> usize {
        self.tree_nodes
    }

    /// Deterministic per-region cost estimate (used to seed the
    /// scheduler's adaptive chunk width). Compiled: instructions plus
    /// the fixed per-cell work (input loads, checks, score product,
    /// emission). Tree walk: the op applications of the ∃- and ∀-passes
    /// over the constraints, one weight walk and one result walk.
    pub fn cost(&self) -> u64 {
        match &self.walk {
            Some(path) => {
                let (constraint_ops, other_ops) = walk_ops(path);
                2 * constraint_ops + other_ops + 1
            }
            None => {
                (self.instrs.len() + self.checks.len() + self.scores.len() + self.n_inputs + 1)
                    as u64
            }
        }
    }

    /// Records `n` cells evaluated through this tape in [`kernel_stats`]
    /// (called once per claimed chunk by the plan builders, not per
    /// cell). The tree-walk form is not a kernel and records nothing.
    pub fn note_cells(&self, n: u64) {
        if self.walk.is_none() {
            STATS.cells.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Allocates an evaluation scratch (constants preloaded into every
    /// lane).
    pub fn scratch(&self) -> TapeScratch {
        let mut lo = vec![0.0; self.n_regs * LANES];
        let mut hi = vec![0.0; self.n_regs * LANES];
        for (j, c) in self.consts.iter().enumerate() {
            let r = (self.n_inputs + j) * LANES;
            lo[r..r + LANES].fill(c.lo());
            hi[r..r + LANES].fill(c.hi());
        }
        TapeScratch {
            lo,
            hi,
            alive: [false; LANES],
            definite: [false; LANES],
            value: [Interval::ZERO; LANES],
            weight: [Interval::ZERO; LANES],
        }
    }

    /// The ∃-test of one check (`definitely = false` in
    /// `SymConstraint::holds_on`).
    #[inline]
    fn possibly(check: &Check, range: Interval) -> bool {
        if check.le_zero {
            range.lo() <= 0.0
        } else {
            range.hi() > 0.0
        }
    }

    /// The ∀-test of one check (`definitely = true`).
    #[inline]
    fn definitely(check: &Check, range: Interval) -> bool {
        if check.le_zero {
            range.hi() <= 0.0
        } else {
            range.lo() > 0.0
        }
    }

    /// Evaluates one cell (`dims.len() == n_inputs`) as lane 0 of a
    /// one-lane [`Tape::eval_block`]. Returns `None` when the cell is
    /// definitely outside the constraints, otherwise the result range,
    /// the score product and the ∀-verdict. A value tape has no checks,
    /// so it always returns `Some`, with the range in `value`.
    pub fn eval_one(&self, dims: &[Interval], s: &mut TapeScratch) -> Option<CellBounds> {
        debug_assert_eq!(dims.len(), self.n_inputs);
        for (d, &iv) in dims.iter().enumerate() {
            s.set_input(d, 0, iv);
        }
        if self.eval_block(s, 1) {
            s.lane(0)
        } else {
            None
        }
    }

    /// Lane-blocked evaluation of up to [`LANES`] cells at once,
    /// structure-of-arrays. Fill the inputs with
    /// [`TapeScratch::set_input`] first; read the per-lane outcomes with
    /// [`TapeScratch::lane`] afterwards. Returns `false` when every lane
    /// failed an ∃-test (nothing to read). Lanes that fail a check stay
    /// in the block (masked) but their downstream values are never
    /// reported, so batching cannot change a bit of any output.
    /// Re-entrant over a reused scratch: every input register and
    /// instruction output is rewritten per block and constants are
    /// preloaded into all lanes, so blocks of any size, round after
    /// round, cannot leak state into each other.
    pub fn eval_block(&self, s: &mut TapeScratch, lanes: usize) -> bool {
        debug_assert!(lanes <= LANES && lanes > 0);
        for l in 0..LANES {
            s.alive[l] = l < lanes;
        }
        if let Some(path) = &self.walk {
            return Tape::walk_block(path, s, lanes);
        }
        let mut pc = 0usize;
        for check in &self.checks {
            while pc < check.after as usize {
                self.exec_lanes(&self.instrs[pc], s, lanes);
                pc += 1;
            }
            let base = check.reg as usize * LANES;
            let mut any = false;
            for l in 0..lanes {
                if s.alive[l] {
                    let range = Interval::new(s.lo[base + l], s.hi[base + l]);
                    s.alive[l] = Tape::possibly(check, range);
                    any |= s.alive[l];
                }
            }
            if !any {
                return false;
            }
        }
        while pc < self.instrs.len() {
            self.exec_lanes(&self.instrs[pc], s, lanes);
            pc += 1;
        }
        for l in 0..lanes {
            if !s.alive[l] {
                continue;
            }
            let at = |reg: u32| {
                Interval::new(
                    s.lo[reg as usize * LANES + l],
                    s.hi[reg as usize * LANES + l],
                )
            };
            s.definite[l] = self.checks.iter().all(|c| Tape::definitely(c, at(c.reg)));
            let mut weight = Interval::ONE;
            for &sc in &self.scores {
                weight = weight * at(sc).clamp_non_neg();
            }
            s.weight[l] = weight;
            s.value[l] = at(self.result);
        }
        true
    }

    /// [`Tape::eval_block`] of the tree-walk form: the four walks on each
    /// lane's box.
    fn walk_block(path: &SymPath, s: &mut TapeScratch, lanes: usize) -> bool {
        let mut any = false;
        for l in 0..lanes {
            let cell: BoxN = (0..path.n_samples)
                .map(|d| Interval::new(s.lo[d * LANES + l], s.hi[d * LANES + l]))
                .collect();
            s.alive[l] = path.constraints_on_box(&cell, false);
            if s.alive[l] {
                s.definite[l] = path.constraints_on_box(&cell, true);
                s.weight[l] = path.weight_range_over_box(&cell);
                s.value[l] = path.result.range_over_box(&cell);
                any = true;
            }
        }
        any
    }

    /// Executes one instruction across all lanes. The cheap arithmetic
    /// ops replicate the corresponding `Interval` operators **exactly**
    /// (same candidate order, same NaN repair, same `0 · ∞ = 0`
    /// convention) as straight-line lane loops the compiler can
    /// vectorize; everything else gathers each lane into `Interval`s and
    /// calls `PrimOp::eval_interval`, exactly as the tree walk does.
    fn exec_lanes(&self, ins: &Instr, s: &mut TapeScratch, lanes: usize) {
        /// Extended-real product with `0 · ±∞ = 0` (mirrors
        /// `gubpi_interval`'s internal `mul_ext`).
        #[inline]
        fn mul_ext(a: f64, b: f64) -> f64 {
            if a == 0.0 || b == 0.0 {
                0.0
            } else {
                a * b
            }
        }
        let d = ins.dst as usize * LANES;
        let a = ins.args[0] as usize * LANES;
        match ins.op {
            PrimOp::Add => {
                let b = ins.args[1] as usize * LANES;
                for l in 0..lanes {
                    let lo = s.lo[a + l] + s.lo[b + l];
                    let hi = s.hi[a + l] + s.hi[b + l];
                    s.lo[d + l] = if lo.is_nan() { f64::NEG_INFINITY } else { lo };
                    s.hi[d + l] = if hi.is_nan() { f64::INFINITY } else { hi };
                }
            }
            PrimOp::Sub => {
                // `a − b = a + (−b)`, exactly as `Interval::sub`.
                let b = ins.args[1] as usize * LANES;
                for l in 0..lanes {
                    let lo = s.lo[a + l] + -s.hi[b + l];
                    let hi = s.hi[a + l] + -s.lo[b + l];
                    s.lo[d + l] = if lo.is_nan() { f64::NEG_INFINITY } else { lo };
                    s.hi[d + l] = if hi.is_nan() { f64::INFINITY } else { hi };
                }
            }
            PrimOp::Neg => {
                for l in 0..lanes {
                    let (lo, hi) = (-s.hi[a + l], -s.lo[a + l]);
                    s.lo[d + l] = lo;
                    s.hi[d + l] = hi;
                }
            }
            PrimOp::Mul => {
                let b = ins.args[1] as usize * LANES;
                for l in 0..lanes {
                    let cands = [
                        mul_ext(s.lo[a + l], s.lo[b + l]),
                        mul_ext(s.lo[a + l], s.hi[b + l]),
                        mul_ext(s.hi[a + l], s.lo[b + l]),
                        mul_ext(s.hi[a + l], s.hi[b + l]),
                    ];
                    let mut lo = cands[0];
                    let mut hi = cands[0];
                    for &c in &cands[1..] {
                        if c < lo {
                            lo = c;
                        }
                        if c > hi {
                            hi = c;
                        }
                    }
                    s.lo[d + l] = lo;
                    s.hi[d + l] = hi;
                }
            }
            PrimOp::Min => {
                let b = ins.args[1] as usize * LANES;
                for l in 0..lanes {
                    s.lo[d + l] = s.lo[a + l].min(s.lo[b + l]);
                    s.hi[d + l] = s.hi[a + l].min(s.hi[b + l]);
                }
            }
            PrimOp::Max => {
                let b = ins.args[1] as usize * LANES;
                for l in 0..lanes {
                    s.lo[d + l] = s.lo[a + l].max(s.lo[b + l]);
                    s.hi[d + l] = s.hi[a + l].max(s.hi[b + l]);
                }
            }
            PrimOp::Abs => {
                for l in 0..lanes {
                    let (lo, hi) = (s.lo[a + l], s.hi[a + l]);
                    let (lo, hi) = if lo >= 0.0 {
                        (lo, hi)
                    } else if hi <= 0.0 {
                        (-hi, -lo)
                    } else {
                        (0.0, hi.max(-lo))
                    };
                    s.lo[d + l] = lo;
                    s.hi[d + l] = hi;
                }
            }
            _ => {
                let mut args = [Interval::ZERO; 3];
                for l in 0..lanes {
                    for (arg, &src) in args.iter_mut().zip(&ins.args[..ins.n_args as usize]) {
                        let o = src as usize * LANES;
                        *arg = Interval::new(s.lo[o + l], s.hi[o + l]);
                    }
                    let r = ins.op.eval_interval(&args[..ins.n_args as usize]);
                    s.lo[d + l] = r.lo();
                    s.hi[d + l] = r.hi();
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// Global observability
// --------------------------------------------------------------------

struct StatCells {
    tapes: AtomicU64,
    instrs: AtomicU64,
    tree_nodes: AtomicU64,
    cells: AtomicU64,
}

static STATS: StatCells = StatCells {
    tapes: AtomicU64::new(0),
    instrs: AtomicU64::new(0),
    tree_nodes: AtomicU64::new(0),
    cells: AtomicU64::new(0),
};

/// Monotone process-wide kernel counters (`repro --stats` reports them).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Tapes compiled over the process lifetime.
    pub tapes: u64,
    /// Executable instructions across all compiled tapes.
    pub tape_instrs: u64,
    /// Primitive-application nodes in the source trees before CSE and
    /// constant pre-folding (duplicates counted) — `tree_nodes −
    /// tape_instrs` is the per-cell work hash-consing removed.
    pub tree_nodes: u64,
    /// Region cells evaluated through compiled tapes.
    pub cells: u64,
}

/// Snapshot of the process-wide kernel counters.
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        tapes: STATS.tapes.load(Ordering::Relaxed),
        tape_instrs: STATS.instrs.load(Ordering::Relaxed),
        tree_nodes: STATS.tree_nodes.load(Ordering::Relaxed),
        cells: STATS.cells.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::SymConstraint;
    use gubpi_interval::BoxN;

    fn s(i: usize) -> Arc<SymVal> {
        Arc::new(SymVal::Sample(i))
    }
    fn c(x: f64) -> Arc<SymVal> {
        Arc::new(SymVal::Const(x))
    }

    fn demo_path() -> SymPath {
        // result: 3·α₀ + α₁; constraint: α₀ − 0.5 ≤ 0, α₀·α₁ > 0;
        // scores: pdf_normal(1.1, 0.1, α₀ + α₁), α₀ + α₁ (shared CSE).
        let sum = SymVal::prim(PrimOp::Add, vec![s(0), s(1)]);
        SymPath {
            result: SymVal::prim(
                PrimOp::Add,
                vec![SymVal::prim(PrimOp::Mul, vec![c(3.0), s(0)]), s(1)],
            ),
            n_samples: 2,
            constraints: vec![
                SymConstraint {
                    value: SymVal::prim(PrimOp::Sub, vec![s(0), c(0.5)]),
                    dir: CmpDir::LeZero,
                },
                SymConstraint {
                    value: SymVal::prim(PrimOp::Mul, vec![s(0), s(1)]),
                    dir: CmpDir::GtZero,
                },
            ],
            scores: vec![
                SymVal::prim(PrimOp::NormalPdf, vec![c(1.1), c(0.1), sum.clone()]),
                sum,
            ],
            truncated: false,
            budget_truncated: false,
            tail: None,
        }
    }

    /// Reference semantics: the four independent tree walks.
    fn reference(path: &SymPath, cell: &BoxN) -> Option<CellBounds> {
        if !path.constraints_on_box(cell, false) {
            return None;
        }
        Some(CellBounds {
            value: path.result.range_over_box(cell),
            weight: path.weight_range_over_box(cell),
            definite: path.constraints_on_box(cell, true),
        })
    }

    fn assert_same(a: Option<CellBounds>, b: Option<CellBounds>, ctx: &str) {
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.value.lo().to_bits(), y.value.lo().to_bits(), "{ctx}");
                assert_eq!(x.value.hi().to_bits(), y.value.hi().to_bits(), "{ctx}");
                assert_eq!(x.weight.lo().to_bits(), y.weight.lo().to_bits(), "{ctx}");
                assert_eq!(x.weight.hi().to_bits(), y.weight.hi().to_bits(), "{ctx}");
                assert_eq!(x.definite, y.definite, "{ctx}");
            }
            (x, y) => panic!("{ctx}: tape {x:?} vs tree {y:?}"),
        }
    }

    #[test]
    fn fused_eval_matches_the_four_tree_walks() {
        let path = demo_path();
        let tape = Tape::for_path(&path);
        let mut scratch = tape.scratch();
        for (alo, ahi, blo, bhi) in [
            (0.0, 0.25, 0.5, 0.75),
            (0.0, 1.0, 0.0, 1.0),
            (0.75, 1.0, 0.0, 0.25),
            (0.5, 0.5, 0.25, 0.25),
            (0.0, 0.0, 0.0, 1.0),
        ] {
            let dims = [Interval::new(alo, ahi), Interval::new(blo, bhi)];
            let cell = BoxN::new(dims.to_vec());
            assert_same(
                tape.eval_one(&dims, &mut scratch),
                reference(&path, &cell),
                &format!("cell {cell:?}"),
            );
        }
    }

    #[test]
    fn cse_shares_the_repeated_sum() {
        let path = demo_path();
        let tape = Tape::for_path(&path);
        // α₀ + α₁ appears in both scores but compiles once; the tape is
        // strictly shorter than the pre-CSE node count.
        assert!(tape.len() < tape.tree_nodes(), "{}", tape.len());
        // Exactly the six unique op applications survive: the result's
        // Mul + Add, the two constraint roots, and the shared α₀ + α₁
        // plus the pdf (constant pdf parameters fold into const slots).
        assert_eq!(tape.len(), 6, "tape: {} instrs", tape.len());
    }

    #[test]
    fn constant_subterms_prefold() {
        // (2 + 3) · α₀ — built without the smart constructor so the
        // constant addition survives to the compiler.
        let v = Arc::new(SymVal::Prim(
            PrimOp::Mul,
            vec![
                Arc::new(SymVal::Prim(PrimOp::Add, vec![c(2.0), c(3.0)])),
                s(0),
            ],
        ));
        let tape = Tape::for_value(1, &v);
        assert_eq!(tape.len(), 1, "only the multiply remains");
        let mut scratch = tape.scratch();
        let b = Interval::new(0.25, 0.5);
        let got = tape.eval_one(&[b], &mut scratch).expect("no checks").value;
        let want = v.range_over_box(&BoxN::new(vec![b]));
        assert_eq!(got.lo().to_bits(), want.lo().to_bits());
        assert_eq!(got.hi().to_bits(), want.hi().to_bits());
    }

    #[test]
    fn narrowest_constraint_is_checked_first() {
        // Constraint 0 is one subtract whose range over [0, 1] is 1 wide;
        // constraint 1 is a pdf minus 0.3, dearer but only ≈ 0.16 wide.
        // The schedule tests the narrow one first, through either entry.
        let path = SymPath {
            result: s(0),
            n_samples: 1,
            constraints: vec![
                SymConstraint {
                    value: SymVal::prim(PrimOp::Sub, vec![s(0), c(0.5)]),
                    dir: CmpDir::LeZero,
                },
                SymConstraint {
                    value: SymVal::prim(
                        PrimOp::Sub,
                        vec![
                            SymVal::prim(PrimOp::NormalPdf, vec![c(0.0), c(1.0), s(0)]),
                            c(0.3),
                        ],
                    ),
                    dir: CmpDir::GtZero,
                },
            ],
            scores: vec![],
            truncated: false,
            budget_truncated: false,
            tail: None,
        };
        let seed = seed_of("0.5 + sample");
        for tape in [
            Tape::for_path(&path),
            Tape::for_path_seeded(&path, Some(&seed)),
        ] {
            assert_eq!(tape.checks.len(), 2);
            // The pdf check (the only `> 0` one) runs first, right after
            // its two instructions.
            assert!(!tape.checks[0].le_zero, "{:?}", tape.checks);
            assert_eq!(tape.checks[0].after, 2, "{:?}", tape.checks);
            assert_eq!(tape.checks[1].after, 3, "{:?}", tape.checks);
            // Still agrees with the tree walks, on a straddling cell and
            // on one the subtract excludes.
            let mut scratch = tape.scratch();
            for cell in [Interval::new(0.0, 1.0), Interval::new(0.6, 1.0)] {
                assert_same(
                    tape.eval_one(&[cell], &mut scratch),
                    reference(&path, &BoxN::new(vec![cell])),
                    "narrowest-first schedule",
                );
            }
        }
    }

    #[test]
    fn block_eval_matches_scalar_eval_lane_by_lane() {
        // Each lane of a full block equals the same cell evaluated
        // alone as a one-lane block: lanes never leak into each other.
        let path = demo_path();
        let tape = Tape::for_path(&path);
        let mut single = tape.scratch();
        let mut block = tape.scratch();
        // 20 cells: more than one lane block, mixed in/out cells.
        let cells: Vec<[Interval; 2]> = (0..20)
            .map(|i| {
                let x = i as f64 / 20.0;
                [Interval::new(x, x + 0.05), Interval::new(1.0 - x, 1.0)]
            })
            .collect();
        for chunk in cells.chunks(LANES) {
            for (lane, dims) in chunk.iter().enumerate() {
                block.set_input(0, lane, dims[0]);
                block.set_input(1, lane, dims[1]);
            }
            let any = tape.eval_block(&mut block, chunk.len());
            for (lane, dims) in chunk.iter().enumerate() {
                let want = tape.eval_one(dims, &mut single);
                let got = if any { block.lane(lane) } else { None };
                assert_same(got, want, &format!("lane {lane}"));
            }
        }
    }

    #[test]
    fn min_max_abs_lanes_match_value_eval_on_signed_inputs() {
        // demo_path never exercises Min/Max/Abs; build a value tape
        // that does, over inputs straddling zero so every Abs case and
        // NaN-free Min/Max corner fires, and compare each lane with the
        // tree walk's `Interval` operators.
        let v = SymVal::prim(
            PrimOp::Min,
            vec![
                SymVal::prim(PrimOp::Abs, vec![s(0)]),
                SymVal::prim(
                    PrimOp::Max,
                    vec![s(1), SymVal::prim(PrimOp::Neg, vec![s(0)])],
                ),
            ],
        );
        let tape = Tape::for_value(2, &v);
        let mut block = tape.scratch();
        let spans = [
            Interval::new(-2.0, -1.0),
            Interval::new(-1.0, 1.0),
            Interval::new(0.0, 3.0),
            Interval::new(f64::NEG_INFINITY, 0.5),
        ];
        let mut inputs = Vec::new();
        for &a in &spans {
            for &b in &spans {
                block.set_input(0, inputs.len(), a);
                block.set_input(1, inputs.len(), b);
                inputs.push([a, b]);
            }
        }
        assert_eq!(inputs.len(), LANES);
        assert!(tape.eval_block(&mut block, LANES));
        for (l, dims) in inputs.iter().enumerate() {
            let want = v.range_over_box(&BoxN::new(dims.to_vec()));
            let got = block.lane(l).expect("a value tape has no checks").value;
            assert_eq!(got.lo().to_bits(), want.lo().to_bits(), "lane {l}");
            assert_eq!(got.hi().to_bits(), want.hi().to_bits(), "lane {l}");
        }
    }

    #[test]
    fn eval_block_is_reentrant_across_irregular_batches() {
        let path = demo_path();
        let tape = Tape::for_path(&path);
        let mut scratch = tape.scratch();
        let mut single = tape.scratch();
        // Batch sizes that are not lane multiples, in partial blocks on
        // one reused scratch, like the adaptive refiner's rounds.
        for batch in [1usize, 7, LANES, LANES + 3, 2 * LANES + 1] {
            let cells: Vec<[Interval; 2]> = (0..batch)
                .map(|i| {
                    let x = i as f64 / batch as f64;
                    [
                        Interval::new(x / 2.0, x / 2.0 + 0.3),
                        Interval::new(0.2, 0.2 + x / 2.0),
                    ]
                })
                .collect();
            for (b, block) in cells.chunks(LANES).enumerate() {
                for (l, dims) in block.iter().enumerate() {
                    for (d, &iv) in dims.iter().enumerate() {
                        scratch.set_input(d, l, iv);
                    }
                }
                let any = tape.eval_block(&mut scratch, block.len());
                for (l, dims) in block.iter().enumerate() {
                    let got = if any { scratch.lane(l) } else { None };
                    let want = tape.eval_one(dims, &mut single);
                    assert_same(got, want, &format!("batch {batch} block {b} lane {l}"));
                }
            }
        }
    }

    #[test]
    fn sampleless_tapes_evaluate_on_the_empty_box() {
        let path = SymPath {
            result: c(2.0),
            n_samples: 0,
            constraints: vec![SymConstraint {
                value: SymVal::prim(PrimOp::Sub, vec![c(0.25), c(0.5)]),
                dir: CmpDir::LeZero,
            }],
            scores: vec![c(0.25)],
            truncated: false,
            budget_truncated: false,
            tail: None,
        };
        let tape = Tape::for_path(&path);
        assert!(tape.is_empty(), "everything pre-folds");
        let got = tape.eval_one(&[], &mut tape.scratch()).expect("inside");
        assert_eq!(got.value, Interval::point(2.0));
        assert_eq!(got.weight, Interval::point(0.25));
        assert!(got.definite);
    }

    /// The kernel seed of the program `src`.
    fn seed_of(src: &str) -> KernelSeed {
        let (_, _, facts) = compiled(src);
        KernelSeed::from_facts(&facts)
    }

    fn compiled(
        src: &str,
    ) -> (
        gubpi_lang::Program,
        gubpi_types::IntervalTyping,
        ProgramFacts,
    ) {
        let p = gubpi_lang::parse(src).unwrap();
        let simple = gubpi_lang::infer(&p).unwrap();
        let typing = gubpi_types::infer_interval_types(&p, &simple);
        let facts = ProgramFacts::compute(&p, &typing);
        (p, typing, facts)
    }

    #[test]
    fn seeded_compile_is_bit_identical_to_unseeded() {
        let seed = seed_of("observe (sample + sample) from normal(1.1, 0.1); 0.5");
        let path = demo_path();
        let plain = Tape::for_path(&path);
        let seeded = Tape::for_path_seeded(&path, Some(&seed));
        assert_eq!(plain.len(), seeded.len(), "same instructions survive");
        let mut s_plain = plain.scratch();
        let mut s_seeded = seeded.scratch();
        for (alo, ahi, blo, bhi) in [
            (0.0, 0.25, 0.5, 0.75),
            (0.0, 1.0, 0.0, 1.0),
            (0.75, 1.0, 0.0, 0.25),
            (0.5, 0.5, 0.25, 0.25),
        ] {
            let dims = [Interval::new(alo, ahi), Interval::new(blo, bhi)];
            assert_same(
                seeded.eval_one(&dims, &mut s_seeded),
                plain.eval_one(&dims, &mut s_plain),
                &format!("seeded vs plain on {dims:?}"),
            );
        }
    }

    #[test]
    fn a_tape_holds_only_its_own_constants() {
        // Eleven distinct literals, most of them on the else-side only.
        let src = "let a = 1.5 * sample + 2.25 in \
                   observe a from normal(3.5, 0.75); \
                   if sample <= 0.125 then a + 4 \
                   else (a - 6.5) * 0.375 + 7.125 * (a / 9.25)";
        let (p, typing, facts) = compiled(src);
        let paths = crate::symbolic_paths(&p, &typing, crate::SymExecOptions::default());
        assert_eq!(paths.len(), 2, "one path per side of the `if`");
        let seed = KernelSeed::from_facts(&facts);
        for path in &paths {
            let plain = Tape::for_path(path);
            let seeded = Tape::for_path_seeded(path, Some(&seed));
            let bits = |t: &Tape| -> Vec<(u64, u64)> {
                t.consts
                    .iter()
                    .map(|c| (c.lo().to_bits(), c.hi().to_bits()))
                    .collect()
            };
            assert_eq!(bits(&seeded), bits(&plain), "constant tables differ");
            assert_eq!(seeded.n_regs, plain.n_regs);
        }
        // The then-side mentions none of the else-side's four literals.
        let then_side = Tape::for_path(&paths[0]);
        for x in [6.5, 0.375, 7.125, 9.25] {
            assert!(
                !then_side.consts.contains(&Interval::point(x)),
                "{x} is not on the then-side path"
            );
        }
    }

    #[test]
    fn kernel_stats_accumulate() {
        let before = kernel_stats();
        let tape = Tape::for_path(&demo_path());
        tape.note_cells(42);
        let after = kernel_stats();
        // The counters are process-global and other tests compile tapes
        // concurrently, so only lower bounds on the deltas are stable.
        assert!(after.tapes > before.tapes);
        assert!(after.tape_instrs >= before.tape_instrs + tape.len() as u64);
        assert!(after.tree_nodes > before.tree_nodes);
        assert!(after.cells >= before.cells + 42);
        assert!(tape.cost() > 0);
    }
}
