//! Compiled pattern-parallel evaluation: instruction tapes, reusable
//! packed evaluators, and fault-cone incremental faulty simulation.
//!
//! # Why
//!
//! Every PROTEST stage — exact enumeration, Monte Carlo estimation and
//! validating fault simulation — funnels through packed network
//! evaluation. The original path interpreted a [`Bexpr`] AST per gate per
//! batch, cloning each gate's logic function on every visit and
//! allocating a fresh value vector per call. This module lowers the
//! network **once**, at [`crate::NetworkBuilder::finish`] time, into a
//! flat instruction tape that a tight word-parallel loop executes with no
//! AST traversal, no cloning and no per-call allocation.
//!
//! # Tape format
//!
//! The tape is a struct-of-arrays program (`opcode`, operand slots `a`,
//! `b`, destination `dst`) over a flat array of *value slots*:
//!
//! * slot `i` for `i < net_count` holds the value of net `i` (so the
//!   result array doubles as the all-nets evaluation the estimators
//!   need);
//! * slots `net_count..` form a scratch region shared by all gates for
//!   intermediate sub-expression values. Sharing is safe because each
//!   gate's tape slice writes a scratch slot before reading it, so every
//!   slice is independently replayable.
//!
//! Gate tapes are concatenated in topological order; `gate_slice[p]`
//! records the half-open instruction range of the gate at topological
//! position `p`. Each slot holds `width` consecutive `u64` words, so one
//! pass evaluates `width × 64` patterns (64 for the common `width = 1`).
//!
//! # Fault cones
//!
//! For serial-fault simulation the faulty machine differs from the good
//! machine only in the transitive fanout cone of the fault site, and
//! within that cone only where a difference actually propagates. At build
//! time this module records each net's *readers* (the gates that read it,
//! as words of a bitset over topological positions) and precomputes, for
//! every gate and every net, the static cone and the primary outputs it
//! reaches.
//!
//! [`PackedEvaluator::fault_diff64`] replays a fault event-driven: it
//! injects the fault at its site, then re-evaluates, in topological
//! order, only the gates marked pending because one of their inputs
//! differs from the good machine. A gate whose output comes out equal
//! marks nothing; one whose output differs in some lane is recorded as
//! touched and marks its readers. A gate whose inputs all equal the good
//! machine computes the good value, so skipping it cannot change a
//! result. Restoring copies back only the touched slots, and the
//! per-fault cost is `O(active cone)` — the gates a difference reaches —
//! bounded by the static cone.

use crate::network::{GateInstance, GateRef, NetId, Network, NetworkFault};
use dynmos_logic::{Bexpr, VarId};

/// Opcodes of the compiled tape. All operate on packed `u64` lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `dst = 0`
    Const0,
    /// `dst = !0`
    Const1,
    /// `dst = a`
    Copy,
    /// `dst = !a`
    Not,
    /// `dst = a & b`
    And,
    /// `dst = a | b`
    Or,
}

/// Struct-of-arrays instruction tape.
#[derive(Debug, Clone, Default)]
struct Tape {
    op: Vec<Op>,
    a: Vec<u32>,
    b: Vec<u32>,
    dst: Vec<u32>,
}

impl Tape {
    fn len(&self) -> u32 {
        self.op.len() as u32
    }

    fn push(&mut self, op: Op, a: u32, b: u32, dst: u32) {
        self.op.push(op);
        self.a.push(a);
        self.b.push(b);
        self.dst.push(dst);
    }

    /// Executes instructions `range` over `values`, each slot `width`
    /// words wide.
    fn execute(&self, range: std::ops::Range<usize>, values: &mut [u64], width: usize) {
        if width == 1 {
            // Zipped iteration lets the tape arrays stream without bounds
            // checks; only the slot accesses stay checked.
            let iter = self.op[range.clone()]
                .iter()
                .zip(&self.a[range.clone()])
                .zip(&self.b[range.clone()])
                .zip(&self.dst[range]);
            for (((&op, &a), &b), &d) in iter {
                let (a, b, d) = (a as usize, b as usize, d as usize);
                values[d] = match op {
                    Op::Const0 => 0,
                    Op::Const1 => !0,
                    Op::Copy => values[a],
                    Op::Not => !values[a],
                    Op::And => values[a] & values[b],
                    Op::Or => values[a] | values[b],
                };
            }
            return;
        }
        for i in range {
            let (a, b, d) = (
                self.a[i] as usize * width,
                self.b[i] as usize * width,
                self.dst[i] as usize * width,
            );
            match self.op[i] {
                Op::Const0 => values[d..d + width].fill(0),
                Op::Const1 => values[d..d + width].fill(!0),
                Op::Copy => {
                    for w in 0..width {
                        values[d + w] = values[a + w];
                    }
                }
                Op::Not => {
                    for w in 0..width {
                        values[d + w] = !values[a + w];
                    }
                }
                Op::And => {
                    for w in 0..width {
                        values[d + w] = values[a + w] & values[b + w];
                    }
                }
                Op::Or => {
                    for w in 0..width {
                        values[d + w] = values[a + w] | values[b + w];
                    }
                }
            }
        }
    }
}

/// Lowers `expr` onto `tape`, writing the final value to slot `dst`.
///
/// `input_slot` maps the expression's variables to value slots. Scratch
/// slots are allocated from `scratch` upward; returns the high-water
/// scratch mark.
fn lower_into(
    tape: &mut Tape,
    expr: &Bexpr,
    input_slot: &dyn Fn(VarId) -> u32,
    dst: u32,
    scratch: u32,
) -> u32 {
    match expr {
        Bexpr::Const(false) => {
            tape.push(Op::Const0, 0, 0, dst);
            scratch
        }
        Bexpr::Const(true) => {
            tape.push(Op::Const1, 0, 0, dst);
            scratch
        }
        Bexpr::Var(v) => {
            tape.push(Op::Copy, input_slot(*v), 0, dst);
            scratch
        }
        Bexpr::Not(inner) => {
            let (slot, high) = lower_operand(tape, inner, input_slot, scratch);
            tape.push(Op::Not, slot, 0, dst);
            high
        }
        Bexpr::And(terms) | Bexpr::Or(terms) => {
            let op = if matches!(expr, Bexpr::And(_)) {
                Op::And
            } else {
                Op::Or
            };
            // The n-ary constructors flatten below two terms, but a
            // hand-built expression may still carry the degenerate forms.
            match terms.len() {
                0 => {
                    let identity = if op == Op::And {
                        Op::Const1
                    } else {
                        Op::Const0
                    };
                    tape.push(identity, 0, 0, dst);
                    return scratch;
                }
                1 => return lower_into(tape, &terms[0], input_slot, dst, scratch),
                _ => {}
            }
            let mut high = scratch;
            // Left-fold the chain. The accumulator lives in slot
            // `scratch`; each operand slot is dead once folded, so it is
            // reused across iterations — scratch usage is bounded by
            // expression *depth*, not operand count. The first operand
            // may itself occupy `scratch + 1`, so only the first fold
            // step lowers its right-hand side one slot higher.
            let (first, h) = lower_operand(tape, &terms[0], input_slot, scratch + 1);
            high = high.max(h);
            let mut acc = first;
            for (k, term) in terms[1..].iter().enumerate() {
                let last = k == terms.len() - 2;
                let rhs_base = if k == 0 { scratch + 2 } else { scratch + 1 };
                let (rhs, h) = lower_operand(tape, term, input_slot, rhs_base);
                high = high.max(h);
                let target = if last { dst } else { scratch };
                tape.push(op, acc, rhs, target);
                acc = target;
            }
            high
        }
    }
}

/// Lowers `expr` as an operand: variables are referenced in place, other
/// shapes evaluate into a fresh scratch slot. Returns `(slot, high)`.
fn lower_operand(
    tape: &mut Tape,
    expr: &Bexpr,
    input_slot: &dyn Fn(VarId) -> u32,
    scratch: u32,
) -> (u32, u32) {
    match expr {
        Bexpr::Var(v) => (input_slot(*v), scratch),
        _ => {
            let high = lower_into(tape, expr, input_slot, scratch, scratch + 1);
            (scratch, high)
        }
    }
}

/// The compiled form of a [`Network`], built once at
/// [`crate::NetworkBuilder::finish`] time.
#[derive(Debug, Clone)]
pub struct CompiledNetwork {
    net_count: u32,
    /// Total slots: nets plus the shared scratch region.
    slot_count: u32,
    tape: Tape,
    /// Instruction range per topological position.
    gate_slice: Vec<(u32, u32)>,
    /// Output net slot per topological position.
    gate_output: Vec<u32>,
    /// Readers of each net as a CSR pair over the pending bitset: the
    /// gates reading net `n` are the set bits of the `(block, mask)`
    /// words `reader_words[reader_start[n]..reader_start[n + 1]]`, one
    /// word per 64 topological positions, blocks ascending.
    reader_start: Vec<u32>,
    reader_words: Vec<(u32, u64)>,
    /// Per gate index: topological positions of the transitive fanout
    /// cone, **including the gate itself**, ascending.
    gate_cone: Vec<Box<[u32]>>,
    /// Per gate index: primary-output indices reachable from the cone.
    gate_cone_pos: Vec<Box<[u32]>>,
    /// Per net: topological positions of the reader cone (gates that read
    /// the net, transitively; excludes the net's driver), ascending.
    net_cone: Vec<Box<[u32]>>,
    /// Per net: primary-output indices affected when the net is forced.
    net_cone_pos: Vec<Box<[u32]>>,
    /// Primary-output net slots in declaration order.
    po_slots: Vec<u32>,
    /// Primary-input net slots in declaration order.
    pi_slots: Vec<u32>,
}

/// Word-level dense bitset over gate topological positions.
fn bitset_blocks(n: usize) -> usize {
    n.div_ceil(64)
}

// Thread-safety audit: the parallel fault simulator
// (`dynmos_protest::parallel`) shares `&Network` and `&PreparedFault`
// across scoped threads, each worker owning its own `PackedEvaluator`.
// That is sound because a finished network and its compiled form are
// immutable owned data with no interior mutability. These assertions turn
// an accidental `Rc`/`RefCell`/raw-pointer regression into a compile
// error instead of a data race.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Network>();
    assert_send_sync::<CompiledNetwork>();
    assert_send_sync::<PreparedFault<'static>>();
};

impl CompiledNetwork {
    /// Compiles the network parts. Called by the network builder; the
    /// fields mirror [`Network`]'s internals.
    pub(crate) fn build(
        cells: &[crate::cell::Cell],
        gates: &[GateInstance],
        net_count: usize,
        topo: &[GateRef],
        primary_inputs: &[NetId],
        primary_outputs: &[NetId],
    ) -> Self {
        let mut tape = Tape::default();
        let mut gate_slice = Vec::with_capacity(topo.len());
        let mut gate_output = Vec::with_capacity(topo.len());
        let mut max_scratch = 0u32;
        let scratch_base = net_count as u32;
        for &g in topo {
            let inst = &gates[g.index()];
            let function = cells[inst.cell].logic_function();
            let start = tape.len();
            let inputs = &inst.inputs;
            let high = lower_into(
                &mut tape,
                &function,
                &|v: VarId| inputs[v.index()].index() as u32,
                inst.output.index() as u32,
                scratch_base,
            );
            max_scratch = max_scratch.max(high - scratch_base);
            gate_slice.push((start, tape.len()));
            gate_output.push(inst.output.index() as u32);
        }

        // Transitive fanout cones over a dense bitset, in reverse
        // topological order: cone(g) = {g} ∪ ⋃ cone(readers of g's out).
        let n_gates = topo.len();
        let blocks = bitset_blocks(n_gates);
        // Readers of each net, as ascending topological positions (a gate
        // reading a net twice is listed once).
        let mut readers: Vec<Vec<u32>> = vec![Vec::new(); net_count];
        for (pos, &g) in topo.iter().enumerate() {
            for &input in &gates[g.index()].inputs {
                let list = &mut readers[input.index()];
                if list.last() != Some(&(pos as u32)) {
                    list.push(pos as u32);
                }
            }
        }
        let mut cone_bits = vec![0u64; n_gates * blocks];
        for pos in (0..n_gates).rev() {
            let out = gates[topo[pos].index()].output.index();
            // Split so the union source blocks can be borrowed while the
            // target row is written.
            for &r in &readers[out] {
                let (lo, hi) = cone_bits.split_at_mut(r as usize * blocks);
                let src = &hi[..blocks];
                let row = &mut lo[pos * blocks..pos * blocks + blocks];
                for (d, s) in row.iter_mut().zip(src) {
                    *d |= s;
                }
            }
            cone_bits[pos * blocks + pos / 64] |= 1u64 << (pos % 64);
        }
        let positions_of = |bits: &[u64]| -> Box<[u32]> {
            let mut out = Vec::new();
            for (bi, &word) in bits.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let tz = w.trailing_zeros();
                    out.push(bi as u32 * 64 + tz);
                    w &= w - 1;
                }
            }
            out.into_boxed_slice()
        };
        let po_index_of_net = |net: usize| -> Option<u32> {
            primary_outputs
                .iter()
                .position(|po| po.index() == net)
                .map(|i| i as u32)
        };
        let pos_of_cone = |cone: &[u32], extra_net: Option<usize>| -> Box<[u32]> {
            let mut pos: Vec<u32> = Vec::new();
            if let Some(net) = extra_net {
                if let Some(i) = po_index_of_net(net) {
                    pos.push(i);
                }
            }
            for &p in cone {
                let out = gates[topo[p as usize].index()].output.index();
                if let Some(i) = po_index_of_net(out) {
                    pos.push(i);
                }
            }
            pos.sort_unstable();
            pos.dedup();
            pos.into_boxed_slice()
        };

        let mut gate_cone = vec![Box::<[u32]>::default(); gates.len()];
        let mut gate_cone_pos = vec![Box::<[u32]>::default(); gates.len()];
        for (pos, &g) in topo.iter().enumerate() {
            let cone = positions_of(&cone_bits[pos * blocks..(pos + 1) * blocks]);
            gate_cone_pos[g.index()] = pos_of_cone(&cone, None);
            gate_cone[g.index()] = cone;
        }
        let mut net_cone = Vec::with_capacity(net_count);
        let mut net_cone_pos = Vec::with_capacity(net_count);
        let mut scratch_bits = vec![0u64; blocks];
        for (net, net_readers) in readers.iter().enumerate() {
            scratch_bits.fill(0);
            for &r in net_readers {
                let src = &cone_bits[r as usize * blocks..(r as usize + 1) * blocks];
                for (d, s) in scratch_bits.iter_mut().zip(src) {
                    *d |= s;
                }
            }
            let cone = positions_of(&scratch_bits);
            net_cone_pos.push(pos_of_cone(&cone, Some(net)));
            net_cone.push(cone);
        }
        let mut reader_start = Vec::with_capacity(net_count + 1);
        let mut reader_words: Vec<(u32, u64)> = Vec::new();
        for list in &readers {
            reader_start.push(reader_words.len() as u32);
            let first = reader_words.len();
            for &p in list {
                let (block, bit) = (p / 64, 1u64 << (p % 64));
                match reader_words[first..].last_mut() {
                    Some((b, mask)) if *b == block => *mask |= bit,
                    _ => reader_words.push((block, bit)),
                }
            }
        }
        reader_start.push(reader_words.len() as u32);

        Self {
            net_count: net_count as u32,
            slot_count: net_count as u32 + max_scratch,
            tape,
            gate_slice,
            gate_output,
            reader_start,
            reader_words,
            gate_cone,
            gate_cone_pos,
            net_cone,
            net_cone_pos,
            po_slots: primary_outputs.iter().map(|n| n.index() as u32).collect(),
            pi_slots: primary_inputs.iter().map(|n| n.index() as u32).collect(),
        }
    }

    /// The gates reading net slot `net`, as `(block, mask)` words of the
    /// pending bitset, blocks ascending.
    fn readers(&self, net: usize) -> &[(u32, u64)] {
        &self.reader_words[self.reader_start[net] as usize..self.reader_start[net + 1] as usize]
    }

    /// Number of tape instructions (a size metric for benches and tests).
    pub fn instruction_count(&self) -> usize {
        self.tape.op.len()
    }

    /// Number of value slots an evaluator allocates per lane word.
    pub fn slot_count(&self) -> usize {
        self.slot_count as usize
    }

    /// The topological positions of gate `g`'s transitive fanout cone
    /// (including `g` itself).
    pub fn fanout_cone(&self, g: GateRef) -> &[u32] {
        &self.gate_cone[g.index()]
    }

    /// Primary-output indices reachable from gate `g`.
    pub fn reachable_outputs(&self, g: GateRef) -> &[u32] {
        &self.gate_cone_pos[g.index()]
    }

    /// Binds `fault` to its precomputed cone and, for gate-function
    /// faults, lowers the faulty function to a private tape. Prepare once
    /// per fault, evaluate per batch.
    ///
    /// # Panics
    ///
    /// Panics if a gate-function fault references a variable beyond its
    /// gate's input count (the same misuse the interpreter rejects).
    pub fn prepare<'n>(&'n self, net: &'n Network, fault: &NetworkFault) -> PreparedFault<'n> {
        match fault {
            NetworkFault::NetStuck(n, v) => PreparedFault {
                kind: PreparedKind::Stuck {
                    slot: n.index() as u32,
                    value: *v,
                },
                cone: &self.net_cone[n.index()],
                outputs: &self.net_cone_pos[n.index()],
            },
            NetworkFault::GateFunction(g, f) => {
                let inst = &net.gates()[g.index()];
                let arity = inst.inputs.len();
                if let Some(max) = f.support().last() {
                    assert!(
                        max.index() < arity,
                        "faulty function references input {max} beyond arity {arity}"
                    );
                }
                let mut tape = Tape::default();
                let inputs = &inst.inputs;
                let high = lower_into(
                    &mut tape,
                    f,
                    &|v: VarId| inputs[v.index()].index() as u32,
                    inst.output.index() as u32,
                    self.net_count,
                );
                PreparedFault {
                    kind: PreparedKind::GateFn {
                        out: inst.output.index() as u32,
                        tape,
                        slots_needed: high,
                    },
                    cone: &self.gate_cone[g.index()],
                    outputs: &self.gate_cone_pos[g.index()],
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum PreparedKind {
    /// Force a net slot to a constant and replay its reader cone.
    Stuck { slot: u32, value: bool },
    /// Evaluate the gate driving slot `out` with a private tape.
    GateFn {
        out: u32,
        tape: Tape,
        /// Exclusive slot high-water mark of the private tape (may
        /// exceed the network's shared scratch region).
        slots_needed: u32,
    },
}

/// A fault bound to its fanout cone and (for gate-function faults) a
/// compiled faulty tape. Create with [`Network::prepare_fault`] once per
/// fault; reuse across batches.
#[derive(Debug, Clone)]
pub struct PreparedFault<'n> {
    kind: PreparedKind,
    cone: &'n [u32],
    outputs: &'n [u32],
}

impl PreparedFault<'_> {
    /// Number of gates in this fault's static cone: an upper bound on the
    /// gates one replay re-evaluates (see
    /// [`PackedEvaluator::gates_replayed`]).
    pub fn cone_size(&self) -> usize {
        self.cone.len()
    }

    /// Primary-output indices this fault can disturb. An empty slice
    /// proves the fault undetectable.
    pub fn observable_outputs(&self) -> &[u32] {
        self.outputs
    }

    /// The topological positions (ascending indices into
    /// [`Network::topo_order`]) of the gates in this fault's static cone —
    /// every gate a difference at the fault site can reach, and the cone
    /// a symbolic engine must rebuild with the fault injected.
    pub fn cone_positions(&self) -> &[u32] {
        self.cone
    }
}

/// A reusable packed evaluator over a compiled network.
///
/// Holds the good-machine and faulty-machine value buffers so the
/// per-call allocations of the interpretive path disappear. One
/// evaluator serves one batch shape (`width × 64` patterns); callers
/// evaluate the good machine once per batch and then diff any number of
/// prepared faults against it incrementally.
///
/// # Example
///
/// ```
/// use dynmos_netlist::generate::c17_dynamic_nmos;
/// use dynmos_netlist::{PackedEvaluator, NetworkFault};
///
/// let net = c17_dynamic_nmos();
/// let fault = NetworkFault::NetStuck(net.primary_inputs()[0], true);
/// let prepared = net.prepare_fault(&fault);
/// let mut ev = PackedEvaluator::new(&net);
/// ev.eval(&[1, 2, 3, 4, 5]);
/// // Lanes where any primary output differs from the good machine:
/// let differ = ev.fault_diff64(&prepared);
/// assert_eq!(
///     differ,
///     {
///         let good = net.eval_packed(&[1, 2, 3, 4, 5]);
///         let bad = net.eval_packed_faulty(&[1, 2, 3, 4, 5], Some(&fault));
///         good.iter().zip(&bad).fold(0, |acc, (g, b)| acc | (g ^ b))
///     }
/// );
/// ```
#[derive(Debug)]
pub struct PackedEvaluator<'n> {
    net: &'n Network,
    width: usize,
    /// Good-machine slot values, slot-major (`slot * width + w`).
    good: Vec<u64>,
    /// Faulty-machine buffer. While `synced`, its net slots equal `good`
    /// everywhere outside `touched`.
    faulty: Vec<u64>,
    /// Whether `faulty` holds the current batch (see above).
    synced: bool,
    /// Net slots where the last replay's faulty machine differs from the
    /// good one; copied back at the start of the next replay.
    touched: Vec<u32>,
    /// Gates awaiting replay: a bitset over topological positions, empty
    /// between calls.
    pending: Vec<u64>,
    /// Gates evaluated by fault replays since construction.
    gates_replayed: u64,
}

impl<'n> PackedEvaluator<'n> {
    /// An evaluator with one word per slot (64 patterns per pass).
    pub fn new(net: &'n Network) -> Self {
        Self::with_width(net, 1)
    }

    /// An evaluator with `width` words per slot (`width × 64` patterns
    /// per pass).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn with_width(net: &'n Network, width: usize) -> Self {
        assert!(width > 0, "need at least one lane word");
        let c = net.compiled();
        let slots = c.slot_count() * width;
        Self {
            net,
            width,
            good: vec![0; slots],
            faulty: vec![0; slots],
            synced: false,
            touched: Vec::new(),
            pending: vec![0; bitset_blocks(c.gate_output.len())],
            gates_replayed: 0,
        }
    }

    /// Words per slot.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The number of gates fault replays have evaluated since this
    /// evaluator was built, the faulty gate itself included. Each replay
    /// evaluates only the gates a difference from the good machine
    /// reaches, so it adds at most [`PreparedFault::cone_size`], and 0
    /// for a stuck-at fault its site already satisfies in every lane.
    pub fn gates_replayed(&self) -> u64 {
        self.gates_replayed
    }

    /// Evaluates the good machine on one batch. `pi_words` is
    /// input-major: `width` consecutive words per primary input, in
    /// declaration order. Returns the net values (`net_count × width`
    /// words, slot-major).
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len() != primary_inputs × width`.
    pub fn eval(&mut self, pi_words: &[u64]) -> &[u64] {
        let c = self.net.compiled();
        assert_eq!(
            pi_words.len(),
            c.pi_slots.len() * self.width,
            "need {} packed words per primary input",
            self.width
        );
        for (i, &slot) in c.pi_slots.iter().enumerate() {
            let d = slot as usize * self.width;
            self.good[d..d + self.width]
                .copy_from_slice(&pi_words[i * self.width..(i + 1) * self.width]);
        }
        self.synced = false;
        c.tape
            .execute(0..c.tape.op.len(), &mut self.good, self.width);
        &self.good[..c.net_count as usize * self.width]
    }

    /// The net values of the last [`Self::eval`] call.
    pub fn net_values(&self) -> &[u64] {
        &self.good[..self.net.compiled().net_count as usize * self.width]
    }

    /// The packed good-machine value of primary output `po_index`, lane
    /// word `w`.
    pub fn po_word(&self, po_index: usize, w: usize) -> u64 {
        let c = self.net.compiled();
        self.good[c.po_slots[po_index] as usize * self.width + w]
    }

    /// Restores `faulty`'s net slots to `good`: only the touched slots
    /// while the batch is unchanged, all of them after a new batch.
    fn restore(&mut self) {
        let width = self.width;
        if self.synced {
            for &slot in &self.touched {
                let d = slot as usize * width;
                self.faulty[d..d + width].copy_from_slice(&self.good[d..d + width]);
            }
        } else {
            let nets = self.net.compiled().net_count as usize * width;
            self.faulty[..nets].copy_from_slice(&self.good[..nets]);
            self.synced = true;
        }
        self.touched.clear();
    }

    /// Injects `fault` and replays, in topological order, every gate one
    /// of whose inputs differs from the good machine. On return `faulty`
    /// holds the faulty machine and `touched` lists the net slots where
    /// it differs from `good`.
    fn inject_and_replay(&mut self, fault: &PreparedFault<'_>) {
        let c = self.net.compiled();
        let width = self.width;
        self.restore();
        let site = match &fault.kind {
            PreparedKind::Stuck { slot, value } => {
                let d = *slot as usize * width;
                self.faulty[d..d + width].fill(if *value { !0 } else { 0 });
                *slot
            }
            PreparedKind::GateFn {
                out,
                tape,
                slots_needed,
            } => {
                let need = *slots_needed as usize * width;
                if self.faulty.len() < need {
                    self.faulty.resize(need, 0);
                }
                tape.execute(0..tape.op.len(), &mut self.faulty, width);
                self.gates_replayed += 1;
                *out
            }
        };
        let good = &self.good[..];
        let (faulty, touched, pending) =
            (&mut self.faulty[..], &mut self.touched, &mut self.pending);
        let differs = |faulty: &[u64], slot: u32| {
            let d = slot as usize * width;
            let (f, g) = (&faulty[d..d + width], &good[d..d + width]);
            f.iter().zip(g).fold(0, |acc, (f, g)| acc | (f ^ g)) != 0
        };
        if !differs(faulty, site) {
            return;
        }
        touched.push(site);
        let readers = c.readers(site as usize);
        for &(rb, mask) in readers {
            pending[rb as usize] |= mask;
        }
        let mut end = readers.last().map_or(0, |&(rb, _)| rb as usize + 1);
        let mut block = readers.first().map_or(0, |&(rb, _)| rb as usize);
        let mut replayed = 0;
        // Readers sit after the gate that marks them, so one ascending
        // sweep pops every pending position in topological order. The
        // block being swept lives in `word`; marks into it go there.
        while block < end {
            let mut word = std::mem::take(&mut pending[block]);
            while word != 0 {
                let p = block * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let (start, stop) = c.gate_slice[p];
                c.tape.execute(start as usize..stop as usize, faulty, width);
                replayed += 1;
                let out = c.gate_output[p];
                if differs(faulty, out) {
                    touched.push(out);
                    let readers = c.readers(out as usize);
                    for &(rb, mask) in readers {
                        if rb as usize == block {
                            word |= mask;
                        } else {
                            pending[rb as usize] |= mask;
                        }
                    }
                    end = end.max(readers.last().map_or(0, |&(rb, _)| rb as usize + 1));
                }
            }
            block += 1;
        }
        self.gates_replayed += replayed;
    }

    /// Replays `fault` against the last evaluated batch and returns, for
    /// each lane word, the OR over all primary outputs of
    /// `good XOR faulty` — bit `k` set means pattern `k` detects the
    /// fault. `out.len()` must equal [`Self::width`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.width()`.
    pub fn fault_diff(&mut self, fault: &PreparedFault<'_>, out: &mut [u64]) {
        assert_eq!(out.len(), self.width, "need one output word per lane word");
        self.inject_and_replay(fault);
        let c = self.net.compiled();
        let width = self.width;
        out.fill(0);
        for &po in fault.outputs {
            let d = c.po_slots[po as usize] as usize * width;
            for (w, o) in out.iter_mut().enumerate() {
                *o |= self.good[d + w] ^ self.faulty[d + w];
            }
        }
    }

    /// [`Self::fault_diff`] for the common `width == 1` evaluator.
    ///
    /// # Panics
    ///
    /// Panics if the evaluator was built with `width != 1`.
    pub fn fault_diff64(&mut self, fault: &PreparedFault<'_>) -> u64 {
        assert_eq!(self.width, 1, "fault_diff64 requires a width-1 evaluator");
        let mut differ = [0u64];
        self.fault_diff(fault, &mut differ);
        differ[0]
    }

    /// Evaluates the faulty machine for *all* nets: replays the fault and
    /// returns the full net-value slice (the nets a difference reached
    /// hold faulty values, the rest equal the good machine — which is
    /// exactly what an unobservable net is).
    pub fn eval_faulty_all(&mut self, fault: &PreparedFault<'_>) -> &[u64] {
        self.inject_and_replay(fault);
        &self.faulty[..self.net.compiled().net_count as usize * self.width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{
        and_or_tree, c17_dynamic_nmos, domino_wide_and, fig9_cell, random_domino_network,
        single_cell_network,
    };
    use crate::network::NetworkFault;
    use dynmos_logic::Bexpr;

    /// All faults of a network in the fault-list shape the tests need.
    fn all_faults(net: &Network) -> Vec<NetworkFault> {
        let mut faults = Vec::new();
        for &pi in net.primary_inputs() {
            faults.push(NetworkFault::NetStuck(pi, false));
            faults.push(NetworkFault::NetStuck(pi, true));
        }
        for g in net.gates() {
            faults.push(NetworkFault::NetStuck(g.output, false));
            faults.push(NetworkFault::NetStuck(g.output, true));
        }
        for (gi, _) in net.gates().iter().enumerate() {
            let g = GateRef(gi as u32);
            faults.push(NetworkFault::GateFunction(g, Bexpr::FALSE));
            faults.push(NetworkFault::GateFunction(g, Bexpr::TRUE));
            faults.push(NetworkFault::GateFunction(
                g,
                Bexpr::var(dynmos_logic::VarId(0)),
            ));
        }
        faults
    }

    fn batch_for(seed: u64, n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| {
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            })
            .collect()
    }

    #[test]
    fn compiled_good_eval_matches_reference() {
        for seed in 0..50 {
            let net = random_domino_network(seed, 4, 6);
            let n = net.primary_inputs().len();
            let batch = batch_for(seed, n);
            let reference = net.eval_packed_all_reference(&batch, None);
            let mut ev = PackedEvaluator::new(&net);
            let compiled = ev.eval(&batch);
            assert_eq!(compiled, &reference[..], "seed {seed}");
        }
    }

    #[test]
    fn compiled_faulty_eval_matches_reference_all_nets() {
        for seed in 0..30 {
            let net = random_domino_network(seed, 4, 6);
            let n = net.primary_inputs().len();
            let batch = batch_for(seed, n);
            let mut ev = PackedEvaluator::new(&net);
            ev.eval(&batch);
            for fault in all_faults(&net) {
                let reference = net.eval_packed_all_reference(&batch, Some(&fault));
                let prepared = net.prepare_fault(&fault);
                let faulty = ev.eval_faulty_all(&prepared).to_vec();
                // Cone nets must match exactly; non-cone nets equal the
                // good machine in both paths.
                assert_eq!(faulty, reference, "seed {seed} fault {fault:?}");
                // Buffer must resync for the next fault.
                ev.eval(&batch);
            }
        }
    }

    #[test]
    fn fault_diff_matches_full_po_comparison() {
        for seed in 0..30 {
            let net = random_domino_network(seed, 4, 6);
            let n = net.primary_inputs().len();
            let batch = batch_for(seed.wrapping_add(77), n);
            let good = net.eval_packed(&batch);
            let mut ev = PackedEvaluator::new(&net);
            ev.eval(&batch);
            for fault in all_faults(&net) {
                let bad = net.eval_packed_faulty(&batch, Some(&fault));
                let expect = good
                    .iter()
                    .zip(&bad)
                    .fold(0u64, |acc, (g, b)| acc | (g ^ b));
                let prepared = net.prepare_fault(&fault);
                let got = ev.fault_diff64(&prepared);
                assert_eq!(got, expect, "seed {seed} fault {fault:?}");
            }
        }
    }

    #[test]
    fn repeated_diffs_are_stable() {
        // The restore path must leave the faulty buffer consistent, so
        // diffing the same and different faults repeatedly is idempotent.
        let net = c17_dynamic_nmos();
        let batch = batch_for(3, 5);
        let mut ev = PackedEvaluator::new(&net);
        ev.eval(&batch);
        let faults = all_faults(&net);
        let prepared: Vec<_> = faults.iter().map(|f| net.prepare_fault(f)).collect();
        let first: Vec<u64> = prepared.iter().map(|p| ev.fault_diff64(p)).collect();
        for _ in 0..3 {
            let again: Vec<u64> = prepared.iter().map(|p| ev.fault_diff64(p)).collect();
            assert_eq!(again, first);
        }
    }

    #[test]
    fn wide_lanes_match_repeated_narrow_batches() {
        let net = and_or_tree(3);
        let n = net.primary_inputs().len();
        let width = 4;
        // Four 64-lane batches, input-major wide layout.
        let narrow: Vec<Vec<u64>> = (0..width as u64).map(|w| batch_for(w + 9, n)).collect();
        let mut wide = vec![0u64; n * width];
        for (w, b) in narrow.iter().enumerate() {
            for i in 0..n {
                wide[i * width + w] = b[i];
            }
        }
        let mut ev = PackedEvaluator::with_width(&net, width);
        ev.eval(&wide);
        let fault = NetworkFault::NetStuck(net.primary_inputs()[0], true);
        let prepared = net.prepare_fault(&fault);
        let mut diff = vec![0u64; width];
        ev.fault_diff(&prepared, &mut diff);
        let mut ev1 = PackedEvaluator::new(&net);
        for (w, b) in narrow.iter().enumerate() {
            ev1.eval(b);
            assert_eq!(diff[w], ev1.fault_diff64(&prepared), "word {w}");
            for po in 0..net.primary_outputs().len() {
                assert_eq!(ev.po_word(po, w), ev1.po_word(po, 0), "word {w} po {po}");
            }
        }
    }

    /// A faulty gate function nested `depth` levels deep over inputs 0
    /// and 1: its private tape needs more scratch slots than any cell of
    /// a random domino network.
    fn deep_function(depth: usize) -> Bexpr {
        let x = |i: usize| Bexpr::var(dynmos_logic::VarId(i as u32 % 2));
        (0..depth).fold(x(0), |f, k| {
            Bexpr::or(vec![Bexpr::and(vec![Bexpr::not(f), x(k)]), x(k + 1)])
        })
    }

    /// `all_faults` plus one deep gate-function fault per gate.
    fn faults_with_deep_tapes(net: &Network) -> Vec<NetworkFault> {
        let mut faults = all_faults(net);
        for gi in 0..net.gates().len() {
            faults.push(NetworkFault::GateFunction(
                GateRef(gi as u32),
                deep_function(8),
            ));
        }
        faults
    }

    /// Four 64-lane batches for `net`. With `pinned`, input 0 is 0 and
    /// input 1 is 1 in every lane, so stuck-at-0 on input 0 and
    /// stuck-at-1 on input 1 are never activated.
    fn narrow_batches(net: &Network, seed: u64, pinned: bool) -> Vec<Vec<u64>> {
        let n = net.primary_inputs().len();
        (0..4)
            .map(|w| {
                let mut batch = batch_for(seed.wrapping_mul(31).wrapping_add(w), n);
                if pinned {
                    batch[0] = 0;
                    batch[1] = !0;
                }
                batch
            })
            .collect()
    }

    /// Seeded random networks: many small ones, and a few whose 150 gates
    /// span three pending-bitset blocks.
    fn replay_networks() -> impl Iterator<Item = (u64, Network)> {
        let small = (0..24).map(|seed| (seed, random_domino_network(seed, 6, 20)));
        small.chain((0..3).map(|seed| (seed, random_domino_network(seed, 8, 150))))
    }

    /// `narrow` (one word per input each) in the input-major wide layout.
    fn widen(narrow: &[Vec<u64>]) -> Vec<u64> {
        let (width, n) = (narrow.len(), narrow[0].len());
        (0..n * width)
            .map(|k| narrow[k % width][k / width])
            .collect()
    }

    fn assert_clean(ev: &PackedEvaluator<'_>) {
        assert!(ev.pending.iter().all(|&b| b == 0), "pending bits left");
    }

    /// The event-driven replay against the interpreter, at width 1 and
    /// width 4, for every fault of seeded random networks: stuck-at on
    /// primary inputs and outputs (activated and not), constant and
    /// passthrough gate functions, and gate functions whose private tape
    /// outgrows the shared scratch region.
    #[test]
    fn event_driven_replay_matches_reference_at_width_1_and_4() {
        for (seed, net) in replay_networks() {
            let faults = faults_with_deep_tapes(&net);
            let po_nets = net.primary_outputs();
            assert!(faults
                .iter()
                .any(|f| matches!(f, NetworkFault::NetStuck(n, _) if po_nets.contains(n))));
            for fault in &faults[faults.len() - net.gates().len()..] {
                let PreparedKind::GateFn { slots_needed, .. } = net.prepare_fault(fault).kind
                else {
                    unreachable!("deep faults are gate-function faults")
                };
                assert!(slots_needed as usize > net.compiled().slot_count());
            }
            for pinned in [false, true] {
                let narrow = narrow_batches(&net, seed, pinned);
                let good: Vec<Vec<u64>> = narrow
                    .iter()
                    .map(|b| net.eval_packed_all_reference(b, None))
                    .collect();
                let mut ev1 = PackedEvaluator::new(&net);
                let mut ev4 = PackedEvaluator::with_width(&net, 4);
                ev4.eval(&widen(&narrow));
                for fault in &faults {
                    let prepared = net.prepare_fault(fault);
                    let bad: Vec<Vec<u64>> = narrow
                        .iter()
                        .map(|b| net.eval_packed_all_reference(b, Some(fault)))
                        .collect();
                    let expect: Vec<u64> = (0..4)
                        .map(|w| {
                            po_nets.iter().fold(0, |acc, po| {
                                acc | (good[w][po.index()] ^ bad[w][po.index()])
                            })
                        })
                        .collect();
                    let unactivated = match fault {
                        NetworkFault::NetStuck(n, v) => {
                            good.iter().all(|g| g[n.index()] == if *v { !0 } else { 0 })
                        }
                        NetworkFault::GateFunction(..) => false,
                    };
                    let ctx = format!("seed {seed} pinned {pinned} {fault:?}");
                    for w in 0..4 {
                        ev1.eval(&narrow[w]);
                        let before = ev1.gates_replayed();
                        assert_eq!(ev1.fault_diff64(&prepared), expect[w], "{ctx} word {w}");
                        let replayed = ev1.gates_replayed() - before;
                        assert!(replayed <= prepared.cone_size() as u64, "{ctx}");
                        if unactivated {
                            assert_eq!(replayed, 0, "{ctx}");
                        }
                        assert_eq!(
                            ev1.eval_faulty_all(&prepared),
                            &bad[w][..],
                            "{ctx} word {w}"
                        );
                        assert_eq!(ev1.net_values(), &good[w][..], "{ctx} word {w}");
                        assert_clean(&ev1);
                    }
                    let before = ev4.gates_replayed();
                    let mut diff = [0u64; 4];
                    ev4.fault_diff(&prepared, &mut diff);
                    assert_eq!(diff.to_vec(), expect, "{ctx} width 4");
                    if unactivated {
                        assert_eq!(ev4.gates_replayed(), before, "{ctx} width 4");
                    }
                    assert_eq!(ev4.eval_faulty_all(&prepared), &widen(&bad)[..], "{ctx}");
                    assert_eq!(ev4.net_values(), &widen(&good)[..], "{ctx} width 4");
                    assert_clean(&ev4);
                }
            }
        }
    }

    #[test]
    fn interleaved_calls_leave_the_evaluator_clean() {
        // eval_faulty_all -> fault_diff64 -> a new eval: every answer must
        // match a fresh evaluator, so no pending bit or touched slot of
        // one call leaks into the next.
        for (seed, net) in replay_networks() {
            let faults = faults_with_deep_tapes(&net);
            let n = net.primary_inputs().len();
            let (a, b) = (batch_for(seed, n), batch_for(seed + 100, n));
            let fresh = |batch: &[u64], fault: &NetworkFault| {
                let mut ev = PackedEvaluator::new(&net);
                ev.eval(batch);
                let prepared = net.prepare_fault(fault);
                (
                    ev.fault_diff64(&prepared),
                    ev.eval_faulty_all(&prepared).to_vec(),
                )
            };
            let mut ev = PackedEvaluator::new(&net);
            for (i, fault) in faults.iter().enumerate() {
                let next = &faults[(i + 1) % faults.len()];
                let (p, q) = (net.prepare_fault(fault), net.prepare_fault(next));
                ev.eval(&a);
                assert_eq!(ev.eval_faulty_all(&p), &fresh(&a, fault).1[..], "{fault:?}");
                assert_eq!(ev.fault_diff64(&q), fresh(&a, next).0, "{next:?}");
                assert_clean(&ev);
                assert_eq!(ev.eval(&b), &net.eval_packed_all_reference(&b, None)[..]);
                assert_eq!(ev.fault_diff64(&p), fresh(&b, fault).0, "{fault:?}");
                assert_clean(&ev);
            }
        }
    }

    #[test]
    fn unactivated_stuck_fault_replays_no_gates() {
        let net = c17_dynamic_nmos();
        let mut batch = batch_for(5, net.primary_inputs().len());
        batch[0] = 0;
        let mut ev = PackedEvaluator::new(&net);
        ev.eval(&batch);
        let unactivated =
            net.prepare_fault(&NetworkFault::NetStuck(net.primary_inputs()[0], false));
        assert_eq!(ev.fault_diff64(&unactivated), 0);
        assert_eq!(ev.gates_replayed(), 0);
        let activated = net.prepare_fault(&NetworkFault::NetStuck(net.primary_inputs()[0], true));
        ev.fault_diff64(&activated);
        let replayed = ev.gates_replayed();
        assert!(replayed >= 1 && replayed <= activated.cone_size() as u64);
    }

    #[test]
    fn cone_of_output_gate_is_itself() {
        let net = single_cell_network(fig9_cell());
        let c = net.compiled();
        assert_eq!(c.fanout_cone(GateRef(0)), &[0]);
        assert_eq!(c.reachable_outputs(GateRef(0)), &[0]);
    }

    #[test]
    fn cones_shrink_toward_outputs() {
        // In the c17 remake, a first-level gate's cone strictly contains
        // a last-level gate's cone.
        let net = c17_dynamic_nmos();
        let c = net.compiled();
        let first = net.topo_order()[0];
        let last = *net.topo_order().last().unwrap();
        assert!(c.fanout_cone(first).len() > 1);
        assert_eq!(c.fanout_cone(last).len(), 1);
    }

    #[test]
    fn undetectable_site_has_no_observable_outputs() {
        // A gate feeding only primary outputs through itself: every fault
        // site in a single-cell network observes output 0.
        let net = single_cell_network(domino_wide_and(4));
        for fault in all_faults(&net) {
            let p = net.prepare_fault(&fault);
            assert!(!p.observable_outputs().is_empty(), "{fault:?}");
        }
    }

    #[test]
    fn instruction_count_scales_with_literals() {
        let net = single_cell_network(domino_wide_and(8));
        // A wide AND lowers to a chain of binary ANDs: 7 instructions.
        assert_eq!(net.compiled().instruction_count(), 7);
    }

    #[test]
    #[should_panic(expected = "beyond arity")]
    fn preparing_out_of_arity_gate_fault_panics() {
        let net = single_cell_network(domino_wide_and(2));
        let fault = NetworkFault::GateFunction(GateRef(0), Bexpr::var(dynmos_logic::VarId(7)));
        net.prepare_fault(&fault);
    }
}
