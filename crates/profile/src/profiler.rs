//! The dynamic dependence profiler (an IR [`Observer`]).
//!
//! Mirrors the paper's LLVM instrumentation pass + post-analysis: while the
//! program executes, every load and store is checked against shadow records
//! of the last write and last read of its address, producing RAW/WAR/WAW
//! dependences classified against the dynamic loop structure:
//!
//! - *intra-iteration* dependences (ordinary sequential order),
//! - *loop-carried* dependences with their iteration distance,
//! - *cross-loop* dependences between sibling loops, from which the
//!   `(i_x, i_y)` iteration pairs of the multi-loop-pipeline analysis are
//!   filtered (last write iteration in `x`, first read iteration in `y`,
//!   per address),
//! - per-loop, per-address read/write source-line sets (Algorithm 3 input).
//!
//! The profiler keys loop context by `(loop id, dynamic instance, iteration)`
//! so that re-entered inner loops and repeated calls never alias.
//!
//! # Layout
//!
//! The per-access path touches three private structures and allocates
//! nothing once they are warm:
//!
//! - **Shadow memory** is two dense vectors of cells, one indexed by
//!   global address and one by `addr - FRAME_REGION_BASE`. Each cell holds
//!   the last write and last read as `(inst, context node)` pairs, and the
//!   list of the address's per-loop line records.
//! - **The context tree** interns every call activation and every loop
//!   iteration as one `u32` node. A node knows its parent, its call/loop
//!   chain depth, its innermost iteration node and its loop depth, so
//!   `classify` and `lift` walk up from the two endpoints only to the
//!   point where their contexts diverge. Nodes no shadow cell can reach
//!   any more are collected as the tree grows.
//! - **Working tables** (dependences, lifted dependences, cross-loop pairs)
//!   use a fast hasher over program-internal keys.
//!
//! All of it is converted into the [`ProfileData`] types once, in
//! [`DependenceProfiler::into_data`].

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use parpat_ir::event::{AccessKind, MemAccess, Observer};
use parpat_ir::interp::{run_function, ExecLimits};
use parpat_ir::lower::FRAME_REGION_BASE;
use parpat_ir::{FuncId, InstId, IrProgram, LoopId, RuntimeError};

use crate::data::{AccessLines, Dep, DepKind, DepSite, LoopStats, ProfileData};

/// Sentinel for "no node / no instruction / no nest".
const NONE: u32 = u32::MAX;

/// Context-tree size below which unreachable nodes are never collected.
const COLLECT_FLOOR: usize = 1 << 16;

/// Multiply-rotate hasher for the profiler's working tables. Their keys are
/// addresses, instruction and loop ids: small integers a program can only
/// shape through its own array sizes, so the rotation in `finish` brings
/// the product's well-mixed high bits down to the bucket index.
#[derive(Default, Clone, Copy)]
struct FastHasher(u64);

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// One node of the context tree: a call activation or one iteration of a
/// dynamic loop instance. The root (node 0) is the entry function's body
/// outside every loop.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Enclosing context: where the call was made or the loop entered.
    parent: u32,
    /// Call/loop chain depth (the root is 0). Iterations of one loop
    /// instance share it: the chain names the instance, not the iteration.
    depth: u32,
    /// Identity of this node's chain frame: one per call activation and per
    /// loop instance, shared by the instance's iterations.
    frame: u32,
    /// The innermost iteration node at or above this node (the root when
    /// no loop is active).
    iter_node: u32,
    /// Number of iteration nodes from the root down to `iter_node`.
    loop_depth: u32,
    /// The statement standing for this frame in its enclosing region: the
    /// call instruction or the loop-header instruction.
    inst: InstId,
    /// The loop (iteration nodes only).
    l: LoopId,
    /// Interned static loop nest of `iter_node` (0, the empty nest,
    /// outside loops).
    nest: u32,
    /// Iteration number (iteration nodes only).
    iter: u64,
}

/// Interned call/loop contexts (see the module docs).
#[derive(Debug)]
struct ContextTree {
    nodes: Vec<Node>,
    /// Static loop nests: a nest id names the sequence of loop ids on a
    /// loop stack, and maps to the distinct loops in it (a recursive
    /// function's loop appears once however deep the recursion).
    nests: Vec<Box<[LoopId]>>,
    /// Interning of nests as `(enclosing nest, innermost loop)`.
    nest_ids: FastMap<(u32, LoopId), u32>,
    /// The next frame identity (the root's is 0).
    next_frame: u32,
}

impl ContextTree {
    const ROOT: u32 = 0;

    /// A tree holding only the root, built in `nodes`' allocation.
    fn new(mut nodes: Vec<Node>) -> Self {
        let root = Node {
            parent: Self::ROOT,
            depth: 0,
            frame: Self::ROOT,
            iter_node: Self::ROOT,
            loop_depth: 0,
            inst: NONE,
            l: NONE,
            nest: 0,
            iter: 0,
        };
        nodes.clear();
        nodes.push(root);
        ContextTree {
            nodes,
            nests: vec![Box::new([])],
            nest_ids: FastMap::default(),
            next_frame: 1,
        }
    }

    fn node(&self, id: u32) -> &Node {
        &self.nodes[id as usize]
    }

    fn push(&mut self, node: Node) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("context tree exceeds u32 ids");
        self.nodes.push(node);
        id
    }

    fn new_frame(&mut self) -> u32 {
        let frame = self.next_frame;
        self.next_frame = frame.checked_add(1).expect("call/loop frames exceed u32 ids");
        frame
    }

    /// A call made from context `at` through instruction `inst`.
    fn enter_call(&mut self, at: u32, inst: InstId) -> u32 {
        let p = *self.node(at);
        let frame = self.new_frame();
        self.push(Node { parent: at, depth: p.depth + 1, frame, inst, ..p })
    }

    /// Iteration 0 of a new instance of loop `l`, entered from `at`.
    fn enter_loop(&mut self, at: u32, l: LoopId, head_inst: InstId) -> u32 {
        let p = *self.node(at);
        let next_nest = self.nests.len() as u32;
        let nest = *self.nest_ids.entry((p.nest, l)).or_insert(next_nest);
        if nest == next_nest {
            let outer = &self.nests[p.nest as usize];
            let mut loops = outer.to_vec();
            if !outer.contains(&l) {
                loops.push(l);
            }
            self.nests.push(loops.into_boxed_slice());
        }
        let id = self.nodes.len() as u32;
        let frame = self.new_frame();
        self.push(Node {
            parent: at,
            depth: p.depth + 1,
            frame,
            iter_node: id,
            loop_depth: p.loop_depth + 1,
            inst: head_inst,
            l,
            nest,
            iter: 0,
        })
    }

    /// Iteration `iter` of the loop instance that iteration node `cur`
    /// belongs to (`cur` itself when the number is unchanged).
    fn next_iteration(&mut self, cur: u32, iter: u64) -> u32 {
        let n = *self.node(cur);
        if n.iter == iter {
            return cur;
        }
        let id = self.nodes.len() as u32;
        self.push(Node { iter_node: id, iter, ..n })
    }

    /// Drop the nodes that neither `roots` nor an ancestor of one reach,
    /// renumber the rest in order (a parent keeps a smaller id than its
    /// children), and return the new id of every old one (`NONE` when
    /// dropped).
    fn collect(&mut self, roots: impl Iterator<Item = u32>) -> Vec<u32> {
        let mut live = vec![false; self.nodes.len()];
        live[Self::ROOT as usize] = true;
        for mut n in roots {
            while !live[n as usize] {
                live[n as usize] = true;
                n = self.node(n).parent;
            }
        }
        let mut new_id = vec![NONE; self.nodes.len()];
        let mut kept = 0;
        for old in 0..self.nodes.len() {
            if live[old] {
                new_id[old] = kept;
                let mut n = self.nodes[old];
                n.parent = new_id[n.parent as usize];
                n.iter_node = new_id[n.iter_node as usize];
                self.nodes[kept as usize] = n;
                kept += 1;
            }
        }
        self.nodes.truncate(kept as usize);
        new_id
    }

    /// The iteration node one loop level above iteration node `i`.
    fn iter_parent(&self, i: u32) -> u32 {
        self.node(self.node(i).parent).iter_node
    }

    /// Classify a dependence from the contexts of its two endpoints: the
    /// loop stacks are compared from the outermost frame down, at the first
    /// frame where they differ. Returns the site and, for cross-loop
    /// dependences, the `(i_x, i_y)` iteration pair at that frame.
    fn classify(&self, src: u32, sink: u32) -> (DepSite, Option<(u64, u64)>) {
        if src == sink {
            return (DepSite::Intra, None);
        }
        let (mut x, mut y) = (self.node(src).iter_node, self.node(sink).iter_node);
        if x == y {
            return (DepSite::Intra, None);
        }
        let (dx, dy) = (self.node(x).loop_depth, self.node(y).loop_depth);
        for _ in dy..dx {
            x = self.iter_parent(x);
        }
        for _ in dx..dy {
            y = self.iter_parent(y);
        }
        if x == y {
            // One loop stack is a proper prefix of the other.
            return (DepSite::OutsideLoop, None);
        }
        while self.iter_parent(x) != self.iter_parent(y) {
            x = self.iter_parent(x);
            y = self.iter_parent(y);
        }
        let (fx, fy) = (self.node(x), self.node(y));
        if fx.l != fy.l {
            (DepSite::CrossLoop { x: fx.l, y: fy.l }, Some((fx.iter, fy.iter)))
        } else if fx.frame != fy.frame {
            (DepSite::CrossInstance { l: fx.l }, None)
        } else {
            let distance = fy.iter.saturating_sub(fx.iter).max(1);
            (DepSite::Carried { l: fx.l, distance }, None)
        }
    }

    /// Lift a dependence between two dynamic accesses to statement level:
    /// walk the two call/loop chains until they diverge; the diverging
    /// frames (or, where a chain has ended, the access instruction itself)
    /// are two statements of the same region.
    fn lift(&self, src: u32, src_inst: InstId, sink: u32, sink_inst: InstId) -> (InstId, InstId) {
        let frame = |n: u32| self.node(n).frame;
        if src == sink || frame(src) == frame(sink) {
            return (src_inst, sink_inst);
        }
        let (mut x, mut y) = (src, sink);
        let (dx, dy) = (self.node(x).depth, self.node(y).depth);
        if dx > dy {
            for _ in dy + 1..dx {
                x = self.node(x).parent;
            }
            let px = self.node(x).parent;
            if frame(px) == frame(y) {
                return (self.node(x).inst, sink_inst);
            }
            x = px;
        } else if dy > dx {
            for _ in dx + 1..dy {
                y = self.node(y).parent;
            }
            let py = self.node(y).parent;
            if frame(py) == frame(x) {
                return (src_inst, self.node(y).inst);
            }
            y = py;
        }
        while frame(self.node(x).parent) != frame(self.node(y).parent) {
            x = self.node(x).parent;
            y = self.node(y).parent;
        }
        (self.node(x).inst, self.node(y).inst)
    }
}

/// A recorded access: the instruction (`NONE` when nothing was recorded)
/// and the context node it executed under.
#[derive(Debug, Clone, Copy)]
struct AccessRec {
    inst: InstId,
    ctx: u32,
}

impl AccessRec {
    const EMPTY: AccessRec = AccessRec { inst: NONE, ctx: NONE };
}

/// Shadow state of one address.
#[derive(Debug, Clone, Copy)]
struct Cell {
    last_write: AccessRec,
    last_read: AccessRec,
    /// `(inst, nest)` of the last read and write whose source lines were
    /// noted for this address: an access repeating them would insert the
    /// same lines into the same records, so it skips the line tables.
    noted_read: u64,
    noted_write: u64,
    /// Head of this address's list of line records, one per loop that
    /// accessed it (`NONE` when empty).
    lines: u32,
}

impl Cell {
    const EMPTY: Cell = Cell {
        last_write: AccessRec::EMPTY,
        last_read: AccessRec::EMPTY,
        noted_read: u64::MAX,
        noted_write: u64::MAX,
        lines: NONE,
    };
}

/// Dense shadow memory: globals live in `0..`, frames above
/// [`FRAME_REGION_BASE`], and neither range is reused, so each region is a
/// vector grown to the highest address touched.
#[derive(Debug)]
struct Shadow {
    globals: Vec<Cell>,
    frames: Vec<Cell>,
    /// Size of the global region (the vector never grows past it).
    global_cells: usize,
}

impl Shadow {
    /// Empty shadow memory for `prog`, built in the given allocations.
    fn new(prog: &IrProgram, mut globals: Vec<Cell>, mut frames: Vec<Cell>) -> Self {
        globals.clear();
        frames.clear();
        let global_cells = prog.globals.iter().map(|g| g.len()).sum();
        Shadow { globals, frames, global_cells }
    }

    fn cell(&mut self, addr: u64) -> &mut Cell {
        let (cells, i, cap) = match addr.checked_sub(FRAME_REGION_BASE) {
            None => (&mut self.globals, addr as usize, self.global_cells),
            Some(off) => (&mut self.frames, off as usize, usize::MAX),
        };
        if i >= cells.len() {
            Self::grow(cells, i, cap);
        }
        &mut cells[i]
    }

    #[cold]
    fn grow(cells: &mut Vec<Cell>, i: usize, cap: usize) {
        let len = (cells.len() * 2).max(64).min(cap).max(i + 1);
        cells.resize(len, Cell::EMPTY);
    }

    fn len(&self) -> usize {
        self.globals.len() + self.frames.len()
    }

    /// Every allocated cell with its address, in increasing address order.
    fn cells(&self) -> impl Iterator<Item = (u64, &Cell)> {
        let globals = (0..).zip(&self.globals);
        globals.chain((FRAME_REGION_BASE..).zip(&self.frames))
    }
}

/// The source lines of one access kind in a record: the first inline,
/// any further ones as a list in [`LineTable::more`].
#[derive(Debug, Clone, Copy)]
struct Lines {
    first: u32,
    more: u32,
}

impl Lines {
    const EMPTY: Lines = Lines { first: NONE, more: NONE };
}

/// Working form of one `loop_access_lines` entry, linked into the list of
/// its address's shadow cell.
#[derive(Debug, Clone, Copy)]
struct LineRec {
    l: LoopId,
    /// Next record of the same address.
    next: u32,
    read_lines: Lines,
    write_lines: Lines,
    /// First access with a variable name; resolved in `into_data`.
    name_inst: InstId,
    inter_iteration: bool,
    rewritten: bool,
}

/// Per-(loop, address) line records, reached from the address's shadow
/// cell: an address is accessed by few distinct loops, so finding its
/// record for a loop is a walk of a short list, with no hashing.
#[derive(Debug)]
struct LineTable {
    recs: Vec<LineRec>,
    /// `(line, next)` list cells of the lines beyond a record's first of
    /// each kind.
    more: Vec<(u32, u32)>,
    /// Per instruction, the `(address, nest)` it last noted.
    inst_noted: Vec<(u64, u32)>,
}

impl LineTable {
    /// An empty table for a program of `insts` instructions, built in
    /// `recs`' allocation.
    fn new(mut recs: Vec<LineRec>, insts: usize) -> Self {
        recs.clear();
        LineTable { recs, more: Vec::new(), inst_noted: vec![(u64::MAX, NONE); insts] }
    }

    /// Note the access's source line in every loop of the static nest
    /// `loops`. The same instruction (hence line) on the same address under
    /// the same loops inserts nothing new, so the note is skipped when the
    /// cell's last noted `(inst, nest)` for this access kind, or the
    /// instruction's last noted `(address, nest)`, repeats.
    fn note(
        &mut self,
        prog: &IrProgram,
        cell: &mut Cell,
        access: &MemAccess,
        nest: u32,
        loops: &[LoopId],
    ) {
        let key = (u64::from(access.inst) << 32) | u64::from(nest);
        let noted = match access.kind {
            AccessKind::Read => &mut cell.noted_read,
            AccessKind::Write => &mut cell.noted_write,
        };
        let by_inst = &mut self.inst_noted[access.inst as usize];
        if loops.is_empty() || *noted == key || *by_inst == (access.addr, nest) {
            return;
        }
        *noted = key;
        *by_inst = (access.addr, nest);
        debug_assert_eq!(access.line, prog.insts[access.inst as usize].line);
        let named = || if has_var_name(prog, access.inst) { access.inst } else { NONE };
        for &l in loops {
            let i = match self.find(cell.lines, l) {
                Some(i) => i,
                None => {
                    let i = u32::try_from(self.recs.len()).expect("line records exceed u32 ids");
                    self.recs.push(LineRec {
                        l,
                        next: cell.lines,
                        read_lines: Lines::EMPTY,
                        write_lines: Lines::EMPTY,
                        name_inst: named(),
                        inter_iteration: false,
                        rewritten: false,
                    });
                    cell.lines = i;
                    i
                }
            };
            let rec = &mut self.recs[i as usize];
            if rec.name_inst == NONE {
                rec.name_inst = named();
            }
            let lines = match access.kind {
                AccessKind::Read => &mut rec.read_lines,
                AccessKind::Write => &mut rec.write_lines,
            };
            if lines.first == NONE {
                lines.first = access.line;
            } else if lines.first != access.line
                && !further(&self.more, *lines).any(|line| line == access.line)
            {
                self.more.push((access.line, lines.more));
                lines.more = (self.more.len() - 1) as u32;
            }
        }
    }

    /// All lines of `lines` as a set.
    fn set(&self, lines: Lines) -> BTreeSet<u32> {
        let mut set = BTreeSet::new();
        if lines.first != NONE {
            set.insert(lines.first);
            set.extend(further(&self.more, lines));
        }
        set
    }

    /// The record of loop `l` in the list starting at `head`.
    fn find(&self, mut head: u32, l: LoopId) -> Option<u32> {
        while head != NONE {
            let rec = &self.recs[head as usize];
            if rec.l == l {
                return Some(head);
            }
            head = rec.next;
        }
        None
    }

    fn get_mut(&mut self, head: u32, l: LoopId) -> Option<&mut LineRec> {
        let i = self.find(head, l)?;
        Some(&mut self.recs[i as usize])
    }

    /// The `loop_access_lines` table. Walking the shadow in address order
    /// yields each loop's entries already sorted, so every map is
    /// bulk-built.
    fn loop_access_lines(
        &self,
        prog: &IrProgram,
        shadow: &Shadow,
    ) -> HashMap<LoopId, BTreeMap<u64, AccessLines>> {
        let mut counts = vec![0; prog.loop_count()];
        for rec in &self.recs {
            counts[rec.l as usize] += 1;
        }
        let mut by_loop: Vec<Vec<(u64, AccessLines)>> =
            counts.into_iter().map(Vec::with_capacity).collect();
        for (addr, cell) in shadow.cells() {
            let mut i = cell.lines;
            while i != NONE {
                let rec = self.recs[i as usize];
                i = rec.next;
                let name = (rec.name_inst != NONE).then(|| var_name_of(prog, rec.name_inst));
                let lines = AccessLines {
                    write_lines: self.set(rec.write_lines),
                    read_lines: self.set(rec.read_lines),
                    var_name: name.unwrap_or_default(),
                    inter_iteration: rec.inter_iteration,
                    rewritten: rec.rewritten,
                };
                by_loop[rec.l as usize].push((addr, lines));
            }
        }
        (0..)
            .zip(by_loop)
            .filter(|(_, entries)| !entries.is_empty())
            .map(|(l, entries)| (l, entries.into_iter().collect()))
            .collect()
    }
}

/// The lines of `lines` after its first, from the list cells `more`.
fn further(more: &[(u32, u32)], lines: Lines) -> impl Iterator<Item = u32> + '_ {
    let mut i = lines.more;
    std::iter::from_fn(move || {
        let &(line, next) = (i != NONE).then(|| &more[i as usize])?;
        i = next;
        Some(line)
    })
}

/// Name of the variable or array an access instruction touches;
/// parameter-initialization stores are attributed to the call instruction.
fn var_name_of(prog: &IrProgram, inst: InstId) -> String {
    let kind = &prog.insts[inst as usize].kind;
    match kind.touched_name() {
        Some(n) => n.to_owned(),
        None => match kind {
            parpat_ir::InstKind::Call(callee) => format!("<args of {callee}>"),
            _ => String::new(),
        },
    }
}

/// Whether [`var_name_of`] is non-empty, without building the name.
fn has_var_name(prog: &IrProgram, inst: InstId) -> bool {
    let kind = &prog.insts[inst as usize].kind;
    match kind.touched_name() {
        Some(n) => !n.is_empty(),
        None => matches!(kind, parpat_ir::InstKind::Call(_)),
    }
}

/// Work counters of one profiled run: the figures that explain the
/// profiler's cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfilerCounters {
    /// Memory accesses observed.
    pub accesses: u64,
    /// Shadow cells allocated (both regions).
    pub shadow_cells: u64,
    /// Live context-tree nodes (calls, loop iterations and the root).
    pub context_nodes: u64,
    /// Dependence inserts attempted (one per RAW/WAR/WAW found).
    pub dep_inserts: u64,
    /// Distinct dependences those inserts produced.
    pub distinct_deps: u64,
}

/// Working buffers a finished profiler leaves to the next one on its
/// thread. A batch profiles program after program; reusing the buffers
/// keeps their pages mapped instead of faulting fresh ones in every run.
#[derive(Default)]
struct Spare {
    nodes: Vec<Node>,
    globals: Vec<Cell>,
    frames: Vec<Cell>,
    recs: Vec<LineRec>,
}

impl Spare {
    /// Largest buffer set kept for reuse.
    const MAX_BYTES: usize = 64 << 20;

    fn bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + (self.globals.capacity() + self.frames.capacity()) * std::mem::size_of::<Cell>()
            + self.recs.capacity() * std::mem::size_of::<LineRec>()
    }
}

/// A dependence and its statement-level lift.
type LastDep = Option<(Dep, (InstId, InstId))>;

thread_local! {
    static SPARE: RefCell<Spare> = RefCell::default();
}

/// The profiling observer. Drive it through [`profile`] /
/// [`profile_function`], or attach it to your own interpreter run and call
/// [`DependenceProfiler::into_data`] afterwards.
pub struct DependenceProfiler<'p> {
    prog: &'p IrProgram,
    tree: ContextTree,
    /// The current context node.
    cur: u32,
    /// Tree size that triggers the next collection of unreachable nodes,
    /// and the least it is ever set to.
    collect_at: usize,
    collect_floor: usize,
    /// Whether each active function pushed a call node (the entry call
    /// does not).
    call_pushed: Vec<bool>,
    shadow: Shadow,
    lines: LineTable,
    deps: FastSet<Dep>,
    region_deps: FastSet<(InstId, InstId, DepKind)>,
    /// Per sink instruction and dependence kind, the last dependence and
    /// lift inserted: a repeat skips both table inserts.
    last_dep: Vec<[LastDep; 3]>,
    /// First `(i_x, i_y)` pair per `(x, y, address)`.
    cross_loop_pairs: FastMap<(LoopId, LoopId, u64), (u64, u64)>,
    /// Indexed by loop id; a loop was entered iff its `first_entry` is set.
    loop_stats: Vec<LoopStats>,
    inst_counts: Vec<u64>,
    /// Sequence number shared by loop entries and calls (orders loops in
    /// time for `LoopStats::first_entry`).
    next_instance: u64,
    accesses: u64,
    dep_inserts: u64,
}

impl<'p> DependenceProfiler<'p> {
    /// Create a profiler for `prog`.
    pub fn new(prog: &'p IrProgram) -> Self {
        let spare = SPARE.with(RefCell::take);
        DependenceProfiler {
            prog,
            tree: ContextTree::new(spare.nodes),
            cur: ContextTree::ROOT,
            collect_at: COLLECT_FLOOR,
            collect_floor: COLLECT_FLOOR,
            call_pushed: Vec::new(),
            shadow: Shadow::new(prog, spare.globals, spare.frames),
            lines: LineTable::new(spare.recs, prog.inst_count()),
            deps: FastSet::default(),
            region_deps: FastSet::default(),
            last_dep: vec![[None; 3]; prog.inst_count()],
            cross_loop_pairs: FastMap::default(),
            loop_stats: vec![LoopStats::default(); prog.loop_count()],
            inst_counts: vec![0; prog.inst_count()],
            next_instance: 0,
            accesses: 0,
            dep_inserts: 0,
        }
    }

    /// Work counters so far.
    pub fn counters(&self) -> ProfilerCounters {
        ProfilerCounters {
            accesses: self.accesses,
            shadow_cells: self.shadow.len() as u64,
            context_nodes: self.tree.nodes.len() as u64,
            dep_inserts: self.dep_inserts,
            distinct_deps: self.deps.len() as u64,
        }
    }

    /// Consume the profiler and return the collected data.
    pub fn into_data(self) -> ProfileData {
        let DependenceProfiler {
            prog,
            tree,
            shadow,
            lines,
            deps,
            region_deps,
            cross_loop_pairs,
            loop_stats,
            inst_counts,
            ..
        } = self;
        let loop_access_lines = lines.loop_access_lines(prog, &shadow);
        let spare = Spare {
            nodes: tree.nodes,
            globals: shadow.globals,
            frames: shadow.frames,
            recs: lines.recs,
        };
        if spare.bytes() <= Spare::MAX_BYTES {
            SPARE.with(|s| *s.borrow_mut() = spare);
        }
        let mut sizes: FastMap<(LoopId, LoopId), usize> = FastMap::default();
        for &(x, y, _) in cross_loop_pairs.keys() {
            *sizes.entry((x, y)).or_default() += 1;
        }
        let mut pairs: HashMap<(LoopId, LoopId), HashMap<u64, (u64, u64)>> =
            sizes.into_iter().map(|(k, n)| (k, HashMap::with_capacity(n))).collect();
        for ((x, y, addr), pair) in cross_loop_pairs {
            if let Some(m) = pairs.get_mut(&(x, y)) {
                m.insert(addr, pair);
            }
        }
        ProfileData {
            deps: deps.into_iter().collect(),
            loop_access_lines,
            cross_loop_pairs: pairs,
            loop_stats: (0..).zip(loop_stats).filter(|(_, s)| s.first_entry != u64::MAX).collect(),
            region_deps: region_deps.into_iter().collect(),
            total_insts: inst_counts.iter().sum(),
            inst_counts,
            runs: 1,
        }
    }

    /// Drop the context nodes that neither a shadow cell's record nor the
    /// current context can reach. A node is created per loop iteration, so
    /// without this a long loop would hold memory in proportion to its
    /// iteration count; with it, in proportion to the addresses touched.
    /// Runs each time the tree doubles past its size after the last run,
    /// and not before it has grown by the shadow's size, so that scanning
    /// the shadow costs at most a constant per node created.
    fn collect(&mut self) {
        let recs = self.shadow.cells().flat_map(|(_, c)| [c.last_write, c.last_read]);
        let roots = recs.filter(|r| r.inst != NONE).map(|r| r.ctx);
        let new_id = self.tree.collect(roots.chain([self.cur]));
        let cells = self.shadow.globals.iter_mut().chain(&mut self.shadow.frames);
        for rec in cells.flat_map(|c| [&mut c.last_write, &mut c.last_read]) {
            if rec.inst != NONE {
                rec.ctx = new_id[rec.ctx as usize];
            }
        }
        self.cur = new_id[self.cur as usize];
        let live = self.tree.nodes.len();
        self.collect_at = (2 * live).max(live + self.shadow.len()).max(self.collect_floor);
    }

    /// Enter context node `node`, collecting the tree first if it is due.
    fn set_cur(&mut self, node: u32) {
        self.cur = node;
        if self.tree.nodes.len() >= self.collect_at {
            self.collect();
        }
    }

    /// Record the dependence `src → (sink_inst, sink_ctx)` and its
    /// statement-level lift; returns the classification.
    fn dep(
        &mut self,
        src: AccessRec,
        sink_inst: InstId,
        sink_ctx: u32,
        kind: DepKind,
    ) -> (DepSite, Option<(u64, u64)>) {
        let (site, pair) = self.tree.classify(src.ctx, sink_ctx);
        let dep = Dep { src: src.inst, sink: sink_inst, kind, site };
        let lifted = self.tree.lift(src.ctx, src.inst, sink_ctx, sink_inst);
        self.dep_inserts += 1;
        let last = &mut self.last_dep[sink_inst as usize][kind as usize];
        if *last != Some((dep, lifted)) {
            *last = Some((dep, lifted));
            self.deps.insert(dep);
            self.region_deps.insert((lifted.0, lifted.1, kind));
        }
        (site, pair)
    }

    fn on_read(&mut self, access: MemAccess) {
        let ctx = self.cur;
        let nest = self.tree.node(ctx).nest;
        let cell = self.shadow.cell(access.addr);
        self.lines.note(self.prog, cell, &access, nest, &self.tree.nests[nest as usize]);
        let (w, lines) = (cell.last_write, cell.lines);
        cell.last_read = AccessRec { inst: access.inst, ctx };
        if w.inst == NONE {
            return;
        }
        match self.dep(w, access.inst, ctx, DepKind::Raw) {
            (DepSite::CrossLoop { x, y }, Some(pair)) => {
                // First read wins; the shadow write is by construction the
                // last write before it.
                self.cross_loop_pairs.entry((x, y, access.addr)).or_insert(pair);
            }
            (DepSite::Carried { l, .. }, _) => {
                if let Some(rec) = self.lines.get_mut(lines, l) {
                    rec.inter_iteration = true;
                }
            }
            _ => {}
        }
    }

    fn on_write(&mut self, access: MemAccess) {
        let ctx = self.cur;
        let nest = self.tree.node(ctx).nest;
        let cell = self.shadow.cell(access.addr);
        self.lines.note(self.prog, cell, &access, nest, &self.tree.nests[nest as usize]);
        let (r, w, lines) = (cell.last_read, cell.last_write, cell.lines);
        cell.last_read = AccessRec::EMPTY;
        cell.last_write = AccessRec { inst: access.inst, ctx };
        if r.inst != NONE {
            self.dep(r, access.inst, ctx, DepKind::War);
        }
        if w.inst != NONE {
            if let (DepSite::Carried { l, .. }, _) = self.dep(w, access.inst, ctx, DepKind::Waw) {
                if let Some(rec) = self.lines.get_mut(lines, l) {
                    rec.rewritten = true;
                }
            }
        }
    }
}

impl Observer for DependenceProfiler<'_> {
    fn enter_function(&mut self, _func: FuncId, call_inst: Option<InstId>, _is_recursive: bool) {
        match call_inst {
            Some(inst) => {
                self.next_instance += 1;
                let node = self.tree.enter_call(self.cur, inst);
                self.set_cur(node);
                self.call_pushed.push(true);
            }
            None => self.call_pushed.push(false),
        }
    }

    fn exit_function(&mut self, _func: FuncId) {
        if self.call_pushed.pop().expect("exit_function without enter") {
            self.cur = self.tree.node(self.cur).parent;
        }
    }

    fn enter_loop(&mut self, l: LoopId) {
        let instance = self.next_instance;
        self.next_instance += 1;
        let stats = &mut self.loop_stats[l as usize];
        stats.first_entry = stats.first_entry.min(instance);
        let node = self.tree.enter_loop(self.cur, l, self.prog.loops[l as usize].head_inst);
        self.set_cur(node);
    }

    fn loop_iteration(&mut self, l: LoopId, iter: u64) {
        debug_assert_eq!(self.tree.node(self.cur).l, l);
        let node = self.tree.next_iteration(self.cur, iter);
        self.set_cur(node);
    }

    fn exit_loop(&mut self, l: LoopId, iterations: u64) {
        debug_assert_eq!(self.tree.node(self.cur).l, l);
        self.cur = self.tree.node(self.cur).parent;
        let stats = &mut self.loop_stats[l as usize];
        stats.executions += 1;
        stats.total_iterations += iterations;
        stats.max_iterations = stats.max_iterations.max(iterations);
    }

    fn instruction(&mut self, inst: InstId) {
        self.inst_counts[inst as usize] += 1;
    }

    fn memory(&mut self, access: MemAccess) {
        self.accesses += 1;
        match access.kind {
            AccessKind::Read => self.on_read(access),
            AccessKind::Write => self.on_write(access),
        }
    }
}

/// Profile a program's `main` with default limits.
pub fn profile(prog: &IrProgram) -> Result<ProfileData, RuntimeError> {
    let entry = prog
        .entry
        .ok_or_else(|| RuntimeError::new(0, "program has no `main` function".to_owned()))?;
    profile_function(prog, entry, &[])
}

/// Profile a specific function with the given arguments.
pub fn profile_function(
    prog: &IrProgram,
    func: FuncId,
    args: &[f64],
) -> Result<ProfileData, RuntimeError> {
    let mut profiler = DependenceProfiler::new(prog);
    run_function(prog, func, args, &mut profiler, ExecLimits::default())?;
    Ok(profiler.into_data())
}

/// Profile a function once per argument vector and merge the runs — the
/// paper's "multiple representative inputs" mitigation for the input
/// sensitivity of dynamic analysis.
pub fn profile_merged(
    prog: &IrProgram,
    func: FuncId,
    inputs: &[Vec<f64>],
) -> Result<ProfileData, RuntimeError> {
    let mut merged: Option<ProfileData> = None;
    for args in inputs {
        let d = profile_function(prog, func, args)?;
        match &mut merged {
            None => merged = Some(d),
            Some(m) => m.merge(&d),
        }
    }
    Ok(merged.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::reference::{ChainFrame, LoopFrame, ReferenceProfiler};
    use parpat_ir::compile;

    fn profile_src(src: &str) -> (ProfileData, parpat_ir::IrProgram) {
        let ir = compile(src).unwrap();
        let data = profile(&ir).unwrap();
        (data, ir)
    }

    /// Find the single loop id of a single-loop program.
    fn only_loop(ir: &parpat_ir::IrProgram) -> LoopId {
        assert_eq!(ir.loop_count(), 1);
        0
    }

    #[test]
    fn doall_loop_has_no_carried_raw() {
        let (data, ir) = profile_src(
            "global a[16];
             fn main() { for i in 0..16 { a[i] = i * 2; } }",
        );
        assert!(!data.has_carried_raw(only_loop(&ir)));
    }

    #[test]
    fn reduction_loop_has_carried_raw() {
        let (data, ir) = profile_src(
            "global a[16];
             fn main() { let s = 0; for i in 0..16 { s += a[i]; } }",
        );
        assert!(data.has_carried_raw(only_loop(&ir)));
    }

    #[test]
    fn stencil_carried_distance_is_one() {
        let (data, _ir) = profile_src(
            "global a[16];
             fn main() { for i in 1..16 { a[i] = a[i - 1] + 1; } }",
        );
        let carried = data.carried_raw(0);
        assert!(!carried.is_empty());
        for d in carried {
            assert_eq!(d.site, DepSite::Carried { l: 0, distance: 1 });
        }
    }

    #[test]
    fn cross_loop_pairs_are_one_to_one_for_listing_1() {
        // The paper's Listing 1: second loop reads what the first wrote,
        // element-wise.
        let (data, _) = profile_src(
            "global a[8];
             global b[8];
             fn main() {
                 for i in 0..8 { a[i] = i * 2; }
                 for j in 0..8 { b[j] = a[j] + 1; }
             }",
        );
        let pairs = data.iteration_pairs(0, 1);
        assert_eq!(pairs, (0..8).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn cross_loop_pairs_record_last_write_first_read() {
        // Every element is written twice in loop 0 (iters i and i+8 write
        // a[i%8]); the pipeline pair must use the *last* write iteration.
        let (data, _) = profile_src(
            "global a[8];
             global b[8];
             fn main() {
                 for i in 0..16 { a[i % 8] = i; }
                 for j in 0..8 { b[j] = a[j]; }
             }",
        );
        let pairs = data.iteration_pairs(0, 1);
        assert_eq!(pairs, (8..16).map(|i| (i, i - 8)).collect::<Vec<_>>());
    }

    #[test]
    fn no_cross_loop_pairs_for_independent_loops() {
        let (data, _) = profile_src(
            "global a[8];
             global b[8];
             fn main() {
                 for i in 0..8 { a[i] = i; }
                 for j in 0..8 { b[j] = j; }
             }",
        );
        assert!(data.dependent_loop_pairs().is_empty());
    }

    #[test]
    fn nested_write_attributes_to_outer_sibling_iteration() {
        // Writes happen inside an inner loop; the sibling pair must use the
        // *outer* loop's iteration numbers.
        let (data, ir) = profile_src(
            "global m[4][4];
             global r[4];
             fn main() {
                 for i in 0..4 {
                     for j in 0..4 { m[i][j] = i + j; }
                 }
                 for k in 0..4 { r[k] = m[k][0]; }
             }",
        );
        assert_eq!(ir.loop_count(), 3);
        // Outer write loop is loop 1 in lowering order (inner declared
        // first? order: loops pushed on encounter: for i (body lowered first
        // → inner j gets id 0, outer i gets id 1, k gets id 2).
        let pairs = data.iteration_pairs(1, 2);
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn loop_stats_count_instances_and_iterations() {
        let (data, ir) = profile_src(
            "global a[12];
             fn main() {
                 for i in 0..3 {
                     for j in 0..4 { a[i * 4 + j] = 1; }
                 }
             }",
        );
        assert_eq!(ir.loop_count(), 2);
        // Inner loop (id 0): 3 executions of 4 iterations.
        let inner = data.loop_stats[&0];
        assert_eq!(inner.executions, 3);
        assert_eq!(inner.total_iterations, 12);
        assert_eq!(inner.max_iterations, 4);
        let outer = data.loop_stats[&1];
        assert_eq!(outer.executions, 1);
        assert_eq!(outer.total_iterations, 3);
    }

    #[test]
    fn reduction_access_lines_single_site() {
        let src = "global a[8];
fn main() {
    let s = 0;
    for i in 0..8 {
        s += a[i];
    }
    return s;
}";
        let (data, _) = profile_src(src);
        // Find the address records for loop 0 with var `s`.
        let by_addr = &data.loop_access_lines[&0];
        let s_rec = by_addr.values().find(|a| a.var_name == "s").expect("record for s");
        assert_eq!(s_rec.write_lines.iter().copied().collect::<Vec<_>>(), vec![5]);
        assert_eq!(s_rec.read_lines.iter().copied().collect::<Vec<_>>(), vec![5]);
        assert!(s_rec.inter_iteration);
    }

    #[test]
    fn war_and_waw_are_recorded() {
        let (data, _) = profile_src(
            "global a[2];
             fn main() {
                 let x = a[0];
                 a[0] = 1;
                 a[0] = 2;
             }",
        );
        assert!(data.deps.iter().any(|d| d.kind == DepKind::War));
        assert!(data.deps.iter().any(|d| d.kind == DepKind::Waw));
    }

    #[test]
    fn different_instances_of_same_loop_do_not_carry() {
        // Loop in `f` entered twice; the dependence between the two calls
        // flows through `g[0]` but must not be classified as carried by the
        // inner loop.
        let (data, _ir) = profile_src(
            "global g[4];
             fn f(base) {
                 for i in 0..4 { g[i] = g[i] + base; }
                 return 0;
             }
             fn main() { f(1); f(2); }",
        );
        // Loop 0 is the loop in f. RAW deps on g across the two calls are
        // CrossInstance, not Carried.
        assert!(!data.has_carried_raw(0));
        assert!(data
            .deps
            .iter()
            .any(|d| matches!(d.site, DepSite::CrossInstance { l: 0 }) && d.kind == DepKind::Raw));
    }

    #[test]
    fn sibling_loops_inside_outer_loop_pair_within_parent_iteration() {
        // Two sibling loops inside an outer loop; cross-loop pairs must only
        // relate iterations within the same outer iteration (pairs exist),
        // and the dependence across outer iterations (via b) is carried by
        // the outer loop.
        let (data, ir) = profile_src(
            "global a[4];
             global b[4];
             fn main() {
                 for t in 0..3 {
                     for i in 0..4 { a[i] = b[i] + 1; }
                     for j in 0..4 { b[j] = a[j] * 2; }
                 }
             }",
        );
        assert_eq!(ir.loop_count(), 3);
        // Loops: i = 0, j = 1, t = 2 (inner loops lowered before outer).
        let pairs_ij = data.iteration_pairs(0, 1);
        assert_eq!(pairs_ij, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
        // b written in loop j, read in loop i of the NEXT outer iteration:
        // that is carried by t (loop 2).
        assert!(data.has_carried_raw(2));
    }

    #[test]
    fn profile_merged_unions_runs() {
        let ir = compile(
            "global a[8];
             fn work(n) {
                 for i in 0..n { a[i] = i; }
                 return 0;
             }
             fn main() { work(8); }",
        )
        .unwrap();
        let f = ir.function_named("work").unwrap().id;
        let merged = profile_merged(&ir, f, &[vec![2.0], vec![8.0]]).unwrap();
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.loop_stats[&0].max_iterations, 8);
        assert_eq!(merged.loop_stats[&0].executions, 2);
    }

    #[test]
    fn region_deps_lift_callee_accesses_to_call_sites() {
        // `produce` writes g[0..4] inside its body; `consume` reads them.
        // The statement-level dependence must connect the two *call
        // instructions* in main, not the raw load/store instructions.
        let src = "global g[4];
fn produce() {
    for i in 0..4 { g[i] = i; }
    return 0;
}
fn consume() {
    let s = 0;
    for i in 0..4 { s += g[i]; }
    return s;
}
fn main() {
    produce();
    consume();
}";
        let ir = compile(src).unwrap();
        let data = profile(&ir).unwrap();
        let lifted_raw: Vec<(u32, u32)> = data
            .region_deps
            .iter()
            .filter(|(_, _, k)| *k == DepKind::Raw)
            .map(|(s, t, _)| (*s, *t))
            .collect();
        let call_pair = lifted_raw.iter().find(|(s, t)| {
            matches!(&ir.insts[*s as usize].kind, parpat_ir::InstKind::Call(n) if n == "produce")
                && matches!(&ir.insts[*t as usize].kind, parpat_ir::InstKind::Call(n) if n == "consume")
        });
        assert!(
            call_pair.is_some(),
            "expected produce→consume call-level edge, got {lifted_raw:?}"
        );
    }

    #[test]
    fn region_deps_lift_loop_accesses_to_loop_headers() {
        // Dependence between two sibling loops must appear as an edge
        // between their header instructions.
        let src = "global a[4];
global b[4];
fn main() {
    for i in 0..4 { a[i] = i; }
    for j in 0..4 { b[j] = a[j]; }
}";
        let ir = compile(src).unwrap();
        let data = profile(&ir).unwrap();
        let h0 = ir.loops[0].head_inst;
        let h1 = ir.loops[1].head_inst;
        assert!(
            data.region_deps.contains(&(h0, h1, DepKind::Raw)),
            "expected loop-header edge ({h0},{h1}), got {:?}",
            data.region_deps
        );
    }

    #[test]
    fn region_deps_within_one_region_use_raw_insts() {
        let src = "fn main() {
    let x = 1;
    let y = x + 2;
}";
        let ir = compile(src).unwrap();
        let data = profile(&ir).unwrap();
        // x's store feeds x's load on the next line; both are plain insts in
        // main's body, so the lifted edge keeps the raw instructions.
        let ok = data.region_deps.iter().any(|(s, t, k)| {
            *k == DepKind::Raw
                && matches!(&ir.insts[*s as usize].kind, parpat_ir::InstKind::StoreScalar(n) if n == "x")
                && matches!(&ir.insts[*t as usize].kind, parpat_ir::InstKind::LoadScalar(n) if n == "x")
        });
        assert!(ok);
    }

    #[test]
    fn recursive_sibling_calls_have_no_mutual_raw_edge() {
        // fib(n-1) and fib(n-2) are independent; no lifted RAW edge may
        // connect the two call instructions in either direction.
        let src = "fn fib(n) {
    if n < 2 { return n; }
    let x = fib(n - 1);
    let y = fib(n - 2);
    return x + y;
}
fn main() { fib(8); }";
        let ir = compile(src).unwrap();
        let data = profile(&ir).unwrap();
        let call_insts: Vec<u32> = (0..ir.inst_count() as u32)
            .filter(|&i| {
                matches!(&ir.insts[i as usize].kind, parpat_ir::InstKind::Call(n) if n == "fib")
                    && ir.insts[i as usize].func == ir.function_named("fib").unwrap().id
            })
            .collect();
        assert_eq!(call_insts.len(), 2);
        let (c1, c2) = (call_insts[0], call_insts[1]);
        assert!(!data.region_deps.contains(&(c1, c2, DepKind::Raw)));
        assert!(!data.region_deps.contains(&(c2, c1, DepKind::Raw)));
    }

    #[test]
    fn inst_counts_sum_to_total() {
        let (data, _) = profile_src("fn main() { let s = 0; for i in 0..5 { s += i; } }");
        assert_eq!(data.inst_counts.iter().sum::<u64>(), data.total_insts);
        assert!(data.total_insts > 0);
    }

    /// Feeds one run to the optimized and the reference profiler and
    /// records, at every access, the optimized profiler's context node
    /// next to the reference's loop stack and context chain.
    struct Lockstep<'p> {
        new: DependenceProfiler<'p>,
        old: ReferenceProfiler<'p>,
        seen: Vec<(u32, InstId, Vec<LoopFrame>, Vec<ChainFrame>)>,
    }

    impl Observer for Lockstep<'_> {
        fn enter_function(&mut self, f: FuncId, call: Option<InstId>, rec: bool) {
            self.new.enter_function(f, call, rec);
            self.old.enter_function(f, call, rec);
        }

        fn exit_function(&mut self, f: FuncId) {
            self.new.exit_function(f);
            self.old.exit_function(f);
        }

        fn enter_loop(&mut self, l: LoopId) {
            self.new.enter_loop(l);
            self.old.enter_loop(l);
        }

        fn loop_iteration(&mut self, l: LoopId, iter: u64) {
            self.new.loop_iteration(l, iter);
            self.old.loop_iteration(l, iter);
        }

        fn exit_loop(&mut self, l: LoopId, iterations: u64) {
            self.new.exit_loop(l, iterations);
            self.old.exit_loop(l, iterations);
        }

        fn instruction(&mut self, inst: InstId) {
            self.new.instruction(inst);
            self.old.instruction(inst);
        }

        fn memory(&mut self, access: MemAccess) {
            let (stack, chain) = self.old.context();
            self.seen.push((self.new.cur, access.inst, stack, chain));
            self.new.memory(access);
            self.old.memory(access);
        }
    }

    /// Check the context tree's `classify` and `lift` against the
    /// reference's slice-based functions on every ordered pair of accesses
    /// of `src`'s run, check the two profiles are equal, and return the
    /// sites seen.
    fn tree_agrees_with_slices(src: &str) -> Vec<DepSite> {
        let ir = compile(src).unwrap();
        let mut run = Lockstep {
            new: DependenceProfiler::new(&ir),
            old: ReferenceProfiler::new(&ir),
            seen: Vec::new(),
        };
        run_function(&ir, ir.entry.unwrap(), &[], &mut run, ExecLimits::default()).unwrap();
        let tree = &run.new.tree;
        let mut sites = Vec::new();
        for (i, (a_ctx, a_inst, a_stack, a_chain)) in run.seen.iter().enumerate() {
            for (b_ctx, b_inst, b_stack, b_chain) in &run.seen[i..] {
                let site = ReferenceProfiler::classify(a_stack, b_stack);
                assert_eq!(tree.classify(*a_ctx, *b_ctx), site, "classify {a_stack:?} {b_stack:?}");
                assert_eq!(
                    tree.lift(*a_ctx, *a_inst, *b_ctx, *b_inst),
                    ReferenceProfiler::lift(a_chain, *a_inst, b_chain, *b_inst),
                    "lift {a_chain:?} {b_chain:?}"
                );
                sites.push(site.0);
            }
        }
        let (new, old) = (run.new.into_data(), run.old.into_data());
        assert!(new == old, "profiles differ\nnew: {new:?}\nreference: {old:?}");
        sites
    }

    #[test]
    fn tree_matches_slices_for_reentered_inner_loops() {
        let sites = tree_agrees_with_slices(
            "global g[4];
             fn f(base) {
                 for i in 0..4 { g[i] = g[i] + base; }
                 return 0;
             }
             fn main() {
                 f(1);
                 f(2);
                 for t in 0..2 { for j in 0..3 { g[j] = g[j] + t; } }
             }",
        );
        assert!(sites.iter().any(|s| matches!(s, DepSite::CrossInstance { .. })));
        assert!(sites.iter().any(|s| matches!(s, DepSite::Carried { .. })));
    }

    #[test]
    fn tree_matches_slices_for_sibling_loops() {
        let sites = tree_agrees_with_slices(
            "global a[4];
             global b[4];
             fn main() {
                 for t in 0..2 {
                     for i in 0..4 { a[i] = b[i] + 1; }
                     for j in 0..4 { b[j] = a[j] * 2; }
                 }
             }",
        );
        assert!(sites.iter().any(|s| matches!(s, DepSite::CrossLoop { .. })));
    }

    #[test]
    fn tree_matches_slices_for_accesses_outside_loops() {
        let sites = tree_agrees_with_slices(
            "global a[4];
             fn main() {
                 let s = 1;
                 for i in 0..4 { a[i] = s; s += 1; }
                 let t = a[3] + s;
                 return t;
             }",
        );
        assert!(sites.contains(&DepSite::OutsideLoop));
        assert!(sites.contains(&DepSite::Intra));
    }

    #[test]
    fn tree_matches_slices_for_recursive_calls() {
        let sites = tree_agrees_with_slices(
            "global memo[8];
             fn fib(n) {
                 if n < 2 { return n; }
                 let s = 0;
                 for k in 1..3 { s += fib(n - k); }
                 memo[n] = s;
                 return s;
             }
             fn main() {
                 fib(4);
                 fib(5);
             }",
        );
        assert!(sites.iter().any(|s| matches!(s, DepSite::Carried { .. })));
        assert!(sites.iter().any(|s| matches!(s, DepSite::CrossInstance { .. })));
    }

    #[test]
    fn one_instruction_under_two_loop_nests_notes_both() {
        // `bump`'s load and store of g[0] run under the first loop, then
        // under the second: each loop needs its own line record for g[0].
        let src = "global g[1];
fn bump() {
    g[0] = g[0] + 1;
    return 0;
}
fn main() {
    for i in 0..3 { bump(); }
    for j in 0..3 { bump(); }
}";
        tree_agrees_with_slices(src);
        let (data, ir) = profile_src(src);
        assert_eq!(ir.loop_count(), 2);
        for l in 0..2 {
            let rec = &data.loop_access_lines[&l][&0];
            assert_eq!(rec.write_lines.iter().copied().collect::<Vec<_>>(), vec![3]);
            assert!(rec.inter_iteration && rec.rewritten);
        }
    }

    /// Profile `src` collecting the context tree from `floor` nodes on,
    /// check the data against the reference profiler's, and return the
    /// live nodes at the end.
    fn profile_collecting(src: &str, floor: usize) -> usize {
        let ir = compile(src).unwrap();
        let mut new = DependenceProfiler::new(&ir);
        (new.collect_at, new.collect_floor) = (floor, floor);
        let mut old = ReferenceProfiler::new(&ir);
        let mut both = parpat_ir::event::Tee::new(&mut new, &mut old);
        run_function(&ir, ir.entry.unwrap(), &[], &mut both, ExecLimits::default()).unwrap();
        let live = new.tree.nodes.len();
        let (new, old) = (new.into_data(), old.into_data());
        assert!(new == old, "profiles differ\nnew: {new:?}\nreference: {old:?}");
        live
    }

    #[test]
    fn collection_keeps_profiles_identical() {
        for src in [
            "global g[4];
             fn f(base) {
                 for i in 0..4 { g[i] = g[i] + base; }
                 return 0;
             }
             fn main() {
                 f(1);
                 f(2);
                 for t in 0..5 { for j in 0..3 { g[j] = g[j] + t; } f(t); }
             }",
            "global a[4];
             global b[4];
             fn main() {
                 for t in 0..6 {
                     for i in 0..4 { a[i] = b[i] + 1; }
                     for j in 0..4 { b[j] = a[j] * 2; }
                 }
             }",
            "global memo[8];
             fn fib(n) {
                 if n < 2 { return n; }
                 let s = 0;
                 for k in 1..3 { s += fib(n - k); }
                 memo[n] = s;
                 return s;
             }
             fn main() {
                 fib(6);
                 fib(7);
             }",
            // The store's anti dependence reaches back to a read several
            // collections ago; its distance depends on that read's
            // iteration.
            "global a[2];
             fn main() {
                 a[0] = 1;
                 let s = 0;
                 for i in 0..500 {
                     if i == 2 { s += a[0]; }
                     if i == 400 { a[0] = s; }
                     a[1] = i;
                 }
             }",
        ] {
            profile_collecting(src, 8);
        }
    }

    #[test]
    fn collection_bounds_the_tree_of_a_long_loop() {
        let live = profile_collecting(
            "fn main() { let s = 0; for i in 0..100000 { s += 1; } return s; }",
            64,
        );
        assert!(live <= 128, "{live} live nodes after 100000 iterations");
    }

    #[test]
    fn dense_shadow_splits_at_the_frame_region_base() {
        let ir = compile("global a[3]; global b[2]; fn main() { b[1] = 1; }").unwrap();
        let mut shadow = Shadow::new(&ir, Vec::new(), Vec::new());
        shadow.cell(FRAME_REGION_BASE).lines = 7;
        shadow.cell(4).lines = 9;
        assert_eq!(shadow.frames[0].lines, 7);
        // The last global cell: the global region never grows past it.
        assert_eq!(shadow.globals.len(), 5);
        assert_eq!(shadow.globals[4].lines, 9);
        let touched: Vec<u64> =
            shadow.cells().filter(|(_, c)| c.lines != NONE).map(|(a, _)| a).collect();
        assert_eq!(touched, vec![4, FRAME_REGION_BASE]);
    }

    #[test]
    fn profiles_the_first_frame_cell_and_the_last_global_cell() {
        // `x` is main's slot 0, i.e. exactly FRAME_REGION_BASE; `a[4]` is
        // the last global cell.
        let src = "global a[5];
fn main() {
    let x = 0;
    for i in 0..3 {
        x += a[4];
        a[4] = x;
    }
    return x;
}";
        tree_agrees_with_slices(src);
        let (data, _) = profile_src(src);
        let lines = &data.loop_access_lines[&0];
        assert_eq!(lines.keys().copied().collect::<Vec<_>>(), vec![4, FRAME_REGION_BASE]);
        assert_eq!(lines[&FRAME_REGION_BASE].var_name, "x");
        assert!(lines[&4].inter_iteration && lines[&4].rewritten);
    }
}
