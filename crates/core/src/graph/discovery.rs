//! The per-handle dependence state machine.

use super::{DiscoveryStats, GraphSink};
use crate::access::AccessMode;
use crate::opts::OptConfig;
use crate::task::{SpecView, TaskId, TaskSpec};
use crate::util::InlineVec;

const NO_SUCC: u32 = u32::MAX;

/// Inline capacity of the writer/group lists: a handle usually has one
/// writer; `inoutset` groups beyond 4 members spill once and keep their
/// capacity across [`DiscoveryEngine::reset_handle_state`].
const WRITERS_INLINE: usize = 4;
/// Inline capacity of the per-handle reader list: slice handles see a
/// handful of readers between writes in the bundled apps.
const READERS_INLINE: usize = 8;

/// Dependence state of one data region during sequential discovery.
#[derive(Clone, Debug, Default)]
struct HandleState {
    /// The task(s) whose write this region last saw: a single writer for
    /// `out`/`inout`, or every member of the current `inoutset` group.
    last_writers: InlineVec<TaskId, WRITERS_INLINE>,
    /// Whether `last_writers` is an `inoutset` group.
    writers_are_set: bool,
    /// Whether the group can still accept members (no other-mode access has
    /// been seen on this region since the group opened).
    group_open: bool,
    /// Redirect node materialized for this group's successors by
    /// optimization (c).
    redirect: Option<TaskId>,
    /// Predecessors each *new member* of the open group must depend on:
    /// the tasks the group opened after, or the single redirect node
    /// optimization (c) funneled them into when the second member joined.
    group_base: InlineVec<TaskId, WRITERS_INLINE>,
    /// Readers since the last write.
    readers: InlineVec<TaskId, READERS_INLINE>,
}

/// Sequential task-dependency-graph discovery.
///
/// One engine instance embodies one producer thread's discovery of one
/// graph (or one iteration of a persistent region). It owns the per-handle
/// dependence state and the duplicate-edge probe table, and emits nodes and
/// edges into a [`GraphSink`].
#[derive(Debug)]
pub struct DiscoveryEngine {
    opts: OptConfig,
    handles: Vec<HandleState>,
    /// `last_succ[pred]` = most recent successor attached to `pred`; the
    /// O(1) duplicate probe of optimization (b). Valid because submission
    /// is sequential: duplicate edges from one task's depend list are
    /// attached consecutively.
    last_succ: Vec<u32>,
    stats: DiscoveryStats,
    scratch_preds: Vec<TaskId>,
    /// Scratch for redirect materialization: the group members being
    /// funneled into the redirect node (recycled — never cloned from the
    /// handle state).
    scratch_members: Vec<TaskId>,
}

impl DiscoveryEngine {
    /// New engine with the given optimization switches.
    pub fn new(opts: OptConfig) -> Self {
        DiscoveryEngine {
            opts,
            handles: Vec::new(),
            last_succ: Vec::new(),
            stats: DiscoveryStats::default(),
            scratch_preds: Vec::new(),
            scratch_members: Vec::new(),
        }
    }

    /// The optimization configuration in use.
    pub fn opts(&self) -> OptConfig {
        self.opts
    }

    /// Pre-size the engine's tables so discovering up to `nodes` more
    /// nodes over up to `handles` registered regions allocates nothing
    /// (the inline per-handle lists may still spill on first use; see
    /// DESIGN.md §4.4 for the warm-up protocol).
    pub fn reserve(&mut self, nodes: usize, handles: usize) {
        self.last_succ.reserve(nodes);
        if handles > self.handles.len() {
            self.handles.resize_with(handles, HandleState::default);
        }
        self.scratch_preds.reserve(16);
        self.scratch_members.reserve(16);
    }

    /// Counters so far.
    pub fn stats(&self) -> DiscoveryStats {
        self.stats
    }

    /// Reset the per-handle dependence state (e.g. at an iteration barrier)
    /// while keeping cumulative statistics.
    ///
    /// The persistent-region implementation calls this between iterations:
    /// the implicit barrier guarantees every task completed, so carrying
    /// dependence state across the barrier would only create the
    /// inter-iteration edges that the paper notes are removed (§3.3).
    pub fn reset_handle_state(&mut self) {
        for h in &mut self.handles {
            h.last_writers.clear();
            h.writers_are_set = false;
            h.group_open = false;
            h.redirect = None;
            h.group_base.clear();
            h.readers.clear();
        }
        // The duplicate-edge probe table must reset too: if the sink's ids
        // restart (a fresh graph instance after the barrier), a stale
        // `last_succ[pred] == succ` entry from the previous graph would
        // wrongly suppress the first real `pred -> succ` edge of the new
        // one.
        self.last_succ.fill(NO_SUCC);
    }

    fn handle_mut(&mut self, idx: usize) -> &mut HandleState {
        if idx >= self.handles.len() {
            self.handles.resize_with(idx + 1, HandleState::default);
        }
        &mut self.handles[idx]
    }

    fn note_node(&mut self, id: TaskId) {
        let idx = id.index();
        if idx >= self.last_succ.len() {
            self.last_succ.resize(idx + 1, NO_SUCC);
        }
    }

    /// Add edge `pred -> succ` with the optimization-(b) probe and
    /// self-edge suppression.
    fn edge(&mut self, sink: &mut dyn GraphSink, pred: TaskId, succ: TaskId) {
        if pred == succ {
            // A task reading and writing the same region does not depend on
            // itself (OpenMP orders *distinct* sibling tasks).
            return;
        }
        if self.opts.dedup_edges {
            self.stats.dup_probes += 1;
            let slot = &mut self.last_succ[pred.index()];
            if *slot == succ.0 {
                self.stats.dup_skipped += 1;
                return;
            }
            *slot = succ.0;
        }
        if sink.add_edge(pred, succ) {
            self.stats.edges_created += 1;
        } else {
            self.stats.edges_pruned += 1;
        }
    }

    /// Materialize a sealed optimization-(c) redirect node R with edges
    /// `preds -> R`; successors then attach to R alone.
    fn funnel(&mut self, sink: &mut dyn GraphSink, preds: &[TaskId]) -> TaskId {
        let r = sink.add_redirect();
        self.stats.redirect_nodes += 1;
        self.note_node(r);
        for &p in preds {
            self.edge(sink, p, r);
        }
        sink.seal(r);
        r
    }

    /// Resolve the predecessors representing "the last write" of handle
    /// `hidx`, materializing the optimization-(c) redirect node when
    /// profitable. The result is left in `self.scratch_preds`.
    fn writer_preds(&mut self, sink: &mut dyn GraphSink, hidx: usize) {
        self.scratch_preds.clear();
        let st = &self.handles[hidx];
        if st.last_writers.is_empty() {
            return;
        }
        if st.writers_are_set && st.last_writers.len() >= 2 && self.opts.inoutset_redirect {
            if let Some(r) = st.redirect {
                self.scratch_preds.push(r);
                return;
            }
            // Materialize R: members -> R, successors will attach to R.
            // The member list is staged through a recycled scratch buffer
            // (a borrow-splitting move, not a clone: `edge` needs `&mut
            // self` while the members live in `self.handles`).
            let mut members = std::mem::take(&mut self.scratch_members);
            members.clear();
            members.extend_from_slice(&st.last_writers);
            let r = self.funnel(sink, &members);
            self.scratch_members = members;
            self.handles[hidx].redirect = Some(r);
            self.scratch_preds.push(r);
        } else {
            self.scratch_preds.extend_from_slice(&st.last_writers);
        }
    }

    /// Submit one task from an owned [`TaskSpec`] (convenience wrapper
    /// over [`DiscoveryEngine::submit_view`]).
    pub fn submit(&mut self, sink: &mut dyn GraphSink, spec: &TaskSpec) -> TaskId {
        self.submit_view(sink, &spec.view())
    }

    /// Submit one task: create its node, resolve its `depend` clause into
    /// edges, and seal it. Returns the new task's id.
    ///
    /// This is the allocation-free entry point: the view borrows its
    /// depend list and footprint (typically from a recycled
    /// [`crate::builder::SpecBuf`]), and the engine stages everything
    /// through its own recycled scratch buffers.
    pub fn submit_view(&mut self, sink: &mut dyn GraphSink, view: &SpecView<'_>) -> TaskId {
        let id = sink.add_task(view);
        self.note_node(id);
        self.stats.tasks += 1;
        self.stats.depend_items += view.depends.len() as u64;

        for d in view.depends {
            let hidx = d.handle.index();
            self.handle_mut(hidx); // ensure exists
            match d.mode {
                AccessMode::In => {
                    self.writer_preds(sink, hidx);
                    let preds = std::mem::take(&mut self.scratch_preds);
                    for p in &preds {
                        self.edge(sink, *p, id);
                    }
                    self.scratch_preds = preds;
                    let st = &mut self.handles[hidx];
                    st.group_open = false;
                    st.readers.push(id);
                }
                AccessMode::Out | AccessMode::InOut => {
                    if self.handles[hidx].readers.is_empty() {
                        self.writer_preds(sink, hidx);
                    } else {
                        self.scratch_preds.clear();
                        let readers = std::mem::take(&mut self.handles[hidx].readers);
                        self.scratch_preds.extend_from_slice(&readers);
                        self.handles[hidx].readers = readers;
                    }
                    let preds = std::mem::take(&mut self.scratch_preds);
                    for p in &preds {
                        self.edge(sink, *p, id);
                    }
                    self.scratch_preds = preds;
                    let st = &mut self.handles[hidx];
                    st.last_writers.clear();
                    st.last_writers.push(id);
                    st.writers_are_set = false;
                    st.group_open = false;
                    st.redirect = None;
                    st.group_base.clear();
                    st.readers.clear();
                }
                AccessMode::InOutSet => {
                    let joinable = {
                        let st = &self.handles[hidx];
                        st.writers_are_set && st.group_open && st.readers.is_empty()
                    };
                    if joinable {
                        // Join the open group: same base predecessors, no
                        // ordering against fellow members.
                        let mut base = std::mem::take(&mut self.handles[hidx].group_base);
                        if base.len() >= 2 && self.opts.inoutset_redirect {
                            // Optimization (c), readers -> group side: the
                            // second member funnels the n-reader base into
                            // one redirect node, so it and every later
                            // member need one edge instead of n.
                            let r = self.funnel(sink, &base);
                            base.clear();
                            base.push(r);
                        }
                        for p in &base {
                            self.edge(sink, *p, id);
                        }
                        self.handles[hidx].group_base = base;
                        self.handles[hidx].last_writers.push(id);
                    } else {
                        // Open a new group.
                        if self.handles[hidx].readers.is_empty() {
                            self.writer_preds(sink, hidx);
                        } else {
                            self.scratch_preds.clear();
                            let readers = std::mem::take(&mut self.handles[hidx].readers);
                            self.scratch_preds.extend_from_slice(&readers);
                            self.handles[hidx].readers = readers;
                        }
                        let preds = std::mem::take(&mut self.scratch_preds);
                        for p in &preds {
                            self.edge(sink, *p, id);
                        }
                        let st = &mut self.handles[hidx];
                        st.group_base.clear();
                        st.group_base.extend_from_slice(&preds);
                        self.scratch_preds = preds;
                        st.last_writers.clear();
                        st.last_writers.push(id);
                        st.writers_are_set = true;
                        st.group_open = true;
                        st.redirect = None;
                        st.readers.clear();
                    }
                }
            }
        }
        sink.seal(id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::HandleSpace;
    use std::collections::HashSet;

    /// A sink that records the graph in memory; `consumed` simulates tasks
    /// already executed (for pruning tests).
    #[derive(Default)]
    struct MemSink {
        n_nodes: u32,
        redirects: HashSet<u32>,
        edges: Vec<(u32, u32)>,
        consumed: HashSet<u32>,
        sealed: Vec<u32>,
    }

    impl GraphSink for MemSink {
        fn add_task(&mut self, _spec: &SpecView<'_>) -> TaskId {
            let id = self.n_nodes;
            self.n_nodes += 1;
            TaskId(id)
        }
        fn add_redirect(&mut self) -> TaskId {
            let id = self.n_nodes;
            self.n_nodes += 1;
            self.redirects.insert(id);
            TaskId(id)
        }
        fn add_edge(&mut self, pred: TaskId, succ: TaskId) -> bool {
            if self.consumed.contains(&pred.0) {
                return false;
            }
            self.edges.push((pred.0, succ.0));
            true
        }
        fn seal(&mut self, task: TaskId) {
            self.sealed.push(task.0);
        }
    }

    fn space2() -> (
        HandleSpace,
        crate::handle::DataHandle,
        crate::handle::DataHandle,
    ) {
        let mut s = HandleSpace::new();
        let x = s.region("x", 64);
        let y = s.region("y", 64);
        (s, x, y)
    }

    #[test]
    fn write_then_read_creates_one_edge() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        let w = eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        let r = eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert_eq!(sink.edges, vec![(w.0, r.0)]);
        assert_eq!(eng.stats().edges_created, 1);
    }

    #[test]
    fn independent_reads_share_no_edges() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        eng.submit(&mut sink, &TaskSpec::new("r1").depend(x, AccessMode::In));
        eng.submit(&mut sink, &TaskSpec::new("r2").depend(x, AccessMode::In));
        // two reader edges, no edge between readers
        assert_eq!(sink.edges.len(), 2);
        assert!(sink.edges.iter().all(|&(p, _)| p == 0));
    }

    #[test]
    fn write_after_reads_depends_on_all_readers() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        eng.submit(&mut sink, &TaskSpec::new("w0").depend(x, AccessMode::Out));
        eng.submit(&mut sink, &TaskSpec::new("r1").depend(x, AccessMode::In));
        eng.submit(&mut sink, &TaskSpec::new("r2").depend(x, AccessMode::In));
        let w = eng.submit(&mut sink, &TaskSpec::new("w1").depend(x, AccessMode::Out));
        // w1 depends on r1, r2 (not directly on w0: transitive through readers)
        let to_w: Vec<u32> = sink
            .edges
            .iter()
            .filter(|&&(_, s)| s == w.0)
            .map(|&(p, _)| p)
            .collect();
        assert_eq!(to_w, vec![1, 2]);
    }

    #[test]
    fn write_after_write_chains() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        eng.submit(&mut sink, &TaskSpec::new("w0").depend(x, AccessMode::Out));
        eng.submit(&mut sink, &TaskSpec::new("w1").depend(x, AccessMode::InOut));
        eng.submit(&mut sink, &TaskSpec::new("w2").depend(x, AccessMode::Out));
        assert_eq!(sink.edges, vec![(0, 1), (1, 2)]);
    }

    /// Paper Fig. 3: a task writing (x, y) followed by a task reading
    /// (x, y). Without optimizations this is two edges; (b) elides the
    /// duplicate; user-side (a) would avoid even the probes.
    #[test]
    fn opt_b_elides_duplicate_edges_fig3() {
        let (_s, x, y) = space2();
        let run = |opts: OptConfig| {
            let mut eng = DiscoveryEngine::new(opts);
            let mut sink = MemSink::default();
            eng.submit(
                &mut sink,
                &TaskSpec::new("w")
                    .depend(x, AccessMode::Out)
                    .depend(y, AccessMode::Out),
            );
            eng.submit(
                &mut sink,
                &TaskSpec::new("r")
                    .depend(x, AccessMode::In)
                    .depend(y, AccessMode::In),
            );
            (sink.edges.len(), eng.stats())
        };
        let (edges_none, stats_none) = run(OptConfig::none());
        let (edges_b, stats_b) = run(OptConfig::dedup_only());
        assert_eq!(edges_none, 2, "duplicate edge materialized without (b)");
        assert_eq!(edges_b, 1, "(b) elides the duplicate");
        assert_eq!(stats_none.dup_probes, 0);
        assert_eq!(stats_b.dup_probes, 2);
        assert_eq!(stats_b.dup_skipped, 1);
    }

    /// Paper Fig. 4: m inoutset writers then n readers — m·n edges without
    /// (c), m+n with (c).
    #[test]
    fn opt_c_redirect_reduces_mn_to_m_plus_n_fig4() {
        let (m, n) = (5usize, 7usize);
        let run = |opts: OptConfig| {
            let mut s = HandleSpace::new();
            let x = s.region("x", 64);
            let mut eng = DiscoveryEngine::new(opts);
            let mut sink = MemSink::default();
            for _ in 0..m {
                eng.submit(
                    &mut sink,
                    &TaskSpec::new("X").depend(x, AccessMode::InOutSet),
                );
            }
            for _ in 0..n {
                eng.submit(&mut sink, &TaskSpec::new("Y").depend(x, AccessMode::In));
            }
            (sink.edges.len(), sink.redirects.len(), eng.stats())
        };
        let (edges_plain, r_plain, _) = run(OptConfig::none());
        let (edges_c, r_c, stats_c) = run(OptConfig::redirect_only());
        assert_eq!(edges_plain, m * n);
        assert_eq!(r_plain, 0);
        assert_eq!(edges_c, m + n);
        assert_eq!(r_c, 1);
        assert_eq!(stats_c.redirect_nodes, 1);
    }

    /// The WAR side of Fig. 4: `n` readers of one region, then `m`
    /// `inoutset` members of it. Returns the sink, the stats, and the
    /// reader and member ids.
    fn war_join(
        opts: OptConfig,
        n: usize,
        m: usize,
    ) -> (MemSink, DiscoveryStats, Vec<u32>, Vec<u32>) {
        let mut s = HandleSpace::new();
        let x = s.region("x", 64);
        let mut eng = DiscoveryEngine::new(opts);
        let mut sink = MemSink::default();
        let readers = (0..n)
            .map(|_| {
                eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In))
                    .0
            })
            .collect();
        let members = (0..m)
            .map(|_| {
                eng.submit(
                    &mut sink,
                    &TaskSpec::new("X").depend(x, AccessMode::InOutSet),
                )
                .0
            })
            .collect();
        (sink, eng.stats(), readers, members)
    }

    /// Whether `to` is reachable from `from` along the sink's edges.
    fn reaches(sink: &MemSink, from: u32, to: u32) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(u) = stack.pop() {
            if u == to {
                return true;
            }
            if seen.insert(u) {
                stack.extend(sink.edges.iter().filter(|e| e.0 == u).map(|e| e.1));
            }
        }
        false
    }

    /// n readers then m members: n·m edges without (c); with (c) the
    /// first member takes the n reader edges, the second funnels the
    /// readers into R (n edges) and every member after the first needs
    /// one edge from R — 2n+m−1 in all.
    #[test]
    fn opt_c_redirect_reduces_war_join_to_2n_plus_m_minus_1() {
        for (n, m) in [(2, 2), (5, 7), (7, 5), (16, 16)] {
            let (plain, st_plain, ..) = war_join(OptConfig::none(), n, m);
            assert_eq!(plain.edges.len(), n * m, "n={n} m={m}");
            assert_eq!(st_plain.redirect_nodes, 0);
            let (c, st_c, ..) = war_join(OptConfig::redirect_only(), n, m);
            assert_eq!(c.edges.len(), 2 * n + m - 1, "n={n} m={m}");
            assert_eq!(c.redirects.len(), 1);
            assert_eq!(st_c.redirect_nodes, 1);
        }
    }

    #[test]
    fn war_join_needs_no_redirect_for_one_member_or_one_reader() {
        // m = 1: the lone member takes the reader edges directly.
        let (sink, st, ..) = war_join(OptConfig::all(), 6, 1);
        assert_eq!((sink.edges.len(), st.redirect_nodes), (6, 0));
        // One-predecessor base: each member needs one edge anyway.
        let (sink, st, ..) = war_join(OptConfig::all(), 1, 6);
        assert_eq!((sink.edges.len(), st.redirect_nodes), (6, 0));
    }

    #[test]
    fn war_redirect_orders_every_member_after_every_reader() {
        for opts in [OptConfig::none(), OptConfig::all()] {
            let (sink, _, readers, members) = war_join(opts, 5, 4);
            for &r in &readers {
                for &x in &members {
                    assert!(reaches(&sink, r, x), "{opts:?}: reader {r} !-> member {x}");
                }
            }
            for &a in &members {
                for &b in &members {
                    assert!(a == b || !reaches(&sink, a, b), "members stay unordered");
                }
            }
        }
    }

    /// Writer, n readers, m members, k readers: with (c) one redirect on
    /// each side of the group, and every dependence of the plain graph
    /// survives.
    #[test]
    fn opt_c_applies_on_both_sides_of_a_group() {
        let (n, m, k) = (4usize, 3usize, 5usize);
        let run = |opts: OptConfig| {
            let mut s = HandleSpace::new();
            let x = s.region("x", 64);
            let mut eng = DiscoveryEngine::new(opts);
            let mut sink = MemSink::default();
            let modes = std::iter::once(AccessMode::Out)
                .chain(std::iter::repeat_n(AccessMode::In, n))
                .chain(std::iter::repeat_n(AccessMode::InOutSet, m))
                .chain(std::iter::repeat_n(AccessMode::In, k));
            let ids: Vec<u32> = modes
                .map(|mode| eng.submit(&mut sink, &TaskSpec::new("t").depend(x, mode)).0)
                .collect();
            (sink, eng.stats(), ids)
        };
        let (plain, _, _) = run(OptConfig::none());
        let (c, st, ids) = run(OptConfig::all());
        assert_eq!(plain.edges.len(), n + n * m + m * k);
        // w -> readers, readers -> first member and -> R1, R1 -> other
        // members, members -> R2, R2 -> trailing readers.
        assert_eq!(c.edges.len(), n + (2 * n + m - 1) + (m + k));
        assert_eq!(st.redirect_nodes, 2);
        // The plain graph has no redirects, so its node ids are submission
        // indices: every plain dependence must be implied by (c)'s graph.
        for &(p, q) in &plain.edges {
            assert!(
                reaches(&c, ids[p as usize], ids[q as usize]),
                "lost {p} -> {q}"
            );
        }
    }

    /// The WAR redirect is captured into the persistent template like any
    /// other node, and every replayed iteration keeps its ordering.
    #[test]
    fn war_redirect_is_captured_and_replays_in_order() {
        use crate::exec::{ExecConfig, Executor};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        const N: usize = 6;
        const M: usize = 5;
        const ITERS: u64 = 8;

        let mut s = HandleSpace::new();
        let x = s.region("x", 64);
        let exec = Executor::new(ExecConfig {
            n_workers: 2,
            ..Default::default()
        });
        let reads = Arc::new(AtomicU64::new(0));
        // Members that started before all of their iteration's readers.
        let early = Arc::new(AtomicU64::new(0));
        let mut region = exec.persistent_region(OptConfig::all());
        for iter in 0..ITERS {
            region.run(iter, |sub| {
                for _ in 0..N {
                    let reads = reads.clone();
                    sub.submit(TaskSpec::new("r").depend(x, AccessMode::In).body(move |_| {
                        reads.fetch_add(1, Ordering::SeqCst);
                    }));
                }
                for _ in 0..M {
                    let (reads, early) = (reads.clone(), early.clone());
                    sub.submit(TaskSpec::new("X").depend(x, AccessMode::InOutSet).body(
                        move |ctx| {
                            if reads.load(Ordering::SeqCst) < (ctx.iter + 1) * N as u64 {
                                early.fetch_add(1, Ordering::SeqCst);
                            }
                        },
                    ));
                }
            });
        }
        let t = region.template().expect("captured");
        assert_eq!(t.n_nodes() - t.n_tasks(), 1, "one redirect captured");
        assert_eq!(t.n_edges(), (2 * N + M - 1) as u64);
        assert_eq!(region.first_iteration_stats().redirect_nodes, 1);
        assert_eq!(region.reuses(), ITERS - 1);
        assert_eq!(reads.load(Ordering::SeqCst), ITERS * N as u64);
        assert_eq!(early.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn inoutset_members_do_not_order_against_each_other() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        let w = eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        let a = eng.submit(
            &mut sink,
            &TaskSpec::new("a").depend(x, AccessMode::InOutSet),
        );
        let b = eng.submit(
            &mut sink,
            &TaskSpec::new("b").depend(x, AccessMode::InOutSet),
        );
        // a and b each depend on w only.
        assert_eq!(sink.edges, vec![(w.0, a.0), (w.0, b.0)]);
    }

    #[test]
    fn single_member_set_needs_no_redirect() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        let a = eng.submit(
            &mut sink,
            &TaskSpec::new("a").depend(x, AccessMode::InOutSet),
        );
        let r = eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert_eq!(sink.edges, vec![(a.0, r.0)]);
        assert_eq!(eng.stats().redirect_nodes, 0);
    }

    #[test]
    fn redirect_is_shared_by_all_successors() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 64);
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        for _ in 0..3 {
            eng.submit(
                &mut sink,
                &TaskSpec::new("X").depend(x, AccessMode::InOutSet),
            );
        }
        eng.submit(&mut sink, &TaskSpec::new("r1").depend(x, AccessMode::In));
        eng.submit(&mut sink, &TaskSpec::new("r2").depend(x, AccessMode::In));
        let w = eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        // one redirect only; w depends on the readers. Ids: X=0,1,2, r1=3,
        // redirect R=4 (materialized while resolving r1's deps), r2=5.
        assert_eq!(eng.stats().redirect_nodes, 1);
        let to_w: Vec<u32> = sink
            .edges
            .iter()
            .filter(|&&(_, su)| su == w.0)
            .map(|&(p, _)| p)
            .collect();
        assert_eq!(to_w, vec![3, 5]);
        // both readers attach to the single redirect node 4
        let from_r: Vec<u32> = sink
            .edges
            .iter()
            .filter(|&&(p, _)| p == 4)
            .map(|&(_, su)| su)
            .collect();
        assert_eq!(from_r, vec![3, 5]);
    }

    #[test]
    fn readers_split_inoutset_groups() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 64);
        let mut eng = DiscoveryEngine::new(OptConfig::none());
        let mut sink = MemSink::default();
        let a = eng.submit(
            &mut sink,
            &TaskSpec::new("a").depend(x, AccessMode::InOutSet),
        );
        let r = eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        let b = eng.submit(
            &mut sink,
            &TaskSpec::new("b").depend(x, AccessMode::InOutSet),
        );
        // b opens a NEW group ordered after reader r, not joining a's group.
        assert!(sink.edges.contains(&(a.0, r.0)));
        assert!(sink.edges.contains(&(r.0, b.0)));
        assert!(!sink.edges.contains(&(a.0, b.0)));
    }

    #[test]
    fn pruning_skips_consumed_predecessors() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        let w = eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        sink.consumed.insert(w.0); // w completed before r was discovered
        eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert!(sink.edges.is_empty());
        assert_eq!(eng.stats().edges_pruned, 1);
        assert_eq!(eng.stats().edges_created, 0);
    }

    #[test]
    fn no_self_edges() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::none());
        let mut sink = MemSink::default();
        eng.submit(
            &mut sink,
            &TaskSpec::new("rw")
                .depend(x, AccessMode::In)
                .depend(x, AccessMode::Out),
        );
        assert!(sink.edges.is_empty());
    }

    #[test]
    fn reset_handle_state_cuts_inter_iteration_edges() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        eng.reset_handle_state();
        eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert!(
            sink.edges.is_empty(),
            "barrier reset removes inter-iteration edges"
        );
    }

    #[test]
    fn reset_clears_duplicate_probe_table() {
        // With dedup on, discover `w -> r` (edge 0 -> 1), then reset and
        // replay the same pattern into a fresh sink whose ids restart at 0.
        // A stale `last_succ[0] == 1` entry would suppress the new graph's
        // only real edge.
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert_eq!(sink.edges, vec![(0, 1)]);

        eng.reset_handle_state();
        let mut sink2 = MemSink::default();
        eng.submit(&mut sink2, &TaskSpec::new("w").depend(x, AccessMode::Out));
        eng.submit(&mut sink2, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert_eq!(
            sink2.edges,
            vec![(0, 1)],
            "probe table from the previous graph must not prune a real edge"
        );
    }

    #[test]
    fn every_task_is_sealed_exactly_once() {
        let (_s, x, y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        for i in 0..10 {
            let mode = if i % 3 == 0 {
                AccessMode::Out
            } else {
                AccessMode::In
            };
            eng.submit(
                &mut sink,
                &TaskSpec::new("t").depend(x, mode).depend(y, AccessMode::In),
            );
        }
        let mut sealed = sink.sealed.clone();
        sealed.sort_unstable();
        sealed.dedup();
        assert_eq!(sealed.len(), sink.n_nodes as usize);
    }

    #[test]
    fn stats_edge_accounting_is_consistent() {
        let (_s, x, y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::dedup_only());
        let mut sink = MemSink::default();
        eng.submit(
            &mut sink,
            &TaskSpec::new("w")
                .depend(x, AccessMode::Out)
                .depend(y, AccessMode::Out),
        );
        eng.submit(
            &mut sink,
            &TaskSpec::new("r")
                .depend(x, AccessMode::In)
                .depend(y, AccessMode::In),
        );
        let st = eng.stats();
        assert_eq!(st.edges_attempted(), 2);
        assert_eq!(st.edges_created, 1);
        assert_eq!(st.dup_skipped, 1);
        assert_eq!(st.tasks, 2);
        assert_eq!(st.depend_items, 4);
        assert_eq!(st.nodes(), 2);
    }
}
