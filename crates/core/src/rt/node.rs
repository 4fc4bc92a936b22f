//! Live task nodes: the kernel's readiness state machine.
//!
//! An [`RtNode`] is one instantiated task. Its `pending` counter is
//! **biased**: a node starts at [`BIAS`], attaching an edge leaves the
//! successor's counter alone (the producer only counts the edge in a
//! producer-only field), and [`RtNode::seal`] settles the count in one
//! RMW, to the number of attached edges still unreleased. The bias is the
//! old *creation token* made large: no sequence of releases can drive the
//! counter to zero before the producer has sealed the node. The
//! decrement-on-complete transition — the heart of dependent-task
//! readiness — lives *only* here; back-ends never touch in-degree
//! counters themselves.
//!
//! Streaming successors hang off a one-word link lock (`LOCKED |
//! COMPLETED`) beside the successor list. Exactly two parties ever touch
//! it: the producer attaching an edge and the one thread completing the
//! node. An edge requested after completion is *pruned*.
//!
//! Nodes live in a [`super::NodeArena`] and are shared as [`NodeRef`]s —
//! pooled references whose clone/drop never touch the allocator. The
//! per-node successor list is an [`InlineVec`]: up to [`SUCC_INLINE`]
//! successors stay inline in the node; a wider fan-out spills to the heap
//! once, and that list is freed when the completion takes it.

use super::arena::{NodeArena, NodeRef};
use super::probe::RtProbe;
use crate::task::{SpecView, TaskBody, TaskId};
use crate::util::InlineVec;
use crate::workdesc::{CommOp, WorkDesc};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Successors kept inline in the node before spilling to the heap.
///
/// Covers the narrow fan-outs: a Cholesky tile writer feeds the panel
/// below it, and most LULESH/HPCG slice writers feed a handful of
/// consumers. It does not cover the wide ones: in one streaming LULESH
/// iteration at `-s 40`, TPL 512, about 1,540 of the 7,170 nodes request
/// 26–81 successors before pruning, and each such list allocates at the
/// spill and once per doubling — about 0.6 allocations per node.
pub const SUCC_INLINE: usize = 8;

/// Ready-list entries kept inline in a [`Completion`].
pub const READY_INLINE: usize = 8;

/// Initial `pending` value of every node: far above any in-degree, so a
/// node cannot become ready before [`RtNode::seal`] settles it.
pub(crate) const BIAS: u32 = 1 << 30;

/// Link-word bit: the successor list is held by one party.
const LOCKED: u32 = 1;
/// Link-word bit: the node completed; later edges are pruned.
const COMPLETED: u32 = 2;
/// Spins a link-word contender makes before it starts yielding.
const SPIN_LIMIT: u32 = 64;

/// The streaming successor list and the one-word lock that guards it.
///
/// The word's only writers are the producer (`0 → LOCKED → 0`) and the
/// completing thread (`0 → LOCKED|COMPLETED → COMPLETED`), so each side
/// takes it with one CAS and releases it with a plain `Release` store:
/// while one side holds `LOCKED` the other cannot change the word.
struct Links {
    word: AtomicU32,
    succs: UnsafeCell<InlineVec<NodeRef, SUCC_INLINE>>,
}

// SAFETY: `word` is atomic. `succs` is only touched by the holder of
// `LOCKED`; taking the bit is an `Acquire` CAS and dropping it a `Release`
// store, so each holder sees the list exactly as the previous holder left
// it. Its `NodeRef`s are `Send + Sync`, so they may be pushed, dropped and
// moved out on either thread.
unsafe impl Sync for Links {}

fn backoff(spins: &mut u32) {
    if *spins < SPIN_LIMIT {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl Links {
    fn new() -> Links {
        Links {
            word: AtomicU32::new(0),
            succs: UnsafeCell::new(InlineVec::new()),
        }
    }

    /// Producer side: push `succ` unless the node completed; returns
    /// whether the edge was attached.
    ///
    /// Acquire on the load that sees `COMPLETED` — a pruned successor
    /// no longer waits for this node, so the producer must see this
    /// node's effects before it seals the successor (the completing CAS
    /// below releases them).
    fn push_unless_completed(&self, succ: &NodeRef) -> bool {
        let mut spins = 0;
        let unlocked = loop {
            let w = self.word.load(Ordering::Acquire);
            if w & COMPLETED != 0 {
                return false;
            }
            if w & LOCKED == 0
                && self
                    .word
                    .compare_exchange(w, w | LOCKED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break w;
            }
            backoff(&mut spins);
        };
        // SAFETY: we hold LOCKED.
        unsafe { (*self.succs.get()).push(succ.clone()) };
        self.word.store(unlocked, Ordering::Release);
        true
    }

    /// Completer side: mark completed and take the list.
    ///
    /// AcqRel CAS — Acquire: see every successor the producer pushed
    /// before its `Release` unlock; Release: publish the task's effects
    /// to a producer that prunes against `COMPLETED`.
    fn take_completing(&self) -> InlineVec<NodeRef, SUCC_INLINE> {
        let mut spins = 0;
        loop {
            let w = self.word.load(Ordering::Relaxed);
            if w & LOCKED == 0
                && self
                    .word
                    .compare_exchange(w, LOCKED | COMPLETED, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                break;
            }
            backoff(&mut spins);
        }
        // SAFETY: we hold LOCKED.
        let taken = std::mem::take(unsafe { &mut *self.succs.get() });
        self.word.store(COMPLETED, Ordering::Release);
        taken
    }
}

/// Result of completing a node.
#[derive(Default)]
pub struct Completion {
    /// Successors that became ready (their last predecessor was this node).
    pub ready: InlineVec<NodeRef, READY_INLINE>,
    /// Total successor releases performed (streaming + persistent) — the
    /// quantity cost models charge per completion.
    pub released: usize,
}

/// A live task instance, shared by the thread executor and the DES
/// simulator.
pub struct RtNode {
    /// Dense id within its graph instance.
    pub id: TaskId,
    /// Task name (profiling).
    pub name: &'static str,
    /// Body to run (None for redirect or cost-model-only nodes).
    pub body: Option<TaskBody>,
    /// Communication side effect (detached-task semantics).
    pub comm: Option<CommOp>,
    /// Cost-model description, kept when the instance is configured to
    /// retain it (virtual-time back-end).
    pub work: Option<WorkDesc>,
    /// Firstprivate payload size (the persistent re-instance memcpy).
    pub fp_bytes: u32,
    /// Whether this is an optimization-(c) redirect node.
    pub is_redirect: bool,
    /// [`BIAS`] minus releases until sealed; unreleased predecessors after.
    pending: AtomicU32,
    /// Edges attached to this node as a successor. Producer-only: written
    /// by `attach_succ` and read by `seal` on the one discovery thread,
    /// so plain `Relaxed` loads and stores, never an RMW.
    attached: AtomicU32,
    /// Streaming successors + completion flag.
    links: Links,
    /// Current iteration (the firstprivate payload a persistent
    /// re-instance rewrites).
    pub iter: AtomicU64,
    /// Successor list of an instanced persistent node. Set once when the
    /// captured template is instanced; unlike streaming edges these
    /// survive completion, so re-instancing allocates nothing.
    persistent_succs: OnceLock<Vec<NodeRef>>,
}

impl RtNode {
    /// A new application-task node value, unsealed; the caller moves it
    /// into an arena.
    pub fn from_view(
        id: TaskId,
        view: &SpecView<'_>,
        iter: u64,
        want_bodies: bool,
        keep_work: bool,
    ) -> RtNode {
        RtNode {
            id,
            name: view.name,
            body: if want_bodies {
                view.body.cloned()
            } else {
                None
            },
            comm: view.comm,
            work: keep_work.then(|| WorkDesc {
                flops: view.flops,
                footprint: view.footprint.to_vec(),
            }),
            fp_bytes: view.fp_bytes,
            is_redirect: false,
            pending: AtomicU32::new(BIAS),
            attached: AtomicU32::new(0),
            links: Links::new(),
            iter: AtomicU64::new(iter),
            persistent_succs: OnceLock::new(),
        }
    }

    /// A bare node backed by its own one-slot arena (redirect-free tests
    /// and standalone uses; graph instances allocate through their arena).
    pub fn bare(id: TaskId, name: &'static str, body: Option<TaskBody>, iter: u64) -> NodeRef {
        NodeArena::singleton(RtNode::bare_value_named(id, name, body, iter))
    }

    fn bare_value_named(
        id: TaskId,
        name: &'static str,
        body: Option<TaskBody>,
        iter: u64,
    ) -> RtNode {
        RtNode {
            id,
            name,
            body,
            comm: None,
            work: None,
            fp_bytes: 0,
            is_redirect: false,
            pending: AtomicU32::new(BIAS),
            attached: AtomicU32::new(0),
            links: Links::new(),
            iter: AtomicU64::new(iter),
            persistent_succs: OnceLock::new(),
        }
    }

    /// A bare node *value* (arena tests fill blocks with these directly).
    #[cfg(test)]
    pub(crate) fn bare_value(id: TaskId, iter: u64) -> RtNode {
        RtNode::bare_value_named(id, "t", None, iter)
    }

    /// Attach a body (arena drop-count tests).
    #[cfg(test)]
    pub(crate) fn with_test_body<F: Fn(&crate::task::TaskCtx) + Send + Sync + 'static>(
        mut self,
        f: F,
    ) -> RtNode {
        self.body = Some(std::sync::Arc::new(f));
        self
    }

    /// A node value instanced from a captured template node (persistent
    /// graphs).
    pub(crate) fn from_template(
        id: TaskId,
        tn: &crate::graph::TemplateNode,
        keep_work: bool,
    ) -> RtNode {
        RtNode {
            id,
            name: tn.name,
            body: tn.body.clone(),
            comm: tn.comm,
            work: keep_work.then(|| tn.work.clone()),
            fp_bytes: tn.fp_bytes,
            is_redirect: tn.is_redirect,
            pending: AtomicU32::new(BIAS),
            attached: AtomicU32::new(0),
            links: Links::new(),
            iter: AtomicU64::new(0),
            persistent_succs: OnceLock::new(),
        }
    }

    /// An empty redirect node value (optimization (c)).
    pub fn redirect(id: TaskId, iter: u64) -> RtNode {
        let mut n = RtNode::bare_value_named(id, "<redirect>", None, iter);
        n.is_redirect = true;
        n
    }

    /// Current pending count, counting an unsealed node's creation token
    /// as one (tests / diagnostics; Relaxed — a racy snapshot is all this
    /// can ever be).
    pub fn pending(&self) -> u32 {
        let raw = self.pending.load(Ordering::Relaxed);
        if raw >= BIAS / 2 {
            raw + self.attached.load(Ordering::Relaxed) + 1 - BIAS
        } else {
            raw
        }
    }

    /// Set the persistent successor list (once, at template instancing).
    pub(crate) fn set_persistent_succs(&self, succs: Vec<NodeRef>) {
        assert!(
            self.persistent_succs.set(succs).is_ok(),
            "persistent successors are instanced once"
        );
    }

    /// Reset an instanced persistent node for a new iteration: its
    /// dependence counter becomes `indegree + BIAS`, and the bias is the
    /// *visibility token* [`super::PersistentInstance::publish`] drops
    /// through [`RtNode::seal`] (nothing is ever attached to these nodes,
    /// so `seal` subtracts exactly `BIAS`).
    ///
    /// This is valid **only** for instanced persistent nodes: their
    /// successor edges live in `persistent_succs`, `attach_succ` is never
    /// called on them, and `complete_with` never touches their link word,
    /// so there is nothing else to clear. That turns the per-iteration
    /// re-arm into two plain stores per node, which is what lets
    /// `begin_iteration` be a single dense sweep (DESIGN.md §4.4).
    /// Relaxed stores: re-instancing runs strictly between iterations —
    /// after the previous barrier's quiescence synchronization and before
    /// the nodes are re-published through the ready queues, which is the
    /// happens-before edge that carries these values to the workers.
    pub(crate) fn rearm_persistent(&self, indegree: u32, iter: u64) {
        debug_assert!(
            self.persistent_succs.get().is_some(),
            "fast re-arm is reserved for instanced persistent nodes"
        );
        self.pending.store(indegree + BIAS, Ordering::Relaxed);
        self.iter.store(iter, Ordering::Relaxed);
    }

    /// Attach an edge `self -> succ`, unless `self` already completed.
    /// Returns whether the edge was created. Producer-only, like
    /// [`RtNode::seal`]: `succ`'s edge count is a plain load and store.
    pub fn attach_succ(&self, succ: &NodeRef) -> bool {
        if !self.links.push_unless_completed(succ) {
            return false; // pruned
        }
        let attached = succ.attached.load(Ordering::Relaxed) + 1;
        debug_assert!(attached < BIAS, "in-degree must stay below the bias");
        succ.attached.store(attached, Ordering::Relaxed);
        true
    }

    /// Settle the bias once every edge is attached (or drop a persistent
    /// node's visibility token); returns `true` if the node became ready.
    ///
    /// One `fetch_sub(BIAS − attached)` leaves exactly the attached edges
    /// not yet released. AcqRel — the kernel's pivotal ordering site.
    /// Release: everything the caller did before (the producer's node
    /// initialization) is published on `pending`. Acquire + release
    /// sequences over the RMW chain: the decrementer that hits zero
    /// synchronizes with *every* earlier decrementer, so whoever enqueues
    /// (and eventually runs) this node sees the effects of all its
    /// predecessors, not just the last one.
    pub fn seal(&self) -> bool {
        let settle = BIAS - self.attached.load(Ordering::Relaxed);
        self.pending.fetch_sub(settle, Ordering::AcqRel) == settle
    }

    /// One predecessor's release; same AcqRel argument as [`RtNode::seal`].
    fn release(&self) -> bool {
        self.pending.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Mark completed and release every successor — streaming edges
    /// (consumed) or persistent ones (reusable). Returns the successors
    /// that became ready, plus the number of releases performed.
    pub fn complete(&self) -> Completion {
        self.complete_with(&crate::rt::NullProbe, 0, 0)
    }

    /// [`RtNode::complete`] narrated through a probe: emits
    /// `task_completed` on `core` and one `task_ready` per successor this
    /// completion released — the kernel-side emit site both back-ends
    /// share, so their lifecycle streams cannot diverge. (`comm_posted` /
    /// `comm_completed` are emitted by the back-ends' network layers at
    /// post and match time; for a detached comm task this completion runs
    /// from the progress path, after the request matched.)
    pub fn complete_with(&self, probe: &dyn RtProbe, core: usize, now_ns: u64) -> Completion {
        let mut out = Completion::default();
        // An instanced persistent node never has streaming successors, so
        // it skips the link word.
        if let Some(persistent) = self.persistent_succs.get() {
            out.released = persistent.len();
            for succ in persistent {
                if succ.release() {
                    out.ready.push(succ.clone());
                }
            }
        } else {
            let taken = self.links.take_completing();
            out.released = taken.len();
            for succ in taken {
                if succ.release() {
                    out.ready.push(succ);
                }
            }
        }
        if probe.lifecycle_enabled() {
            probe.task_completed(self.id, core, now_ns);
            for succ in &out.ready {
                probe.task_ready(succ.id, now_ns);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creation_token_prevents_premature_ready() {
        let a = RtNode::bare(TaskId(0), "a", None, 0);
        let b = RtNode::bare(TaskId(1), "b", None, 0);
        assert!(a.attach_succ(&b));
        // b waits on the bias + 1 pred; sealing leaves just the pred.
        assert!(!b.seal());
        let done = a.complete();
        assert_eq!(done.released, 1);
        assert_eq!(done.ready.len(), 1, "b ready after its only pred");
        assert_eq!(done.ready[0].id, TaskId(1));
    }

    #[test]
    fn edge_to_completed_node_is_pruned() {
        let a = RtNode::bare(TaskId(0), "a", None, 0);
        let b = RtNode::bare(TaskId(1), "b", None, 0);
        a.complete();
        assert!(!a.attach_succ(&b));
        assert!(b.seal(), "b is a root: ready on seal");
    }

    #[test]
    fn root_ready_on_seal() {
        let a = RtNode::bare(TaskId(0), "a", None, 0);
        assert!(a.seal());
    }

    #[test]
    fn multiple_preds_release_in_any_order() {
        let p1 = RtNode::bare(TaskId(0), "p1", None, 0);
        let p2 = RtNode::bare(TaskId(1), "p2", None, 0);
        let s = RtNode::bare(TaskId(2), "s", None, 0);
        p1.attach_succ(&s);
        p2.attach_succ(&s);
        assert!(!s.seal());
        assert!(p2.complete().ready.is_empty());
        let done = p1.complete();
        assert_eq!(done.ready.len(), 1);
    }

    #[test]
    fn duplicate_edges_require_duplicate_releases() {
        // Without optimization (b), the same (pred, succ) pair may carry
        // two edges; correctness demands both be released.
        let p = RtNode::bare(TaskId(0), "p", None, 0);
        let s = RtNode::bare(TaskId(1), "s", None, 0);
        p.attach_succ(&s);
        p.attach_succ(&s);
        s.seal();
        let done = p.complete();
        assert_eq!(done.released, 2);
        assert_eq!(
            done.ready.len(),
            1,
            "ready exactly once, on the last release"
        );
    }

    #[test]
    fn wide_fanout_spills_and_still_releases_every_successor() {
        let p = RtNode::bare(TaskId(0), "p", None, 0);
        let succs: Vec<NodeRef> = (1..=2 * SUCC_INLINE as u32)
            .map(|i| RtNode::bare(TaskId(i), "s", None, 0))
            .collect();
        for s in &succs {
            assert!(p.attach_succ(s));
            s.seal();
        }
        let done = p.complete();
        assert_eq!(done.released, 2 * SUCC_INLINE);
        assert_eq!(done.ready.len(), 2 * SUCC_INLINE);
    }

    #[test]
    fn persistent_succs_survive_completion() {
        let p = RtNode::bare(TaskId(0), "p", None, 0);
        let s = RtNode::bare(TaskId(1), "s", None, 0);
        p.set_persistent_succs(vec![s.clone()]);
        s.set_persistent_succs(vec![]);
        p.rearm_persistent(0, 1);
        s.rearm_persistent(1, 1);
        // publish: drop visibility tokens
        assert!(p.seal());
        assert!(!s.seal());
        let d1 = p.complete();
        assert_eq!(d1.ready.len(), 1);
        // next iteration: same links, no reallocation
        p.rearm_persistent(0, 2);
        s.rearm_persistent(1, 2);
        assert!(p.seal());
        assert!(!s.seal());
        let d2 = p.complete();
        assert_eq!(d2.ready.len(), 1);
    }

    #[test]
    fn fast_rearm_matches_full_reset_for_persistent_nodes() {
        let p = RtNode::bare(TaskId(0), "p", None, 0);
        let s = RtNode::bare(TaskId(1), "s", None, 0);
        p.set_persistent_succs(vec![s.clone()]);
        s.set_persistent_succs(vec![]);
        p.rearm_persistent(0, 1);
        s.rearm_persistent(1, 1);
        assert_eq!(p.pending(), 1);
        assert_eq!(s.pending(), 2);
        assert!(p.seal());
        assert!(!s.seal());
        let d = p.complete();
        assert_eq!(d.ready.len(), 1);
        assert_eq!(p.iter.load(Ordering::Relaxed), 1);
        // and again, after the completion above
        p.rearm_persistent(0, 2);
        s.rearm_persistent(1, 2);
        assert!(p.seal());
        assert!(!s.seal());
        assert_eq!(p.complete().ready.len(), 1);
    }
}
