//! Slab arena for [`RtNode`]s — the allocation side of the discovery
//! hot path (DESIGN.md §4.4).
//!
//! The discovery producer creates one node per submitted task. Allocating
//! each node behind its own `Arc` puts one `malloc` (plus one `free` from
//! whichever worker drops the last reference) on the producer's critical
//! path — exactly the fine-TPL regime the paper says discovery must
//! survive. The arena instead hands out nodes from fixed-size chunks:
//!
//! * **Chunks** of [`CHUNK`] slots are boxed arrays owned by a shared
//!   [`ArenaCore`]; allocation is a bump of the owner's cursor, so in
//!   steady state (after [`NodeArena::reserve`] or a warm-up pass) a
//!   task submission performs **zero** heap allocations.
//! * **[`NodeRef`]** is a hand-rolled pooled `Arc`: two pointers (slot +
//!   core), a per-slot strong count for the node, and a core count that
//!   keeps the chunk memory alive until the last straggler reference —
//!   a worker can hold a `NodeRef` past the death of the
//!   `GraphInstance` that allocated it.
//! * Slots are **bump-only**: there is no free list. A graph instance
//!   keeps every node alive for the session anyway (`nodes` table), so
//!   recycling individual slots would buy nothing and cost a branch on
//!   the hot path.
//!
//! ### Lifetime / safety protocol
//!
//! * Only the unique [`NodeArena`] handle allocates (it takes `&mut
//!   self`), so the chunk vector inside the shared core is mutated by
//!   exactly one thread; `NodeRef`s never touch it — they hold direct
//!   slot pointers, and boxed chunks never move.
//! * A slot's payload is dropped by whoever decrements its strong count
//!   to zero (`Release` on the decrement, `Acquire` fence before the
//!   drop — the usual `Arc` protocol).
//! * Each live slot holds one reference on the core; the core (and all
//!   chunks) is freed when the handle **and** every slot are gone.
//! * Cross-thread *publication* of a freshly written node follows the
//!   same argument as the rest of the kernel: a `NodeRef` always travels
//!   through a synchronizing channel (ready queue push, lock-word-guarded
//!   successor list), never through a data race.

use super::node::RtNode;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicU32, AtomicUsize, Ordering};

/// Nodes per chunk. 64 keeps a chunk around the size of a few pages
/// while amortizing the (rare) chunk allocation over 64 submissions.
pub const CHUNK: usize = 64;

struct Slot {
    /// Strong count for the node in this slot; 0 = empty/dead.
    strong: AtomicU32,
    /// The node payload; initialized while `strong > 0`.
    node: UnsafeCell<MaybeUninit<RtNode>>,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            strong: AtomicU32::new(0),
            node: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

type Chunk = Box<[Slot; CHUNK]>;

fn new_chunk() -> Chunk {
    // Build through a Vec to avoid a large stack temporary.
    let v: Vec<Slot> = (0..CHUNK).map(|_| Slot::empty()).collect();
    let boxed: Box<[Slot]> = v.into_boxed_slice();
    boxed.try_into().ok().expect("chunk length is CHUNK")
}

/// Shared backing store: chunk list + reference count.
struct ArenaCore {
    /// One reference per live slot plus one for the `NodeArena` handle.
    refs: AtomicUsize,
    /// Chunk list. Mutated only through the unique `NodeArena` handle
    /// (single thread); read only by that same handle. `NodeRef`s keep
    /// direct slot pointers and never look in here.
    chunks: UnsafeCell<Vec<Chunk>>,
}

// SAFETY: `chunks` is only accessed by the unique handle owner (alloc
// path) and by the final-release thread (drop path); the core refcount's
// Release/Acquire protocol orders the two. Slots themselves synchronize
// through their atomics.
unsafe impl Send for ArenaCore {}
unsafe impl Sync for ArenaCore {}

unsafe fn release_core(core: NonNull<ArenaCore>) {
    if core.as_ref().refs.fetch_sub(1, Ordering::Release) == 1 {
        fence(Ordering::Acquire);
        drop(Box::from_raw(core.as_ptr()));
    }
}

/// The unique allocation handle. Owned by a `GraphInstance` /
/// `PersistentInstance`; dropping it does not free chunks while any
/// [`NodeRef`] is alive.
pub struct NodeArena {
    core: NonNull<ArenaCore>,
    /// Global bump cursor: index of the next slot to hand out.
    cursor: usize,
}

// SAFETY: the handle is a unique owner moved between threads as a whole;
// all shared state is inside ArenaCore (see above).
unsafe impl Send for NodeArena {}

impl NodeArena {
    /// An empty arena (no chunks yet).
    pub fn new() -> NodeArena {
        let core = Box::new(ArenaCore {
            refs: AtomicUsize::new(1),
            chunks: UnsafeCell::new(Vec::new()),
        });
        NodeArena {
            core: NonNull::from(Box::leak(core)),
            cursor: 0,
        }
    }

    fn chunks_mut(&mut self) -> &mut Vec<Chunk> {
        // SAFETY: `&mut self` — we are the unique handle, and no NodeRef
        // ever touches the chunk vector.
        unsafe { &mut *self.core.as_ref().chunks.get() }
    }

    /// Number of nodes allocated so far.
    pub fn len(&self) -> usize {
        self.cursor
    }

    /// Whether no node has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.cursor == 0
    }

    /// Slot capacity currently backed by chunks.
    pub fn capacity(&self) -> usize {
        // SAFETY: unique handle; see chunks_mut.
        unsafe { (*self.core.as_ref().chunks.get()).len() * CHUNK }
    }

    /// Pre-allocate chunks so the next `extra` [`NodeArena::alloc`]
    /// calls perform no heap allocation.
    pub fn reserve(&mut self, extra: usize) {
        let need = self.cursor + extra;
        let need_chunks = need.div_ceil(CHUNK);
        let chunks = self.chunks_mut();
        if need_chunks > chunks.len() {
            chunks.reserve(need_chunks - chunks.len());
            while chunks.len() < need_chunks {
                chunks.push(new_chunk());
            }
        }
    }

    /// Move `node` into the arena and return its owning reference.
    pub fn alloc(&mut self, node: RtNode) -> NodeRef {
        let idx = self.cursor;
        self.cursor += 1;
        self.core_ref().refs.fetch_add(1, Ordering::Relaxed);
        let (ci, si) = (idx / CHUNK, idx % CHUNK);
        let core = self.core;
        let chunks = self.chunks_mut();
        if ci == chunks.len() {
            chunks.push(new_chunk());
        }
        let slot: &Slot = &chunks[ci][si];
        debug_assert_eq!(slot.strong.load(Ordering::Relaxed), 0);
        // SAFETY: the slot is unused (bump-only cursor) and we hold the
        // unique handle; no other thread can observe it until the
        // NodeRef is published through a synchronizing channel.
        unsafe { (*slot.node.get()).write(node) };
        slot.strong.store(1, Ordering::Release);
        NodeRef {
            slot: NonNull::from(slot),
            core,
        }
    }

    fn core_ref(&self) -> &ArenaCore {
        // SAFETY: the handle holds a core reference, so the core is live.
        unsafe { self.core.as_ref() }
    }

    /// Allocate a single node backed by its own throwaway arena — for
    /// tests and one-off nodes outside any instance.
    pub fn singleton(node: RtNode) -> NodeRef {
        let mut arena = NodeArena::new();
        arena.alloc(node)
        // `arena` drops here; the NodeRef's core reference keeps the
        // chunk alive.
    }
}

impl Default for NodeArena {
    fn default() -> Self {
        NodeArena::new()
    }
}

impl Drop for NodeArena {
    fn drop(&mut self) {
        // SAFETY: drops the handle's core reference exactly once.
        unsafe { release_core(self.core) };
    }
}

/// A shared reference to an arena-allocated [`RtNode`] — the kernel's
/// node currency. Clone/drop are refcount bumps on the slot; no
/// allocator traffic.
pub struct NodeRef {
    slot: NonNull<Slot>,
    core: NonNull<ArenaCore>,
}

// SAFETY: RtNode is Send + Sync (atomics + mutexes); the slot/core
// refcount protocol matches std::sync::Arc's.
unsafe impl Send for NodeRef {}
unsafe impl Sync for NodeRef {}

impl NodeRef {
    #[inline]
    fn slot(&self) -> &Slot {
        // SAFETY: we hold a strong reference, so the slot (and its
        // chunk, via the core reference) is alive.
        unsafe { self.slot.as_ref() }
    }

    /// Whether two references point at the same node.
    #[inline]
    pub fn ptr_eq(a: &NodeRef, b: &NodeRef) -> bool {
        a.slot == b.slot
    }
}

impl Deref for NodeRef {
    type Target = RtNode;
    #[inline]
    fn deref(&self) -> &RtNode {
        // SAFETY: payload is initialized while strong > 0, and we hold
        // a strong reference.
        unsafe { (*self.slot().node.get()).assume_init_ref() }
    }
}

impl Clone for NodeRef {
    #[inline]
    fn clone(&self) -> NodeRef {
        self.slot().strong.fetch_add(1, Ordering::Relaxed);
        NodeRef {
            slot: self.slot,
            core: self.core,
        }
    }
}

impl Drop for NodeRef {
    #[inline]
    fn drop(&mut self) {
        if self.slot().strong.fetch_sub(1, Ordering::Release) == 1 {
            fence(Ordering::Acquire);
            // SAFETY: last strong reference — drop the payload in place,
            // then release the slot's reference on the core.
            unsafe {
                (*self.slot().node.get()).assume_init_drop();
                release_core(self.core);
            }
        }
    }
}

impl std::fmt::Debug for NodeRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let node: &RtNode = self;
        write!(f, "NodeRef({:?} {:?})", node.id, node.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use std::sync::atomic::AtomicUsize;

    fn bare(id: u32) -> RtNode {
        RtNode::bare_value(TaskId(id), 0)
    }

    #[test]
    fn alloc_and_deref() {
        let mut arena = NodeArena::new();
        let a = arena.alloc(bare(7));
        assert_eq!(a.id, TaskId(7));
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn refs_outlive_the_arena() {
        let mut arena = NodeArena::new();
        let refs: Vec<NodeRef> = (0..200).map(|i| arena.alloc(bare(i))).collect();
        drop(arena);
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(r.id, TaskId(i as u32));
        }
    }

    #[test]
    fn reserve_preallocates_chunks() {
        let mut arena = NodeArena::new();
        arena.reserve(1000);
        let cap = arena.capacity();
        assert!(cap >= 1000);
        for i in 0..1000 {
            arena.alloc(bare(i));
        }
        assert_eq!(arena.capacity(), cap, "no chunk growth inside reserve");
    }

    #[test]
    fn clone_drop_across_threads() {
        let mut arena = NodeArena::new();
        let node = arena.alloc(bare(1));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let n = node.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let c = n.clone();
                        assert_eq!(c.id, TaskId(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(arena);
        assert_eq!(node.id, TaskId(1));
    }

    #[test]
    fn payload_dropped_exactly_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        // Smuggle a drop probe in through the body closure.
        let probe = std::sync::Arc::new(Probe);
        let node = RtNode::bare_value(TaskId(0), 0).with_test_body(move |_| {
            let _keep = &probe;
        });
        let r = NodeArena::singleton(node);
        let r2 = r.clone();
        drop(r);
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        drop(r2);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn singleton_outlives_internal_arena() {
        let r = NodeArena::singleton(bare(3));
        assert_eq!(r.id, TaskId(3));
        let r2 = r.clone();
        drop(r);
        assert_eq!(r2.id, TaskId(3));
    }
}
