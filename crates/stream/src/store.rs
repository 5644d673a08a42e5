//! A STINGER-like streaming graph store (paper §3.3.2).
//!
//! STINGER [Riedy et al.] keeps each vertex's adjacency as a linked chain
//! of fixed-size *edge blocks* inside a shared arena, so inserts and
//! deletes are O(chain) with good locality inside a block, and memory is
//! recycled through a free list. This module reproduces that design:
//!
//! - one [`EdgeEntry`] per *distinct* neighbor, carrying a multiplicity
//!   `weight` (how many not-yet-expired events connect the pair — STINGER's
//!   incrementing edge weight) and the most recent event timestamp;
//! - insertion increments the weight if the neighbor is already present,
//!   otherwise fills a tombstone or free slot, appending a new block at the
//!   chain head when full;
//! - deletion decrements the weight, tombstoning the entry at zero and
//!   returning fully-empty blocks to the free list.
//!
//! The deliberate contrast with the postmortem temporal CSR: per-edge
//! pointer chasing instead of one contiguous scan, and graph maintenance
//! work on every sliding-window step.

/// Number of edge entries per block — STINGER's default block size.
pub const BLOCK_SIZE: usize = 16;

const NONE: u32 = u32::MAX;
const TOMBSTONE: u32 = u32::MAX;

/// A live adjacency record: a distinct neighbor with its event multiplicity
/// inside the current window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeEntry {
    /// Neighbor vertex id (`u32::MAX` marks a tombstone).
    neighbor: u32,
    /// Number of unexpired events between the pair (0 for tombstones).
    weight: u32,
    /// Timestamp of the most recent contributing event.
    recent: i64,
}

const EMPTY_ENTRY: EdgeEntry = EdgeEntry {
    neighbor: TOMBSTONE,
    weight: 0,
    recent: i64::MIN,
};

/// A fixed-size block of edge entries, chained per vertex.
#[derive(Debug, Clone)]
struct EdgeBlock {
    entries: [EdgeEntry; BLOCK_SIZE],
    /// Next block in this vertex's chain (`NONE` terminates).
    next: u32,
    /// Live (non-tombstone) entries in this block.
    live: u32,
}

impl EdgeBlock {
    fn fresh(next: u32) -> Self {
        EdgeBlock {
            entries: [EMPTY_ENTRY; BLOCK_SIZE],
            next,
            live: 0,
        }
    }
}

/// The streaming graph: per-vertex edge-block chains in a shared arena.
///
/// Symmetric by construction (each event inserts both directions), like
/// every window graph in the workspace and the paper's experimental setup.
#[derive(Debug, Clone)]
pub struct StreamingGraph {
    heads: Vec<u32>,
    degrees: Vec<u32>,
    blocks: Vec<EdgeBlock>,
    free: Vec<u32>,
    num_edges: usize,
}

impl StreamingGraph {
    /// Creates an empty graph over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        StreamingGraph {
            heads: vec![NONE; num_vertices],
            degrees: vec![0; num_vertices],
            blocks: Vec::new(),
            free: Vec::new(),
            num_edges: 0,
        }
    }

    /// Number of vertices in the universe.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.heads.len()
    }

    /// Number of live *directed* distinct-neighbor edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Distinct live neighbors of `v` (its degree in the current graph).
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        self.degrees[v as usize]
    }

    /// Number of allocated blocks (for memory accounting in experiments).
    pub fn allocated_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Heap bytes held by the store: vertex heads/degrees, the block
    /// arena (tombstoned blocks still count — the arena never shrinks),
    /// and the free list. Reported as the streaming model's resident
    /// memory in the run report.
    pub fn memory_bytes(&self) -> usize {
        self.heads.len() * std::mem::size_of::<u32>()
            + self.degrees.len() * std::mem::size_of::<u32>()
            + self.blocks.len() * std::mem::size_of::<EdgeBlock>()
            + self.free.len() * std::mem::size_of::<u32>()
    }

    /// Inserts one event `(u, v, t)` symmetrically. Existing pairs gain
    /// multiplicity; new pairs gain an adjacency entry in both directions.
    pub fn insert_event(&mut self, u: u32, v: u32, t: i64) {
        self.insert_half(u, v, t);
        if u != v {
            self.insert_half(v, u, t);
        }
    }

    /// Removes one event's contribution symmetrically. The pair's entry
    /// disappears only when its multiplicity reaches zero.
    ///
    /// Returns `false` (and leaves the graph unchanged) if the pair has no
    /// live entry — the driver only deletes events it previously inserted,
    /// so a `false` here signals a caller bug rather than a data error.
    #[must_use]
    pub fn delete_event(&mut self, u: u32, v: u32) -> bool {
        let a = self.delete_half(u, v);
        let b = if u != v { self.delete_half(v, u) } else { a };
        a && b
    }

    fn insert_half(&mut self, src: u32, dst: u32, t: i64) {
        // Walk the chain looking for the neighbor, remembering the first
        // free slot in case it is absent.
        let mut b = self.heads[src as usize];
        let mut slot: Option<(u32, usize)> = None;
        while b != NONE {
            let block = &mut self.blocks[b as usize];
            for (i, e) in block.entries.iter_mut().enumerate() {
                if e.neighbor == dst && e.weight > 0 {
                    e.weight += 1;
                    e.recent = e.recent.max(t);
                    return;
                }
                if e.weight == 0 && slot.is_none() {
                    slot = Some((b, i));
                }
            }
            b = block.next;
        }
        // Not found: a fresh distinct neighbor.
        let (bi, i) = match slot {
            Some(s) => s,
            None => {
                let bi = self.alloc_block(self.heads[src as usize]);
                self.heads[src as usize] = bi;
                (bi, 0)
            }
        };
        let block = &mut self.blocks[bi as usize];
        block.entries[i] = EdgeEntry {
            neighbor: dst,
            weight: 1,
            recent: t,
        };
        block.live += 1;
        self.degrees[src as usize] += 1;
        self.num_edges += 1;
    }

    fn delete_half(&mut self, src: u32, dst: u32) -> bool {
        let mut prev = NONE;
        let mut b = self.heads[src as usize];
        while b != NONE {
            let next = self.blocks[b as usize].next;
            let block = &mut self.blocks[b as usize];
            for e in block.entries.iter_mut() {
                if e.neighbor == dst && e.weight > 0 {
                    e.weight -= 1;
                    if e.weight == 0 {
                        e.neighbor = TOMBSTONE;
                        block.live -= 1;
                        self.degrees[src as usize] -= 1;
                        self.num_edges -= 1;
                        if block.live == 0 {
                            self.unlink_block(src, prev, b);
                        }
                    }
                    return true;
                }
            }
            prev = b;
            b = next;
        }
        false
    }

    fn alloc_block(&mut self, next: u32) -> u32 {
        match self.free.pop() {
            Some(bi) => {
                self.blocks[bi as usize] = EdgeBlock::fresh(next);
                bi
            }
            None => {
                self.blocks.push(EdgeBlock::fresh(next));
                (self.blocks.len() - 1) as u32
            }
        }
    }

    fn unlink_block(&mut self, src: u32, prev: u32, b: u32) {
        let next = self.blocks[b as usize].next;
        if prev == NONE {
            self.heads[src as usize] = next;
        } else {
            self.blocks[prev as usize].next = next;
        }
        self.free.push(b);
    }

    /// Iterates over the live distinct neighbors of `v` with their
    /// multiplicities.
    pub fn neighbors(&self, v: u32) -> NeighborIter<'_> {
        NeighborIter {
            graph: self,
            block: self.heads[v as usize],
            idx: 0,
        }
    }

    /// Whether the pair `(u, v)` currently has a live edge.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).any(|e| e.0 == v)
    }

    /// The multiplicity of pair `(u, v)` (0 when absent).
    pub fn multiplicity(&self, u: u32, v: u32) -> u32 {
        self.neighbors(u).find(|e| e.0 == v).map_or(0, |e| e.1)
    }

    /// Checks internal invariants (tests / debugging): per-block live
    /// counters, degree counters, and edge totals all agree with the
    /// entries actually stored.
    pub fn check_invariants(&self) {
        let mut total = 0usize;
        for v in 0..self.heads.len() {
            let mut live = 0u32;
            let mut b = self.heads[v];
            while b != NONE {
                let block = &self.blocks[b as usize];
                let block_live = block.entries.iter().filter(|e| e.weight > 0).count() as u32;
                assert_eq!(block.live, block_live, "block live count, vertex {v}");
                assert!(block.live > 0, "empty block left in chain of {v}");
                live += block_live;
                b = block.next;
            }
            assert_eq!(self.degrees[v], live, "degree counter of {v}");
            total += live as usize;
        }
        assert_eq!(self.num_edges, total, "edge total");
    }
}

/// Iterator over `(neighbor, multiplicity, recent_time)` of one vertex.
pub struct NeighborIter<'a> {
    graph: &'a StreamingGraph,
    block: u32,
    idx: usize,
}

impl<'a> Iterator for NeighborIter<'a> {
    type Item = (u32, u32, i64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.block != NONE {
            let b = &self.graph.blocks[self.block as usize];
            while self.idx < BLOCK_SIZE {
                let e = &b.entries[self.idx];
                self.idx += 1;
                if e.weight > 0 {
                    return Some((e.neighbor, e.weight, e.recent));
                }
            }
            self.block = b.next;
            self.idx = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_creates_symmetric_edges() {
        let mut g = StreamingGraph::new(4);
        g.insert_event(0, 1, 10);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.num_edges(), 2);
        g.check_invariants();
    }

    #[test]
    fn duplicate_event_increments_multiplicity_not_degree() {
        let mut g = StreamingGraph::new(4);
        g.insert_event(0, 1, 10);
        g.insert_event(0, 1, 20);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.multiplicity(0, 1), 2);
        assert_eq!(g.num_edges(), 2);
        g.check_invariants();
    }

    #[test]
    fn delete_removes_at_zero_multiplicity() {
        let mut g = StreamingGraph::new(4);
        g.insert_event(0, 1, 10);
        g.insert_event(0, 1, 20);
        assert!(g.delete_event(0, 1));
        assert!(g.has_edge(0, 1), "multiplicity 1 remains");
        assert!(g.delete_event(0, 1));
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.num_edges(), 0);
        g.check_invariants();
    }

    #[test]
    fn deleting_missing_edge_returns_false() {
        let mut g = StreamingGraph::new(2);
        assert!(!g.delete_event(0, 1));
        g.check_invariants();
        g.insert_event(0, 1, 5);
        assert!(g.delete_event(0, 1));
        assert!(!g.delete_event(0, 1), "second delete finds nothing");
        g.check_invariants();
    }

    #[test]
    fn self_loop_stored_once() {
        let mut g = StreamingGraph::new(2);
        g.insert_event(0, 0, 5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.num_edges(), 1);
        assert!(g.delete_event(0, 0));
        assert_eq!(g.num_edges(), 0);
        g.check_invariants();
    }

    #[test]
    fn chains_grow_past_one_block() {
        let mut g = StreamingGraph::new(64);
        for v in 1..40u32 {
            g.insert_event(0, v, v as i64);
        }
        assert_eq!(g.degree(0), 39);
        let mut seen: Vec<u32> = g.neighbors(0).map(|e| e.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (1..40).collect::<Vec<_>>());
        assert!(g.allocated_blocks() >= 3);
        g.check_invariants();
    }

    #[test]
    fn empty_blocks_are_recycled() {
        let mut g = StreamingGraph::new(64);
        for v in 1..40u32 {
            g.insert_event(0, v, 0);
        }
        let allocated = g.allocated_blocks();
        for v in 1..40u32 {
            assert!(g.delete_event(0, v));
        }
        assert_eq!(g.degree(0), 0);
        g.check_invariants();
        // Re-inserting must not grow the arena: blocks come from the free
        // list.
        for v in 1..40u32 {
            g.insert_event(0, v, 1);
        }
        assert_eq!(g.allocated_blocks(), allocated);
        g.check_invariants();
    }

    #[test]
    fn tombstone_slots_are_reused_in_place() {
        let mut g = StreamingGraph::new(8);
        for v in 1..5u32 {
            g.insert_event(0, v, 0);
        }
        assert!(g.delete_event(0, 2));
        let before = g.allocated_blocks();
        g.insert_event(0, 7, 1);
        assert_eq!(g.allocated_blocks(), before, "tombstone slot reused");
        assert!(g.has_edge(0, 7));
        g.check_invariants();
    }

    #[test]
    fn recent_timestamp_tracks_maximum() {
        let mut g = StreamingGraph::new(2);
        g.insert_event(0, 1, 10);
        g.insert_event(0, 1, 5);
        let e = g.neighbors(0).next().unwrap();
        assert_eq!(e.2, 10);
    }

    #[test]
    fn matches_naive_model_under_random_ops() {
        use std::collections::HashMap;
        // Deterministic pseudo-random op sequence checked against a
        // HashMap multiset model.
        let n = 12u32;
        let mut g = StreamingGraph::new(n as usize);
        let mut model: HashMap<(u32, u32), u32> = HashMap::new();
        let mut state = 12345u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut live: Vec<(u32, u32)> = Vec::new();
        for step in 0..2000 {
            let u = rnd() % n;
            let v = rnd() % n;
            let insert = live.is_empty() || rnd() % 3 != 0;
            if insert {
                g.insert_event(u, v, step as i64);
                *model.entry(ord(u, v)).or_insert(0) += 1;
                live.push(ord(u, v));
            } else {
                let i = (rnd() as usize) % live.len();
                let (a, b) = live.swap_remove(i);
                assert!(g.delete_event(a, b));
                let m = model.get_mut(&(a, b)).unwrap();
                *m -= 1;
                if *m == 0 {
                    model.remove(&(a, b));
                }
            }
        }
        g.check_invariants();
        for u in 0..n {
            for v in 0..n {
                let expect = model.get(&ord(u, v)).copied().unwrap_or(0);
                assert_eq!(g.multiplicity(u, v), expect, "pair ({u},{v})");
            }
        }
        fn ord(u: u32, v: u32) -> (u32, u32) {
            (u.min(v), u.max(v))
        }
    }
}
