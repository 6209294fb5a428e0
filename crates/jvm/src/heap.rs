//! Heap objects and the L1 data-cache model.
//!
//! The cache model is what makes Table I's array-traversal finding *emerge*
//! rather than being hard-coded: every array element access computes a
//! modelled byte address; a set-associative LRU cache decides hit or miss;
//! misses are charged [`jepo_rapl::OpCategory::CacheMiss`] energy. Row
//! traversal of a `double[1000][1000]` walks consecutive addresses (1 miss
//! per 8 elements); column traversal strides by the row size and misses
//! almost every access.

use crate::value::{Ref, Value};

/// A heap cell.
#[derive(Debug, Clone)]
pub enum HeapObj {
    /// An array (multi-dim arrays are arrays of refs).
    Array {
        /// Element values.
        data: Vec<Value>,
        /// Element size in bytes (cache stride).
        elem_size: u32,
        /// Modelled base byte address.
        base_addr: u64,
    },
    /// A plain object: class id + field slots.
    Object {
        /// Runtime class.
        class: u32,
        /// Field slot values (superclass fields first).
        fields: Vec<Value>,
        /// Modelled base byte address.
        base_addr: u64,
    },
    /// An immutable string.
    Str(String),
    /// A string builder.
    Builder(String),
    /// A boxed primitive (wrapper object). Keeps the wrapper class name
    /// for energy surcharges and `toString`.
    Boxed {
        /// Wrapper class name (`"Integer"`, `"Double"`, …).
        wrapper: &'static str,
        /// The wrapped value.
        value: Value,
    },
    /// An exception object: class name + message.
    Exception {
        /// Exception class name.
        class: String,
        /// Message, if any.
        message: String,
    },
}

/// The heap: an arena of [`HeapObj`] plus the allocation-address model.
#[derive(Debug, Default)]
pub struct Heap {
    cells: Vec<HeapObj>,
    /// Next modelled byte address (bump allocator).
    next_addr: u64,
}

impl Heap {
    /// Fresh heap. Address 0 is reserved so `base_addr > 0` always holds.
    pub fn new() -> Heap {
        Heap {
            cells: Vec::new(),
            next_addr: 64,
        }
    }

    /// Allocate a cell, returning its reference.
    pub fn alloc(&mut self, obj: HeapObj) -> Ref {
        self.cells.push(obj);
        (self.cells.len() - 1) as Ref
    }

    /// Allocate an array of `len` elements with the given element size,
    /// assigning it a contiguous modelled address range.
    pub fn alloc_array(&mut self, len: usize, elem_size: u32, fill: Value) -> Ref {
        let base_addr = self.next_addr;
        self.next_addr += (len as u64) * elem_size as u64 + 16; // +header
        self.alloc(HeapObj::Array {
            data: vec![fill; len],
            elem_size,
            base_addr,
        })
    }

    /// Allocate a plain object with `nfields` null-initialized slots.
    pub fn alloc_object(&mut self, class: u32, nfields: usize) -> Ref {
        let base_addr = self.next_addr;
        self.next_addr += (nfields as u64) * 8 + 16;
        self.alloc(HeapObj::Object {
            class,
            fields: vec![Value::Null; nfields],
            base_addr,
        })
    }

    /// Borrow a cell.
    pub fn get(&self, r: Ref) -> &HeapObj {
        &self.cells[r as usize]
    }

    /// Borrow a cell mutably.
    pub fn get_mut(&mut self, r: Ref) -> &mut HeapObj {
        &mut self.cells[r as usize]
    }

    /// Number of live cells (no GC is modelled; programs in the corpus
    /// are allocation-bounded).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Render any value (including heap values) as Java's `toString`
    /// into `out` — allocation-free on the interpreter's
    /// `Print`/`StrConcat` hot path.
    pub fn render_to(&self, v: &Value, out: &mut String) {
        use std::fmt::Write as _;
        match v {
            Value::Obj(r) => match self.get(*r) {
                HeapObj::Str(s) => out.push_str(s),
                HeapObj::Builder(s) => out.push_str(s),
                HeapObj::Boxed { value, .. } => {
                    if !value.render_primitive_to(out) {
                        out.push_str("<boxed>");
                    }
                }
                HeapObj::Array { data, .. } => {
                    let _ = write!(out, "[array of {}]", data.len());
                }
                HeapObj::Object { class, .. } => {
                    let _ = write!(out, "Object@{class}#{r}");
                }
                HeapObj::Exception { class, message } => {
                    let _ = write!(out, "{class}: {message}");
                }
            },
            other => {
                if !other.render_primitive_to(out) {
                    out.push('?');
                }
            }
        }
    }
}

/// A set-associative, write-allocate LRU data cache.
///
/// Defaults model a 32 KiB, 8-way L1D with 64-byte lines — the paper's
/// i5-3317U.
#[derive(Debug, Clone)]
pub struct CacheModel {
    /// Log2 of line size.
    line_bits: u32,
    /// Number of sets.
    sets: usize,
    /// Associativity.
    ways: usize,
    /// `tags[set]` = LRU-ordered tags (front = most recent).
    tags: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl Default for CacheModel {
    fn default() -> Self {
        CacheModel::new(32 * 1024, 8, 64)
    }
}

impl CacheModel {
    /// Build a cache of `size` bytes, `ways`-associative, `line` bytes
    /// per line.
    pub fn new(size: usize, ways: usize, line: usize) -> CacheModel {
        assert!(line.is_power_of_two() && size.is_multiple_of(ways * line));
        let sets = size / (ways * line);
        CacheModel {
            line_bits: line.trailing_zeros(),
            sets,
            ways,
            tags: vec![Vec::new(); sets],
            hits: 0,
            misses: 0,
        }
    }

    /// Access `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_bits;
        let set = (line % self.sets as u64) as usize;
        let tag = line / self.sets as u64;
        let ways = self.ways;
        let set_tags = &mut self.tags[set];
        if let Some(pos) = set_tags.iter().position(|&t| t == tag) {
            set_tags.remove(pos);
            set_tags.insert(0, tag);
            self.hits += 1;
            true
        } else {
            set_tags.insert(0, tag);
            set_tags.truncate(ways);
            self.misses += 1;
            false
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_render() {
        let render = |h: &Heap, v: Value| {
            let mut out = String::new();
            h.render_to(&v, &mut out);
            out
        };
        let mut h = Heap::new();
        let s = h.alloc(HeapObj::Str("hi".into()));
        assert_eq!(render(&h, Value::Obj(s)), "hi");
        assert_eq!(render(&h, Value::Int(3)), "3");
        let b = h.alloc(HeapObj::Boxed {
            wrapper: "Integer",
            value: Value::Int(9),
        });
        assert_eq!(render(&h, Value::Obj(b)), "9");
    }

    #[test]
    fn arrays_get_disjoint_address_ranges() {
        let mut h = Heap::new();
        let a = h.alloc_array(100, 8, Value::Double(0.0));
        let b = h.alloc_array(100, 8, Value::Double(0.0));
        let (addr_a, addr_b) = match (h.get(a), h.get(b)) {
            (HeapObj::Array { base_addr: x, .. }, HeapObj::Array { base_addr: y, .. }) => (*x, *y),
            _ => unreachable!(),
        };
        assert!(addr_b >= addr_a + 800, "ranges overlap");
    }

    #[test]
    fn cache_sequential_access_mostly_hits() {
        let mut c = CacheModel::default();
        // Walk 8 KiB sequentially in 8-byte steps: 1 miss per 64-byte line.
        for i in 0..1024u64 {
            c.access(i * 8);
        }
        assert_eq!(c.misses(), 128);
        assert_eq!(c.hits(), 1024 - 128);
    }

    #[test]
    fn cache_large_stride_always_misses() {
        let mut c = CacheModel::default();
        // Stride of 8 KiB over a 16 MiB range: every access a new line,
        // and lines keep evicting each other.
        for i in 0..2048u64 {
            c.access(i * 8192);
        }
        assert_eq!(c.misses(), 2048);
    }

    #[test]
    fn column_vs_row_traversal_miss_gap() {
        // The Table I mechanism, in miniature: a 512×512 double matrix
        // (2 MiB ≫ 32 KiB cache).
        let rows = 512u64;
        let cols = 512u64;
        let mut row_major = CacheModel::default();
        for i in 0..rows {
            for j in 0..cols {
                row_major.access((i * cols + j) * 8);
            }
        }
        let mut col_major = CacheModel::default();
        for j in 0..cols {
            for i in 0..rows {
                col_major.access((i * cols + j) * 8);
            }
        }
        assert!(
            col_major.misses() > row_major.misses() * 6,
            "col {} vs row {}",
            col_major.misses(),
            row_major.misses()
        );
    }

    #[test]
    fn lru_keeps_hot_lines() {
        let mut c = CacheModel::new(1024, 2, 64); // tiny: 8 sets × 2 ways
                                                  // Two lines in the same set, accessed alternately: both stay.
        let a = 0u64;
        let b = 8 * 64u64; // same set (8 sets)
        c.access(a);
        c.access(b);
        for _ in 0..10 {
            assert!(c.access(a));
            assert!(c.access(b));
        }
        // A third line in the set evicts the LRU one.
        let d = 16 * 64u64;
        c.access(d);
        assert!(
            !c.access(a) || !c.access(b),
            "one of a/b must have been evicted"
        );
    }
}
