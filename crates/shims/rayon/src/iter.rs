//! Parallel iterators: a chunked, push-based pipeline model.
//!
//! A [`Producer`] describes a data source of `len()` *source indices* plus a
//! stack of per-element transforms; `emit_span` replays the transforms for a
//! contiguous index range, pushing outputs into a sink. Consumers
//! ([`ParIter::collect`], [`ParIter::reduce`], …) split the index space into
//! chunks with [`deterministic_chunk_len`] (a pure function of the length,
//! never the thread count), execute chunks on the pool via
//! [`run_tasks`](crate::pool::run_tasks), and combine per-chunk results
//! left-to-right — which is what makes every operation byte-identical across
//! thread counts.
//!
//! Adapters that produce exactly one output per source index additionally
//! implement the [`OneToOne`] marker, which is what `enumerate`/`zip`/`take`
//! require to assign global indices.

use crate::pool::{deterministic_chunk_len, run_tasks};
use std::marker::PhantomData;
use std::ops::Range;

/// A replayable, splittable description of a parallel computation.
///
/// `emit_span(start, end, out)` must push, in order, every output generated
/// by source indices `start..end`. Implementations must be pure: emitting a
/// span twice produces the same values, and disjoint spans are independent
/// (the driver emits each index exactly once, possibly from different
/// threads).
pub trait Producer: Sync {
    /// The element type this pipeline stage produces.
    type Item: Send;

    /// Number of source indices.
    fn len(&self) -> usize;

    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes the outputs of source indices `start..end` into `out`, in order.
    fn emit_span<F: FnMut(Self::Item)>(&self, start: usize, end: usize, out: &mut F);
}

/// Producers that emit exactly one item per source index
/// (sources, `map`, `copied`, `cloned`, `enumerate`, `zip`, `take` — but not
/// `filter` or `flat_map`), which therefore also support random access.
///
/// `at(i)` is subject to the same exactly-once discipline as
/// [`Producer::emit_span`]: a consuming operation asks for each index at
/// most once (this is what makes the `&mut`-yielding sources sound).
pub trait OneToOne: Producer {
    /// The single output of source index `index`.
    fn at(&self, index: usize) -> Self::Item;
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Source over a `Range<usize>`.
pub struct RangeSrc {
    start: usize,
    len: usize,
}

impl Producer for RangeSrc {
    type Item = usize;

    fn len(&self) -> usize {
        self.len
    }

    fn emit_span<F: FnMut(usize)>(&self, start: usize, end: usize, out: &mut F) {
        for i in start..end {
            out(self.start + i);
        }
    }
}

impl OneToOne for RangeSrc {
    fn at(&self, index: usize) -> usize {
        self.start + index
    }
}

/// Source over `&[T]`, yielding `&T`.
pub struct SliceSrc<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> Producer for SliceSrc<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn emit_span<F: FnMut(&'a T)>(&self, start: usize, end: usize, out: &mut F) {
        for item in &self.slice[start..end] {
            out(item);
        }
    }
}

impl<'a, T: Sync> OneToOne for SliceSrc<'a, T> {
    fn at(&self, index: usize) -> &'a T {
        &self.slice[index]
    }
}

/// Source over an owned vector, yielding clones of its elements.
pub struct VecSrc<T> {
    items: Vec<T>,
}

impl<T: Clone + Send + Sync> Producer for VecSrc<T> {
    type Item = T;

    fn len(&self) -> usize {
        self.items.len()
    }

    fn emit_span<F: FnMut(T)>(&self, start: usize, end: usize, out: &mut F) {
        for item in &self.items[start..end] {
            out(item.clone());
        }
    }
}

impl<T: Clone + Send + Sync> OneToOne for VecSrc<T> {
    fn at(&self, index: usize) -> T {
        self.items[index].clone()
    }
}

/// Source over the chunks of a shared slice (`par_chunks`).
pub struct ChunksSrc<'a, T> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> Producer for ChunksSrc<'a, T> {
    type Item = &'a [T];

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    fn emit_span<F: FnMut(&'a [T])>(&self, start: usize, end: usize, out: &mut F) {
        for i in start..end {
            let lo = i * self.chunk;
            let hi = (lo + self.chunk).min(self.slice.len());
            out(&self.slice[lo..hi]);
        }
    }
}

impl<'a, T: Sync> OneToOne for ChunksSrc<'a, T> {
    fn at(&self, index: usize) -> &'a [T] {
        let lo = index * self.chunk;
        let hi = (lo + self.chunk).min(self.slice.len());
        &self.slice[lo..hi]
    }
}

/// Source over the windows of a shared slice (`par_windows`).
pub struct WindowsSrc<'a, T> {
    slice: &'a [T],
    window: usize,
}

impl<'a, T: Sync> Producer for WindowsSrc<'a, T> {
    type Item = &'a [T];

    fn len(&self) -> usize {
        (self.slice.len() + 1).saturating_sub(self.window)
    }

    fn emit_span<F: FnMut(&'a [T])>(&self, start: usize, end: usize, out: &mut F) {
        for i in start..end {
            out(&self.slice[i..i + self.window]);
        }
    }
}

impl<'a, T: Sync> OneToOne for WindowsSrc<'a, T> {
    fn at(&self, index: usize) -> &'a [T] {
        &self.slice[index..index + self.window]
    }
}

/// Source over the chunks of a mutable slice (`par_chunks_mut`).
///
/// Holds a raw pointer so disjoint `&mut [T]` chunks can be handed to
/// different worker threads. Soundness rests on the driver invariant stated
/// on [`Producer::emit_span`]: each source index is emitted exactly once per
/// consuming operation, so no two live `&mut` chunks alias.
pub struct ChunksMutSrc<'a, T> {
    ptr: *mut T,
    len: usize,
    chunk: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the producer only hands out disjoint subslices (one per source
// index); with `T: Send` those may be created and used from any thread.
unsafe impl<T: Send> Send for ChunksMutSrc<'_, T> {}
unsafe impl<T: Send> Sync for ChunksMutSrc<'_, T> {}

impl<'a, T: Send> Producer for ChunksMutSrc<'a, T> {
    type Item = &'a mut [T];

    fn len(&self) -> usize {
        self.len.div_ceil(self.chunk)
    }

    fn emit_span<F: FnMut(&'a mut [T])>(&self, start: usize, end: usize, out: &mut F) {
        for i in start..end {
            let lo = i * self.chunk;
            let hi = (lo + self.chunk).min(self.len);
            // SAFETY: `lo..hi` ranges for distinct `i` are disjoint and in
            // bounds, and the driver emits each index exactly once, so each
            // mutable subslice is unique for the lifetime 'a of the borrow.
            out(unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) });
        }
    }
}

impl<'a, T: Send> OneToOne for ChunksMutSrc<'a, T> {
    fn at(&self, index: usize) -> &'a mut [T] {
        let lo = index * self.chunk;
        let hi = (lo + self.chunk).min(self.len);
        // SAFETY: in-bounds, and the consumer asks for each index at most
        // once (see `OneToOne::at`), so the mutable subslices are disjoint.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }
}

/// Source over the elements of a mutable slice (`par_iter_mut`).
pub struct MutSliceSrc<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: as for `ChunksMutSrc` — disjoint `&mut T`, one per source index.
unsafe impl<T: Send> Send for MutSliceSrc<'_, T> {}
unsafe impl<T: Send> Sync for MutSliceSrc<'_, T> {}

impl<'a, T: Send> Producer for MutSliceSrc<'a, T> {
    type Item = &'a mut T;

    fn len(&self) -> usize {
        self.len
    }

    fn emit_span<F: FnMut(&'a mut T)>(&self, start: usize, end: usize, out: &mut F) {
        for i in start..end {
            // SAFETY: indices are in bounds and emitted exactly once, so the
            // mutable references are disjoint.
            out(unsafe { &mut *self.ptr.add(i) });
        }
    }
}

impl<'a, T: Send> OneToOne for MutSliceSrc<'a, T> {
    fn at(&self, index: usize) -> &'a mut T {
        assert!(index < self.len);
        // SAFETY: in-bounds, and the consumer asks for each index at most
        // once (see `OneToOne::at`), so the mutable references are disjoint.
        unsafe { &mut *self.ptr.add(index) }
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// Per-element transform (rayon: `map`).
pub struct Map<P, F> {
    p: P,
    f: F,
}

impl<P, B, F> Producer for Map<P, F>
where
    P: Producer,
    B: Send,
    F: Fn(P::Item) -> B + Sync,
{
    type Item = B;

    fn len(&self) -> usize {
        self.p.len()
    }

    fn emit_span<G: FnMut(B)>(&self, start: usize, end: usize, out: &mut G) {
        self.p.emit_span(start, end, &mut |x| out((self.f)(x)));
    }
}

impl<P, B, F> OneToOne for Map<P, F>
where
    P: OneToOne,
    B: Send,
    F: Fn(P::Item) -> B + Sync,
{
    fn at(&self, index: usize) -> B {
        (self.f)(self.p.at(index))
    }
}

/// Keeps elements matching a predicate (rayon: `filter`).
pub struct Filter<P, F> {
    p: P,
    f: F,
}

impl<P, F> Producer for Filter<P, F>
where
    P: Producer,
    F: Fn(&P::Item) -> bool + Sync,
{
    type Item = P::Item;

    fn len(&self) -> usize {
        self.p.len()
    }

    fn emit_span<G: FnMut(P::Item)>(&self, start: usize, end: usize, out: &mut G) {
        self.p.emit_span(start, end, &mut |x| {
            if (self.f)(&x) {
                out(x);
            }
        });
    }
}

/// Filter-and-map in one pass (rayon: `filter_map`).
pub struct FilterMap<P, F> {
    p: P,
    f: F,
}

impl<P, B, F> Producer for FilterMap<P, F>
where
    P: Producer,
    B: Send,
    F: Fn(P::Item) -> Option<B> + Sync,
{
    type Item = B;

    fn len(&self) -> usize {
        self.p.len()
    }

    fn emit_span<G: FnMut(B)>(&self, start: usize, end: usize, out: &mut G) {
        self.p.emit_span(start, end, &mut |x| {
            if let Some(y) = (self.f)(x) {
                out(y);
            }
        });
    }
}

/// Maps each element to an iterator and flattens (rayon: `flat_map` /
/// `flat_map_iter`; the per-element iterators are always consumed serially
/// within their source element, as with rayon's `flat_map_iter`).
pub struct FlatMapIter<P, F> {
    p: P,
    f: F,
}

impl<P, I, F> Producer for FlatMapIter<P, F>
where
    P: Producer,
    I: IntoIterator,
    I::Item: Send,
    F: Fn(P::Item) -> I + Sync,
{
    type Item = I::Item;

    fn len(&self) -> usize {
        self.p.len()
    }

    fn emit_span<G: FnMut(I::Item)>(&self, start: usize, end: usize, out: &mut G) {
        self.p.emit_span(start, end, &mut |x| {
            for y in (self.f)(x) {
                out(y);
            }
        });
    }
}

/// Copies referenced elements (rayon: `copied`).
pub struct Copied<P> {
    p: P,
}

impl<'a, T, P> Producer for Copied<P>
where
    T: Copy + Send + Sync + 'a,
    P: Producer<Item = &'a T>,
{
    type Item = T;

    fn len(&self) -> usize {
        self.p.len()
    }

    fn emit_span<G: FnMut(T)>(&self, start: usize, end: usize, out: &mut G) {
        self.p.emit_span(start, end, &mut |x| out(*x));
    }
}

impl<'a, T, P> OneToOne for Copied<P>
where
    T: Copy + Send + Sync + 'a,
    P: OneToOne<Item = &'a T>,
{
    fn at(&self, index: usize) -> T {
        *self.p.at(index)
    }
}

/// Clones referenced elements (rayon: `cloned`).
pub struct Cloned<P> {
    p: P,
}

impl<'a, T, P> Producer for Cloned<P>
where
    T: Clone + Send + Sync + 'a,
    P: Producer<Item = &'a T>,
{
    type Item = T;

    fn len(&self) -> usize {
        self.p.len()
    }

    fn emit_span<G: FnMut(T)>(&self, start: usize, end: usize, out: &mut G) {
        self.p.emit_span(start, end, &mut |x| out(x.clone()));
    }
}

impl<'a, T, P> OneToOne for Cloned<P>
where
    T: Clone + Send + Sync + 'a,
    P: OneToOne<Item = &'a T>,
{
    fn at(&self, index: usize) -> T {
        self.p.at(index).clone()
    }
}

/// Pairs elements with their global index (rayon: `enumerate`).
///
/// Requires a [`OneToOne`] upstream so the global index equals the source
/// index.
pub struct Enumerate<P> {
    p: P,
}

impl<P: OneToOne> Producer for Enumerate<P> {
    type Item = (usize, P::Item);

    fn len(&self) -> usize {
        self.p.len()
    }

    fn emit_span<G: FnMut((usize, P::Item))>(&self, start: usize, end: usize, out: &mut G) {
        let mut index = start;
        self.p.emit_span(start, end, &mut |x| {
            out((index, x));
            index += 1;
        });
    }
}

impl<P: OneToOne> OneToOne for Enumerate<P> {
    fn at(&self, index: usize) -> (usize, P::Item) {
        (index, self.p.at(index))
    }
}

/// Zips two [`OneToOne`] pipelines index-by-index (rayon: `zip`).
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: OneToOne, B: OneToOne> Producer for Zip<A, B> {
    type Item = (A::Item, B::Item);

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn emit_span<G: FnMut((A::Item, B::Item))>(&self, start: usize, end: usize, out: &mut G) {
        // Lockstep random access — no per-span buffer.
        for i in start..end {
            out((self.a.at(i), self.b.at(i)));
        }
    }
}

impl<A: OneToOne, B: OneToOne> OneToOne for Zip<A, B> {
    fn at(&self, index: usize) -> (A::Item, B::Item) {
        (self.a.at(index), self.b.at(index))
    }
}

/// Takes the first `n` elements (rayon: `take`; [`OneToOne`] upstream only).
pub struct Take<P> {
    p: P,
    n: usize,
}

impl<P: OneToOne> Producer for Take<P> {
    type Item = P::Item;

    fn len(&self) -> usize {
        self.p.len().min(self.n)
    }

    fn emit_span<G: FnMut(P::Item)>(&self, start: usize, end: usize, out: &mut G) {
        self.p.emit_span(start, end, out);
    }
}

impl<P: OneToOne> OneToOne for Take<P> {
    fn at(&self, index: usize) -> P::Item {
        self.p.at(index)
    }
}

// ---------------------------------------------------------------------------
// ParIter: the user-facing pipeline handle
// ---------------------------------------------------------------------------

/// A parallel iterator: a [`Producer`] pipeline plus a grain hint.
///
/// Unlike the historical sequential shim this type does **not** implement
/// [`Iterator`]; the rayon adapter/consumer subset the workspace uses is
/// provided as inherent methods, and consumers really execute on the pool.
pub struct ParIter<P> {
    p: P,
    min_len: usize,
}

impl<P: Producer> ParIter<P> {
    pub(crate) fn new(p: P) -> Self {
        ParIter { p, min_len: 1 }
    }

    /// Chunk plan: `(number_of_chunks, chunk_len)` for this pipeline's length.
    fn plan(&self) -> (usize, usize) {
        let len = self.p.len();
        if len == 0 {
            return (0, 1);
        }
        let chunk_len = deterministic_chunk_len(len, self.min_len);
        (len.div_ceil(chunk_len), chunk_len)
    }

    /// Sets the minimum number of source elements per task (grain size).
    /// Purely a scheduling hint for 1:1 operations; it also fixes the combine
    /// tree of `reduce`/`fold`, so use a consistent value there.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = self.min_len.max(min.max(1));
        self
    }

    /// Maps each element (rayon: `map`).
    pub fn map<B, F>(self, f: F) -> ParIter<Map<P, F>>
    where
        B: Send,
        F: Fn(P::Item) -> B + Sync,
    {
        let min_len = self.min_len;
        ParIter {
            p: Map { p: self.p, f },
            min_len,
        }
    }

    /// Keeps elements matching the predicate (rayon: `filter`).
    pub fn filter<F>(self, f: F) -> ParIter<Filter<P, F>>
    where
        F: Fn(&P::Item) -> bool + Sync,
    {
        let min_len = self.min_len;
        ParIter {
            p: Filter { p: self.p, f },
            min_len,
        }
    }

    /// Filter-and-map in one pass (rayon: `filter_map`).
    pub fn filter_map<B, F>(self, f: F) -> ParIter<FilterMap<P, F>>
    where
        B: Send,
        F: Fn(P::Item) -> Option<B> + Sync,
    {
        let min_len = self.min_len;
        ParIter {
            p: FilterMap { p: self.p, f },
            min_len,
        }
    }

    /// Maps each element to an iterator and flattens (rayon: `flat_map`).
    pub fn flat_map<I, F>(self, f: F) -> ParIter<FlatMapIter<P, F>>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(P::Item) -> I + Sync,
    {
        let min_len = self.min_len;
        ParIter {
            p: FlatMapIter { p: self.p, f },
            min_len,
        }
    }

    /// rayon's `flat_map_iter` (the per-element iterators run serially).
    pub fn flat_map_iter<I, F>(self, f: F) -> ParIter<FlatMapIter<P, F>>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(P::Item) -> I + Sync,
    {
        self.flat_map(f)
    }

    // -- consumers ---------------------------------------------------------

    /// Collects into any `FromIterator` collection, in source order.
    pub fn collect<C: FromIterator<P::Item>>(self) -> C {
        let (chunks, chunk_len) = self.plan();
        let len = self.p.len();
        let p = &self.p;
        let parts: Vec<Vec<P::Item>> = run_tasks(chunks, |c| {
            let start = c * chunk_len;
            let end = (start + chunk_len).min(len);
            let mut buf = Vec::with_capacity(end - start);
            p.emit_span(start, end, &mut |x| buf.push(x));
            buf
        });
        parts.into_iter().flatten().collect()
    }

    /// Consumes the pipeline, calling `f` on each element.
    pub fn for_each<F: Fn(P::Item) + Sync>(self, f: F) {
        let (chunks, chunk_len) = self.plan();
        let len = self.p.len();
        let p = &self.p;
        run_tasks(chunks, |c| {
            let start = c * chunk_len;
            let end = (start + chunk_len).min(len);
            p.emit_span(start, end, &mut |x| f(x));
        });
    }

    /// rayon's `reduce`: folds each chunk from `identity()`, then combines
    /// the per-chunk accumulators left-to-right, again from `identity()`.
    ///
    /// The chunk boundaries depend only on the input length, so the combine
    /// tree — and hence the result, even for non-associative floating-point
    /// operators — is identical at every thread count. A sequential loop can
    /// reproduce it exactly by chunking with
    /// [`deterministic_chunk_len`](crate::deterministic_chunk_len).
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Item
    where
        ID: Fn() -> P::Item + Sync,
        OP: Fn(P::Item, P::Item) -> P::Item + Sync,
    {
        let (chunks, chunk_len) = self.plan();
        let len = self.p.len();
        let p = &self.p;
        let parts: Vec<P::Item> = run_tasks(chunks, |c| {
            let start = c * chunk_len;
            let end = (start + chunk_len).min(len);
            let mut acc = Some(identity());
            p.emit_span(start, end, &mut |x| {
                acc = Some(op(acc.take().expect("accumulator present"), x));
            });
            acc.expect("accumulator present")
        });
        parts.into_iter().fold(identity(), &op)
    }

    /// rayon's `fold`: folds each chunk from `identity()` and returns a
    /// parallel iterator over the per-chunk accumulators (in chunk order),
    /// typically consumed by a following `reduce` or `collect`.
    pub fn fold<B, ID, F>(self, identity: ID, fold_op: F) -> ParIter<VecSrc<B>>
    where
        B: Clone + Send + Sync,
        ID: Fn() -> B + Sync,
        F: Fn(B, P::Item) -> B + Sync,
    {
        let (chunks, chunk_len) = self.plan();
        let len = self.p.len();
        let p = &self.p;
        let accs: Vec<B> = run_tasks(chunks, |c| {
            let start = c * chunk_len;
            let end = (start + chunk_len).min(len);
            let mut acc = Some(identity());
            p.emit_span(start, end, &mut |x| {
                acc = Some(fold_op(acc.take().expect("accumulator present"), x));
            });
            acc.expect("accumulator present")
        });
        ParIter::new(VecSrc { items: accs })
    }

    /// Number of elements the pipeline produces.
    pub fn count(self) -> usize {
        let (chunks, chunk_len) = self.plan();
        let len = self.p.len();
        let p = &self.p;
        run_tasks(chunks, |c| {
            let start = c * chunk_len;
            let end = (start + chunk_len).min(len);
            let mut n = 0usize;
            p.emit_span(start, end, &mut |_| n += 1);
            n
        })
        .into_iter()
        .sum()
    }
}

impl<P: OneToOne> ParIter<P> {
    /// Pairs elements with their index (rayon: `enumerate`).
    pub fn enumerate(self) -> ParIter<Enumerate<P>> {
        let q = Enumerate { p: self.p };
        ParIter {
            min_len: self.min_len,
            p: q,
        }
    }

    /// Zips with another parallel iterator index-by-index (rayon: `zip`).
    pub fn zip<Q: OneToOne>(self, other: ParIter<Q>) -> ParIter<Zip<P, Q>> {
        let min_len = self.min_len.max(other.min_len);
        ParIter {
            p: Zip {
                a: self.p,
                b: other.p,
            },
            min_len,
        }
    }

    /// Takes the first `n` elements (rayon: `take`).
    pub fn take(self, n: usize) -> ParIter<Take<P>> {
        let min_len = self.min_len;
        ParIter {
            p: Take { p: self.p, n },
            min_len,
        }
    }
}

impl<'a, T, P> ParIter<P>
where
    T: Copy + Send + Sync + 'a,
    P: Producer<Item = &'a T>,
{
    /// Copies referenced elements (rayon: `copied`).
    pub fn copied(self) -> ParIter<Copied<P>> {
        let min_len = self.min_len;
        ParIter {
            p: Copied { p: self.p },
            min_len,
        }
    }
}

impl<'a, T, P> ParIter<P>
where
    T: Clone + Send + Sync + 'a,
    P: Producer<Item = &'a T>,
{
    /// Clones referenced elements (rayon: `cloned`).
    pub fn cloned(self) -> ParIter<Cloned<P>> {
        let min_len = self.min_len;
        ParIter {
            p: Cloned { p: self.p },
            min_len,
        }
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits (mirroring rayon::prelude)
// ---------------------------------------------------------------------------

/// Mirror of `rayon::iter::IntoParallelIterator` for the owned sources the
/// workspace uses (`Range<usize>`, `Vec<T: Clone>`).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Backing producer.
    type Prod: Producer<Item = Self::Item>;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Prod>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Prod = RangeSrc;

    fn into_par_iter(self) -> ParIter<RangeSrc> {
        ParIter::new(RangeSrc {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        })
    }
}

impl<T: Clone + Send + Sync> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Prod = VecSrc<T>;

    fn into_par_iter(self) -> ParIter<VecSrc<T>> {
        ParIter::new(VecSrc { items: self })
    }
}

/// Mirror of `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// Element type (`&'data T`).
    type Item: Send;
    /// Backing producer.
    type Prod: Producer<Item = Self::Item>;
    /// Iterates `&self` in parallel.
    fn par_iter(&'data self) -> ParIter<Self::Prod>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Prod = SliceSrc<'data, T>;

    fn par_iter(&'data self) -> ParIter<SliceSrc<'data, T>> {
        ParIter::new(SliceSrc { slice: self })
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Prod = SliceSrc<'data, T>;

    fn par_iter(&'data self) -> ParIter<SliceSrc<'data, T>> {
        ParIter::new(SliceSrc { slice: self })
    }
}

/// Mirror of `rayon::iter::IntoParallelRefMutIterator`.
pub trait IntoParallelRefMutIterator<'data> {
    /// Element type (`&'data mut T`).
    type Item: Send;
    /// Backing producer.
    type Prod: Producer<Item = Self::Item>;
    /// Iterates `&mut self` in parallel.
    fn par_iter_mut(&'data mut self) -> ParIter<Self::Prod>;
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Item = &'data mut T;
    type Prod = MutSliceSrc<'data, T>;

    fn par_iter_mut(&'data mut self) -> ParIter<MutSliceSrc<'data, T>> {
        ParIter::new(MutSliceSrc {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: PhantomData,
        })
    }
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
    type Item = &'data mut T;
    type Prod = MutSliceSrc<'data, T>;

    fn par_iter_mut(&'data mut self) -> ParIter<MutSliceSrc<'data, T>> {
        self.as_mut_slice().par_iter_mut()
    }
}

/// Mirror of `rayon::slice::ParallelSlice`.
pub trait ParallelSlice<T: Sync> {
    /// Chunked view of the slice.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksSrc<'_, T>>;
    /// Windowed view of the slice.
    fn par_windows(&self, window_size: usize) -> ParIter<WindowsSrc<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksSrc<'_, T>> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter::new(ChunksSrc {
            slice: self,
            chunk: chunk_size,
        })
    }

    fn par_windows(&self, window_size: usize) -> ParIter<WindowsSrc<'_, T>> {
        assert!(window_size > 0, "window size must be positive");
        ParIter::new(WindowsSrc {
            slice: self,
            window: window_size,
        })
    }
}

/// Mirror of `rayon::slice::ParallelSliceMut` (chunking and sorting).
///
/// Unlike real rayon, the sorts require `T: Copy`: the parallel merge moves
/// elements by value through a scratch buffer, which stays safe code only
/// for `Copy` types.
pub trait ParallelSliceMut<T> {
    /// Mutable chunked view of the slice.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutSrc<'_, T>>
    where
        T: Send;
    /// Stable parallel sort by comparator.
    fn par_sort_by<F>(&mut self, compare: F)
    where
        T: Copy + Send + Sync,
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync;
    /// Unstable parallel sort by comparator (implemented as the stable sort;
    /// stability is a permitted strengthening and keeps output canonical).
    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        T: Copy + Send + Sync,
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync;
    /// Stable natural-order parallel sort.
    fn par_sort(&mut self)
    where
        T: Ord + Copy + Send + Sync;
    /// Unstable natural-order parallel sort.
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Copy + Send + Sync;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutSrc<'_, T>>
    where
        T: Send,
    {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter::new(ChunksMutSrc {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            chunk: chunk_size,
            _marker: PhantomData,
        })
    }

    fn par_sort_by<F>(&mut self, compare: F)
    where
        T: Copy + Send + Sync,
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
    {
        crate::sort::par_merge_sort_by(self, compare);
    }

    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        T: Copy + Send + Sync,
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
    {
        crate::sort::par_merge_sort_by(self, compare);
    }

    fn par_sort(&mut self)
    where
        T: Ord + Copy + Send + Sync,
    {
        crate::sort::par_merge_sort_by(self, T::cmp);
    }

    fn par_sort_unstable(&mut self)
    where
        T: Ord + Copy + Send + Sync,
    {
        crate::sort::par_merge_sort_by(self, T::cmp);
    }
}
