//! Pooled, reference-counted frame buffers — the zero-copy data path.
//!
//! Every layer of the middleware stack (payload serialization, SOME/IP
//! wire assembly, the simulated network, the transactor ports and the
//! coordination channel) moves message bytes in a [`FrameBuf`]: a cheap
//! to clone, immutable view into a shared byte buffer. Buffers are
//! checked out of a [`FramePool`] as [`FrameMut`] builders, frozen into
//! views, and automatically returned to their pool when the last view
//! drops — so a steady-state send/receive loop performs no heap
//! allocation at all.
//!
//! The design is in the spirit of `bytes::Bytes`, reduced to what this
//! workspace needs and implemented without dependencies or `unsafe`:
//! uniqueness is checked through [`Rc::get_mut`], which is also what
//! makes the in-place wire assembly of [`FrameBuf::extend_in_place`]
//! sound — a buffer is only ever mutated while exactly one handle to it
//! exists.
//!
//! The frame path is single-threaded, like every runtime in the
//! workspace: the simulator drives bindings, network and outboxes on one
//! thread, so frames and pools are `Rc` + `Cell`, with no lock or atomic
//! on an acquire, a clone or a drop (and neither `Send` nor `Sync`).
//!
//! **Ownership rule:** a frame belongs to the pool it was acquired from,
//! for its whole life. Views may cross crates and simulated nodes
//! freely; the bytes travel *by reference*, and the final drop —
//! wherever it happens — recycles the buffer into the origin pool. A
//! frame created from a plain `Vec<u8>` (via `From`) has no pool and
//! simply deallocates.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::rc::{Rc, Weak};

/// Default cap on a pool's free list (see [`FramePool::set_max_free`]):
/// large enough that no steady-state workload in this workspace ever
/// hits it, small enough that a transient fan-out burst cannot pin an
/// unbounded peak working set forever.
pub(crate) const DEFAULT_MAX_FREE: usize = 1024;

/// Counters describing a pool's allocation behaviour.
///
/// `created` only grows while the working set grows; once it plateaus,
/// every acquire is served from the free list (`reused`) and the data
/// path is allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FramePoolStats {
    /// Buffers allocated because the free list was empty.
    pub created: u64,
    /// Acquires served by recycling a free buffer.
    pub reused: u64,
    /// Buffers returned to the free list by a final drop.
    pub recycled: u64,
    /// Buffers deallocated instead of recycled because the free list was
    /// at its cap (see [`FramePool::set_max_free`]).
    pub dropped: u64,
}

impl FramePoolStats {
    /// Buffers currently in flight: acquired (freshly created or reused)
    /// and neither returned to the free list nor dropped at the cap. This
    /// is the frame-path occupancy the telemetry layer gauges under
    /// `frame/occupancy`.
    #[must_use]
    pub fn occupancy(&self) -> u64 {
        (self.created + self.reused).saturating_sub(self.recycled + self.dropped)
    }
}

impl fmt::Display for FramePoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "created={} reused={} recycled={} dropped={} in_flight={}",
            self.created,
            self.reused,
            self.recycled,
            self.dropped,
            self.occupancy()
        )
    }
}

struct PoolInner {
    free: RefCell<Vec<Rc<Shared>>>,
    max_free: Cell<usize>,
    created: Cell<u64>,
    reused: Cell<u64>,
    recycled: Cell<u64>,
    dropped: Cell<u64>,
}

impl Default for PoolInner {
    fn default() -> Self {
        PoolInner {
            free: RefCell::default(),
            max_free: Cell::new(DEFAULT_MAX_FREE),
            created: Cell::default(),
            reused: Cell::default(),
            recycled: Cell::default(),
            dropped: Cell::default(),
        }
    }
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

/// The shared backing store of one frame. Only ever mutated while a
/// single handle exists (enforced via `Rc::get_mut`).
struct Shared {
    buf: Vec<u8>,
    pool: Weak<PoolInner>,
}

impl Shared {
    fn detached(buf: Vec<u8>) -> Rc<Self> {
        Rc::new(Shared {
            buf,
            pool: Weak::new(),
        })
    }
}

/// Returns a uniquely held buffer to its origin pool (no-op for detached
/// buffers or when the pool is gone). Callers that hold a non-unique
/// `Rc` simply drop it; the *last* holder recycles.
fn recycle(mut shared: Rc<Shared>) {
    let Some(pool) = Rc::get_mut(&mut shared).and_then(|s| s.pool.upgrade()) else {
        return;
    };
    let mut free = pool.free.borrow_mut();
    if free.len() >= pool.max_free.get() {
        // Free list at capacity: deallocate instead of pinning a burst's
        // peak working set forever.
        drop(free);
        bump(&pool.dropped);
        return;
    }
    free.push(shared);
    drop(free);
    bump(&pool.recycled);
}

/// A shared pool of recycled frame buffers.
///
/// Cheap to clone; clones share the pool. Single-threaded: the pool and
/// its frames are `Rc`-based and stay on the thread that made them.
///
/// # Examples
///
/// ```
/// use dear_sim::FramePool;
///
/// let pool = FramePool::new();
/// let mut frame = pool.acquire();
/// frame.extend_from_slice(b"hello");
/// let view = frame.freeze();
/// let copy = view.clone(); // no bytes copied
/// assert_eq!(&view[..], b"hello");
/// drop(view);
/// drop(copy); // last drop returns the buffer to the pool
/// assert_eq!(pool.stats().recycled, 1);
/// let again = pool.acquire(); // reuses the buffer, no allocation
/// assert_eq!(pool.stats().reused, 1);
/// drop(again);
/// ```
#[derive(Clone, Default)]
pub struct FramePool {
    inner: Rc<PoolInner>,
}

impl fmt::Debug for FramePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FramePool")
            .field("free", &self.free_count())
            .field("stats", &self.stats())
            .finish()
    }
}

impl FramePool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty pool whose free list is capped at `max_free`
    /// buffers (see [`FramePool::set_max_free`]).
    #[must_use]
    pub fn with_max_free(max_free: usize) -> Self {
        let pool = Self::default();
        pool.set_max_free(max_free);
        pool
    }

    /// Caps the free list: a final drop that would grow it beyond
    /// `max_free` deallocates the buffer instead (counted in
    /// [`FramePoolStats::dropped`]). Without a cap, one fan-out burst
    /// would permanently pin its peak working set — every buffer the
    /// burst forced into existence stays on the free list for the life
    /// of the pool. Defaults to 1024 buffers.
    pub fn set_max_free(&self, max_free: usize) {
        self.inner.max_free.set(max_free);
    }

    /// The current free-list cap.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn max_free(&self) -> usize {
        self.inner.max_free.get()
    }

    /// Checks a cleared buffer out of the pool (recycling a free one when
    /// available, allocating otherwise).
    #[must_use]
    pub fn acquire(&self) -> FrameMut {
        let recycled = self.inner.free.borrow_mut().pop();
        let shared = match recycled {
            Some(mut shared) => {
                bump(&self.inner.reused);
                Rc::get_mut(&mut shared)
                    .expect("free-list buffers are uniquely held")
                    .buf
                    .clear();
                shared
            }
            None => {
                bump(&self.inner.created);
                Rc::new(Shared {
                    buf: Vec::new(),
                    pool: Rc::downgrade(&self.inner),
                })
            }
        };
        FrameMut {
            shared: Some(shared),
            headroom: 0,
        }
    }

    /// Number of buffers currently on the free list.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.inner.free.borrow().len()
    }

    /// Allocation counters.
    #[must_use]
    pub fn stats(&self) -> FramePoolStats {
        FramePoolStats {
            created: self.inner.created.get(),
            reused: self.inner.reused.get(),
            recycled: self.inner.recycled.get(),
            dropped: self.inner.dropped.get(),
        }
    }
}

/// A uniquely held, writable frame buffer (the builder stage of a frame's
/// life). Obtained from [`FramePool::acquire`] or [`FrameMut::detached`];
/// turned into an immutable shareable view with [`FrameMut::freeze`].
pub struct FrameMut {
    /// Always `Some` until `freeze`/`into_payload_vec` take it (kept as an
    /// `Option` so `Drop` can recycle un-frozen builders).
    shared: Option<Rc<Shared>>,
    headroom: usize,
}

impl fmt::Debug for FrameMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameMut")
            .field("len", &self.len())
            .field("headroom", &self.headroom)
            .finish()
    }
}

impl FrameMut {
    /// A writable buffer with no backing pool (deallocates instead of
    /// recycling). Used where no pool is in scope, e.g. test payloads.
    #[must_use]
    pub fn detached() -> Self {
        FrameMut {
            shared: Some(Shared::detached(Vec::new())),
            headroom: 0,
        }
    }

    fn buf(&mut self) -> &mut Vec<u8> {
        &mut Rc::get_mut(self.shared.as_mut().expect("builder not consumed"))
            .expect("FrameMut is uniquely held")
            .buf
    }

    fn buf_ref(&self) -> &Vec<u8> {
        &self.shared.as_ref().expect("builder not consumed").buf
    }

    /// Reserves `n` bytes of headroom in front of the content written so
    /// far — space a later wire-assembly step can claim for a header via
    /// [`FrameBuf::extend_in_place`] without copying the content.
    ///
    /// # Panics
    ///
    /// Panics if content was already written.
    pub fn reserve_headroom(&mut self, n: usize) {
        assert!(
            self.buf_ref().len() == self.headroom,
            "headroom must be reserved before writing content"
        );
        self.headroom += n;
        let headroom = self.headroom;
        self.buf().resize(headroom, 0);
    }

    /// Appends one byte.
    pub fn push(&mut self, byte: u8) {
        self.buf().push(byte);
    }

    /// Appends a byte slice.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.buf().extend_from_slice(bytes);
    }

    /// Content length in bytes (excluding headroom).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf_ref().len() - self.headroom
    }

    /// Whether no content was written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The content written so far (excluding headroom).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf_ref()[self.headroom..]
    }

    /// Mutable view of the content written so far (excluding headroom),
    /// for patching fields whose value is only known after later content
    /// was appended — e.g. a record count at the front of a batch frame.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        let headroom = self.headroom;
        &mut self.buf()[headroom..]
    }

    /// Freezes the builder into an immutable, shareable view of the
    /// content (headroom stays in the buffer, in front of the view).
    #[must_use]
    pub fn freeze(mut self) -> FrameBuf {
        let shared = self.shared.take().expect("builder not consumed");
        let end = shared.buf.len();
        FrameBuf {
            shared: Some(shared),
            start: self.headroom,
            end,
        }
    }

    /// Consumes the builder, returning the content as a plain vector.
    ///
    /// This removes the buffer from pool circulation (compatibility path
    /// for callers that need an owned `Vec<u8>`).
    #[must_use]
    pub fn into_payload_vec(mut self) -> Vec<u8> {
        let shared = self.shared.take().expect("builder not consumed");
        let mut buf = match Rc::try_unwrap(shared) {
            Ok(s) => s.buf,
            Err(_) => unreachable!("FrameMut is uniquely held"),
        };
        if self.headroom > 0 {
            buf.drain(..self.headroom);
        }
        buf
    }
}

impl Drop for FrameMut {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            recycle(shared);
        }
    }
}

/// An immutable, reference-counted view into a (possibly pooled) byte
/// buffer. Cloning and slicing share the buffer; no bytes are copied.
/// Dropping the last view returns a pooled buffer to its pool.
///
/// Dereferences to `[u8]`, so it can be read anywhere a byte slice is
/// expected.
#[derive(Clone, Default)]
pub struct FrameBuf {
    /// `None` only for the empty default and after `Drop` took the
    /// buffer for recycling.
    shared: Option<Rc<Shared>>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// An empty frame (no backing buffer).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The viewed bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match &self.shared {
            Some(shared) => &shared.buf[self.start..self.end],
            None => &[],
        }
    }

    /// Length of the view in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of `self` (indices relative to this view). Shares the
    /// buffer; no bytes are copied.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn slice(&self, start: usize, end: usize) -> FrameBuf {
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        FrameBuf {
            shared: self.shared.clone(),
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// Zero-copy wire assembly: grows this view in place by writing
    /// `prefix` into the bytes immediately before it (headroom) and
    /// appending `suffix` after it.
    ///
    /// Succeeds only when the view is the *unique* holder of its buffer,
    /// has at least `prefix.len()` bytes of headroom, and ends at the
    /// buffer's tail — the state produced by a headroom-reserving
    /// [`FrameMut`]. Returns `Err(self)` unchanged otherwise, so the
    /// caller can fall back to a copying path.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when in-place assembly is not possible (shared
    /// buffer, insufficient headroom, or trailing bytes after the view).
    pub fn extend_in_place(mut self, prefix: &[u8], suffix: &[u8]) -> Result<FrameBuf, FrameBuf> {
        let (start, end) = (self.start, self.end);
        let Some(rc) = self.shared.as_mut() else {
            return Err(self);
        };
        match Rc::get_mut(rc) {
            Some(shared) if start >= prefix.len() && end == shared.buf.len() => {
                let new_start = start - prefix.len();
                shared.buf[new_start..start].copy_from_slice(prefix);
                shared.buf.extend_from_slice(suffix);
                self.start = new_start;
                self.end = shared.buf.len();
                Ok(self)
            }
            _ => Err(self),
        }
    }
}

impl Drop for FrameBuf {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            recycle(shared);
        }
    }
}

impl Deref for FrameBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for FrameBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for FrameBuf {
    /// Wraps an owned vector as a detached (pool-less) frame.
    fn from(buf: Vec<u8>) -> Self {
        let end = buf.len();
        FrameBuf {
            shared: Some(Shared::detached(buf)),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(bytes: &[u8]) -> Self {
        FrameBuf::from(bytes.to_vec())
    }
}

impl<const N: usize> From<[u8; N]> for FrameBuf {
    fn from(bytes: [u8; N]) -> Self {
        FrameBuf::from(bytes.to_vec())
    }
}

impl fmt::Debug for FrameBuf {
    /// Debug-formats like a `Vec<u8>` would, so log and trace output is
    /// unchanged from the pre-frame era.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FrameBuf {}

impl PartialEq<[u8]> for FrameBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for FrameBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for FrameBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<FrameBuf> for Vec<u8> {
    fn eq(&self, other: &FrameBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for FrameBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl Hash for FrameBuf {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_freeze_and_read() {
        let pool = FramePool::new();
        let mut m = pool.acquire();
        m.push(1);
        m.extend_from_slice(&[2, 3]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.as_slice(), &[1, 2, 3]);
        let f = m.freeze();
        assert_eq!(f, vec![1, 2, 3]);
        assert_eq!(f.len(), 3);
        assert_eq!(&f[1..], &[2, 3]);
    }

    #[test]
    fn clones_and_slices_share_without_copying() {
        let f = FrameBuf::from(vec![10, 20, 30, 40]);
        let c = f.clone();
        let s = f.slice(1, 3);
        assert_eq!(s, vec![20, 30]);
        assert_eq!(s.slice(1, 2), vec![30]);
        // Same backing store: identical addresses.
        assert!(std::ptr::eq(&f.as_slice()[1], &c.as_slice()[1]));
        assert!(std::ptr::eq(&f.as_slice()[1], &s.as_slice()[0]));
    }

    #[test]
    fn last_drop_recycles_and_acquire_reuses() {
        let pool = FramePool::new();
        let a = pool.acquire().freeze();
        let b = a.clone();
        drop(a);
        assert_eq!(pool.stats().recycled, 0, "a view is still alive");
        drop(b);
        assert_eq!(pool.stats().recycled, 1);
        assert_eq!(pool.free_count(), 1);
        let _c = pool.acquire();
        let stats = pool.stats();
        assert_eq!((stats.created, stats.reused), (1, 1));
        assert_eq!(pool.free_count(), 0);
    }

    #[test]
    fn unfrozen_builders_recycle_too() {
        let pool = FramePool::new();
        let mut m = pool.acquire();
        m.extend_from_slice(&[9; 100]);
        drop(m);
        assert_eq!(pool.stats().recycled, 1);
        // The recycled buffer comes back cleared but with its capacity.
        let m = pool.acquire();
        assert!(m.is_empty());
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn detached_frames_have_no_pool() {
        let f = FrameBuf::from(vec![1]);
        drop(f);
        let m = FrameMut::detached();
        assert_eq!(m.into_payload_vec(), Vec::<u8>::new());
    }

    #[test]
    fn headroom_reserved_then_claimed_in_place() {
        let pool = FramePool::new();
        let mut m = pool.acquire();
        m.reserve_headroom(4);
        m.extend_from_slice(b"body");
        assert_eq!(m.as_slice(), b"body", "headroom invisible to content");
        let payload = m.freeze();
        let frame = payload
            .extend_in_place(b"HEAD", b"!!")
            .expect("unique view with headroom");
        assert_eq!(frame, b"HEADbody!!".to_vec());
    }

    #[test]
    fn extend_in_place_refuses_shared_or_cramped_views() {
        // Shared: a second view exists.
        let pool = FramePool::new();
        let mut m = pool.acquire();
        m.reserve_headroom(4);
        m.extend_from_slice(b"x");
        let payload = m.freeze();
        let other = payload.clone();
        let payload = payload.extend_in_place(b"HEAD", b"").unwrap_err();
        drop(other);
        // No headroom.
        let cramped = FrameBuf::from(vec![1, 2]);
        assert!(cramped.extend_in_place(b"H", b"").is_err());
        // Not at the buffer tail (the sub-view keeps `payload` shared, so
        // `payload` itself also still refuses).
        let head = payload.slice(0, 0);
        assert!(head.extend_in_place(b"", b"t").is_err());
        // Unique again, at the tail: succeeds now.
        assert!(payload.extend_in_place(b"HEAD", b"").is_ok());
    }

    #[test]
    fn into_payload_vec_strips_headroom() {
        let pool = FramePool::new();
        let mut m = pool.acquire();
        m.reserve_headroom(2);
        m.extend_from_slice(&[7, 8]);
        assert_eq!(m.into_payload_vec(), vec![7, 8]);
    }

    #[test]
    fn equality_debug_and_hash_follow_contents() {
        let a = FrameBuf::from(vec![1, 2]);
        let b = FrameBuf::from(vec![0, 1, 2, 3]).slice(1, 3);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2]);
        assert_eq!(vec![1, 2], a);
        assert_eq!(a, [1u8, 2]);
        assert_eq!(a, &[1u8, 2][..]);
        assert_eq!(format!("{a:?}"), format!("{:?}", vec![1u8, 2]));
        let hash = |f: &FrameBuf| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            f.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn dropping_the_pool_detaches_outstanding_frames() {
        let pool = FramePool::new();
        let f = pool.acquire().freeze();
        drop(pool);
        drop(f); // must not panic; buffer simply deallocates
    }

    #[test]
    fn free_list_is_capped_and_overflow_is_counted() {
        let pool = FramePool::with_max_free(2);
        assert_eq!(pool.max_free(), 2);
        // A fan-out burst: four buffers in flight at once.
        let burst: Vec<FrameBuf> = (0..4).map(|_| pool.acquire().freeze()).collect();
        drop(burst);
        // Only `max_free` survive on the free list; the rest deallocate.
        assert_eq!(pool.free_count(), 2);
        let stats = pool.stats();
        assert_eq!(
            (stats.created, stats.recycled, stats.dropped),
            (4, 2, 2),
            "burst of 4 against a cap of 2: 2 recycled, 2 dropped"
        );
        assert_eq!(stats.occupancy(), 0, "nothing in flight after the burst");
        // Steady state below the cap still recycles.
        drop(pool.acquire());
        let stats = pool.stats();
        assert_eq!((stats.reused, stats.dropped), (1, 2));
    }

    #[test]
    fn lowering_the_cap_applies_to_later_recycles() {
        let pool = FramePool::with_max_free(8);
        let frames: Vec<FrameBuf> = (0..3).map(|_| pool.acquire().freeze()).collect();
        pool.set_max_free(0);
        drop(frames);
        assert_eq!(pool.free_count(), 0);
        assert_eq!(pool.stats().dropped, 3);
    }
}
