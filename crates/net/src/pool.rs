//! Fixed-size packet buffer pool with per-releaser caches (paper §4.3.1).
//!
//! Perséphone registers a statically allocated memory pool with the NIC.
//! Receive-path allocation happens on the net worker (the pool's single
//! consumer), which pops every buffer straight off the shared free ring;
//! application workers *release* buffers after transmission through that
//! multi-producer ring, batching releases in a per-thread cache to reduce
//! traffic to it. Only releasers cache.

use crate::mpsc;

/// A fixed-capacity packet buffer.
///
/// Buffers never reallocate: `len` tracks the valid prefix, and writing
/// past capacity is an error surfaced to the caller. Requests that fit in
/// one buffer are passed zero-copy from RX to the worker and reused for
/// the response (paper §4.3.1).
#[derive(Debug)]
pub struct PacketBuf {
    data: Box<[u8]>,
    len: usize,
    /// Source address of the datagram this buffer was received from, when
    /// it arrived over a real socket (`None` on the loopback transport).
    /// Zero-copy response reuse carries it back out, so a worker's
    /// `NetContext::send` knows where to `send_to` without any lookup.
    peer: Option<std::net::SocketAddr>,
}

impl PacketBuf {
    /// Creates a zero-length buffer of the given capacity.
    ///
    /// Buffer *construction* is the slow lane by design: pools build
    /// their stock up front, and a steady-state RX path only recycles
    /// (a pool-miss refill is counted in `rx_allocs`). Cold marks that
    /// frontier for the audit.
    #[cold]
    pub fn with_capacity(cap: usize) -> Self {
        PacketBuf {
            data: vec![0u8; cap].into_boxed_slice(),
            len: 0,
            peer: None,
        }
    }

    /// Buffer capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Valid bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no valid bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The valid prefix.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[..self.len]
    }

    /// Overwrites the buffer contents.
    ///
    /// Returns `false` (leaving the buffer unchanged) if `src` exceeds the
    /// capacity.
    pub fn fill(&mut self, src: &[u8]) -> bool {
        if src.len() > self.data.len() {
            return false;
        }
        self.data[..src.len()].copy_from_slice(src);
        self.len = src.len();
        true
    }

    /// Mutable access to the full backing storage plus a length setter,
    /// for in-place response formatting (zero-copy reuse).
    pub fn raw_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Sets the valid length.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the capacity.
    pub fn set_len(&mut self, len: usize) {
        // audit:allow(A1): a length beyond capacity would hand out
        // uninitialized tail bytes; crashing is the contract
        assert!(len <= self.data.len(), "len beyond capacity");
        self.len = len;
    }

    /// Resets to an empty buffer (contents retained, length and peer
    /// address zeroed — a recycled buffer must not leak a stale route).
    pub fn clear(&mut self) {
        self.len = 0;
        self.peer = None;
    }

    /// The datagram's source address, when received over a real socket.
    pub fn peer(&self) -> Option<std::net::SocketAddr> {
        self.peer
    }

    /// Stamps the peer address a response should be sent to.
    pub fn set_peer(&mut self, peer: Option<std::net::SocketAddr>) {
        self.peer = peer;
    }
}

/// The allocation side of the pool (single owner — the net worker).
pub struct PoolAllocator {
    free: mpsc::Receiver<PacketBuf>,
    sender: mpsc::Sender<PacketBuf>,
    buf_size: usize,
    total: usize,
}

/// A per-thread release handle with a local buffer cache.
pub struct PoolReleaser {
    ring: mpsc::Sender<PacketBuf>,
    cache: Vec<PacketBuf>,
    cache_max: usize,
}

/// Creates a pool of `count` buffers of `buf_size` bytes each.
///
/// Returns the single allocator and a factory-side handle; call
/// [`PoolAllocator::releaser`] once per releasing thread.
///
/// # Examples
///
/// ```
/// let mut alloc = persephone_net::pool::BufferPool::new(4, 256);
/// let mut rel = alloc.releaser();
/// let buf = alloc.alloc().expect("pool has buffers");
/// rel.release(buf);
/// rel.flush();
/// assert!(alloc.alloc().is_some());
/// ```
pub struct BufferPool;

impl BufferPool {
    /// Builds the pool; see the type-level docs.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `buf_size` is zero.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(count: usize, buf_size: usize) -> PoolAllocator {
        assert!(count > 0 && buf_size > 0);
        let (tx, rx) = mpsc::channel(count.next_power_of_two() * 2);
        for _ in 0..count {
            assert!(
                tx.push(PacketBuf::with_capacity(buf_size)).is_ok(),
                "ring sized to fit the pool"
            );
        }
        PoolAllocator {
            free: rx,
            sender: tx,
            buf_size,
            total: count,
        }
    }
}

impl PoolAllocator {
    /// Pops a free buffer off the shared free ring (the allocator keeps
    /// no cache of its own), or `None` when the pool is exhausted (the
    /// caller should backpressure, e.g. leave packets in the NIC queue).
    /// Buffers a releaser still holds in its cache are not yet free.
    pub fn alloc(&mut self) -> Option<PacketBuf> {
        self.free.pop().map(|mut b| {
            b.clear();
            b
        })
    }

    /// Creates a release handle for another thread. The local cache holds
    /// up to 32 buffers before flushing to the shared ring.
    ///
    /// Spawn-time wiring, called once per releasing thread.
    #[cold]
    pub fn releaser(&self) -> PoolReleaser {
        PoolReleaser {
            ring: self.release_sender(),
            cache: Vec::new(),
            cache_max: 32,
        }
    }

    /// The raw release ring sender (for custom caching strategies).
    pub fn release_sender(&self) -> mpsc::Sender<PacketBuf> {
        self.sender.clone()
    }

    /// Total buffers owned by the pool.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Buffer size in bytes.
    pub fn buf_size(&self) -> usize {
        self.buf_size
    }
}

impl PoolReleaser {
    /// Returns a buffer to the pool (possibly batched locally).
    pub fn release(&mut self, buf: PacketBuf) {
        self.cache.push(buf);
        if self.cache.len() >= self.cache_max {
            self.flush();
        }
    }

    /// Pushes all locally cached buffers to the shared ring.
    pub fn flush(&mut self) {
        for buf in self.cache.drain(..) {
            // The ring is sized for every pool buffer, so a push can only
            // fail if foreign buffers were injected; dropping is safe
            // (they are plain memory) but should not happen.
            let _ = self.ring.push(buf);
        }
    }

    /// Buffers currently parked in the local cache.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }
}

impl Drop for PoolReleaser {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_buf_fill_and_bounds() {
        let mut b = PacketBuf::with_capacity(8);
        assert!(b.is_empty());
        assert!(b.fill(&[1, 2, 3]));
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.fill(&[0u8; 9]), "over-capacity fill must fail");
        assert_eq!(b.as_slice(), &[1, 2, 3], "failed fill leaves data intact");
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 8);
    }

    #[test]
    fn raw_mut_and_set_len_format_in_place() {
        let mut b = PacketBuf::with_capacity(4);
        b.raw_mut()[..2].copy_from_slice(&[9, 9]);
        b.set_len(2);
        assert_eq!(b.as_slice(), &[9, 9]);
    }

    #[test]
    #[should_panic(expected = "len beyond capacity")]
    fn set_len_checks_capacity() {
        PacketBuf::with_capacity(2).set_len(3);
    }

    #[test]
    fn pool_exhausts_and_recycles() {
        let mut alloc = BufferPool::new(2, 16);
        assert_eq!(alloc.total(), 2);
        assert_eq!(alloc.buf_size(), 16);
        let a = alloc.alloc().unwrap();
        let b = alloc.alloc().unwrap();
        assert!(alloc.alloc().is_none(), "pool exhausted");
        let mut rel = alloc.releaser();
        rel.release(a);
        rel.release(b);
        assert_eq!(rel.cached(), 2, "releases batch locally");
        assert!(alloc.alloc().is_none(), "not yet flushed");
        rel.flush();
        assert!(alloc.alloc().is_some());
        assert!(alloc.alloc().is_some());
    }

    #[test]
    fn releaser_flushes_on_drop() {
        let mut alloc = BufferPool::new(1, 16);
        let buf = alloc.alloc().unwrap();
        {
            let mut rel = alloc.releaser();
            rel.release(buf);
        }
        assert!(alloc.alloc().is_some(), "drop must flush the cache");
    }

    #[test]
    fn releaser_auto_flushes_past_cache_max() {
        let mut alloc = BufferPool::new(64, 8);
        let mut bufs = Vec::new();
        for _ in 0..33 {
            bufs.push(alloc.alloc().unwrap());
        }
        let mut rel = alloc.releaser();
        for b in bufs {
            rel.release(b);
        }
        // 32 triggered a flush; the 33rd sits in the cache.
        assert_eq!(rel.cached(), 1);
    }

    #[test]
    fn alloc_returns_cleared_buffers() {
        let mut alloc = BufferPool::new(1, 16);
        let mut b = alloc.alloc().unwrap();
        b.fill(&[1, 2, 3]);
        let mut rel = alloc.releaser();
        rel.release(b);
        rel.flush();
        let b2 = alloc.alloc().unwrap();
        assert!(b2.is_empty(), "recycled buffers come back cleared");
    }

    #[test]
    fn cross_thread_release() {
        let mut alloc = BufferPool::new(4, 32);
        let bufs: Vec<_> = (0..4).map(|_| alloc.alloc().unwrap()).collect();
        let sender = alloc.release_sender();
        std::thread::spawn(move || {
            let mut rel = PoolReleaser {
                ring: sender,
                cache: Vec::new(),
                cache_max: 1,
            };
            for b in bufs {
                rel.release(b);
            }
        })
        .join()
        .unwrap();
        for _ in 0..4 {
            assert!(alloc.alloc().is_some());
        }
    }
}
