//! Messages exchanged between the dispatcher and application workers
//! (paper §4.3.2): work pushes on the downstream SPSC ring, completion
//! notifications on the upstream ring.
//!
//! Delivery of a [`WorkMsg`] is at-least-offered, not fire-and-forget: if
//! a worker's downstream ring is full, the dispatcher holds the message
//! and re-offers it on its next loop iteration instead of panicking (see
//! `run_dispatcher`), so ring pressure degrades to latency, never to a
//! crash.

use persephone_core::time::Nanos;
use persephone_core::types::TypeId;
use persephone_net::pool::PacketBuf;

/// Dispatcher → worker.
#[derive(Debug)]
pub enum WorkMsg {
    /// Run one request.
    Request {
        /// The packet buffer holding the request (reused for the response).
        buf: PacketBuf,
        /// The classified request type.
        ty: TypeId,
        /// The wire request id (echoed in the response).
        id: u64,
    },
    /// Terminate the worker loop.
    Shutdown,
}

/// Worker → dispatcher: a work-completion control message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Measured service time of the completed request.
    pub service: Nanos,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request plane's per-request records, pinned at their current
    /// sizes on 64-bit targets: a layout change (and the cache traffic it
    /// moves) must update this pin on purpose.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn request_plane_layouts_are_pinned() {
        use std::mem::size_of;
        let sizes = [
            size_of::<PacketBuf>(),
            size_of::<crate::dispatcher::Pending>(),
            size_of::<WorkMsg>(),
            size_of::<Completion>(),
        ];
        assert_eq!(
            sizes,
            [56, 64, 72, 8],
            "PacketBuf, Pending, WorkMsg, Completion"
        );
    }

    #[test]
    fn work_messages_traverse_spsc_rings() {
        let (mut tx, mut rx) = persephone_net::spsc::channel::<WorkMsg>(4);
        let mut buf = PacketBuf::with_capacity(16);
        buf.fill(b"req");
        tx.push(WorkMsg::Request {
            buf,
            ty: TypeId::new(1),
            id: 42,
        })
        .unwrap();
        tx.push(WorkMsg::Shutdown).unwrap();
        match rx.pop().unwrap() {
            WorkMsg::Request { buf, ty, id } => {
                assert_eq!(buf.as_slice(), b"req");
                assert_eq!(ty, TypeId::new(1));
                assert_eq!(id, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(rx.pop(), Some(WorkMsg::Shutdown)));
    }

    #[test]
    fn completions_traverse_spsc_rings() {
        let (mut tx, mut rx) = persephone_net::spsc::channel::<Completion>(4);
        tx.push(Completion {
            service: Nanos::from_micros(3),
        })
        .unwrap();
        assert_eq!(
            rx.pop(),
            Some(Completion {
                service: Nanos::from_micros(3)
            })
        );
    }
}
