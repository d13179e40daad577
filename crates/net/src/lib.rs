//! # persephone-net — in-process kernel-bypass networking substrate
//!
//! Stands in for the paper's DPDK + Intel X710 deployment: lock-free
//! SPSC/MPSC rings (the Barrelfish-style lightweight-RPC channels of
//! paper §4.3.2), a fixed-size packet-buffer pool with per-thread release
//! caches (§4.3.1), the request/response wire format with the type field
//! in the header (§5.1), and a loopback NIC with RX/TX queues.
//!
//! All `unsafe` code in the workspace lives in [`spsc`] and [`mpsc`], with
//! `// SAFETY:` arguments on every block — enforced mechanically by
//! `cargo xtask audit` (rule A5). Both rings are built on the [`sync`]
//! facade, so under `--features model-check` the exact shipped code runs inside
//! `persephone_check`'s bounded interleaving explorer (see
//! `tests/model_rings.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use persephone_net::{nic, pool::BufferPool, wire};
//!
//! let mut alloc = BufferPool::new(8, 256);
//! let (mut client, mut server) = nic::loopback(16);
//!
//! // Client: encode a typed request and transmit it.
//! let mut buf = alloc.alloc().unwrap();
//! let len = wire::encode_request(buf.raw_mut(), 1, 42, b"GET k").unwrap();
//! buf.set_len(len);
//! client.send(buf).unwrap();
//!
//! // Server: receive and decode.
//! let pkt = server.recv().unwrap();
//! let (hdr, payload) = wire::decode(pkt.as_slice()).unwrap();
//! assert_eq!((hdr.ty, hdr.id, payload), (1, 42, &b"GET k"[..]));
//! ```

#![warn(missing_docs)]
// `unsafe` is confined to the ring modules; see their SAFETY comments.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod mpsc;
pub mod nic;
pub mod pool;
pub mod spsc;
pub mod sync;
pub mod udp;
pub mod wire;

pub use nic::{
    loopback, loopback_mq, loopback_mq_with_faults, loopback_with_faults, ClientPort, NetContext,
    NicFaultPlan, ServerPort, Steering,
};
pub use pool::{BufferPool, PacketBuf, PoolAllocator, PoolReleaser};
pub use udp::{UdpConfig, UdpQueueStats};
