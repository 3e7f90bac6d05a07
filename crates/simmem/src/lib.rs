//! # simmem — a virtual-memory substrate with MMU notifiers
//!
//! The paper's contribution lives in a Linux kernel driver that pins user
//! pages and keeps a pinning cache coherent through **MMU notifiers**.
//! This crate recreates the memory-management machinery that design rests
//! on, as an explicit, deterministic, byte-accurate model:
//!
//! * [`Memory`] — one node's frame pool + swap device + address spaces,
//! * demand paging, COW/fork, swap-out/in, page migration,
//! * [`Memory::pin_user_pages`] — `get_user_pages`-style DMA pinning that
//!   blocks swap/migration and keeps frames alive across `munmap`,
//! * [`NotifierEvent`] — MMU-notifier invalidations emitted by every
//!   operation that breaks a virtual→physical association,
//! * [`SimHeap`] — a glibc-flavoured malloc/free so workloads exercise the
//!   buffer-reuse and free-then-invalidate patterns the pinning cache
//!   is designed around.
//!
//! Frames carry real bytes: a stale cached pin shows up as *observable
//! data corruption* in tests, which is exactly the failure mode MMU
//! notifiers exist to prevent.

#![warn(missing_docs)]

pub mod addr;
pub mod error;
pub mod frame;
pub mod heap;
mod pagetable;
pub mod snapshot;
pub mod space;
pub mod vma;

pub use addr::{page_chunks, Pfn, VirtAddr, Vpn, VpnRange, PAGE_SHIFT, PAGE_SIZE};
pub use error::MemError;
pub use frame::FrameAllocator;
pub use heap::SimHeap;
pub use snapshot::{PageSnapshot, SnapshotReader};
pub use space::{AsId, InvalidateCause, Memory, NotifierEvent, PartialPin};
pub use vma::{Prot, Vma, VmaSet};
