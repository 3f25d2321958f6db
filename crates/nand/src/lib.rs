//! # insider-nand
//!
//! A NAND flash device simulator used as the storage substrate of the
//! SSD-Insider reproduction (Baek et al., ICDCS 2018).
//!
//! The simulator models the properties of NAND flash that SSD-Insider's
//! recovery algorithm depends on:
//!
//! * **Out-of-place updates** — a programmed page cannot be reprogrammed
//!   until its whole block is erased. Attempting to do so is an error, which
//!   is exactly why an FTL on top must remap logical addresses and why old
//!   versions of data linger ("delayed deletion").
//! * **Erase-before-reuse at block granularity** — erasure wipes all pages of
//!   a block at once and is the only way to free them.
//! * **In-order programming within a block** — pages of a block must be
//!   programmed sequentially, as required by real NAND.
//! * **Asymmetric latencies** — reads are fast, programs slower, erases
//!   slowest. The device accumulates simulated busy time so experiments can
//!   reason about device-level throughput.
//! * **Wear** — per-block erase counters with a configurable endurance limit.
//!
//! # Example
//!
//! ```rust
//! use insider_nand::{Geometry, NandConfig, NandDevice};
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), insider_nand::NandError> {
//! let geometry = Geometry::builder()
//!     .channels(2)
//!     .chips_per_channel(2)
//!     .blocks_per_chip(64)
//!     .pages_per_block(32)
//!     .page_size(4096)
//!     .build();
//! let mut device = NandDevice::new(NandConfig::new(geometry));
//!
//! let ppa = insider_nand::Ppa::new(0);
//! device.program(ppa, Bytes::from_static(b"hello nand"))?;
//! let data = device.read(ppa)?;
//! assert_eq!(&data[..], b"hello nand");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod block;
mod device;
mod error;
mod fault;
mod geometry;
mod latency;
mod oob;
mod page;
mod sched;
mod stats;
mod types;

pub use address::{Pba, Ppa};
pub use block::{Block, BlockState};
pub use device::{BlockScan, NandConfig, NandDevice, ScanReport};
pub use error::NandError;
pub use fault::{FaultKind, FaultPlan};
pub use geometry::{Geometry, GeometryBuilder};
pub use latency::{KindLatency, LatencyHistogram, LatencySnapshot};
pub use oob::{OobRecord, OobTag};
pub use page::{Page, PageState};
pub use sched::{CmdRecord, CmdScheduler, SchedMode};
pub use stats::NandStats;
pub use types::{Lba, SimTime};

/// Convenience result alias for NAND operations.
pub type Result<T> = std::result::Result<T, NandError>;
