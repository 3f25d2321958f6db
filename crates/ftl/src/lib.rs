//! # insider-ftl
//!
//! Flash Translation Layers for the SSD-Insider reproduction (Baek et al.,
//! ICDCS 2018): a conventional page-mapping FTL baseline and the SSD-Insider
//! FTL with *delayed deletion* and instant rollback.
//!
//! ## The two FTLs
//!
//! * [`ConventionalFtl`] — page-level mapping with greedy garbage collection.
//!   When a logical page is overwritten, the old physical page becomes
//!   reclaimable immediately.
//! * [`InsiderFtl`] — identical write path, but every overwrite pushes a
//!   backup entry `(lba, old ppa, timestamp)` into a [`RecoveryQueue`].
//!   Old pages stay *protected* from reclamation until their entry ages past
//!   the protection window (10 s in the paper). If ransomware is detected,
//!   [`InsiderFtl::rollback`] rewinds the mapping table to its state one
//!   window ago — by pointer updates only, with no data copying, which is why
//!   recovery completes in well under a second.
//!
//! ## Example
//!
//! ```rust
//! use insider_ftl::{FtlConfig, InsiderFtl, Ftl};
//! use insider_nand::{Geometry, Lba, SimTime};
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), insider_ftl::FtlError> {
//! let mut ftl = InsiderFtl::new(FtlConfig::new(Geometry::tiny()));
//! let lba = Lba::new(3);
//!
//! ftl.write(lba, Bytes::from_static(b"precious document"), SimTime::from_secs(1))?;
//! // Ransomware overwrites the block with ciphertext:
//! ftl.write(lba, Bytes::from_static(b"ciphertext"), SimTime::from_secs(15))?;
//!
//! // Detection fires; roll the drive back one window:
//! ftl.set_read_only(true);
//! ftl.rollback(SimTime::from_secs(16))?;
//! ftl.set_read_only(false);
//!
//! let restored = ftl.read(lba, SimTime::from_secs(16))?.unwrap();
//! assert_eq!(restored.as_ref(), b"precious document");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod base;
mod config;
mod conventional;
mod error;
mod insider;
mod mapping;
mod recovery_queue;
mod stats;
mod traits;

pub use config::{FtlConfig, GcPolicy};
pub use conventional::ConventionalFtl;
pub use error::FtlError;
pub use insider::{InsiderFtl, RollbackReport};
pub use mapping::MappingTable;
pub use recovery_queue::{BackupEntry, RecoveryQueue};
pub use stats::{FtlStats, GcVictim, GcVictimKind, TaggedFtlStats};
pub use traits::Ftl;

/// Convenience result alias for FTL operations.
pub type Result<T> = std::result::Result<T, FtlError>;
