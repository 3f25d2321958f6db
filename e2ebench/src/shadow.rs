//! Unique per-write payloads and the shadow map they are checked against.
//!
//! Every write carries a payload derived from `(seed, lba, version)`: a
//! 16-byte header naming the page and version, then filler. Benign filler
//! is low-entropy text; attack filler (versions with [`ATTACK_BIT`] set) is
//! random bytes, like ciphertext. Because the payload is a pure function of
//! its key, the shadow only stores the acknowledged version per page and
//! every read-back is compared byte for byte.

use crate::util::mix;
use bytes::Bytes;

/// Payload length of one page written by the device-level workloads.
pub const PAYLOAD_BYTES: usize = 64;

/// Version bit marking attacker (high-entropy) payloads.
pub const ATTACK_BIT: u32 = 1 << 31;

/// The payload of `version` of page `lba`.
pub fn payload(seed: u64, lba: u64, version: u32) -> Bytes {
    let mut b = vec![0u8; PAYLOAD_BYTES];
    fill(seed, lba, version, &mut b);
    Bytes::from(b)
}

fn fill(seed: u64, lba: u64, version: u32, b: &mut [u8]) {
    b[..8].copy_from_slice(&lba.to_le_bytes());
    b[8..12].copy_from_slice(&version.to_le_bytes());
    b[12..16].copy_from_slice(&(mix(seed) as u32).to_le_bytes());
    let mut state = mix(seed ^ lba.rotate_left(17) ^ (version as u64).rotate_left(41));
    const TEXT: &[u8; 16] = b"etaoin shrdlu.\n ";
    for chunk in b[16..].chunks_mut(8) {
        state = mix(state);
        let bytes = state.to_le_bytes();
        for (dst, src) in chunk.iter_mut().zip(bytes) {
            *dst = if version & ATTACK_BIT != 0 {
                src
            } else {
                TEXT[(src & 15) as usize]
            };
        }
    }
}

/// Whether `got` is exactly the payload of `version` of `lba` (`version`
/// 0 means the page was never written and must read back empty).
pub fn matches(seed: u64, lba: u64, version: u32, got: Option<&Bytes>) -> bool {
    match (version, got) {
        (0, None) => true,
        (0, Some(_)) | (_, None) => false,
        (v, Some(got)) => {
            let mut want = [0u8; PAYLOAD_BYTES];
            fill(seed, lba, v, &mut want);
            got.as_ref() == want
        }
    }
}

/// Acknowledged version of every logical page, plus an undo log of the
/// writes a rollback may revert.
#[derive(Debug, Clone)]
pub struct Shadow {
    seed: u64,
    versions: Vec<u32>,
    next_version: u32,
    undo: Vec<(u64, u64, u32)>,
}

impl Shadow {
    /// A shadow of `pages` never-written pages.
    pub fn new(seed: u64, pages: u64) -> Self {
        Shadow {
            seed,
            versions: vec![0; pages as usize],
            next_version: 1,
            undo: Vec::new(),
        }
    }

    /// Allocates fresh versions for an extent and returns its payloads.
    pub fn stage(&mut self, lba: u64, len: u64, attack: bool) -> (Vec<u32>, Vec<Bytes>) {
        let mut versions = Vec::with_capacity(len as usize);
        let mut data = Vec::with_capacity(len as usize);
        for i in 0..len {
            let mut v = self.next_version;
            self.next_version += 1;
            assert!(self.next_version < ATTACK_BIT, "version space exhausted");
            if attack {
                v |= ATTACK_BIT;
            }
            versions.push(v);
            data.push(payload(self.seed, lba + i, v));
        }
        (versions, data)
    }

    /// Records an acknowledged extent write. With `stamp`, the write is
    /// logged so [`rollback_to`](Self::rollback_to) can revert it.
    pub fn ack(&mut self, lba: u64, versions: &[u32], stamp: Option<u64>) {
        for (i, &v) in versions.iter().enumerate() {
            let page = lba as usize + i;
            if let Some(t) = stamp {
                self.undo.push((t, page as u64, self.versions[page]));
            }
            self.versions[page] = v;
        }
    }

    /// Reverts every logged write stamped at or after `cutoff_us`, newest
    /// first, and clears the log — the state the drive must roll back to.
    pub fn rollback_to(&mut self, cutoff_us: u64) {
        for &(t, page, prev) in self.undo.iter().rev() {
            if t >= cutoff_us {
                self.versions[page as usize] = prev;
            }
        }
        self.undo.clear();
    }

    /// Whether a read of `lba` returned the acknowledged payload.
    pub fn check(&self, lba: u64, got: Option<&Bytes>) -> bool {
        matches(self.seed, lba, self.versions[lba as usize], got)
    }

    /// Records an acknowledged trim of an extent.
    pub fn trim(&mut self, lba: u64, len: u64) {
        for page in lba..lba + len {
            self.versions[page as usize] = 0;
        }
    }

    /// Number of pages tracked.
    pub fn pages(&self) -> u64 {
        self.versions.len() as u64
    }
}
