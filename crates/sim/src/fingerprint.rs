//! Content-addressed fingerprints for memoizing simulation results.
//!
//! The simulator is deterministic by construction: a [`RunResult`] is a
//! pure function of the binary and the complete workload specification
//! (system configuration, benchmark parameters, observability settings).
//! That purity makes results *content-addressable* — hash the inputs,
//! key a cache with the hash, and a re-run of an unchanged cell is a
//! lookup instead of a simulation. This module provides the two halves
//! of the key:
//!
//! - **Cell fingerprint** — [`hash_bytes`] of a canonical serialization
//!   of every behavior-affecting input, folded into a 128-bit
//!   [`Fingerprint`]. The workloads crate hashes its `WorkloadSpec`'s
//!   canonical JSON (`asap_workloads::resultjson`), the same text every
//!   cache file stores under `"spec"`; this module only hashes bytes.
//! - **Build fingerprint** — a hash of the running executable's bytes
//!   ([`build_fingerprint`]). Any recompile — new code, new flags, new
//!   toolchain — changes the executable and thereby invalidates every
//!   persistent cache entry automatically. There is no schema version
//!   to bump and therefore none to forget.
//!
//! The hash is the same dependency-free multiply-xor fold the simulator
//! uses for its address-keyed maps (`asap_pmem::hash`), widened to 128
//! bits by running two independently-parameterized 64-bit folds over
//! the same bytes. It is seed-free and stable across processes — a
//! fingerprint computed today matches one computed tomorrow by the same
//! binary, which is exactly what a persistent cache requires. It is not
//! cryptographic; the threat model is accidental collision between a
//! few thousand cache cells, not an adversary.
//!
//! [`RunResult`]: ../../asap_workloads/driver/struct.RunResult.html

use std::fmt;
use std::io::Read;
use std::sync::OnceLock;

/// Fibonacci multiplier of the simulator's address hasher (lane 0).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
/// Second independent odd multiplier (lane 1): the 64-bit golden-ratio
/// constant of splitmix64's increment, unrelated to [`FIB`]'s usage here.
const FIB2: u64 = 0xBF58_476D_1CE4_E5B9;
/// Distinct lane-1 seed so the two lanes differ even on empty input.
const LANE1_SEED: u64 = 0x94D0_49BB_1331_11EB;

/// A 128-bit content fingerprint: two independent 64-bit multiply-xor
/// lanes over the same byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u64; 2]);

impl Fingerprint {
    /// The fingerprint as 32 lowercase hex characters (filename-safe).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// One multiply-xor lane over 8-byte words (zero-padded tail), finished
/// with an avalanche fold. The length is folded in first so streams that
/// differ only by trailing zero bytes hash differently.
fn lane(bytes: &[u8], seed: u64, mult: u64) -> u64 {
    let mut h = (seed ^ bytes.len() as u64).wrapping_mul(mult);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(mult);
        h ^= h >> 29;
    }
    h ^ (h >> 32)
}

/// Hashes a byte slice into a [`Fingerprint`] (two independent lanes).
pub fn hash_bytes(bytes: &[u8]) -> Fingerprint {
    Fingerprint([lane(bytes, 0, FIB), lane(bytes, LANE1_SEED, FIB2)])
}

/// The build fingerprint: a hash of the running executable's bytes,
/// computed once per process. Returns `None` when the executable cannot
/// be located or read (callers should then disable persistent caching
/// rather than risk serving results from a different binary).
pub fn build_fingerprint() -> Option<Fingerprint> {
    static BUILD: OnceLock<Option<Fingerprint>> = OnceLock::new();
    *BUILD.get_or_init(|| {
        let exe = std::env::current_exe().ok()?;
        let mut f = std::fs::File::open(exe).ok()?;
        // Stream in 1MB chunks: executables are tens of MB and this runs
        // once; two rolling lanes keep memory flat.
        let mut l0 = FIB;
        let mut l1 = LANE1_SEED;
        let mut total = 0u64;
        let mut buf = vec![0u8; 1 << 20];
        loop {
            let n = f.read(&mut buf).ok()?;
            if n == 0 {
                break;
            }
            total += n as u64;
            let fp = hash_bytes(&buf[..n]);
            l0 = (l0 ^ fp.0[0]).wrapping_mul(FIB);
            l1 = (l1 ^ fp.0[1]).wrapping_mul(FIB2);
        }
        l0 ^= total;
        l1 ^= total.rotate_left(32);
        Some(Fingerprint([l0 ^ (l0 >> 32), l1 ^ (l1 >> 32)]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_is_32_lowercase_chars() {
        let fp = hash_bytes(b"hello");
        let hex = fp.hex();
        assert_eq!(hex.len(), 32);
        assert!(hex
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert_eq!(fp.to_string(), hex);
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        assert_eq!(hash_bytes(b"abc"), hash_bytes(b"abc"));
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        // Trailing zero bytes must matter (length is folded in).
        assert_ne!(hash_bytes(b"x"), hash_bytes(b"x\0"));
        assert_ne!(hash_bytes(b"x\0"), hash_bytes(b"x\0\0"));
        // The two lanes are independently parameterized.
        let fp = hash_bytes(b"lanes");
        assert_ne!(fp.0[0], fp.0[1]);
    }

    #[test]
    fn build_fingerprint_is_cached_and_stable() {
        let a = build_fingerprint();
        let b = build_fingerprint();
        assert_eq!(a, b);
        // In a test binary the executable is always readable.
        assert!(a.is_some());
    }
}
