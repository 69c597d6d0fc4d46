//! A stable, dependency-free byte hasher.

/// A hand-rolled streaming **FNV-1a** 64-bit hasher.
///
/// Unlike `std::collections::hash_map::DefaultHasher`, whose output is
/// randomized per process, this hash is a pure function of the bytes
/// fed to it — identical across runs, platforms, and builds — so its
/// digests are usable as *persistent* content-addressed keys (the
/// cross-request score cache, checkpoint fingerprints).
///
/// # Examples
///
/// ```
/// use rebert_netlist::StableHasher;
///
/// let mut h = StableHasher::new();
/// h.write(b"rebert");
/// let a = h.finish();
/// let mut h2 = StableHasher::new();
/// h2.write(b"rebert");
/// assert_eq!(a, h2.finish());
/// ```
///
/// A zero byte only multiplies the state by the FNV prime, so a run of
/// `k` zero bytes is one multiply by the prime's `k`-th power, applied
/// when the next non-zero byte (or [`StableHasher::finish`]) needs it.
/// The digest is the byte-at-a-time FNV-1a digest; data full of zeros,
/// such as the 0/1 tree codes that cone hashes cover, just hashes faster.
#[derive(Debug, Clone)]
pub struct StableHasher {
    /// The FNV-1a state before the pending zero bytes.
    state: u64,
    /// Zero bytes absorbed since `state` last changed.
    zeros: u64,
}

impl StableHasher {
    /// FNV-1a 64-bit offset basis.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a 64-bit prime.
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    /// `PRIME_POWS[k]` is `PRIME` to the `k`-th power (wrapping).
    const PRIME_POWS: [u64; 64] = {
        let mut pows = [1u64; 64];
        let mut k = 1;
        while k < 64 {
            pows[k] = pows[k - 1].wrapping_mul(Self::PRIME);
            k += 1;
        }
        pows
    };

    /// A hasher at the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Self::with_seed(Self::OFFSET)
    }

    /// A hasher starting from an arbitrary state — a cheap way to derive
    /// independent hash lanes over the same bytes.
    pub fn with_seed(seed: u64) -> Self {
        StableHasher {
            state: seed,
            zeros: 0,
        }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            if u64::from_ne_bytes(word.try_into().expect("eight bytes")) == 0 {
                self.zeros += 8;
            } else {
                self.absorb(word);
            }
        }
        self.absorb(words.remainder());
    }

    /// Absorbs a `u32` as little-endian bytes.
    pub fn write_u32(&mut self, v: u32) {
        match v {
            0 => self.zeros += 4,
            _ => self.absorb(&v.to_le_bytes()),
        }
    }

    /// Absorbs a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        match v {
            0 => self.zeros += 8,
            _ => self.absorb(&v.to_le_bytes()),
        }
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.settled()
    }

    /// One FNV-1a step per byte, with zero bytes left pending.
    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            if b == 0 {
                self.zeros += 1;
                continue;
            }
            if self.zeros > 0 {
                self.state = self.settled();
                self.zeros = 0;
            }
            self.state = (self.state ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// The state with the pending zero bytes applied.
    fn settled(&self) -> u64 {
        if self.zeros < 64 {
            return self
                .state
                .wrapping_mul(Self::PRIME_POWS[self.zeros as usize]);
        }
        // Square and multiply: PRIME^zeros in log(zeros) steps.
        let (mut pow, mut base, mut k) = (1u64, Self::PRIME, self.zeros);
        while k > 0 {
            if k & 1 == 1 {
                pow = pow.wrapping_mul(base);
            }
            base = base.wrapping_mul(base);
            k >>= 1;
        }
        self.state.wrapping_mul(pow)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-at-a-time FNV-1a, the digest the hasher must reproduce.
    fn reference(parts: &[&[u8]]) -> u64 {
        let mut h = StableHasher::OFFSET;
        for &b in parts.iter().copied().flatten() {
            h = (h ^ u64::from(b)).wrapping_mul(StableHasher::PRIME);
        }
        h
    }

    #[test]
    fn zero_runs_hash_like_single_bytes() {
        // Seeded byte strings, mostly zeros in runs of every length, cut
        // into pieces at random; each is written as bytes, `u32`s or
        // `u64`s, and finished midway.
        let mut x = 0x5eed_u64;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        for _ in 0..2_000 {
            let len = next(300) as usize;
            let zero_share = next(4);
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    if next(4) < zero_share {
                        0
                    } else {
                        next(256) as u8
                    }
                })
                .collect();
            let mut h = StableHasher::new();
            let mut at = 0;
            while at < len {
                let piece = (next(40) as usize).min(len - at);
                let part = &bytes[at..at + piece];
                match next(3) {
                    0 if piece >= 4 => {
                        h.write_u32(u32::from_le_bytes(part[..4].try_into().unwrap()));
                        at += 4;
                    }
                    1 if piece >= 8 => {
                        h.write_u64(u64::from_le_bytes(part[..8].try_into().unwrap()));
                        at += 8;
                    }
                    _ => {
                        h.write(part);
                        at += piece;
                    }
                }
                assert_eq!(h.finish(), reference(&[&bytes[..at]]), "{bytes:?} at {at}");
            }
            assert_eq!(h.finish(), reference(&[&bytes]));
        }
        // Runs far past the power table.
        for len in [63, 64, 65, 127, 128, 1000, 4096] {
            let zeros = vec![0u8; len];
            let mut h = StableHasher::new();
            h.write(&zeros);
            h.write(b"x");
            h.write(&zeros);
            assert_eq!(h.finish(), reference(&[&zeros, b"x", &zeros]), "{len}");
        }
    }
}
