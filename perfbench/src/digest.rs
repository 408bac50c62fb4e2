//! `sim_digest`: a 64-bit FNV-1a hash over a workload's deterministic
//! results. Two repetitions of one seed must give the same digest; a
//! speed-only change must leave it unchanged.

/// Incremental FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one integer in.
    pub fn u64(mut self, v: u64) -> Digest {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds one float in, bit for bit.
    pub fn f64(self, v: f64) -> Digest {
        self.u64(v.to_bits())
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_value_sensitive() {
        let a = Digest::default().u64(1).u64(2).finish();
        let b = Digest::default().u64(2).u64(1).finish();
        let c = Digest::default().u64(1).u64(2).finish();
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(
            Digest::default().f64(0.0).finish(),
            Digest::default().f64(-0.0).finish()
        );
    }
}
