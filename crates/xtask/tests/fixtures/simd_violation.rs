//! Seeded simd_gate violations. An arch-intrinsic path fires in any file,
//! a file-level `allow(unsafe_code)` in any file off `[unsafe_code] allow`;
//! the decoys below must stay silent.
#![allow(unsafe_code)]

use core::arch::x86_64::_mm_set1_epi64x;

pub fn splat(x: i64) {
    let _ = x;
    // core::arch named in a comment — silent
}

pub mod arch {
    /// A module merely *named* arch is not `core::arch` — silent.
    pub fn noop() {}
}

#[allow(dead_code)] // a different allow() — silent
fn decoy() {
    let s = "core::arch inside a string stays silent";
    let _ = s;
}
