//! `simd_gate`: no explicit SIMD, no local unsafe override.
//!
//! Two patterns fail the lint:
//!
//! * `core::arch` / `std::arch` paths, in any linted file. The bucket
//!   scans are written so LLVM autovectorizes them
//!   (`ltc_core::cell::scan_match`); an explicit SSE4.1 find-match was
//!   measured against that scan and lost at every bucket width, so vector
//!   intrinsics have no home in the workspace.
//! * `allow(unsafe_code)` — the file-level escape hatch from the crate's
//!   `#![deny(unsafe_code)]` — outside the `[unsafe_code] allow` files
//!   (the SPSC ring), which hold their own file-level allow. Anywhere
//!   else it would silently widen the unsafe surface without tripping
//!   `unsafe_allowlist` until real `unsafe` tokens appear.
//!
//! Deliberately not waivable: like `unsafe_allowlist`, the unsafe
//! allowlist in lint.toml is the only escape hatch.

use super::{ident_at, listed, path_at, push_at, Finding};
use crate::{Config, FileAnalysis};

pub fn check(fa: &FileAnalysis, config: &Config, out: &mut Vec<Finding>) {
    let unsafe_listed = listed(&config.unsafe_allow, &fa.rel);
    for pos in 0..fa.code.len() {
        // Arch-intrinsic paths. No exempt_at: a cfg-gated intrinsic is
        // still explicit vector code.
        if path_at(fa, pos, &["core", "::", "arch"]) || path_at(fa, pos, &["std", "::", "arch"]) {
            push_at(
                fa,
                out,
                pos,
                "simd_gate",
                "arch intrinsics in the workspace; write the scan so it \
                 autovectorizes instead (see `cell::scan_match`)"
                    .to_string(),
            );
        }
        // `allow ( unsafe_code )` — both `#![allow(...)]` and `#[allow(...)]`
        // reduce to this token run once delimiters are individual tokens.
        if !unsafe_listed
            && ident_at(fa, pos) == Some("allow")
            && path_at(fa, pos.saturating_add(1), &["(", "unsafe_code", ")"])
        {
            push_at(
                fa,
                out,
                pos,
                "simd_gate",
                "`allow(unsafe_code)` outside the `[unsafe_code] allow` files; the \
                 crate-level `deny(unsafe_code)` must not be overridden elsewhere"
                    .to_string(),
            );
        }
    }
}
