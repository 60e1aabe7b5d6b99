//! Evasion corpus: every "violation" in this file is hidden somewhere
//! the token-tree rules must not look — string literals, raw strings,
//! comments, doc text, macro names that merely *resemble* banned calls,
//! and `#[cfg(test)]` items. A substring-matching linter flags most of
//! these; the syntax-aware engine must report this file clean under
//! every rule at once (hot-path + orderings + failpoints + atomic_io +
//! obs call-site).

// Comment bait: .unwrap() panic!("x") Ordering::Relaxed fail_point!("y")
/* Block-comment bait: File::create(p), self.freq += 1, slots[i],
   unsafe { *p }, Mutex::new(()).lock(), Ordering::SeqCst */
/* Nested /* comment: still inside — .expect("x") fs::write(p, b) */ ok */

/// Doc bait: call `.unwrap()` or `panic!`, hold `Ordering::Relaxed`,
/// write via `File::create`, bump `freq += 1`, index `slots[i]`.
pub const STRING_BAIT: &str = ".unwrap() panic!(now) Ordering::Relaxed freq += 1";

pub const RAW_BAIT: &str = r#"fail_point!("in a string"); File::create(path); slots[i]"#;

pub const DEEP_RAW_BAIT: &str = r##"still a "string"# with .expect("data") inside"##;

pub const BYTE_BAIT: &[u8] = b"unsafe { *p } OpenOptions::new() Ordering::SeqCst";

pub const CHAR_BAIT: char = '[';

pub fn lookalike_macros(v: &[u64]) -> u64 {
    // `unwrap!`/`expect!` are macros, not the banned methods; a path
    // segment named `failpoints` is not the `failpoint::` facility.
    let total: u64 = v.iter().copied().sum();
    let _site = concat!("fail", "_point");
    total
}

#[cfg(test)]
mod tests {
    // Everything here is cfg(test)-exempt however it is formatted.
    #[test]
    fn exercised_only_under_test() {
        let v: Option<u64> = Some(1);
        assert_eq!(v.unwrap(), 1);
        let x = vec![1u64, 2, 3];
        assert_eq!(x[0], 1);
        let s = std::sync::Mutex::new(0u64);
        *s.lock().expect("poisoned") += 1;
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod failpoint_tests {
    #[test]
    fn gated_both_ways() {
        fail_point!("only.in.tests");
    }
}
