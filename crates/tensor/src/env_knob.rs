//! The one reader of this crate's environment knobs (`DTSNN_THREADS`,
//! `DTSNN_SIMD`): looked up once per process, parsed by the knob's own
//! grammar, and a malformed value warns once on stderr and counts as unset.

use std::sync::OnceLock;

/// One environment knob holding a `T`.
pub(crate) struct EnvKnob<T> {
    name: &'static str,
    /// Completes the warning `NAME="raw" is not …`.
    expected: &'static str,
    parse: fn(&str) -> Option<T>,
    cell: OnceLock<T>,
}

impl<T: Copy> EnvKnob<T> {
    pub(crate) const fn new(
        name: &'static str,
        expected: &'static str,
        parse: fn(&str) -> Option<T>,
    ) -> Self {
        EnvKnob { name, expected, parse, cell: OnceLock::new() }
    }

    /// The knob's value, or `default()` when the variable is unset or
    /// malformed. Only the first call reads the environment (and can warn)
    /// or runs `default`; the outcome is cached.
    pub(crate) fn get_or(&self, default: impl FnOnce() -> T) -> T {
        *self.cell.get_or_init(|| {
            self.resolve(std::env::var(self.name).ok().as_deref()).unwrap_or_else(default)
        })
    }

    /// What a lookup that returned `raw` resolves to; `None` takes the default.
    fn resolve(&self, raw: Option<&str>) -> Option<T> {
        let raw = raw?;
        let value = (self.parse)(raw);
        if value.is_none() {
            eprintln!("dtsnn: warning: {}={raw:?} is not {}", self.name, self.expected);
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use crate::parallel::ENV_THREADS;
    use crate::simd::{SimdLevel, ENV_LEVEL};

    #[test]
    fn knobs_parse_their_grammar_and_read_malformed_values_as_unset() {
        // `get_or` reads the environment once per process, so the grammar
        // is pinned on `resolve`, the step behind the lookup.
        assert_eq!(ENV_THREADS.resolve(None), None);
        for (raw, want) in [
            ("4", Some(4)),
            ("  8  ", Some(8)),
            ("0", Some(1)), // clamped
            ("100000", Some(crate::parallel::MAX_THREADS)),
            ("abc", None),
            ("", None),
            ("  ", None),
            ("1.5", None),
            ("-1", None),
            ("0x4", None),
            ("4 workers", None),
            ("٤", None),
        ] {
            assert_eq!(ENV_THREADS.resolve(Some(raw)), want, "DTSNN_THREADS={raw:?}");
        }
        // the inner `None` is explicit auto dispatch
        assert_eq!(ENV_LEVEL.resolve(None), None);
        for (raw, want) in [
            ("auto", Some(None)),
            ("", Some(None)),
            ("off", Some(Some(SimdLevel::Scalar))),
            (" Scalar ", Some(Some(SimdLevel::Scalar))),
            ("none", Some(Some(SimdLevel::Scalar))),
            ("SSE2", Some(Some(SimdLevel::Scalar))), // the baseline is SSE2
            ("avx2", Some(Some(SimdLevel::Avx2))),
            ("avx512", Some(Some(SimdLevel::Avx512))),
            (" AVX512 ", Some(Some(SimdLevel::Avx512))),
            ("avx-512", None),
            ("avx512f", None),
            ("fast", None),
            ("1", None),
            ("sse 2", None),
        ] {
            assert_eq!(ENV_LEVEL.resolve(Some(raw)), want, "DTSNN_SIMD={raw:?}");
        }
    }
}
