//! Shared helpers for the figure-regeneration harnesses.
//!
//! Every bench target regenerates one table/figure of the paper (see
//! `EXPERIMENTS.md`). Harness scale can be adjusted through environment
//! variables without recompiling:
//!
//! * `DEAR_FRAMES` — frames per brake-assistant instance (Figure 5
//!   defaults to 20 000; the paper used 100 000);
//! * `DEAR_INSTANCES` — experiment instances (default 20, as the paper);
//! * `DEAR_TRIALS` — Figure 1 trials (default 10 000).

#![forbid(unsafe_code)]

/// Reads a `u64` environment variable with a default.
#[must_use]
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Renders a unicode bar of width proportional to `value / max`.
#[must_use]
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let filled = ((value / max) * width as f64).round() as usize;
    "█".repeat(filled.min(width))
}

/// Prints a section header in the style shared by all harnesses.
pub fn header(title: &str) {
    println!();
    println!("==========================================================================");
    println!("{title}");
    println!("==========================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_u64_parses_and_defaults() {
        std::env::remove_var("DEAR_TEST_VAR_X");
        assert_eq!(env_u64("DEAR_TEST_VAR_X", 7), 7);
        std::env::set_var("DEAR_TEST_VAR_X", "123");
        assert_eq!(env_u64("DEAR_TEST_VAR_X", 7), 123);
        std::env::set_var("DEAR_TEST_VAR_X", "not-a-number");
        assert_eq!(env_u64("DEAR_TEST_VAR_X", 7), 7);
        std::env::remove_var("DEAR_TEST_VAR_X");
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10).chars().count(), 5);
        assert_eq!(bar(10.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
