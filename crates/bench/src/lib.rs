//! Harness for the unified `parfaclo` runner.
//!
//! This crate owns the pieces that need visibility over every algorithm
//! crate at once:
//!
//! * [`registry`] — assembly of the full solver [`parfaclo_api::Registry`]
//!   (`standard_registry()`), the entry point for the CLI, the examples,
//!   the repository benchmark and the cross-crate conformance tests;
//! * [`runner`] — the engine behind the `parfaclo` binary: `--gen` spec
//!   parsing, instance construction, solver dispatch, JSON emission;
//! * the `parfaclo` binary itself (`src/bin/parfaclo.rs`), which replaces
//!   the ten historical `exp_e*` experiment binaries with one driver
//!   (`run` / `suite` / `ablation` / `list`) emitting a single JSON run
//!   schema for every experiment;
//! * the [`Table`] plain-text printer and the SIGPIPE helper shared by
//!   the binary and the examples.
//!
//! Everything is deterministic given the seeds passed on the command line,
//! so any experiment table can be reproduced exactly from its JSON record's
//! `seed`/`epsilon`/generator fields.

#![warn(missing_docs)]

pub mod bench;
pub mod registry;
pub mod runner;

pub use registry::standard_registry;

/// Restores the default SIGPIPE disposition so piping a binary into
/// `head`/`grep` terminates it quietly instead of panicking on a
/// broken-pipe write (Rust installs SIG_IGN before `main`). Call first
/// thing in `main` of every CLI/example binary.
#[cfg(unix)]
pub fn reset_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

/// No-op on non-unix targets.
#[cfg(not(unix))]
pub fn reset_sigpipe() {}

/// A fixed-width plain-text table printer used by every experiment binary.
pub struct Table {
    headers: Vec<String>,
    widths: Vec<usize>,
}

impl Table {
    /// Creates a table with the given column headers and prints the header row.
    pub fn new(headers: &[&str]) -> Self {
        let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(10)).collect();
        let t = Table { headers, widths };
        t.print_header();
        t
    }

    fn print_header(&self) {
        let cells: Vec<String> = self
            .headers
            .iter()
            .zip(&self.widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("{}", cells.join("  "));
        println!("{}", "-".repeat(cells.join("  ").len()));
    }

    /// Prints one row; the number of cells must match the number of headers.
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        let cells: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", cells.join("  "));
    }
}
